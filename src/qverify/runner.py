"""Identity verification runner.

Evaluates each side of an identity as an exact truncated series and compares
the two coefficient by coefficient below q^order.  Every evaluator head
sizes its windows from exact valuations and builds once, so a side normally
reaches the order in one evaluation.  The runner wraps each side in
``appell.eval_padded``, the one place a padding round is left: it re-runs
the side at a padded order when the expression around the heads (a quotient
by a series of negative valuation, say) leaves its sound window short.  A
``pass`` means every coefficient below q^order agrees exactly; a ``fail``
reports the smallest mismatching exponent together with the two
coefficients; an ``error`` captures any evaluation problem (poles, division
by zero, bad arguments, a side whose window cannot reach the order) as a
diagnostic instead of a crash.

Suites of identities run in input order; with ``jobs > 1`` the evaluations
are distributed over a process pool but reports keep the input order, so
two runs with the same inputs produce identical output apart from timing.
An identity the pool cannot deliver (its worker died, say) is an ``error``
naming the exception.  Each run starts with every series memo empty
(``series.clear_memos``), so one run's cached series never reach the next.
"""

from __future__ import annotations

import json
import time

from .appell import eval_padded
from .cyclotomic import coeff_str
from .errors import ParseError
from .series import QSeries, clear_memos
from .dsl import IdentityRecord, Immutable, eval_expr

__all__ = ["VerificationReport", "verify_identity", "run_suite",
           "reports_to_json", "DEFAULT_ORDER"]

DEFAULT_ORDER = 100


class VerificationReport(Immutable):
    # status: "pass" | "fail" | "error"; order: the requested comparison
    # order (q-units); first_mismatch: the exponent in q-units, an int when
    # integral and otherwise a Rat, or None; lhs_coeff and rhs_coeff: an
    # int (0 for an absent term), Rat or CycRat, or None; message: a str
    # for an error, else None
    __slots__ = ("name", "status", "order", "first_mismatch", "lhs_coeff", "rhs_coeff",
                 "ms", "message")
    _defaults = {"first_mismatch": None, "lhs_coeff": None, "rhs_coeff": None,
                 "ms": 0, "message": None}

    def to_dict(self):
        d = {
            "name": self.name,
            "status": self.status,
            "order": self.order,
            "first_mismatch": None if self.first_mismatch is None
            else str(self.first_mismatch),
            "lhs_coeff": None if self.lhs_coeff is None
            else coeff_str(self.lhs_coeff),
            "rhs_coeff": None if self.rhs_coeff is None
            else coeff_str(self.rhs_coeff),
            "ms": self.ms,
        }
        if self.message is not None:
            d["message"] = self.message
        return d


def effective_order(record: IdentityRecord, default_order=DEFAULT_ORDER,
                    force_order=None) -> int:
    """Resolve the comparison order: a run-wide override beats the record's
    own override, which beats the default."""
    if force_order is not None:
        return force_order
    if record.order_override is not None:
        return record.order_override
    return default_order


def verify_identity(record: IdentityRecord, default_order=DEFAULT_ORDER,
                    force_order=None) -> VerificationReport:
    order = effective_order(record, default_order, force_order)
    t0 = time.perf_counter()

    def done(status, first_mismatch=None, lhs_coeff=None, rhs_coeff=None, message=None):
        ms = int(round((time.perf_counter() - t0) * 1000))
        return VerificationReport(record.name, status, order, first_mismatch, lhs_coeff,
                                  rhs_coeff, ms, message)

    try:
        # each side is guarded on its own; both come back truncated to order
        lhs = eval_padded(lambda T: eval_expr(record.lhs, T), order)
        rhs = eval_padded(lambda T: eval_expr(record.rhs, T), order)
        diff = QSeries.first_difference(lhs, rhs)
    except Exception as exc:
        return done(status="error", message=_error_message(exc))
    if diff is None:
        return done(status="pass")
    e, ca, cb = diff
    return done(status="fail", first_mismatch=e, lhs_coeff=ca, rhs_coeff=cb)


def _error_message(exc) -> str:
    message = f"{type(exc).__name__}: {exc}"
    context = getattr(exc, "qverify_context", None)
    if context:
        message += f" [{context}]"
    return message


def _verify_star(args) -> VerificationReport:
    return verify_identity(*args)


def check_unique_names(records) -> None:
    seen = set()
    for r in records:
        if r.name in seen:
            raise ParseError(f"duplicate identity name {r.name!r}")
        seen.add(r.name)


def run_suite(records, default_order=DEFAULT_ORDER, force_order=None,
              jobs=1, progress=None):
    """Verify records in order; returns the list of reports (input order).
    The run starts with every series memo empty."""
    records = list(records)
    check_unique_names(records)
    clear_memos()
    reports = []
    if jobs and jobs > 1 and len(records) > 1:
        # imported here: it pulls in multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_verify_star, (r, default_order, force_order))
                       for r in records]
            for r, fut in zip(records, futures):
                try:
                    rep = fut.result()
                except Exception as exc:
                    rep = VerificationReport(
                        name=r.name, status="error",
                        order=effective_order(r, default_order, force_order),
                        message=_error_message(exc))
                reports.append(rep)
                if progress:
                    progress(rep)
    else:
        for r in records:
            rep = verify_identity(r, default_order, force_order)
            reports.append(rep)
            if progress:
                progress(rep)
    return reports


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def suite_exit_code(reports) -> int:
    if any(r.status == "error" for r in reports):
        return 2
    if any(r.status == "fail" for r in reports):
        return 1
    return 0
