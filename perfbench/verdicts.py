"""Verdict checker for generated workloads.

An unplanted identity must `pass`.  A planted identity must `fail` with
`first_mismatch` equal to the planted exponent, and where both reported
coefficients are rational, rhs - lhs must equal the planted coefficient.
A missing report (timeout, crashed child) or an `error` is a failure too.
"""

from __future__ import annotations

from fractions import Fraction


def _rational(text):
    """The coefficient as a Fraction, or None when it is not rational."""
    try:
        return Fraction(text)
    except (TypeError, ValueError):
        return None


def check_report(report: dict, plant) -> str | None:
    """None if the report is right for the plant (None: must pass), else why."""
    status = report.get("status")
    if plant is None:
        if status == "pass":
            return None
        return f"expected pass, got {status}: {report.get('message') or report.get('first_mismatch')}"
    if status != "fail":
        return f"planted c*q^{plant.expo} not caught: got {status}"
    at = _rational(report.get("first_mismatch"))
    if at != plant.expo:
        return f"planted at q^{plant.expo}, first mismatch reported at q^{report.get('first_mismatch')}"
    lhs, rhs = _rational(report.get("lhs_coeff")), _rational(report.get("rhs_coeff"))
    if lhs is not None and rhs is not None and rhs - lhs != plant.coeff:
        return f"rhs - lhs = {rhs - lhs} at q^{plant.expo}, planted {plant.coeff}"
    return None


def check_run(reports: list, expected: dict) -> list:
    """Problems of one repetition as (identity name, reason) pairs.

    `reports` are report dicts in suite order; `expected` maps every
    identity name to its plant (or None).  Identities without a report
    count as failed.
    """
    problems = []
    seen = set()
    for rep in reports:
        name = rep.get("name")
        seen.add(name)
        if name not in expected:
            problems.append((name, "report for an identity not in the workload"))
            continue
        why = check_report(rep, expected[name])
        if why is not None:
            problems.append((name, why))
    problems.extend((name, "no report") for name in expected if name not in seen)
    return problems

