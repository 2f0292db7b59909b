"""Command-line identity verifier.

Verifies q-series identities written in the DSL (see `qverify.dsl`) by
exact coefficient comparison.  Sources are identity files (`--file`,
repeatable) and/or the representation cross-checks generated from the
builtin function catalog (`--catalog`); with no source flags the shipped
builtin identity suite is run.

Exit status: 0 if every selected identity passes, 1 if any fails,
2 on a parse or evaluation error.
"""

from __future__ import annotations

import argparse
import fnmatch
import sys
from importlib import resources

from .catalog import CATALOG
from .dsl import CatalogRef, IdentityRecord, parse_identities
from .errors import ParseError, QVerifyError
from .runner import (DEFAULT_ORDER, run_suite, reports_to_json,
                     suite_exit_code)

__all__ = ["main", "build_parser", "catalog_records", "builtin_records"]


def _positive_int(text) -> int:
    """argparse type of ``--order``: a comparison order must be positive,
    as an ``order`` clause in a ``.qid`` file must."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n <= 0:
        raise argparse.ArgumentTypeError(f"order must be positive, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qverify",
        description="Verify q-series identities by exact coefficient "
                    "comparison of truncated series.",
    )
    p.add_argument("--order", type=_positive_int, default=None, metavar="N",
                   help="comparison order in powers of q; overrides any "
                        f"per-identity order (default {DEFAULT_ORDER})")
    p.add_argument("--file", action="append", default=[], metavar="PATH",
                   help="identity file to verify (repeatable)")
    p.add_argument("--catalog", action="store_true",
                   help="verify every catalog function against each of its "
                        "closed-form representations")
    p.add_argument("--name", default=None, metavar="GLOB",
                   help="only verify identities whose name matches the glob")
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="number of parallel worker processes (default 1)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the reports as a JSON array to PATH")
    p.add_argument("--list", action="store_true",
                   help="list the selected identity names without verifying")
    return p


def catalog_records():
    """One identity per catalog representation: Eulerian form vs repr[i]."""
    records = []
    for name, entry in CATALOG.items():
        for i in range(len(entry.representations)):
            records.append(IdentityRecord(
                name=f"{name}.repr{i}",
                order_override=None,
                lhs=CatalogRef(name),
                rhs=CatalogRef(name, i),
                tags=("catalog",),
            ))
    return records


def builtin_records():
    text = resources.files("qverify").joinpath("data/builtin.qid").read_text()
    return parse_identities(text)


def _collect(args):
    records = []
    for path in args.file:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None
        try:
            records.extend(parse_identities(text))
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if args.catalog:
        records.extend(catalog_records())
    if not args.file and not args.catalog:
        records.extend(builtin_records())
    if args.name is not None:
        records = [r for r in records
                   if fnmatch.fnmatchcase(r.name, args.name)]
    return records


def _print_report(rep, width):
    line = f"{rep.status:<6s} {rep.name:<{width}s} order={rep.order:<5d}"
    if rep.status == "fail":
        line += (f" first mismatch at q^({rep.first_mismatch}): "
                 f"lhs {rep.to_dict()['lhs_coeff']}, "
                 f"rhs {rep.to_dict()['rhs_coeff']}")
    elif rep.status == "error":
        line += f" {rep.message}"
    else:
        line += f" {rep.ms} ms"
    print(line, flush=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records = _collect(args)
    except QVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list:
        for r in records:
            print(r.name)
        return 0

    if not records:
        print("warning: no identities selected", file=sys.stderr)
        return 0

    width = max(len(r.name) for r in records)
    try:
        reports = run_suite(records, force_order=args.order, jobs=args.jobs,
                            progress=lambda rep: _print_report(rep, width))
    except QVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    counts = {"pass": 0, "fail": 0, "error": 0}
    for rep in reports:
        counts[rep.status] += 1
    summary = f"{len(reports)} identities: {counts['pass']} pass"
    if counts["fail"]:
        summary += f", {counts['fail']} fail"
    if counts["error"]:
        summary += f", {counts['error']} error"
    print(summary)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports))

    return suite_exit_code(reports)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
