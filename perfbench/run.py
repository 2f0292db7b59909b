"""qverify benchmark: the command BENCHMARK.json runs.

    python3 perfbench/run.py --workload {builtin,catalog60,high_order}
                             --seed N --seconds S --trace {0,1}

Generates the workload from the seed as `.qid` text (see `workloads.py`),
then runs it in fresh child interpreters (`child.py`), one per repetition,
each verifying the whole suite with `jobs=1`.  Every verdict is checked
(`verdicts.py`).  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics: set-up probes, then untraced
repetitions while the next one should end within `--seconds` (at least
one).  Times are scaled to a reference machine speed (`calibration.py`).
`--trace 1` runs one untraced and one traced repetition and reports the
per-layer metrics, including the tracing overhead.  Spans of the traced
repetition are written to `.perfbench_out/` in the working directory.

Exits 2 without a result when the qverify sources are not next to the
benchmark (`src/qverify`), and 1 when no repetition completed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# modules next to this script, which is on sys.path
from calibration import REFERENCE_KERNEL_S, kernel
from verdicts import check_run
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT_DIR = Path(".perfbench_out")

#: set-up-only children per run, on top of the set-up of each repetition
SETUP_PROBES = 9
#: a run starts no child after this long and stops any still running (a run
#: must end within 180 s)
RUN_DEADLINE_S = 150.0


class ChildFailed(Exception):
    pass


def run_child(text: str, timeout: float, *flags) -> dict:
    """Run one child and return its result, with its unscaled set-up time
    and the median kernel time around set-up (parent sample before spawn,
    child samples at start and at dispatch) added."""
    before = kernel()
    spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *flags], input=text,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"exit code {proc.returncode}: {tail[0]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["dispatch"] - spawn - res["setup_paused"]
    res["setup_cal"] = statistics.median([before, *res["cal"][:2]])
    res["cal"].append(before)
    return res


def environment() -> dict:
    from qverify.cyclotomic import Rat

    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {
        "python": platform.python_version(),
        "rat_backend": "Fraction" if Rat.__module__ == "fractions" else Rat.__module__,
        "sympy": sympy,
        "nproc": len(os.sched_getaffinity(0)),
    }


def scaled(res) -> list:
    """A repetition's identity times in seconds at the reference speed."""
    return [r["seconds"] * REFERENCE_KERNEL_S / r["cal"] for r in res["reports"]]


def percentile(samples, p):
    """Nearest-rank percentile and the number of samples above it."""
    s = sorted(samples)
    k = max(0, math.ceil(p / 100 * len(s)) - 1)
    return s[k], len(s) - k - 1


class Run:
    """Repetitions of one workload and the verdict checks on them."""

    def __init__(self, wl, deadline):
        self.wl = wl
        self.deadline = deadline
        self.attempted = 0
        self.problems = []  # (repetition, identity, reason)
        self.reference = None  # deterministic fields of the first repetition
        self.results = []

    def timeout(self):
        return max(1.0, self.deadline - time.perf_counter())

    def repetition(self, *flags):
        """One child verifying the whole workload; None if it failed."""
        n = len(self.wl.expected)
        self.attempted += n
        rep_no = len(self.results) + 1
        try:
            res = run_child(self.wl.text, self.timeout(), *flags)
        except ChildFailed as exc:
            self.problems.extend((rep_no, name, str(exc)) for name in self.wl.expected)
            self.results.append(None)
            return None
        reports = [r["report"] for r in res["reports"]]
        self.problems.extend((rep_no, name, why)
                             for name, why in check_run(reports, self.wl.expected))
        det = json.dumps(reports, sort_keys=True)  # no timings in reports
        if self.reference is None:
            self.reference = det
        elif det != self.reference:
            self.problems.append((rep_no, "*", "report fields differ from repetition 1"))
        self.results.append(res)
        return res

    @property
    def ok(self):
        return [r for r in self.results if r is not None]


def end_to_end(run: Run, seconds: float) -> dict:
    """Set-up probes, then repetitions while the next should end within
    `seconds`.  Every time is scaled to the reference speed
    (`calibration.py`)."""
    start = time.perf_counter()
    probes = []
    for _ in range(SETUP_PROBES):
        try:
            probes.append(run_child(run.wl.text, run.timeout(), "--setup-only"))
        except ChildFailed as exc:
            print(f"set-up probe failed: {exc}")
    while time.perf_counter() < run.deadline:
        t = time.perf_counter()
        if run.repetition() is None:
            break
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    ok = run.ok
    if not ok:
        return {}
    setup = [res["setup_s"] * REFERENCE_KERNEL_S / res["setup_cal"]
             for res in probes + ok]
    ident = [scaled(res) for res in ok]
    cal = sorted(c for res in probes + ok for c in res["cal"])
    pooled_ms = [t * 1000 for rep in ident for t in rep]
    p50, _ = percentile(pooled_ms, 50)
    p90, above = percentile(pooled_ms, 90)
    raw = ", ".join(f"{sum(r['seconds'] for r in res['reports']):.3f}" for res in ok)
    print(f"repetitions {len(ok)} (unscaled suite {raw} s); set-up samples "
          f"{len(setup)}; identity samples {len(pooled_ms)}, {above} above p90; "
          f"kernel fastest {cal[0] * 1000:.3f} ms, median "
          f"{statistics.median(cal) * 1000:.3f} ms")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "suite_s": (statistics.median(sum(rep) for rep in ident), "s"),
        "identity_ms_p50": (p50, "ms"),
        "identity_ms_p90": (p90, "ms"),
        # the slowest identity, each identity taken at its fastest repetition
        "identity_ms_max": (max(min(col) for col in zip(*ident)) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in ok), "MB"),
    }


def per_layer(run: Run) -> dict:
    plain = run.repetition()
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{run.wl.name}-{run.wl.seed}.jsonl"
    traced = run.repetition("--trace", str(spans))
    if plain is None or traced is None:
        return {}
    out = dict(traced["layers"])
    out["dsl.parse_s"] = (traced["parse_s"], "s")
    plain_s, traced_s = sum(scaled(plain)), sum(scaled(traced))
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    print(f"scaled suite untraced {plain_s:.3f} s, traced {traced_s:.3f} s; "
          f"spans in {spans}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (SRC / "qverify" / "__init__.py").is_file():
        print(f"error: qverify sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qverify.catalog import CATALOG

    wl = generate(args.workload, args.seed, SRC, CATALOG)
    planted = {name: [p.expo, str(p.coeff)] for name, p in wl.expected.items() if p}
    print(json.dumps({"workload": wl.name, "seed": wl.seed, "input_sha256": wl.sha256,
                      "identities": len(wl.expected), "planted": planted,
                      "environment": environment()}))

    run = Run(wl, deadline)
    metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)

    for rep_no, name, why in run.problems:
        print(f"WRONG repetition {rep_no} {name}: {why}")
    failed = len(run.problems)
    print(f"failed_share {failed / run.attempted:.4f} "
          f"({failed} of {run.attempted} verdicts attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
