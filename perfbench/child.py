"""One benchmark repetition in a fresh interpreter.

Reads `.qid` text on stdin, parses it and verifies it with
`qverify.runner.run_suite(jobs=1)`, the path `qverify --file` takes, then
prints one JSON object on stdout.  A fresh process per repetition gives
every repetition the cold `lru_cache`s a command-line user starts with.

    python3 perfbench/child.py [--setup-only] [--trace SPANS_PATH] < suite.qid

`dispatch` is a `time.perf_counter()` reading (CLOCK_MONOTONIC on Linux, so
the parent can compare it with its own clock).  Each identity is timed on
its own, together with the median calibration-kernel time around and during
it (`calibration.py`); `cal` lists every kernel sample of the child.  The
traced child samples only between identities, so no sampling lands inside
a span.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the suite is parsed and ready to dispatch")
    ap.add_argument("--trace", metavar="SPANS_PATH", default=None,
                    help="record per-layer spans and write them to SPANS_PATH")
    args = ap.parse_args()

    from calibration import Gauge

    gauge = Gauge()
    gauge.sample()  # the speed during set-up: here and at dispatch

    import qverify  # noqa: F401  (import cost belongs to set-up)
    from qverify.dsl import parse_identities
    from qverify.runner import run_suite

    text = sys.stdin.read()
    t0 = time.perf_counter()
    records = parse_identities(text)
    parse_s = time.perf_counter() - t0
    dispatch = time.perf_counter()
    setup_paused = gauge.paused
    gauge.sample()
    if args.setup_only:
        print(json.dumps({"dispatch": dispatch, "setup_paused": setup_paused,
                          "parse_s": parse_s, "cal": gauge.samples}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer  # next to this script, so on sys.path

        tracer = Tracer()
        tracer.install()
    else:
        gauge.start()

    # identity i is timed from mark i to mark i + 1, less the time spent
    # sampling; its speed is the median of the samples from mark to mark
    # (a sample the OS interrupted reads slow)
    timings = []
    mark = (time.perf_counter(), gauge.paused, 1)
    alarm = {signal.SIGALRM}

    def progress(rep):
        nonlocal mark
        signal.pthread_sigmask(signal.SIG_BLOCK, alarm)
        now, paused = time.perf_counter(), gauge.paused
        gauge.sample()
        start, start_paused, first = mark
        timings.append((now - start - (paused - start_paused),
                        statistics.median(gauge.samples[first:])))
        mark = (time.perf_counter(), gauge.paused, len(gauge.samples) - 1)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, alarm)

    reports = run_suite(records, jobs=1, progress=progress)
    gauge.stop()

    out = {"dispatch": dispatch, "setup_paused": setup_paused,
           "parse_s": parse_s, "cal": gauge.samples,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "reports": []}
    for rep, (sec, cal) in zip(reports, timings):
        d = rep.to_dict()
        del d["ms"]
        out["reports"].append({"report": d, "seconds": sec, "cal": cal})
    if tracer is not None:
        out["layers"] = tracer.metrics(len(records))
        tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
