"""Tests of the benchmark itself: generator, verdict checker, tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from qverify.catalog import CATALOG  # noqa: E402
from qverify.dsl import parse_identities  # noqa: E402
from qverify.runner import run_suite  # noqa: E402
from tracing import CACHED, TIMED, self_times  # noqa: E402
from verdicts import check_report, check_run  # noqa: E402
from workloads import (WORKLOADS, Identity, Plant, builtin_identities,  # noqa: E402
                       generate, render)

SMALL_ORDER = 30
# cheap at SMALL_ORDER, and covering theta, Appell-Lerch, Hecke, catalog
# and a fractional exponent grid
SMALL_NAMES = ("kp522", "f121_sixth_order", "f0_conjecture_m", "f0_hecke_radial",
               "phi_10th_hecke", "theta34_radial_collapse", "string_level1_20")


def small_suite():
    idents = {i.name: i for i in builtin_identities(SRC)}
    picked = [Identity(n, SMALL_ORDER, idents[n].lhs, idents[n].rhs) for n in SMALL_NAMES]
    picked.append(Identity("chi_3rd_repr0", SMALL_ORDER, 'catalog("chi_3rd")',
                           'catalog("chi_3rd").repr[0]'))
    return picked


def verify(idents, expected):
    text = "".join(render(i, expected[i.name]) for i in idents)
    return [r.to_dict() for r in run_suite(parse_identities(text), jobs=1)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = generate(workload, 7, SRC, CATALOG)
    b = generate(workload, 7, SRC, CATALOG)
    assert a.text == b.text and a.expected == b.expected and a.sha256 == b.sha256
    planted = [p for p in a.expected.values() if p is not None]
    assert len(planted) == max(1, round(len(a.expected) / 8))
    assert all(p.coeff != 0 for p in planted)
    others = [generate(workload, s, SRC, CATALOG).sha256 for s in range(8, 12)]
    assert a.sha256 not in others


def test_workload_sizes():
    sizes = {w: len(generate(w, 1, SRC, CATALOG).expected) for w in WORKLOADS}
    assert sizes == {"builtin": 22, "catalog60": 104, "high_order": 21}
    text = generate("high_order", 1, SRC, CATALOG).text
    assert "master_expansion_11" not in text and text.count("order 200 {") == 21


def test_generated_text_parses_to_the_planted_rhs():
    wl = generate("builtin", 3, SRC, CATALOG)
    records = parse_identities(wl.text)
    assert [r.name for r in records] == list(wl.expected)
    assert {r.order_override for r in records} == {100}


def test_planted_identities_fail_at_their_exponent():
    idents = small_suite()
    rng = random.Random(5)
    expected = {i.name: Plant(rng.randrange(SMALL_ORDER),
                              Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                                       rng.randint(1, 9)))
                for i in idents}
    reports = verify(idents, expected)
    assert check_run(reports, expected) == []
    assert all(r["status"] == "fail" for r in reports)


def test_unplanted_identities_pass():
    idents = small_suite()
    expected = {i.name: None for i in idents}
    reports = verify(idents, expected)
    assert check_run(reports, expected) == []


def test_checker_rejects_wrong_verdicts():
    plant = Plant(5, Fraction(-3, 2))
    good = {"name": "x", "status": "fail", "first_mismatch": "5",
            "lhs_coeff": "1", "rhs_coeff": "-1/2"}
    assert check_report(good, plant) is None
    assert check_report({"name": "x", "status": "pass"}, plant) is not None
    assert check_report(dict(good, first_mismatch="4"), plant) is not None
    assert check_report(dict(good, rhs_coeff="1/2"), plant) is not None
    # a coefficient outside Q skips only the difference check
    assert check_report(dict(good, lhs_coeff="zeta(1,3)"), plant) is None
    assert check_report({"name": "x", "status": "error", "message": "boom"}, None)
    assert check_report(good, None) is not None
    assert check_run([], {"x": None}) == [("x", "no report")]


def test_self_time_on_a_synthetic_span_tree():
    #  a [0,10] > b [1,4], c [5,9] > d [6,7];  e [11,12] is a second root
    names = ["a", "b", "c", "d", "e"]
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 7.0, 12.0]
    parents = [-1, 0, 0, 2, -1]
    assert self_times(names, starts, ends, parents) == {
        "a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0, "e": 1.0}
    # overlapping children are covered once; a recursive name sums its spans
    got = self_times(["r", "r", "r"], [0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])
    assert got == {"r": 5.0 + 3.0 + 3.0}


def test_traced_child_reports_every_layer_and_same_verdicts(tmp_path):
    idents = small_suite()[:3]
    expected = {i.name: None for i in idents}
    expected[idents[0].name] = Plant(7, Fraction(2, 3))
    text = "".join(render(i, expected[i.name]) for i in idents)
    spans = tmp_path / "spans.jsonl"
    out = []
    for flags in ([], ["--trace", str(spans)]):
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *flags],
                              input=text, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    plain, traced = ([r["report"] for r in o["reports"]] for o in out)
    assert plain == traced
    assert check_run(traced, expected) == []
    layers = out[1]["layers"]
    for name in TIMED:
        assert f"{name}.calls" in layers and f"{name}.self_s" in layers
    for name in CACHED:
        assert 0 <= layers[f"{name}.hit_ratio"][0] <= 1
    assert layers["theta.jtheta.calls"][0] > 0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(rows) == sum(layers[f"{n}.calls"][0] for n in TIMED) + sum(
        1 for r in rows if r[0] == "dsl.eval")
