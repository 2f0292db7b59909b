"""Runner and CLI tests: statuses, ordering, JSON, exit codes."""

import json
import multiprocessing
import os
import sys

import pytest

from qverify import appell, catalog, hecke, runner, theta
from qverify.cyclotomic import rat, zeta
from qverify.cli import builtin_records, catalog_records, main
from qverify.dsl import parse_identities
from qverify.errors import ParseError
from qverify.runner import (VerificationReport, check_unique_names,
                            effective_order, reports_to_json, run_suite,
                            suite_exit_code, verify_identity)
from qverify.series import QSeries, clear_memos, qmono

GOOD = 'identity good { lhs = 2*m(q, q^2, -1); rhs = 1; }'
BAD = ('identity bad { lhs = 2*m(q^2, q^6, -1) + 2*catalog("sigma_6th"); '
       'rhs = poch(-q; q^2; inf)^2 * poch(q^6; q^6; inf) '
       '* poch(-q^3; q^6; inf)^2 * (1 + q); }')
POLE = 'identity pole { lhs = m(q, q^2, q); rhs = 1; }'


def _rec(text):
    return parse_identities(text)[0]


def test_verify_pass():
    rep = verify_identity(_rec(GOOD), force_order=50)
    assert rep.status == "pass"
    assert rep.order == 50
    assert rep.first_mismatch is None and rep.lhs_coeff is None


def test_verify_fail_reports_first_mismatch():
    rep = verify_identity(_rec(BAD), force_order=30)
    assert rep.status == "fail"
    assert rep.first_mismatch == 1
    d = rep.to_dict()
    assert d["first_mismatch"] == "1"
    assert d["lhs_coeff"] == "2" and d["rhs_coeff"] == "3"


def test_verify_error_reports_diagnostic():
    rep = verify_identity(_rec(POLE), force_order=30)
    assert rep.status == "error"
    assert "GenericityError" in rep.message
    assert "m(q, q^2, q)" in rep.message


def test_window_padding_reaches_requested_order():
    # both sides have sound window 25 on a first evaluation at order 30;
    # the runner must pad until the planted mismatch at q^27 is visible
    rec = _rec('identity w { lhs = q^(-5)*Jm[1]; '
               'rhs = q^(-5)*Jm[1] + q^27; }')
    rep = verify_identity(rec, force_order=30)
    assert rep.status == "fail"
    assert rep.first_mismatch == 27


def test_catalog_substitution_reaches_requested_order():
    # q -> q^(1/10) needs the Eulerian series to order 200 for a window of
    # q^20; the planted mismatch at q^19 must be seen, never a shorter pass
    rec = _rec('identity s { lhs = catalog("f_3rd", q^(1/10)); '
               'rhs = catalog("f_3rd", q^(1/10)) + q^19; }')
    rep = verify_identity(rec, force_order=20)
    assert rep.status == "fail"
    assert rep.first_mismatch == 19


def test_stalled_window_is_error_not_pass(monkeypatch):
    # a side whose window stays at q^10 however far it is padded cannot
    # certify order 30: the runner must fail closed instead of comparing
    # on the shorter window
    monkeypatch.setattr("qverify.runner.eval_expr",
                        lambda node, T: QSeries(1, 10, {}))
    rep = verify_identity(_rec(GOOD), force_order=30)
    assert rep.status == "error"
    assert "q^(10)" in rep.message and "order 30" in rep.message


def test_effective_order_precedence():
    rec = _rec('identity o order 37 { lhs = 1; rhs = 1; }')
    assert effective_order(rec) == 37
    assert effective_order(rec, default_order=90) == 37
    assert effective_order(rec, force_order=12) == 12
    rec2 = _rec('identity p { lhs = 1; rhs = 1; }')
    assert effective_order(rec2) == 100
    assert effective_order(rec2, default_order=55) == 55


def test_run_suite_preserves_order_and_parallel_matches_serial():
    records = [_rec(GOOD), _rec(BAD.replace("bad", "bad2")), _rec(POLE)]
    serial = run_suite(records, force_order=25)
    parallel = run_suite(records, force_order=25, jobs=3)
    assert [r.name for r in serial] == ["good", "bad2", "pole"]
    strip = lambda reps: [{**r.to_dict(), "ms": 0} for r in reps]
    assert strip(serial) == strip(parallel)
    assert suite_exit_code(serial) == 2
    assert suite_exit_code(serial[:2]) == 1
    assert suite_exit_code(serial[:1]) == 0


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched verify_identity reaches only forked workers")
def test_dead_worker_gives_error_reports(monkeypatch):
    """A worker that dies takes the pool down with it; every identity the
    pool cannot deliver is an error naming the exception, in input order,
    and progress sees each report."""
    real = runner.verify_identity

    def dying(record, *args):
        if record.name == "b":
            os._exit(1)
        return real(record, *args)

    monkeypatch.setattr(runner, "verify_identity", dying)
    records = [_rec(f"identity {n} {{ lhs = 1; rhs = 1; }}") for n in "abc"]
    seen = []
    reports = run_suite(records, force_order=5, jobs=2, progress=seen.append)
    assert [r.name for r in reports] == ["a", "b", "c"] and seen == reports
    assert reports[1].status == "error" and "BrokenProcessPool" in reports[1].message
    for r in reports:
        assert r.order == 5
        assert r.status == "pass" or "BrokenProcessPool" in r.message


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        run_suite([_rec(GOOD), _rec(GOOD)])


def test_json_shape_and_determinism():
    records = [_rec(GOOD), _rec(BAD.replace("bad", "bad3"))]
    a = json.loads(reports_to_json(run_suite(records, force_order=25)))
    b = json.loads(reports_to_json(run_suite(records, force_order=25)))
    for rep in a:
        assert set(rep) == {"name", "status", "order", "first_mismatch",
                            "lhs_coeff", "rhs_coeff", "ms"}
    strip = lambda reps: [{**r, "ms": 0} for r in reps]
    assert strip(a) == strip(b)


def test_error_report_includes_message_in_json():
    rep = verify_identity(_rec(POLE), force_order=20)
    d = rep.to_dict()
    assert "message" in d and "GenericityError" in d["message"]


def test_builtin_and_catalog_record_generation():
    builtin = builtin_records()
    assert len(builtin) >= 20
    check_unique_names(builtin)
    cat = catalog_records()
    assert len(cat) > 100
    check_unique_names(cat)
    assert cat[0].tags == ("catalog",)


def test_each_side_is_evaluated_once(monkeypatch):
    """The evaluators set their windows from exact valuations, so no side of
    the builtin suite, nor of a catalog representation led by a q^(-k)
    factor, needs a second padded round."""
    sides = []
    orig_eval = runner.eval_expr

    def eval_expr(node, order):
        sides.append(order)
        return orig_eval(node, order)

    monkeypatch.setattr(runner, "eval_expr", eval_expr)
    shifted = [r for r in catalog_records()
               if "q^(-" in catalog.CATALOG[r.rhs.name].representations[r.rhs.index]][:4]
    assert len(shifted) == 4
    records = builtin_records() + shifted
    reports = run_suite(records)
    assert all(rep.status == "pass" for rep in reports), \
        [rep.name for rep in reports if rep.status != "pass"]
    assert len(sides) == 2 * len(records)


Q = qmono(1, 1)
NEG1 = qmono(-1, 0)
W3 = zeta(1, 3)
#: (name, evaluator of the order, orders): every evaluator head at sample
#: arguments, among them ones where a prefactor or a negative valuation
#: moves the window the parts must be built to
HEAD_CASES = [
    ("j", lambda o: theta.jtheta(qmono(W3, rat(-3, 2)), qmono(1, 2), o), (30,)),
    ("poch", lambda o: theta.poch_inf(qmono(-1, rat(1, 2)), Q, o), (30,)),
    ("m", lambda o: appell.m_eval(Q, qmono(1, 3), qmono(-1, 2), o), (30,)),
    ("m, expo(z) < 0", lambda o: appell.m_eval(qmono(W3, rat(1, 2)), Q,
                                               qmono(-1, -3), o), (30,)),
    ("changing_z", lambda o: appell.changing_z_delta(Q, qmono(1, 3), qmono(-1, 2),
                                                     qmono(W3, -1), o), (30,)),
    ("g", lambda o: appell.g_eval(qmono(-1, rat(1, 3)), qmono(1, rat(1, 2)), o), (30,)),
    ("h", lambda o: appell.h_eval(qmono(W3, rat(1, 2)), Q, o), (30,)),
    ("k, expo(x) > 0", lambda o: appell.k_eval(Q, qmono(1, 5), o), (30, 60)),
    ("f", lambda o: hecke.f_eval(2, 3, 2, qmono(W3, rat(1, 2)), qmono(-1, -1), Q, o), (30,)),
    ("gabc", lambda o: hecke.g_abc_eval(1, 3, 1, qmono(-1, 2), qmono(1, rat(1, 2)), Q,
                                        qmono(-1, -2), qmono(1, 1), o), (20,)),
    ("habc", lambda o: hecke.h_abc_eval(1, 2, 1, qmono(W3, 1), qmono(-1, rat(3, 2)), Q,
                                        NEG1, NEG1, o), (20,)),
    ("thetanp", lambda o: hecke.theta_np_eval(1, 2, qmono(1, 1), qmono(-1, rat(1, 2)),
                                              Q, o), (20,)),
    ("thetaabc", lambda o: hecke.theta_abc_eval(1, 2, 1, qmono(W3, 1), qmono(-1, rat(3, 2)),
                                                Q, o), (20,)),
    ("bigtheta[1,2]", lambda o: hecke.big_theta_eval(1, 2, qmono(1, rat(1, 2)),
                                                     qmono(-1, 1), Q, o), (20,)),
    ("bigtheta[1,3]", lambda o: hecke.big_theta_eval(1, 3, qmono(W3, rat(1, 3)),
                                                     qmono(1, rat(1, 2)), Q, o), (20,)),
    ("bigtheta[2,3]", lambda o: hecke.big_theta_eval(2, 3, qmono(1, rat(1, 2)),
                                                     qmono(-1, 1), Q, o), (20,)),
    # theta34_radial_collapse's arguments
    ("bigtheta[3,4]", lambda o: hecke.big_theta_eval(3, 4, qmono(1, rat(5, 8)),
                                                     qmono(-1, rat(5, 8)),
                                                     qmono(-1, rat(1, 4)), o), (100, 200)),
    ("strfn", lambda o: hecke.string_function(2, 2, 0, Q, o), (30,)),
    ("catalog", lambda o: catalog.catalog_lookup("f0_5th").eulerian(o), (30,)),
    # the prefactor of a g_abc summand reaches the order
    ("gabc, prefactor past the order",
     lambda o: hecke.g_abc_eval(3, 4, 1, Q, Q, Q, NEG1, NEG1, o), (3,)),
    ("gabc, prefactor past the order",
     lambda o: hecke.g_abc_eval(3, 4, 2, qmono(2, 1), Q**20, Q, NEG1, NEG1, o), (20,)),
    ("gabc, prefactor past the order",
     lambda o: hecke.g_abc_eval(2, 3, 2, Q, Q**7, Q, NEG1, NEG1, o), (6,)),
]


def test_every_head_reaches_the_order_in_one_build(monkeypatch):
    """Every evaluator head sizes its windows from exact valuations: with
    ``appell.eval_padded`` made to raise wherever it is bound, each head
    returns a series known below exactly q^order.  The theta, Appell-Lerch
    and Eulerian memos are emptied first, so every head really builds."""
    def refuse(build, order):
        raise AssertionError(f"padded build of {build.__qualname__} at {order}")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qverify") and \
                getattr(mod, "eval_padded", None) is appell.eval_padded:
            monkeypatch.setattr(mod, "eval_padded", refuse)
    clear_memos()
    for name, head, orders in HEAD_CASES:
        for order in orders:
            assert head(order).window_q() == order, (name, order)


MEMO_CASES = [
    lambda: theta.jtheta(Q, qmono(1, 3), 10),
    lambda: theta.poch_inf(Q, Q, 10),
    lambda: appell.m_eval(Q, qmono(1, 3), qmono(-1, 2), 20),
    lambda: appell.g_eval(qmono(-1, rat(1, 3)), qmono(1, rat(1, 2)), 20),
    lambda: appell.h_eval(qmono(W3, rat(1, 2)), Q, 20),
    lambda: appell.k_eval(Q, qmono(1, 5), 20),
    lambda: catalog.catalog_lookup("f0_5th").eulerian(20),
]


def test_memo_results_are_not_shared():
    """Each call of a memoized evaluator gets its own series: changing the
    terms of one leaves the next call with the same arguments unchanged."""
    for case in MEMO_CASES:
        first = case()
        kept = dict(first.terms)
        first.terms[0] = rat(99)
        assert case().terms == kept


def test_run_suite_is_not_fooled_by_a_changed_result():
    theta.jtheta(Q, qmono(1, 3), 10).terms[0] = rat(7)
    rec = _rec("identity a order 10 { lhs = Jm[1]; rhs = poch(q; q; inf); }")
    assert run_suite([rec])[0].status == "pass"


def test_each_run_starts_with_empty_memos(monkeypatch):
    """Within a run both sides share one Eulerian sum; the next run sums
    the definition afresh."""
    calls = []
    real = catalog.eulerian_sum

    def counted(order, *args):
        calls.append(order)
        return real(order, *args)

    monkeypatch.setattr(catalog, "eulerian_sum", counted)
    rec = _rec('identity a order 20 { lhs = catalog("f0_5th"); rhs = catalog("f0_5th"); }')
    for _ in range(2):
        assert run_suite([rec])[0].status == "pass"
    assert calls == [20, 20]


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


def test_cli_list_and_name_filter(capsys):
    assert main(["--list", "--name", "kp522"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["kp522"]


def test_cli_pass_run(capsys, tmp_path):
    json_path = tmp_path / "out.json"
    code = main(["--name", "string_level1_*", "--order", "40",
                 "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 identities: 2 pass" in out
    reps = json.loads(json_path.read_text())
    assert [r["name"] for r in reps] == ["string_level1_00",
                                         "string_level1_20"]
    assert all(r["status"] == "pass" for r in reps)


def test_cli_fail_and_error_exit_codes(tmp_path, capsys):
    p = tmp_path / "ids.qid"
    p.write_text(BAD + "\n")
    assert main(["--file", str(p), "--order", "25"]) == 1
    capsys.readouterr()
    p.write_text(BAD + "\n" + POLE + "\n")
    assert main(["--file", str(p), "--order", "25"]) == 2
    out = capsys.readouterr().out
    assert "first mismatch at q^(1)" in out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "syn.qid"
    p.write_text("identity broken { lhs = f[5,5](q^5, q^2; q); rhs = 1; }\n")
    assert main(["--file", str(p)]) == 2
    err = capsys.readouterr().err
    assert "bracket parameters" in err and "syn.qid" in err


def test_cli_empty_selection_warns(capsys):
    assert main(["--name", "match_nothing_*"]) == 0
    assert "no identities selected" in capsys.readouterr().err


def test_cli_catalog_subset(capsys):
    code = main(["--catalog", "--name", "sigma_6th.*", "--order", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 identities: 1 pass" in out


def test_cli_parallel_builtin_subset(capsys):
    code = main(["--name", "*_7th_hecke", "--order", "35", "--jobs", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 identities: 3 pass" in out


@pytest.mark.parametrize("order", ["0", "-5"])
def test_cli_rejects_nonpositive_order(order, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--name", "kp522", "--order", order])
    assert exc.value.code == 2
    assert "order must be positive" in capsys.readouterr().err
