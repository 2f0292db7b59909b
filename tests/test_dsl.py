"""Expression-language tests: tokenizer, parser, printer, evaluator."""

import pathlib

import pytest

from qverify import catalog
from qverify.appell import m_eval
from qverify.catalog import CATALOG
from qverify.cyclotomic import rat, zeta
from qverify.dsl import (BinOp, Call, CatalogRef, IdentityRecord, Neg, Num,
                         Pow, QPow, eval_expr, parse_expression,
                         parse_identities, pretty, pretty_identity, tokenize)
from qverify.errors import (GenericityError, ParseError, UnknownCatalogName,
                            UnsupportedArgument, UnsupportedSubstitution)
from qverify.series import QSeries, clear_memos, qmono, series_equal
from qverify.theta import Jm, jtheta

BUILTIN = pathlib.Path(__file__).resolve().parents[1] / (
    "src/qverify/data/builtin.qid")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenizer_locations_and_comments():
    toks = tokenize("J[1,2]\n  # a comment\n + name")
    kinds = [(t.kind, t.value, t.line, t.col) for t in toks]
    assert kinds == [
        ("NAME", "J", 1, 1), ("PUNCT", "[", 1, 2), ("INT", "1", 1, 3),
        ("PUNCT", ",", 1, 4), ("INT", "2", 1, 5), ("PUNCT", "]", 1, 6),
        ("PUNCT", "+", 3, 2), ("NAME", "name", 3, 4), ("EOF", "", 3, 8),
    ]


def test_tokenizer_string_and_errors():
    toks = tokenize('catalog("f0_5th")')
    assert ("STRING", "f0_5th") == (toks[2].kind, toks[2].value)
    with pytest.raises(ParseError):
        tokenize('"unterminated')
    with pytest.raises(ParseError):
        tokenize("a ? b")


# ---------------------------------------------------------------------------
# parser structure
# ---------------------------------------------------------------------------


def test_precedence_and_shape():
    n = parse_expression("1 - 2 - 3")
    assert n == BinOp("-", BinOp("-", Num(rat(1)), Num(rat(2))), Num(rat(3)))
    n = parse_expression("2*q^2")
    assert n == BinOp("*", Num(rat(2)), QPow(rat(2)))
    assert parse_expression("-q^2") == Neg(QPow(rat(2)))
    assert parse_expression("q^-2") == QPow(rat(-2))
    assert parse_expression("q^(-5/2)") == QPow(rat(-5, 2))
    n = parse_expression("Jm[1]^2")
    assert isinstance(n, Pow) and n.k == 2
    n = parse_expression("1/2/2")
    assert n == BinOp("/", BinOp("/", Num(rat(1)), Num(rat(2))), Num(rat(2)))


def test_call_shapes():
    n = parse_expression("f[5,5,1](q^5, q^2; q)")
    assert n == Call("f", (5, 5, 1), ((QPow(rat(5)), QPow(rat(2))),
                                      (QPow(rat(1)),)))
    n = parse_expression('catalog("phi_6th").repr[1]')
    assert n == CatalogRef("phi_6th", 1)
    assert parse_expression('catalog("phi_6th")') == CatalogRef("phi_6th")


@pytest.mark.parametrize("bad, fragment", [
    ("f[5,5](q)", "3 bracket parameters"),
    ("m(q, q^2)", "3 argument"),
    ("J[1,2](q)", "takes no call arguments"),
    ("poch(q; q; q)", "poch count"),
    ("frobnicate(q)", "unknown function"),
    ("j(q, q; q)", "1 argument"),
    ("zeta(1,0)", "N >= 1"),
    ('catalog("x").foo[1]', "only '.repr"),
    ("q^(1/0)", "zero denominator"),
    ("1 +", "expected an expression"),
    ("(1", "expected ')'"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(ParseError) as ei:
        parse_expression(bad)
    assert fragment in str(ei.value)
    assert "line" in str(ei.value)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("q q")


# ---------------------------------------------------------------------------
# pretty-printing fixpoint
# ---------------------------------------------------------------------------


def test_fixpoint_on_catalog_corpus():
    count = 0
    for entry in CATALOG.values():
        for src in entry.representations:
            ast1 = parse_expression(src)
            ast2 = parse_expression(pretty(ast1))
            assert ast1 == ast2, src
            count += 1
    assert count > 100


def test_fixpoint_on_builtin_identities():
    records = parse_identities(BUILTIN.read_text())
    assert len(records) >= 20
    for r in records:
        again = parse_identities(pretty_identity(r))
        assert again == [r], r.name


def test_fixpoint_on_tricky_expressions():
    for src in [
        "-(q + 1)*2", "2*(-q)", "q^(-3/2)", "(1 + q)^(-2)",
        "1 - (2 - 3)", "1/(2/3)", "-Jm[1]^2",
        "poch(-q; q^2; inf)^2", "poch(q; q; 5)",
        'm(zeta(1,4)*q^(1/2), q^3, -q)', 'catalog("f_3rd", -q^(1/2))',
    ]:
        ast1 = parse_expression(src)
        assert parse_expression(pretty(ast1)) == ast1, src


def test_identity_parse_and_override():
    txt = """
    # leading comment
    identity a order 60 { lhs = q; rhs = q; }
    identity b { lhs = 1; rhs = 1; }
    """
    recs = parse_identities(txt)
    assert [r.name for r in recs] == ["a", "b"]
    assert recs[0].order_override == 60
    assert recs[1].order_override is None
    with pytest.raises(ParseError):
        parse_identities("identity a { lhs = 1; }")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_constants_and_monomials():
    assert eval_expr(parse_expression("3/4"), 10).coeff_at(0) == rat(3, 4)
    s = eval_expr(parse_expression("zeta(1,4)^2"), 10)
    assert s.coeff_at(0) == rat(-1)
    s = eval_expr(parse_expression("q^(1/2)*q^(1/2)"), 10)
    assert s.coeff_at(1) == rat(1) and s.scale == 2


def test_eval_engine_calls():
    T = 40
    assert series_equal(eval_expr(parse_expression("Jm[1]"), T), Jm(1, T))
    assert series_equal(
        eval_expr(parse_expression("j(-q; q^3)"), T),
        jtheta(qmono(-1, 1), qmono(1, 3), T))
    one = eval_expr(parse_expression("2*m(q, q^2, -1)"), T)
    assert series_equal(one, QSeries.from_coeff(1).truncate_q(T))
    rep = eval_expr(parse_expression('catalog("phi_6th").repr[0]'), T)
    direct = 2 * m_eval(qmono(1, 1), qmono(1, 3), qmono(-1), T)
    assert series_equal(rep, direct)


def test_eval_division_and_negative_powers():
    T = 20
    s = eval_expr(parse_expression("1/(1 + q)"), T)
    assert [int(s.coeff_at(k)) for k in range(4)] == [1, -1, 1, -1]
    s = eval_expr(parse_expression("(1 + q)^(-2)"), T)
    assert [int(s.coeff_at(k)) for k in range(4)] == [1, -2, 3, -4]
    s = eval_expr(parse_expression("strfn[1,0,0]*Jm[1]"), T)
    assert series_equal(s, QSeries.from_coeff(1).truncate_q(s.window_q()))


def test_eval_monomial_coercion_errors():
    with pytest.raises(UnsupportedArgument):
        eval_expr(parse_expression("m(1 + q, q^2, -1)"), 10)
    with pytest.raises(UnsupportedArgument):
        eval_expr(parse_expression("m(q - q, q^2, -1)"), 10)


def test_eval_unknown_catalog_and_repr_range():
    with pytest.raises(UnknownCatalogName):
        eval_expr(parse_expression('catalog("nope")'), 10)
    with pytest.raises(UnsupportedArgument):
        eval_expr(parse_expression('catalog("f_3rd").repr[99]'), 10)


def test_catalog_substitution_parses_and_evaluates():
    node = parse_expression('catalog("f_3rd", q^2)')
    assert node == CatalogRef("f_3rd", None, QPow(rat(2)))
    assert pretty(node) == 'catalog("f_3rd", q^2)'
    T = 31
    f3 = CATALOG["f_3rd"].eulerian(T)
    s = eval_expr(node, T)  # f(q^2)
    assert s.window_q() >= T
    assert [s.coeff_at(k) for k in range(T)] == [
        f3.coeff_at(k // 2) if k % 2 == 0 else 0 for k in range(T)]
    s = eval_expr(parse_expression('catalog("f_3rd", -q)'), T)  # f(-q)
    assert s.window_q() >= T
    assert [s.coeff_at(k) for k in range(T)] == [
        (-1) ** k * f3.coeff_at(k) for k in range(T)]
    with pytest.raises(UnsupportedArgument):
        eval_expr(parse_expression('catalog("f_3rd", 1 + q)'), 10)
    with pytest.raises(UnsupportedSubstitution):
        eval_expr(parse_expression('catalog("f_3rd", q^(-1))'), 10)
    with pytest.raises(ParseError):
        parse_expression('catalog("f_3rd", q).repr[0]')


def test_catalog_side_at_fractional_order_sums_once(monkeypatch):
    """q^(-1/2)*catalog(...) evaluates the catalog factor at the rational
    order 41/2, so the side reaches order 20 from one Eulerian build."""
    calls = []
    real = catalog.eulerian_sum

    def counted(order, *args):
        calls.append(order)
        return real(order, *args)

    monkeypatch.setattr(catalog, "eulerian_sum", counted)
    clear_memos()
    s = eval_expr(parse_expression('q^(-1/2)*catalog("f0_5th")'), 20)
    assert s.window_q() == 20 and len(calls) == 1, calls
    f0 = real(21, *CATALOG["f0_5th"].eulerian.spec)
    assert s.items_q() == f0.mul_monomial(qmono(1, rat(-1, 2))).truncate_q(20).items_q()


def test_eval_error_context():
    with pytest.raises(GenericityError) as ei:
        eval_expr(parse_expression("1 + m(q, q^2, q)"), 10)
    assert getattr(ei.value, "qverify_context") == (
        "while evaluating m(q, q^2, q)")
