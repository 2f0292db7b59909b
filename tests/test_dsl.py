"""Expression-language tests: tokenizer, parser, printer, evaluator."""

import pathlib
import pickle
import random
import re

import pytest

from oracles import parse_oracle, tokenize_oracle
from qverify import appell, catalog, hecke, theta
from qverify.appell import m_eval
from qverify.catalog import CATALOG
from qverify.cyclotomic import rat, zeta
from qverify.dsl import (_HEADS, BinOp, Call, CatalogRef, IdentityRecord, Neg,
                         Num, Pow, QPow, eval_expr, parse_expression,
                         parse_identities, pretty, pretty_identity, tokenize)
from qverify.errors import (GenericityError, ParseError, UnknownCatalogName,
                            UnsupportedArgument, UnsupportedSubstitution)
from qverify.runner import VerificationReport, verify_identity
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


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return str(exc)


def test_tokenizer_matches_per_character_oracle_randomized():
    """The pattern tokenizer gives the oracle's kind, value, line and column
    for every token of the builtin suite, the catalog representations and
    random text over the DSL's ASCII alphabet, or the same ParseError."""
    rng = random.Random(19)
    alphabet = "qjmfzeta_Jc019()[]{},;=+-*/^. \t\r\n#\"?"
    texts = [BUILTIN.read_text()]
    texts += [src for entry in CATALOG.values() for src in entry.representations]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(25)))
              for _ in range(4000)]
    errors = trailing_comments = 0
    for text in texts:
        old, new = _tokens_or_error(tokenize_oracle, text), _tokens_or_error(tokenize, text)
        if isinstance(old, str):
            assert new == old, text
            errors += 1
            continue
        assert new[:-1] == old[:-1], text
        # intended difference: the oracle does not advance its column
        # through a comment, so after a trailing comment its EOF sits at '#'
        last_line = text[text.rfind("\n") + 1:]
        assert new[-1] == ("EOF", "", old[-1][2], len(last_line) + 1), text
        if old[-1] != new[-1]:
            assert last_line[old[-1][3] - 1] == "#", text
            trailing_comments += 1
    assert errors >= 500 and trailing_comments >= 50, (errors, trailing_comments)
    # intended difference: a non-ASCII digit starts an INT in the oracle
    assert tokenize_oracle("q^\u00b2")[2] == ("INT", "\u00b2", 1, 3)
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize("q^\u00b2")


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


PARSE_ERRORS = [
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
    ("q^\u00b2", "unexpected character"),
    ("\u0661", "unexpected character"),
]


@pytest.mark.parametrize("bad, fragment", PARSE_ERRORS)
def test_parse_errors(bad, fragment):
    with pytest.raises(ParseError) as ei:
        parse_expression(bad)
    assert fragment in str(ei.value)
    assert "line" in str(ei.value)


def _parsed_or_error(parse, text, identities):
    try:
        return parse(text, identities)
    except ParseError as exc:
        return exc


def _parse(text, identities):
    return parse_identities(text) if identities else parse_expression(text)


# a token to mutate: a comment is matched only to be skipped
_MUTABLE = re.compile(r'#[^\n]*|[0-9]+|\w+|"[^"\n]*"|\S')


def test_parser_matches_oracle_randomized():
    """The one-scan parser gives the oracle parser's AST, or its ParseError
    with the same message, line and column, on the builtin suite, every
    catalog representation, the cases of test_parse_errors and a few more,
    and 4000 mutations: a token of a builtin identity (3000) or of a
    catalog representation (1000) deleted, duplicated or swapped with the
    next one, or a character that starts no token put before it.  Half the
    texts get a trailing comment, a quarter \\r\\n line endings."""
    rng = random.Random(26)
    builtin = BUILTIN.read_text()
    blocks = [b for b in builtin.split("\n\n") if "{" in b]  # comments, identities
    reprs = [src for entry in CATALOG.values() for src in entry.representations]
    cases = [(builtin, True)] + [(src, False) for src in reprs]
    cases += [(bad, False) for bad, _ in PARSE_ERRORS]
    cases += [(text, False) for text in (
        'q "abc"', "catalog(f0_5th)", 'catalog("f0_5th").rep[0]',
        'catalog("f0_5th").repr[-1]', "poch(q; q; -1)", "q^(1/-2)", "zeta(1, -2)")]
    cases += [(text, True) for text in (
        "identity a order 0 { lhs = q; rhs = q; }", "identity a order -2 { lhs = q; rhs = q; }",
        "identity a order 5 { lhs = q; rhs = q; }\n# b\n identity a { lhs = 1; rhs = 1; }",
        "identity a { rhs = q; lhs = q; }", "ident a { lhs = q; rhs = q; }", '"a" q')]
    for i in range(4000):
        text = rng.choice(blocks) if i < 3000 else rng.choice(reprs)
        spans = [m.span() for m in _MUTABLE.finditer(text) if m.group()[0] != "#"]
        # one in four at the last two tokens, so that many errors are at EOF
        k = len(spans) - 1 - rng.randrange(2) if rng.random() < 0.25 else rng.randrange(len(spans))
        (a, b), (c, d) = spans[k], spans[min(k + 1, len(spans) - 1)]
        how = rng.choice(("delete", "duplicate", "swap", "bad"))
        if how == "delete":
            text = text[:a] + text[b:]
        elif how == "duplicate":
            text = text[:b] + " " + text[a:b] + text[b:]
        elif how == "swap" and b <= c:
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        elif how == "bad":
            text = text[:a] + rng.choice(("?", "\u00b2", '"', "$")) + text[a:]
        if rng.random() < 0.5:
            text += "  # trailing comment"
        if rng.random() < 0.25:
            text = text.replace("\n", "\r\n")
        cases.append((text, i < 3000))
    counts = dict.fromkeys(("error", "at EOF", "EOF after comment", "CRLF error"), 0)
    for text, identities in cases:
        old = _parsed_or_error(parse_oracle, text, identities)
        new = _parsed_or_error(_parse, text, identities)
        if not isinstance(old, ParseError):
            assert new == old, text
            continue
        assert isinstance(new, ParseError) and str(new) == str(old), (text, str(old))
        counts["error"] += 1
        last_line = text[text.rfind("\n") + 1:]
        if (old.line, old.col) == (text.count("\n") + 1, len(last_line) + 1):
            counts["at EOF"] += 1
            counts["EOF after comment"] += "#" in last_line
        counts["CRLF error"] += "\r\n" in text
    assert counts["error"] >= 2500 and counts["at EOF"] >= 100, counts
    assert counts["EOF after comment"] >= 50 and counts["CRLF error"] >= 500, counts


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("q q")


def test_deep_nesting_is_a_parse_error():
    assert parse_expression("(" * 100 + "q" + ")" * 100) == QPow(rat(1))
    with pytest.raises(ParseError, match="nested too deeply.*line 1"):
        parse_expression("(" * 300 + "q" + ")" * 300)


def _same_ast(a, b):
    """a == b for ASTs whose operands nest deeply: BinOp nodes are walked
    with a stack, and only the other nodes compare recursively."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, BinOp) and isinstance(b, BinOp):
            if a.op != b.op:
                return False
            stack += ((a.left, b.left), (a.right, b.right))
        elif a != b:
            return False
    return True


@pytest.mark.parametrize("lhs, rhs", (
    ("+".join(["q"] * 5000), "5000*q"),
    ("q^2 - " + " - ".join(["q"] * 2500) + " + q*" + "*".join(["1"] * 2500), "q^2 - 2499*q"),
    ("q^3*" + "/".join(["2"] * 5000), "2^(-4998)*q^3"),
), ids=("sum", "difference and product", "quotient"))
def test_long_flat_chains_evaluate_and_print_back(lhs, rhs):
    """Left-nested chains of 5000 operands (a sum, a difference and a
    product, a quotient) evaluate and pretty-print in loops: the identity
    passes at order 5 and its pretty form parses back to the same AST."""
    (record,) = parse_identities(f"identity chain {{ lhs = {lhs}; rhs = {rhs}; }}")
    assert verify_identity(record, 5).status == "pass"
    assert _same_ast(parse_expression(pretty(record.lhs)), record.lhs)
    assert _same_ast(parse_identities(pretty_identity(record))[0].lhs, record.lhs)


def test_long_minus_chains_print_and_report_their_error():
    """A chain of 900 unary minuses prints and parses in loops, and an
    identity with one in a pole of m reports the GenericityError with the
    call as its context."""
    chain = "-" * 900 + "q"
    node = QPow(rat(1))
    for _ in range(900):
        node = Neg(node)
    assert pretty(node) == chain
    parsed = parse_expression(chain)
    for _ in range(900):
        assert type(parsed) is Neg
        parsed = parsed.arg
    assert parsed == QPow(rat(1))
    (record,) = parse_identities(f"identity pole {{ lhs = m({chain}, q, q); rhs = 1; }}")
    report = verify_identity(record, 10)
    assert report.status == "error"
    assert report.message.startswith("GenericityError: theta denominator vanishes")
    assert report.message.endswith(f"[while evaluating m({chain}, q, q)]")


def test_long_power_chains_evaluate_and_print():
    """A chain of 1500 powers, (1 + q)^1^1...^1, parses into left-nested
    powers that evaluate and pretty-print in loops: the identity passes at
    order 5 and prints with each inner power parenthesised, as a short
    chain does.  A chain evaluates innermost first: (q + q^2)^(-1)^2 is
    the square of the inverse, known below q^9, where the inverse of the
    square is known below q^10."""
    (record,) = parse_identities("identity chain { lhs = (1+q)" + "^1" * 1500 + "; rhs = 1+q; }")
    assert verify_identity(record, 5).status == "pass"
    assert pretty(record.lhs) == "(" * 1499 + "(1 + q)^1" + ")^1" * 1499
    chain = parse_expression("(q+q^2)^(-1)^2")
    assert pretty(chain) == "((q + q^2)^(-1))^2"
    got, other = eval_expr(chain, 10), eval_expr(parse_expression("1/(q+q^2)^2"), 10)
    assert (got.order, other.order) == (9, 10) and got.terms == other.truncate(9).terms


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


def test_ast_nodes_and_reports_are_immutable_typed_values():
    """AST nodes and reports compare equal only to their own type with
    equal fields, hash and pickle by their fields, take keywords with
    defaults, refuse a wrong field, and cannot be changed."""
    assert Num(2) == Num(value=2) and hash(Num(2)) == hash(Num(2))
    assert Num(2) != QPow(2) and Num(2) != Num(3) and Num(2) != (2,)
    ref = CatalogRef("f0_5th", subst=QPow(rat(1, 2)))
    assert (ref.index, repr(ref)) == (None, f"CatalogRef(name='f0_5th', index=None, subst={ref.subst!r})")
    rec = IdentityRecord("a", None, Num(1), ref)
    report = VerificationReport(name="a", status="fail", order=5, first_mismatch=rat(1, 2))
    assert rec.tags == () and (report.ms, report.message) == (0, None)
    for value in (ref, rec, report, parse_expression("-q^(1/2)*j(q; q^2) + 2^3")):
        assert pickle.loads(pickle.dumps(value)) == value
    for bad in (lambda: Num(), lambda: Num(1, 2), lambda: Num(1, value=1), lambda: Num(valu=1)):
        with pytest.raises(TypeError):
            bad()
    for value, name in ((rec, "name"), (report, "ms"), (Num(2), "value")):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


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


Q = qmono(1, 1)
W3 = zeta(1, 3)
#: head -> [(sample call, module, evaluator attribute, its expected arguments)]
HEAD_SAMPLES = {
    "j": [("j(zeta(1,3)*q^(-3/2); q^2)", theta, "jtheta",
           (qmono(W3, rat(-3, 2)), qmono(1, 2), 30))],
    "J": [("J[1,3]", theta, "J", (1, 3, 30))],
    "JB": [("JB[1,3]", theta, "Jbar", (1, 3, 30))],
    "Jm": [("Jm[2]", theta, "Jm", (2, 30))],
    "m": [("m(q, q^3, -q^2)", appell, "m_eval", (Q, qmono(1, 3), qmono(-1, 2), 30))],
    "g": [("g(-q^(1/3); q^(1/2))", appell, "g_eval",
           (qmono(-1, rat(1, 3)), qmono(1, rat(1, 2)), 30))],
    "h": [("h(zeta(1,3)*q^(1/2); q)", appell, "h_eval", (qmono(W3, rat(1, 2)), Q, 30))],
    "k": [("k(q; q^5)", appell, "k_eval", (Q, qmono(1, 5), 30))],
    "poch": [("poch(-q^(1/2); q; inf)", theta, "poch_inf", (qmono(-1, rat(1, 2)), Q, 30)),
             ("poch(q; q^2; 5)", theta, "poch_fin", (Q, qmono(1, 2), 5))],
    "f": [("f[2,3,2](zeta(1,3)*q^(1/2), -q^(-1); q)", hecke, "f_eval",
           (2, 3, 2, qmono(W3, rat(1, 2)), qmono(-1, -1), Q, 30))],
    "gabc": [("gabc[1,3,1](-q^2, q^(1/2); q; -q^(-2), q)", hecke, "g_abc_eval",
              (1, 3, 1, qmono(-1, 2), qmono(1, rat(1, 2)), Q, qmono(-1, -2), Q, 30))],
    "habc": [("habc[1,2,1](zeta(1,3)*q, -q^(3/2); q; -1, -1)", hecke, "h_abc_eval",
              (1, 2, 1, qmono(W3, 1), qmono(-1, rat(3, 2)), Q, qmono(-1), qmono(-1), 30))],
    "thetanp": [("thetanp[1,2](q, -q^(1/2); q)", hecke, "theta_np_eval",
                 (1, 2, Q, qmono(-1, rat(1, 2)), Q, 30))],
    "thetaabc": [("thetaabc[1,2,1](zeta(1,3)*q, -q^(3/2); q)", hecke, "theta_abc_eval",
                  (1, 2, 1, qmono(W3, 1), qmono(-1, rat(3, 2)), Q, 30))],
    "bigtheta": [("bigtheta[1,2](q^(1/2), -q; q)", hecke, "big_theta_eval",
                  (1, 2, qmono(1, rat(1, 2)), qmono(-1, 1), Q, 30))],
    "strfn": [("strfn[2,2,0]", hecke, "string_function", (2, 2, 0, Q, 30))],
}


def test_every_head_reaches_its_evaluator_through_the_module(monkeypatch):
    """Each head of the table parses, prints back to the same AST, and calls
    the function on its module attribute at call time (a wrapper set there,
    such as a tracer's, sees the call) with its arguments in order."""
    assert set(HEAD_SAMPLES) == set(_HEADS)
    for head, samples in HEAD_SAMPLES.items():
        for src, module, attr, expected in samples:
            node = parse_expression(src)
            assert isinstance(node, Call) and node.head == head, src
            assert parse_expression(pretty(node)) == node, src
            calls, result = [], QSeries.from_coeff(7)
            monkeypatch.setattr(module, attr, lambda *args: calls.append(args) or result)
            assert eval_expr(node, 30) is result, src
            assert calls == [expected], src
            monkeypatch.undo()


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
