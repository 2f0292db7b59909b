"""Truncated-series kernel: windows, ring laws, inversion, substitution.

The product is checked against the earlier coefficient-by-coefficient loop,
kept here as ``mul_oracle``; division against the earlier two-step kernel
(back-substitution for the inverse, then that product), ``divide_oracle``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (add_oracle, divide_one_minus, geom_inv, has_coeff_types,
                     mul_monomial_oracle)
from qverify.cyclotomic import cinv, rat, zeta
from qverify.errors import (
    DivisionByZero,
    GenericityError,
    OrderExceeded,
    UnsupportedSubstitution,
)
from qverify.series import (
    MONO_ONE,
    MONO_Q,
    QMonomial,
    QSeries,
    _Acc,
    ceil_rat,
    common_scale,
    compose_monomial,
    operand_orders,
    qmono,
    series_equal,
)


# ---------------------------------------------------------------------------
# independent oracles (computed here, no engine code involved)
# ---------------------------------------------------------------------------


def partition_numbers(n_max):
    """p(0..n_max) via Euler's pentagonal-number recurrence."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def brute_convolution(a_terms, b_terms, window):
    """Dict-convolution of two {expo: int} polynomials below window."""
    out = {}
    for ka, ca in a_terms.items():
        for kb, cb in b_terms.items():
            k = ka + kb
            if k < window:
                out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def mul_oracle(self: QSeries, other: QSeries) -> QSeries:
    """Series product one Rat | CycRat term pair at a time (the earlier
    ``QSeries.__mul__`` on two series)."""
    a, b = QSeries.unify(self, other)
    if not a.terms and a.order is None:
        return QSeries.zero(a.scale, None)
    if not b.terms and b.order is None:
        return QSeries.zero(a.scale, None)
    # sound window
    if a.order is None and b.order is None:
        window = None
    elif a.order is None:
        window = b.order + min(a.terms)
    elif b.order is None:
        window = a.order + min(b.terms)
    else:
        va = a.effval()
        vb = b.effval()
        window = min(a.order + vb, b.order + va)
    out: dict = {}
    bitems = sorted(b.terms.items())
    for ka, ca in sorted(a.terms.items()):
        for kb, cb in bitems:
            k = ka + kb
            if window is not None and k >= window:
                break
            prod = ca * cb
            cur = out.get(k)
            if cur is None:
                out[k] = prod
            else:
                s = cur + prod
                if not s:
                    del out[k]
                else:
                    out[k] = s
    return QSeries(a.scale, window, out)


def inverse_oracle(self, window_hint=None) -> QSeries:
    """Multiplicative inverse.  For a finite-order series the result
    window is order - 2*val; an exact non-monomial series needs a
    window_hint (scaled units)."""
    if not self.terms:
        raise DivisionByZero("inverse of a series with no known nonzero term")
    v = min(self.terms)
    if len(self.terms) == 1 and self.order is None:
        c = self.terms[v]
        return QSeries(self.scale, None, {-v: cinv(c)})
    if self.order is None:
        if window_hint is None:
            raise ValueError("window_hint required to invert an exact series")
        ku = window_hint + v  # unit-part window
    else:
        ku = self.order - v
    u = {k - v: c for k, c in self.terms.items()}  # unit part, u[0] != 0
    u0inv = cinv(u[0])
    w = {0: u0inv}
    usup = sorted(k for k in u if k > 0)
    # back-substitution: w_n = -u0^{-1} * sum_{k>=1} u_k w_{n-k}
    for n in range(1, ku):
        acc = None
        for k in usup:
            if k > n:
                break
            wk = w.get(n - k)
            if wk is None:
                continue
            p = u[k] * wk
            acc = p if acc is None else acc + p
        if acc:
            w[n] = -(acc * u0inv)
    res_order = ku - v  # = order - 2v, or hint for exact input
    return QSeries(self.scale, res_order, {k - v: c for k, c in w.items()})


def divide_oracle(self, other: QSeries, window_hint=None) -> QSeries:
    """self / other as inverse-then-multiply: ``inverse_oracle`` of the
    divisor, then ``mul_oracle`` (the earlier ``QSeries.divide``)."""
    a, b = QSeries.unify(self, other)
    hint = window_hint
    if b.order is None and len(b.terms) > 1 and hint is None and a.order is not None:
        hint = a.order - (a.effval() or 0) - min(b.terms)
    return mul_oracle(a, inverse_oracle(b, hint))


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


def test_monomial_basic_algebra():
    m = qmono(-2, rat(3, 2))
    assert (m * m).coeff == 4 and (m * m).expo == 3
    assert m.inverse() * m == MONO_ONE
    assert (-m).coeff == 2
    assert (m**3).expo == rat(9, 2) and (m**3).coeff == -8
    assert (m**-2) == (m.inverse()) ** 2
    assert MONO_Q**0 == MONO_ONE


def test_monomial_fractional_power():
    m = qmono(-1, rat(5, 8))
    r = m ** rat(1, 2)
    assert r.coeff == zeta(1, 4)
    assert r.expo == rat(5, 16)
    assert r * r == m
    with pytest.raises(UnsupportedSubstitution):
        qmono(2, 1) ** rat(1, 2)


def test_monomial_immutable_and_hashable():
    m = qmono(1, 2)
    with pytest.raises(AttributeError):
        m.coeff = rat(5)
    assert hash(qmono(1, 2)) == hash(m)
    assert qmono(zeta(1, 3), 1) == qmono(zeta(4, 12), 1)
    with pytest.raises(ValueError):
        qmono(0, 1)


def test_rounding_helpers():
    assert ceil_rat(rat(7, 2)) == 4 and ceil_rat(rat(-7, 2)) == -3
    assert ceil_rat(rat(6)) == 6
    assert common_scale(rat(1, 2), rat(1, 3), 5) == 6


def test_operand_orders_give_exactly_the_window_randomized():
    # operands known below the orders operand_orders gives, with the stated
    # valuations, make a product or quotient known below exactly the order
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        va, vb, order = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-3, 12)
        op = rng.choice("*/")
        ka, kb = operand_orders(order, va, vb, op)
        if ka <= va or kb <= vb:  # a side with no known term has no valuation
            continue
        a = QSeries(1, ka, {k: rat(rng.choice((-2, -1, 1, 3))) for k in range(va, ka)})
        b = QSeries(1, kb, {k: rat(rng.choice((-1, 1, 2))) for k in range(vb, kb)})
        c = a * b if op == "*" else a.divide(b)
        assert c.window_q() == order, (op, va, vb, order)
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# series construction and inspection
# ---------------------------------------------------------------------------


def test_geometric_series_positive():
    s = geom_inv(qmono(1, 1), 1, 10)
    assert [s.coeff_at(n) for n in range(10)] == [1] * 10
    with pytest.raises(OrderExceeded):
        s.coeff_at(10)


def test_geometric_series_scaled_coefficient():
    s = geom_inv(qmono(2, 1), 1, 12)
    assert [int(s.coeff_at(n)) for n in range(12)] == [2**n for n in range(12)]


def test_geometric_series_negative_exponent():
    # 1/(1 - q^-1) = -q/(1 - q) = -q - q^2 - ...
    s = geom_inv(qmono(1, -1), 1, 8)
    assert s.coeff_at(0) == 0
    assert [s.coeff_at(n) for n in range(1, 8)] == [-1] * 7
    # sanity: (1 - q^-1) * s == 1 on the window
    one = QSeries.from_coeff(1)
    lhs = QSeries.from_coeff(1) - QSeries.from_monomial(qmono(1, -1))
    assert QSeries.first_difference(lhs * s, one) is None


def test_geometric_series_constant_cases():
    s = geom_inv(qmono(3, 0), 1, 5)
    assert s.order is None and s.coeff_at(0) == rat(-1, 2)
    with pytest.raises(GenericityError):
        geom_inv(qmono(1, 0), 1, 5)


def test_window_tracking_add_mul():
    a = geom_inv(qmono(1, 1), 1, 10)  # window 10, val 0
    b = geom_inv(qmono(1, 2), 1, 14)  # window 14, val 0
    assert (a + b).window_q() == 10
    assert (a * b).window_q() == 10  # min(10+0, 14+0)
    shifted = a.mul_monomial(qmono(1, 5))
    assert shifted.window_q() == 15
    assert (shifted * b).window_q() == 15  # min(15 + val(b), 14 + val(shifted))


def test_product_against_brute_convolution():
    at = {0: 1, 1: -3, 4: 2, 7: 5}
    bt = {0: 2, 2: 1, 3: -1, 5: 4}
    A = QSeries(1, 9, dict(at))
    B = QSeries(1, 11, dict(bt))
    C = A * B
    expected = brute_convolution(at, bt, 9)  # window = min(9+0, 11+0)
    assert C.window_q() == 9
    for n in range(9):
        assert C.coeff_at(n) == expected.get(n, 0)


def test_exact_polynomial_products_stay_exact():
    A = QSeries(1, None, {0: rat(1), 1: rat(1)})
    B = QSeries(1, None, {0: rat(1), 1: rat(-1)})
    C = A * B
    assert C.order is None
    assert C.terms == {0: rat(1), 2: rat(-1)}


def test_partition_generating_function():
    """1/(q;q)_inf has the partition numbers as coefficients."""
    n_max = 60
    euler = QSeries.from_coeff(1)
    for k in range(1, n_max + 1):
        euler = euler - euler.mul_monomial(qmono(1, k))  # multiply by (1 - q^k)
    euler = euler.truncate(n_max + 1)
    inv = euler.inverse()
    assert inv.window_q() == n_max + 1
    expected = partition_numbers(n_max)
    got = [int(inv.coeff_at(n)) for n in range(n_max + 1)]
    assert got == expected
    assert int(inv.coeff_at(50)) == 204226  # classic value, frozen
    assert expected[50] == 204226


def test_inverse_window_with_valuation():
    # s = q^2 * (1 - q), window 12 => inverse window 12 - 2*2 = 8
    s = QSeries(1, 12, {2: rat(1), 3: rat(-1)})
    inv = s.inverse()
    assert inv.window_q() == 8
    prod = s * inv
    assert prod.coeff_at(0) == 1
    assert all(prod.coeff_at(n) == 0 for n in range(1, int(prod.window_q())))


def test_inverse_of_pure_monomial_is_exact():
    s = QSeries.from_monomial(qmono(-3, 5))
    inv = s.inverse()
    assert inv.order is None
    assert inv.coeff_at(-5) == rat(-1, 3)


def test_inverse_requires_hint_for_exact_multiterms():
    s = QSeries(1, None, {0: rat(1), 1: rat(-1)})
    with pytest.raises(ValueError):
        s.inverse()
    inv = s.inverse(window_hint=6)
    assert [inv.coeff_at(n) for n in range(6)] == [1] * 6


def test_divide_auto_hint():
    num = QSeries(1, 10, {0: rat(1)})
    den = QSeries(1, None, {0: rat(1), 1: rat(-1)})
    q = num.divide(den)
    assert q.window_q() == 10
    assert [q.coeff_at(n) for n in range(10)] == [1] * 10
    with pytest.raises(DivisionByZero):
        num.divide(QSeries.zero(1, None))


def test_divide_by_even_content():
    """1 / (2 - 4q) = sum 2^(n-1) q^n: the divisor's content 2 is divided
    out, the unit loop runs on ints, and the quotient is halved once, to
    1/2 and then ints; the same with the signs flipped."""
    for sign in (1, -1):
        den = QSeries(1, None, {0: 2 * sign, 1: -4 * sign})
        q = QSeries.from_coeff(1).divide(den, 12)
        want = [rat(sign, 2)] + [sign * 2 ** (n - 1) for n in range(1, 12)]
        assert [q.coeff_at(n) for n in range(12)] == want
        assert all(type(c) is int for k, c in q.terms.items() if k), q


_COEFF_ROWS = (
    (rat(1), rat(-1), rat(2), rat(-3, 2), rat(5, 7)),
    (rat(1, 6), rat(-5, 4), rat(7, 10), rat(-1, 6), rat(-1), rat(2), rat(-3, 2), rat(5, 7)),
    (rat(1), zeta(1, 3), -zeta(2, 3), rat(2) * zeta(1, 3) - rat(1, 3)),
    (rat(-1), zeta(1, 4), zeta(3, 4) * rat(3, 2), rat(1) + zeta(1, 4)),
    (1, -1, 2, -2, 3),
    (2, -2, 4, -4, 6),  # even content: a divisor's leading 2 or -2 folds to +-1
)
# (left row, right row): each row with itself, then rational x CycRat, int x
# int, int x Rat and int x CycRat mixes
_ROW_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (3, 1), (0, 3),
              (4, 4), (4, 5), (5, 5), (1, 5), (4, 1), (2, 4), (5, 3))


def _random_side(rng, exact, coeffs, divisor):
    """A random series on grid 1, 2 or 3 with valuation in [-6, 7); a
    divisor always has a leading term, a dividend is sometimes empty (the
    exact zero series when it is exact)."""
    scale = rng.choice((1, 2, 3))
    lo = rng.randint(-6, 6) * scale + rng.randrange(scale)
    span = rng.randint(1, 8 * scale)
    terms = {} if not divisor and rng.random() < 0.1 else {lo: rng.choice(coeffs)}
    if terms and not (divisor and exact and rng.random() < 0.25):  # else a monomial
        for _ in range(rng.randint(0, 5)):
            terms[rng.randint(lo + 1, lo + span)] = rng.choice(coeffs)
    order = None if exact else lo + span + rng.randint(0, 4 * scale)
    return QSeries(scale, order, terms)


def _random_pair(rng, i, divisor):
    """Draw i's two sides: every exact/finite pairing in turn, rows from
    ``_ROW_PAIRS`` in turn."""
    a_exact, b_exact = i % 2 == 1, (i // 2) % 2 == 1
    ra, rb = _ROW_PAIRS[(i // 4) % len(_ROW_PAIRS)]
    a = _random_side(rng, a_exact, _COEFF_ROWS[ra], divisor=False)
    b = _random_side(rng, b_exact, _COEFF_ROWS[rb], divisor=divisor)
    return a, b


def _assert_same_series(got, want, case):
    assert got.scale == want.scale, case
    assert got.order == want.order, case
    assert got.terms == want.terms, case
    assert has_coeff_types(got), case


def _all_int(*series):
    return all(type(c) is int for s in series for c in s.terms.values())


def test_mul_matches_fraction_product_randomized():
    """Products of int operands keep int coefficients."""
    rng = random.Random(12081421)
    for i in range(1120):
        a, b = _random_pair(rng, i, divisor=False)
        got, case = a * b, f"draw {i}: {a!r} * {b!r}"
        _assert_same_series(got, mul_oracle(a, b), case)
        assert _all_int(got) or not _all_int(a, b), case


def test_divide_matches_inverse_then_multiply_randomized():
    rng = random.Random(20121208)
    for i in range(1120):
        a, b = _random_pair(rng, i, divisor=True)
        hint = rng.randint(1, 30) if a.order is None and b.order is None else None
        got = a.divide(b, hint)
        want = divide_oracle(a, b, hint)
        _assert_same_series(got, want, f"draw {i}: {a!r} / {b!r}, hint {hint}")


def _random_mono(rng, coeffs, lo, hi):
    """c*q^e with c from coeffs and e on the grid 1/1, 1/2, 1/3 or 1/6."""
    den = rng.choice((1, 2, 3, 6))
    return qmono(rng.choice(coeffs), rat(rng.randint(lo * den, hi * den), den))


def test_accumulator_matches_series_sums_randomized():
    """_Acc against the coefficient loops of ``oracles``: add_mono as
    ``add_oracle`` of ``from_monomial``, add_series as ``add_oracle`` of
    ``mul_monomial_oracle``, add_geom as that of ``geom_inv``,
    times_one_minus as ``add_oracle(s, mul_monomial_oracle(s, -m))``,
    over_one_minus as ``divide_one_minus``.  Grids 1, 2, 3 and 6 mix;
    a part is often added once more with the opposite sign, so coefficients
    cancel; series windows fall below the accumulator's; w has positive,
    negative and zero exponent; the m divided out is constant (the only
    choice while the sum is exact) or has positive exponent."""
    rng = random.Random(1208142101)
    ops = ("mono", "series", "geom", "one_minus", "over_one_minus")
    for i in range(400):
        coeffs = _COEFF_ROWS[i % len(_COEFF_ROWS)]
        scale = rng.choice((1, 2, 3, 6))
        order = None if i % 5 == 0 else rng.randint(-2 * scale, 24 * scale)
        acc, want = _Acc(scale, order), QSeries.zero(scale, order)
        added, case = [], f"draw {i}: start {scale}, {order}"
        for _ in range(rng.randint(1, 7)):
            op = rng.choice(ops[:2] + ops[3:] if want.order is None else ops)
            m = _random_mono(rng, coeffs, -4, 8)
            case += f"; {op} {m!r}"
            if op == "mono":
                acc.add_mono(m)
                want = add_oracle(want, QSeries.from_monomial(m))
            elif op == "series":
                s = _random_side(rng, rng.random() < 0.3, coeffs, divisor=False)
                added.append((s, dict(s.terms)))
                case += f" * {s!r}"
                for sign in (1, -1) if rng.random() < 0.3 else (1,):
                    sm = qmono(sign * m.coeff, m.expo)
                    acc.add_series(sm, s)
                    want = add_oracle(want, mul_monomial_oracle(s, sm))
            elif op == "geom":
                w = _random_mono(rng, coeffs, -3, 3)
                if w.is_one:
                    continue
                case += f" / (1 - {w!r})"
                acc.add_geom(m, w)
                if m.expo * want.scale < want.order:
                    width = ceil_rat(rat(want.order, want.scale) - m.expo)
                    want = add_oracle(want, mul_monomial_oracle(geom_inv(w, 1, width), m))
            elif op == "one_minus":
                m = _random_mono(rng, coeffs, 0, 6)
                acc.times_one_minus(m)
                want = add_oracle(want, mul_monomial_oracle(want, -m))
            else:
                m = _random_mono(rng, coeffs, 0, 6)
                if want.order is None or rng.random() < 0.25:
                    m = qmono(m.coeff)
                if m.is_one:
                    continue
                case += f" / (1 - {m!r})"
                acc.over_one_minus(m)
                want = divide_one_minus(want, m)
        _assert_same_series(acc.freeze(), want, case)
        for s, terms in added:
            assert s.terms == terms, case
    acc = _Acc(1, 10)
    with pytest.raises(GenericityError):
        acc.add_geom(MONO_Q, MONO_ONE)
    with pytest.raises(GenericityError):
        acc.over_one_minus(MONO_ONE)


def test_sums_and_monomial_products_match_oracle_loops_randomized():
    """a + b, a - b, -a, c*a, a.mul_monomial(m) and a / m, each one
    accumulator call, against the coefficient loops of ``oracles`` (a / m
    against ``divide_oracle``); m is b's leading term, on b's grid as a
    divisor.  Neither operand changes."""
    rng = random.Random(14211208)
    neg = qmono(-1)
    for i in range(1120):
        a, b = _random_pair(rng, i, divisor=True)
        vb = min(b.terms)
        m = QMonomial(b.terms[vb], rat(vb, b.scale))
        mono = QSeries(b.scale, None, {vb: m.coeff})
        before = [(s.scale, s.order, dict(s.terms)) for s in (a, b, mono)]
        case = f"draw {i}: {a!r}, {b!r}"
        _assert_same_series(a + b, add_oracle(a, b), case)
        _assert_same_series(a - b, add_oracle(a, mul_monomial_oracle(b, neg)), case)
        _assert_same_series(-a, mul_monomial_oracle(a, neg), case)
        _assert_same_series(m.coeff * a, mul_monomial_oracle(a, qmono(m.coeff)), case)
        _assert_same_series(a.mul_monomial(m), mul_monomial_oracle(a, m), case)
        _assert_same_series(a.divide(mono), divide_oracle(a, mono), case)
        assert [(s.scale, s.order, s.terms) for s in (a, b, mono)] == before, case


def test_pow_matches_repeated_mul():
    s = QSeries(1, 9, {0: rat(1), 1: rat(2), 3: rat(-1)})
    assert series_equal(s**3, s * s * s)
    assert (s**0).terms == {0: rat(1)}
    inv2 = s**-2
    assert series_equal(inv2, s.inverse() * s.inverse())


def test_first_difference_reports_smallest():
    a = QSeries(1, 10, {0: rat(1), 3: rat(2), 5: rat(1)})
    b = QSeries(1, 10, {0: rat(1), 3: rat(2), 5: rat(4), 7: rat(9)})
    e, ca, cb = QSeries.first_difference(a, b)
    assert e == 5 and ca == 1 and cb == 4
    assert QSeries.first_difference(a, a) is None
    # differences beyond the common window are invisible
    c = QSeries(1, 4, {0: rat(1), 3: rat(2)})
    d = QSeries(1, 10, {0: rat(1), 3: rat(2), 5: rat(99)})
    assert QSeries.first_difference(c, d) is None


def test_coeff_at_fractional_grid():
    s = QSeries(2, 10, {1: rat(7)})  # 7*q^(1/2), window q^5
    assert s.coeff_at(rat(1, 2)) == 7
    assert s.coeff_at(1) == 0
    assert s.coeff_at(rat(1, 3)) == 0
    with pytest.raises(OrderExceeded):
        s.coeff_at(5)


def test_rescale_and_minimize_roundtrip():
    s = QSeries(1, 7, {0: rat(1), 2: rat(5)})
    up = s.rescaled(6)
    assert up.coeff_at(2) == 5 and up.window_q() == 7
    back = up.minimize_scale()
    assert back.scale == 1 and back.terms == s.terms


def test_minimize_scale_keeps_a_finite_window():
    """1 + O(q^(3/2)) on grid 2 stays on grid 2: grid 1 would claim the
    q^(3/2) coefficient; a window on the coarser grid lets the grid shrink."""
    s = QSeries(2, 3, {0: rat(1)})
    kept = s.minimize_scale()
    assert (kept.scale, kept.window_q()) == (2, rat(3, 2))
    with pytest.raises(OrderExceeded):
        kept.rescaled(4).coeff_at(rat(3, 2))
    coarse = QSeries(4, 6, {0: 1, 2: 5}).minimize_scale()
    assert (coarse.scale, coarse.order, coarse.terms) == (2, 3, {0: 1, 1: 5})


# ---------------------------------------------------------------------------
# substitution q -> monomial
# ---------------------------------------------------------------------------


def test_compose_monomial_power_substitution():
    s = geom_inv(qmono(1, 1), 1, 8)  # 1 + q + q^2 + ...
    t = compose_monomial(s, qmono(1, 3))
    assert t.window_q() == 24
    assert all(t.coeff_at(3 * n) == 1 for n in range(8))
    assert t.coeff_at(4) == 0


def test_compose_monomial_sign_twist():
    s = geom_inv(qmono(1, 1), 1, 6)
    t = compose_monomial(s, qmono(-1, 1))  # q -> -q
    assert [t.coeff_at(n) for n in range(6)] == [1, -1, 1, -1, 1, -1]


def test_compose_monomial_cyclotomic_scale():
    s = QSeries(1, 5, {1: rat(1), 2: rat(1)})
    t = compose_monomial(s, qmono(zeta(1, 3), 2))  # q -> w*q^2
    assert t.coeff_at(2) == zeta(1, 3)
    assert t.coeff_at(4) == zeta(2, 3)
    assert t.window_q() == 10
    with pytest.raises(UnsupportedSubstitution):
        compose_monomial(s, qmono(1, -1))


def test_compose_monomial_fractional_target():
    s = QSeries(1, 4, {1: rat(2), 3: rat(1)})
    t = compose_monomial(s, qmono(1, rat(1, 2)))
    assert t.coeff_at(rat(1, 2)) == 2
    assert t.coeff_at(rat(3, 2)) == 1
    assert t.window_q() == 2


# ---------------------------------------------------------------------------
# ring laws on random exact polynomials
# ---------------------------------------------------------------------------


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        k = draw(st.integers(-6, 12))
        c = draw(st.integers(-5, 5))
        if c:
            terms[k] = terms.get(k, rat(0)) + rat(c)
    terms = {k: c for k, c in terms.items() if c != 0}
    scale = draw(st.sampled_from((1, 2)))
    return QSeries(scale, None, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_series_ring_laws(a, b, c):
    assert series_equal(a + b, b + a)
    assert series_equal(a * b, b * a)
    assert series_equal((a + b) * c, a * c + b * c)
    assert series_equal((a * b) * c, a * (b * c))
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys())
def test_series_inverse_roundtrip(a):
    if a.is_zero():
        return
    inv = a.inverse(window_hint=15)
    prod = a * inv
    one = QSeries.from_coeff(1)
    assert QSeries.first_difference(prod, one) is None
