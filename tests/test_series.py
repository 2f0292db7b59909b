"""Truncated-series kernel: windows, ring laws, inversion, substitution.

The product is checked against the earlier coefficient-by-coefficient loop,
kept here as ``mul_oracle``; division against the earlier two-step kernel
(back-substitution for the inverse, then that product), ``divide_oracle``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (add_oracle, eulerian_sum_oracle, geom_inv, has_coeff_types,
                     mul_monomial_oracle)
from qverify.cyclotomic import cinv, rat, zeta
from qverify.errors import (
    DivisionByZero,
    GenericityError,
    OrderExceeded,
    UnsupportedSubstitution,
)
from qverify import kernels
from qverify.eulerian import eulerian_sum
from qverify.kernels import KRON_PAIRS
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


def _wide_coeff(rng, kind):
    """A coefficient of one of the kinds the dense kernels meet: small
    ints, ints up to 2^80 of both signs, Rats over mixed denominators (an
    integral one is sometimes a Rat, sometimes an int), or a CycRat among
    small ints."""
    sign = rng.choice((-1, 1))
    if kind == "small" or (kind == "cyc" and rng.random() < 0.7):
        return sign * rng.randint(1, 3)
    if kind == "big":
        return sign * rng.randrange(1, 2**80)
    if kind == "rat":
        c = rat(sign * rng.randrange(1, 10**6), rng.choice((1, 2, 3, 4, 7, 12, 2**40)))
        return c if rng.random() < 0.5 else int(c) if c.denominator == 1 else c
    return rng.choice((zeta(1, 3), zeta(1, 4) * rat(3, 2)))


def _wide_side(rng, kind, exact, most=400):
    """A series of 1 to ``most`` terms (log-uniform) on grid 1, 2 or 8, with
    a valuation that may be negative and a density of 1 to 1/3 of its
    span; exact or known a little past its last term."""
    n = int(most ** rng.random())
    span = n * rng.choice((1, 1, 2, 3))
    lo = rng.randint(-20, 20)
    terms = {k: _wide_coeff(rng, kind) for k in rng.sample(range(lo, lo + span), n)}
    order = None if exact else lo + span + rng.randint(0, span)
    return QSeries(rng.choice((1, 2, 8)), order, terms)


def _no_integral_rat(s):
    return not any(type(c) is Fraction and c.denominator == 1 for c in s.terms.values())


def test_product_takes_kronecker_above_the_density_threshold(monkeypatch):
    """Two exact dense m-term series have m*m term pairs over 2m - 1 output
    slots: the loop takes the largest m with at most KRON_PAIRS pairs a
    slot, and Kronecker substitution the next m."""
    took = []
    kron = kernels.kronecker
    monkeypatch.setattr(kernels, "kronecker", lambda *a: took.append(kron(*a)) or took[-1])
    m = max(m for m in range(1, 10 * KRON_PAIRS) if m * m <= KRON_PAIRS * (2 * m - 1))
    for k in (m, m + 1):
        a = QSeries(1, None, {i: (-1) ** i * (i + 1) for i in range(k)})
        _assert_same_series(a * a, mul_oracle(a, a), k)
    assert [t is not None for t in took] == [False, True]


def test_product_kernels_match_loop_across_the_threshold_randomized(monkeypatch):
    """Products of 1 to 400 terms against ``mul_oracle``, on both sides of
    the Kronecker density threshold: small ints, ints up to 2^80 of both
    signs, Rats over mixed denominators, CycRats (always the loop); exact
    and finite sides (exact x exact included), negative valuations, grids 1,
    2 and 8.  No integral coefficient of a product is a Rat."""
    took = []
    kron = kernels.kronecker

    def spy(at, bt, window):
        out = kron(at, bt, window)
        took.append(out is not None)
        return out

    monkeypatch.setattr(kernels, "kronecker", spy)
    rng = random.Random(20091)
    seen = {"kron": 0, "loop": 0, "kron_rat": 0, "kron_wide": 0, "kron_neg": 0,
            "kron_exact": 0}
    for i in range(400):
        kind = ("small", "big", "rat", "cyc")[i % 4]
        most = 400 if kind in ("small", "big") else 120
        a = _wide_side(rng, kind, (i // 4) % 2 == 0, most)
        b = _wide_side(rng, rng.choice(("small", kind)), (i // 8) % 2 == 0, most)
        took.clear()
        got, case = a * b, f"draw {i}: {a!r} * {b!r}"
        _assert_same_series(got, mul_oracle(a, b), case)
        assert _no_integral_rat(got), case
        if not took or not took[0]:
            seen["loop"] += 1
            continue
        seen["kron"] += 1
        seen["kron_rat"] += kind == "rat"
        seen["kron_wide"] += any(type(c) is int and abs(c) >= 2**64 for c in got.terms.values())
        seen["kron_neg"] += min(got.terms, default=0) < 0
        seen["kron_exact"] += got.order is None
    assert min(seen.values()) >= 8, seen


def test_integral_product_coefficients_are_ints():
    """An integral coefficient of a product is an int, on the loop (1 x 2
    terms) and on Kronecker substitution (200 x 200 terms)."""
    half = rat(1, 2)
    got = QSeries(1, 10, {0: 1, 1: 1}) * QSeries(1, 10, {0: half, 1: half})
    assert got.terms == {0: half, 1: 1, 2: half} and type(got.terms[1]) is int
    a = QSeries(1, 200, {k: rat(k + 1, 2) for k in range(200)})
    got = a * a
    _assert_same_series(got, mul_oracle(a, a), "200 x 200")
    assert _no_integral_rat(got) and any(type(c) is int for c in got.terms.values())


def test_divide_matches_oracle_on_long_windows_randomized():
    """Long division into a remainder list against ``divide_oracle``:
    dividends of 1 to 400 terms, divisors of 1 to 30 with a unit, content
    or Rat leading term, ints up to 2^80, Rats over mixed denominators,
    CycRats, negative valuations, grids 1, 2 and 8, exact sides with a
    hint."""
    rng = random.Random(2012)
    for i in range(120):
        kind = ("small", "big", "rat", "cyc")[i % 4]
        most = 400 if kind == "small" else 60
        a = _wide_side(rng, kind, i % 4 == 1, most)
        b = _wide_side(rng, rng.choice(("small", kind)), i % 3 == 0, 30)
        b.terms[min(b.terms)] = rng.choice((1, -1, 2, -3, rat(1, 2), b.terms[min(b.terms)]))
        hint = rng.randint(1, 120) if a.order is None and b.order is None else None
        got = a.divide(b, hint)
        _assert_same_series(got, divide_oracle(a, b, hint), f"draw {i}: {a!r} / {b!r}, hint {hint}")


def test_dense_eulerian_sum_matches_accumulators_randomized():
    """``eulerian_sum`` on dense lists against ``eulerian_sum_oracle``, the
    accumulator engine it replaced, for grid, window and terms: int, Rat
    and CycRat coefficients on x, base, monomials and const; fractional
    orders and exponents, orders <= 0, a monomial off the order's and the
    specs' grid; constant binomials (1 - c) and 1/(1 - c) with inverses
    1/2, -1/2, 3/2 and 1/(1 - zeta_3); bases -q^e, first terms below 0,
    start 1.  A term below the first raises ValueError when it is summed."""
    rng = random.Random(1998)
    counts = (lambda n: n, lambda n: n + 1, lambda n: 2 * n)
    pools = ((1, -1, 2, -3), (1, -1, 2, rat(1, 2), rat(-2, 3)),
             (1, -1, zeta(1, 3), -zeta(1, 4), rat(1, 2) * zeta(1, 3)))

    def ex(lo, hi):
        return rat(rng.randint(lo, hi), rng.choice((1, 2, 3)))

    seen = {"int": 0, "rat": 0, "cyc": 0, "order <= 0": 0, "off the specs' grid": 0,
            "non-int constant inverse": 0, "dip raised": 0}
    for i in range(300):
        kind = ("int", "rat", "cyc")[i % 3]
        pool = pools[i % 3]
        bases = (1, -1) if kind == "int" else (1, -1, pool[-1])
        num = tuple((qmono(rng.choice(pool), ex(0, 6)), qmono(rng.choice(bases), ex(1, 6)),
                     rng.choice(counts)) for _ in range(rng.randint(0, 2)))
        den = []
        for _ in range(rng.randint(0, 2)):
            e = ex(0, 6)
            c = rng.choice((-1, 2, 3, rat(1, 3), zeta(1, 3))) if e == 0 else rng.choice(pool)
            seen["non-int constant inverse"] += e == 0 and c != 2
            den.append((qmono(c, e), qmono(rng.choice(bases), ex(1, 6)), rng.choice(counts)))
        a, b, e0 = rng.randint(0, 3), ex(1, 4), ex(-6, 4)
        c0 = rng.choice(pool)
        shift = rng.choice((None, 0, 1, -2, rat(1, 5) if i % 4 == 0 else 1))
        sign = rng.choice((lambda n: 1, lambda n: -1 if n % 2 else 1))
        start = rng.choice((0, 0, 1))
        # in one draw in 20, term start + 1 is one below term start
        dip = a * (2 * start + 1) + b + 1 if i % 20 == 0 else 0

        def monos(n, a=a, b=b, e0=e0, c0=c0, shift=shift, sign=sign, dip=dip, start=start):
            m = qmono(c0 * sign(n), a * n * n + b * n + e0 - (dip if n == start + 1 else 0))
            return (m,) if shift is None else (m, qmono(-1, m.expo + shift))

        const = rng.choice((None, None, 1, -2, rat(1, 3), zeta(1, 3)))
        order = rat(rng.randint(-4, 40), rng.choice((1, 2, 3)))
        args = (order, monos, num, tuple(den), const, start)
        case = f"draw {i}: {args}"
        if dip and min(m.expo for m in monos(start)) < order:
            with pytest.raises(ValueError, match="below the first"):
                eulerian_sum(*args)
            seen["dip raised"] += 1
            continue
        got, want = eulerian_sum(*args), eulerian_sum_oracle(*args)
        assert (got.scale, got.order, got.terms) == (want.scale, want.order, want.terms), case
        assert has_coeff_types(got), case
        seen[kind] += 1
        seen["order <= 0"] += order <= 0
        seen["off the specs' grid"] += shift == rat(1, 5)
    assert min(seen.values()) >= 5, seen


def test_eulerian_sum_preconditions():
    """A sum that breaks ``eulerian_sum``'s rules raises ValueError naming
    the rule: an exponent off the lattice of the first three terms, a term
    below the first, a binomial with a negative exponent (from x or from a
    base); 1/(1 - 1) raises GenericityError.  An order <= 0 gives the empty
    series on the window the sum reaches: the order's, less the first
    term's exponent when that is below 0."""
    Q2 = qmono(1, 2)
    with pytest.raises(ValueError, match="off the lattice"):
        # exponents 0, 2, 4 and then odd ones: off the slots of the first
        # three terms and the specs (every other exponent)
        eulerian_sum(30, lambda n: (qmono(1, 2 * n + (n >= 3)),), (), ((Q2, Q2, lambda n: n),))
    with pytest.raises(ValueError, match="below the first"):
        eulerian_sum(10, lambda n: (qmono(1, 3 if n == 1 else n * n + 4),))
    for x, base in ((qmono(1, -1), MONO_Q), (Q2, qmono(1, -1))):
        with pytest.raises(ValueError, match="negative exponent"):
            eulerian_sum(10, lambda n: (qmono(1, n),), ((x, base, lambda n: n),))
    with pytest.raises(GenericityError):
        eulerian_sum(10, lambda n: (qmono(1, n),), (), ((MONO_ONE, MONO_Q, lambda n: n + 1),))
    den = ((qmono(-1, 1), MONO_Q, lambda n: n),)  # (-q; q)_n
    for first, order, const, want in ((-2, 0, None, (1, -2)), (-2, rat(-1, 2), None, (2, -5)),
                                      (0, 0, 1, (1, 0))):
        s = eulerian_sum(order, lambda n, e=first: (qmono(1, n * n + e),), (), den, const)
        assert (s.terms, (s.scale, s.order)) == ({}, want), (first, order, const)


def _random_mono(rng, coeffs, lo, hi):
    """c*q^e with c from coeffs and e on the grid 1/1, 1/2, 1/3 or 1/6."""
    den = rng.choice((1, 2, 3, 6))
    return qmono(rng.choice(coeffs), rat(rng.randint(lo * den, hi * den), den))


def test_accumulator_matches_series_sums_randomized():
    """_Acc against the coefficient loops of ``oracles``: add_mono as
    ``add_oracle`` of ``from_monomial``, add_series as ``add_oracle`` of
    ``mul_monomial_oracle``.  Grids 1, 2, 3 and 6 mix; a part is often
    added once more with the opposite sign, so coefficients cancel; series
    windows fall below the accumulator's."""
    rng = random.Random(1208142101)
    ops = ("mono", "series")
    for i in range(400):
        coeffs = _COEFF_ROWS[i % len(_COEFF_ROWS)]
        scale = rng.choice((1, 2, 3, 6))
        order = None if i % 5 == 0 else rng.randint(-2 * scale, 24 * scale)
        acc, want = _Acc(scale, order), QSeries.zero(scale, order)
        added, case = [], f"draw {i}: start {scale}, {order}"
        for _ in range(rng.randint(1, 7)):
            op = rng.choice(ops)
            m = _random_mono(rng, coeffs, -4, 8)
            case += f"; {op} {m!r}"
            if op == "mono":
                acc.add_mono(m)
                want = add_oracle(want, QSeries.from_monomial(m))
            else:
                s = _random_side(rng, rng.random() < 0.3, coeffs, divisor=False)
                added.append((s, dict(s.terms)))
                case += f" * {s!r}"
                for sign in (1, -1) if rng.random() < 0.3 else (1,):
                    sm = qmono(sign * m.coeff, m.expo)
                    acc.add_series(sm, s)
                    want = add_oracle(want, mul_monomial_oracle(s, sm))
        _assert_same_series(acc.freeze(), want, case)
        for s, terms in added:
            assert s.terms == terms, case


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
