"""Truncated-series kernel: windows, ring laws, inversion, substitution.

The product is checked against the earlier coefficient-by-coefficient loop,
kept here as ``mul_oracle``; division against the earlier two-step kernel
(back-substitution for the inverse, then that product), ``divide_oracle``.
"""

import random
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (add_oracle, cyc_canonical, eulerian_sum_oracle, geom_inv,
                     has_coeff_types, mul_monomial_oracle)
from qverify.cyclotomic import CycRat, cinv, rat, zeta
from qverify.errors import (
    DivisionByZero,
    GenericityError,
    OrderExceeded,
    UnsupportedSubstitution,
)
from qverify import kernels
from qverify.eulerian import eulerian_sum
from qverify.cli import builtin_records
from qverify.kernels import KRON_PAIRS, NEWTON_STEPS
from qverify.runner import verify_identity
from qverify.series import (
    MONO_ONE,
    MONO_Q,
    QMonomial,
    QSeries,
    _Acc,
    ceil_rat,
    clear_memos,
    common_scale,
    compose_monomial,
    operand_orders,
    qmono,
    series_equal,
)
from qverify.theta import jtheta


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


def test_monomial_fields_are_ints_when_integral():
    m = QMonomial(Fraction(-6, 2), Fraction(4, 2))
    assert (type(m.coeff), type(m.expo)) == (int, int)
    assert (m.coeff, m.expo) == (-3, 2)
    f = QMonomial(Fraction(1, 2), Fraction(3, 4))
    assert (type(f.coeff), type(f.expo)) == (Fraction, Fraction)
    mixed = QMonomial(Fraction(5), Fraction(-1, 3))
    assert (type(mixed.coeff), type(mixed.expo)) == (int, Fraction)
    assert type(QMonomial(zeta(1, 3), rat(2)).coeff) is CycRat
    assert type(QMonomial(zeta(2, 4), rat(2)).coeff) is int  # zeta(2, 4) = -1
    # ints and Rats build equal monomials that hash alike
    for c, e in ((1, 0), (-2, 5), (7, -3)):
        a, b = QMonomial(c, e), QMonomial(Fraction(c), Fraction(e))
        assert (type(b.coeff), type(b.expo)) == (int, int)
        assert a == b and hash(a) == hash(b)


def test_int_and_rat_monomials_share_one_memo_entry():
    clear_memos()
    first = jtheta(QMonomial(-1, 1), QMonomial(1, 3), 20)
    hits = jtheta.cache_info().hits
    again = jtheta(QMonomial(Fraction(-1), Fraction(1)), QMonomial(Fraction(1), Fraction(3)),
                   rat(20))
    assert again is first
    assert jtheta.cache_info().hits == hits + 1


def test_monomial_arithmetic_never_yields_a_float_randomized():
    """*, /, ** (fractional powers of roots of unity included) and inverse
    keep every field an int, a fractional Rat or a CycRat: never a float,
    and never an integral Rat."""
    rng = random.Random(25)
    roots = [1, -1, zeta(1, 3), zeta(1, 4), zeta(3, 8), zeta(5, 12)]
    coeffs = roots + [2, -3, Fraction(1, 2), Fraction(-4, 3), zeta(1, 4) + 2]

    def draw(pool):
        return QMonomial(rng.choice(pool), rat(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))))

    def check(m):
        for v in (m.coeff, m.expo):
            assert type(v) is int or type(v) is CycRat or (
                type(v) is Fraction and v.denominator != 1), (m, type(v))
        return m

    for _ in range(300):
        a, b = draw(coeffs), draw(coeffs)
        assert check(a * b).expo == Fraction(a.expo) + Fraction(b.expo)
        assert check(a / b) * b == a
        assert check(a.inverse()) * a == MONO_ONE
        check(-a)
        k = rng.randint(-4, 4)
        assert check(a ** k) * check(a ** -k) == MONO_ONE
        r, e = draw(roots), rat(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
        p = check(r ** e)
        assert p.expo == r.expo * e
        if e:  # (r^e)^(1/e) = r up to a root of unity: the exponent is exact
            assert check(p ** (1 / e)).expo == r.expo


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
    signs, Rats over mixed denominators, CycRats (on coordinates above
    KRON_PAIRS); exact and finite sides (exact x exact included), negative
    valuations, grids 1, 2 and 8.  No integral coefficient of a product is
    a Rat."""
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


def test_kronecker_scans_types_only_for_its_own_products(monkeypatch):
    """``kernels.kronecker`` calls ``conductor`` only once its size tests
    have chosen Kronecker substitution: never for a product it leaves to
    the loop, by the side test (a side of at most KRON_PAIRS terms) or by
    the pairs-a-slot test, and once for each product it takes.  Int, Rat
    and CycRat sides of 1 to 60 terms; every product equals
    ``mul_oracle``'s."""
    scans, took = [], []
    conductor, kron = kernels.conductor, kernels.kronecker

    def spy(at, bt, window):
        scans.clear()
        out = kron(at, bt, window)
        took.append((out is not None, len(scans), min(len(at), len(bt)) > KRON_PAIRS))
        return out

    monkeypatch.setattr(kernels, "conductor", lambda *c: scans.append(c) or conductor(*c))
    monkeypatch.setattr(kernels, "kronecker", spy)
    rng = random.Random(2020)
    seen = {"kronecker": 0, "loop by the side test": 0, "loop by the pairs test": 0}
    for i in range(240):
        kind = ("small", "rat", "cyc")[i % 3]
        a = _wide_side(rng, kind, i % 2 == 0, 60)
        b = _wide_side(rng, rng.choice(("small", kind)), (i // 2) % 2 == 0, 60)
        took.clear()
        case = f"draw {i}: {a!r} * {b!r}"
        _assert_same_series(a * b, mul_oracle(a, b), case)
        for taken, n, past_side_test in took:
            assert n == taken, case
            seen["kronecker" if taken else "loop by the pairs test" if past_side_test
                 else "loop by the side test"] += 1
    assert min(seen.values()) >= 20, seen


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


def _int_long_divisions(monkeypatch):
    """Spy on kernels.long_division: its lead is a positive int, its steps
    are ints, and every entry of its rows is an int on entry and on exit
    (no row holds a Fraction).  Returns the list of leads it was given."""
    leads = []
    long_division = kernels.long_division

    def spy(rem, step, lead):
        assert type(lead) is int and lead > 0, lead
        assert all(type(f) is int for _, f in step), step
        assert set(map(type, rem)) <= {int}, set(map(type, rem))
        long_division(rem, step, lead)
        assert set(map(type, rem)) <= {int}, set(map(type, rem))
        leads.append(lead)

    monkeypatch.setattr(kernels, "long_division", spy)
    return leads


def test_divide_matches_oracle_on_long_windows_randomized(monkeypatch):
    """Long division into a remainder list against ``divide_oracle``:
    dividends of 1 to 400 terms, divisors of 1 to 30 with a unit, content
    or non-unit leading term (+-2, 3, -3, 1/2, 3/2), ints up to 2^80, Rats
    over mixed denominators, CycRats, negative valuations, grids 1, 2 and
    8, exact sides with a hint.  No integral coefficient of a quotient by
    anything but an exact monomial is a Rat, and every long division runs
    on ints."""
    leads = _int_long_divisions(monkeypatch)
    rng = random.Random(2012)
    non_unit = 0
    for i in range(120):
        kind = ("small", "big", "rat", "cyc")[i % 4]
        most = 400 if kind == "small" else 60
        a = _wide_side(rng, kind, i % 4 == 1, most)
        b = _wide_side(rng, rng.choice(("small", kind)), i % 3 == 0, 30)
        vb = min(b.terms)
        lead = rng.choice((1, -1, 2, -2, 3, -3, rat(1, 2), rat(3, 2), b.terms[vb]))
        b = QSeries(b.scale, b.order, {**b.terms, vb: lead})
        hint = rng.randint(1, 120) if a.order is None and b.order is None else None
        leads.clear()
        got, case = a.divide(b, hint), f"draw {i}: {a!r} / {b!r}, hint {hint}"
        _assert_same_series(got, divide_oracle(a, b, hint), case)
        if b.order is not None or len(b.terms) > 1:
            assert _no_integral_rat(got), case
        non_unit += any(x != 1 for x in leads)
    assert non_unit >= 20, non_unit


def _assert_canonical(s, case):
    """Every coefficient is nonzero and in canonical form: a CycRat equals
    the reference canonical value of its own coordinates."""
    assert has_coeff_types(s), case
    for c in s.terms.values():
        assert c, case
        if type(c) is CycRat:
            coords = tuple(Fraction(x, c.den) for x in c.nums)
            assert cyc_canonical(c.n, coords) == (c.n, coords), case


def _coordinate_products(monkeypatch, forced):
    """Spy on kernels.kronecker, recording whether each product took it;
    forced sets KRON_PAIRS to 0, so that every product of two nonempty
    sides does."""
    took = []
    kron = kernels.kronecker

    def spy(at, bt, window):
        out = kron(at, bt, window)
        took.append(out is not None)
        return out

    monkeypatch.setattr(kernels, "kronecker", spy)
    monkeypatch.setattr(kernels, "KRON_PAIRS", 0 if forced else KRON_PAIRS)
    return took


@pytest.mark.parametrize("forced", (False, True))
def test_coordinate_product_reduces_before_the_zero_test(monkeypatch, forced):
    """(1 + q)(zeta_3^2 + (1 + zeta_3) q): the q coefficient has coordinates
    (1, 1, 1) in zeta_3^0, zeta_3^1, zeta_3^2, which is 0 mod Phi_3, so the
    product has no q^1 key; the same spread over 40 slots, on the loop and
    on coordinates."""
    took = _coordinate_products(monkeypatch, forced)
    w2 = zeta(2, 3)
    for k in (1, 40):
        a = QSeries(1, None, {0: 1, k: 1})
        b = QSeries(1, None, {0: w2, k: 1 + zeta(1, 3)})
        got = a * b
        assert got.terms == {0: w2, 2 * k: 1 + zeta(1, 3)}, (k, got)
        _assert_canonical(got, k)
        q = (got * QSeries(1, 3 * k, {0: 1})).divide(a)
        assert q.terms == b.terms and q.order == 3 * k, (k, q)
    assert any(took) == forced


def _cyc_element(rng, n):
    """A random element sum a_i zeta_n^i / d with small a_i, often a root
    of unity or rational, canonical as the arithmetic leaves it."""
    r = rng.random()
    if r < 0.2:
        return rng.choice((1, -1, 2, rat(-1, 3)))
    if r < 0.45:
        c = rng.choice((1, -1)) * zeta(rng.randrange(1, n), n)
        return int(c) if type(c) is Fraction else c
    c = sum(rng.randint(-3, 3) * zeta(i, n) for i in range(rng.randint(1, n)))
    c = c * rat(1, rng.choice((1, 1, 2, 3))) or zeta(1, n)
    return int(c) if type(c) is Fraction and c.denominator == 1 else c


#: the conductors of the randomized CycRat kernels: one field each, and
#: Q(zeta_3) mixed with Q(zeta_4) (conductor 12)
_CONDUCTORS = ((3,), (4,), (5,), (12,), (3, 4))


def _cyc_side(rng, conds, exact, divisor, most=40):
    """A random series of 1 to ``most`` terms on grid 1 or 2, dense or
    spread over up to 4x its length, from the given conductors; a divisor
    has its leading term, and a dividend is sometimes empty."""
    n = int(most ** rng.random())
    span = n * rng.choice((1, 1, 2, 4))
    lo = rng.randint(-6, 6)
    keys = rng.sample(range(lo, lo + span), n)
    if divisor:
        keys = [lo] + [k for k in keys if k != lo][:n - 1]
    elif rng.random() < 0.05:
        keys = []
    terms = {k: _cyc_element(rng, rng.choice(conds)) for k in keys}
    order = None if exact else lo + span + rng.randint(0, span)
    return QSeries(rng.choice((1, 2)), order, terms)


@pytest.mark.parametrize("forced", (False, True))
def test_cyc_products_match_oracle_randomized(monkeypatch, forced):
    """CycRat products against ``mul_oracle`` at conductors 3, 4, 5, 12 and
    3 with 4 mixed, exact and finite sides, 1 to 40 terms, on both sides of
    the KRON_PAIRS rule (and, forced, every product on coordinates): each
    window and term equals the oracle's and each coefficient is
    canonical."""
    took = _coordinate_products(monkeypatch, forced)
    rng = random.Random(2009 + forced)
    seen = {"coords": 0, "loop": 0}
    for i in range(250):
        conds = _CONDUCTORS[i % len(_CONDUCTORS)]
        a = _cyc_side(rng, conds, (i // 5) % 2 == 0, False)
        b = _cyc_side(rng, conds, (i // 10) % 2 == 0, False)
        took.clear()
        got, case = a * b, f"draw {i}: {a!r} * {b!r}"
        _assert_same_series(got, mul_oracle(a, b), case)
        _assert_canonical(got, case)
        seen["coords" if took and took[0] else "loop"] += 1
    assert seen["coords"] >= 50 and (forced or seen["loop"] >= 50), seen


def test_cyc_quotients_match_oracle_randomized(monkeypatch):
    """CycRat quotients against ``divide_oracle`` at conductors 3, 4, 5, 12
    and 3 with 4 mixed: rational divisors (leading terms +-1, +-2, 3, 1/2,
    3/2) and CycRat divisors, whose Galois norm may have a non-unit leading
    term, of 1 to 12 terms (one term, exact or finite, included), dividends
    of 1 to 40 terms, exact sides with a window_hint; each window and term
    equals the oracle's, each coefficient is canonical, and every long
    division runs on ints."""
    leads = _int_long_divisions(monkeypatch)
    rng = random.Random(20121)
    seen = {"cyc divisor": 0, "rational divisor": 0, "one-term divisor": 0, "hint": 0}
    non_unit = {"rational lead": 0, "norm lead": 0}
    for i in range(250):
        conds = _CONDUCTORS[i % len(_CONDUCTORS)]
        a = _cyc_side(rng, conds, (i // 5) % 2 == 0, False)
        b = _cyc_side(rng, conds, (i // 10) % 3 == 0, True, rng.choice((1, 2, 12)))
        if i % 3 == 0:
            b = QSeries(b.scale, b.order, {k: rng.choice((1, -1, 2, -2, 3, rat(1, 2), rat(3, 2)))
                                           for k in b.terms})
        hint = rng.randint(1, 40) if a.order is None and b.order is None else None
        leads.clear()
        got = a.divide(b, hint)
        case = f"draw {i}: {a!r} / {b!r}, hint {hint}"
        _assert_same_series(got, divide_oracle(a, b, hint), case)
        _assert_canonical(got, case)
        cyc = any(type(c) is CycRat for c in b.terms.values())
        seen["cyc divisor" if cyc else "rational divisor"] += 1
        seen["one-term divisor"] += len(b.terms) == 1
        seen["hint"] += hint is not None
        non_unit["norm lead" if cyc else "rational lead"] += any(x != 1 for x in leads)
    assert min(seen.values()) >= 20, seen
    assert min(non_unit.values()) >= 10, non_unit


def _quotient_paths(monkeypatch):
    """Spy on both quotient paths and check the rule between them: each
    ``newton_inverse`` is given an int row with leading coefficient 1 and
    more than NEWTON_STEPS other terms, and returns its inverse to as many
    slots; no ``long_division`` with lead 1 has more than NEWTON_STEPS
    steps.  Returns the lists of Newton step counts and of long divisions'
    (lead, steps)."""
    newton, longs = [], []
    inverse, long_division = kernels.newton_inverse, kernels.long_division

    def newton_spy(b):
        x = inverse(b)
        steps = len(b) - b.count(0) - 1
        assert b[0] == 1 and steps > NEWTON_STEPS, (b[0], steps)
        assert set(map(type, b + x)) <= {int} and len(x) == len(b)
        dense = lambda c: dict(compress(enumerate(c), c))
        assert brute_convolution(dense(b), dense(x), len(b)) == {0: 1}
        newton.append(steps)
        return x

    def long_spy(rem, step, lead):
        assert lead != 1 or len(step) <= NEWTON_STEPS, len(step)
        long_division(rem, step, lead)
        longs.append((lead, len(step)))

    monkeypatch.setattr(kernels, "newton_inverse", newton_spy)
    monkeypatch.setattr(kernels, "long_division", long_spy)
    return newton, longs


def _long_divisor(rng, steps, lead, n):
    """An exact divisor of 1 + ``steps`` terms at exponents 0 .. span - 1,
    span up to 1.5x that: leading coefficient lead, the others small ints
    (one of them +-1, so that the content is 1) and, at conductor n > 1,
    about one in four an integral CycRat c +- zeta_n^k, whose Galois norm
    keeps a leading coefficient 1 with lead +-1 or zeta_n; on grid 1 or
    2."""
    span = steps + 1 + rng.randint(0, steps // 2)
    keys = rng.sample(range(1, span), steps)
    terms = {k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in keys}
    terms[keys[0]] = rng.choice((1, -1))
    if n > 1:
        for k in keys[1:]:
            if rng.random() < 0.25:
                terms[k] = rng.randint(-2, 2) + rng.choice((1, -1)) * zeta(rng.randrange(1, n), n)
    return QSeries(rng.choice((1, 2)), None, {0: lead, **terms})


def test_quotients_straddle_the_newton_threshold_randomized(monkeypatch):
    """Quotients by divisors of NEWTON_STEPS - 30 to NEWTON_STEPS + 30
    other terms against ``divide_oracle``: leading coefficient +-1 or
    zeta_n, which stays +-1 after a content of 1, 2 or 3/2 is divided out,
    or 2, which is no unit (those have more than NEWTON_STEPS other terms
    and still long-divide); rational dividends and CycRat ones at
    conductors 3, 4 and 5 (multiplied by the inverse on row 0 of their
    rows), CycRat divisors at conductors 3 and 4 through their Galois
    norm.  ``_quotient_paths`` checks the rule on every call; each window
    and term equals the oracle's, and each coefficient is canonical."""
    newton, longs = _quotient_paths(monkeypatch)
    rng = random.Random(19781201)
    seen = {"newton": 0, "newton, dividend at phi > 1": 0, "newton through a norm": 0,
            "long division, lead 1": 0, "long division above the threshold": 0}
    for i in range(64):
        kind = ("rat", "rat", "cyc dividend", "cyc divisor")[i % 4]
        n = rng.choice((3, 4, 5) if kind == "cyc dividend" else (3, 4))
        unit = i % 3 != 2
        steps = rng.randint(NEWTON_STEPS - 30 if unit else NEWTON_STEPS + 1, NEWTON_STEPS + 30)
        units = (1, -1, zeta(1, n)) if kind == "cyc divisor" else (1, -1)
        lead = rng.choice(units) if unit else 2
        b = _long_divisor(rng, steps, lead, n if kind == "cyc divisor" else 1)
        b = b * QSeries(b.scale, None, {0: rng.choice((1, 2, -2, rat(3, 2)))})
        coeff = (lambda: _cyc_element(rng, n)) if kind != "rat" else \
            (lambda: rng.choice((1, -1, 5, rat(-7, 3), 2**70)))
        va = rng.randint(-5, 5)
        span = max(b.terms) + 1 + rng.randint(0, 20)
        a = QSeries(b.scale, va + span,
                    {k: coeff() for k in rng.sample(range(va, va + span), rng.randint(1, 12))})
        newton.clear()
        longs.clear()
        got, case = a.divide(b), f"draw {i}: {a!r} / {b!r}"
        _assert_same_series(got, divide_oracle(a, b), case)
        _assert_canonical(got, case)
        if newton:
            seen["newton"] += 1
            seen["newton, dividend at phi > 1"] += kind != "rat"
            seen["newton through a norm"] += kind == "cyc divisor"
        for lead_, steps_ in longs:
            seen["long division, lead 1"] += lead_ == 1
            seen["long division above the threshold"] += lead_ != 1 and steps_ > NEWTON_STEPS
    assert min(seen.values()) >= 5, seen


def test_high_order_takes_newton_for_the_two_f0_conjecture_quotients(monkeypatch):
    """The builtin suite at order 200 without master_expansion_11 (the
    ``high_order`` benchmark workload, whose seeds only add a monomial to
    some right-hand sides): exactly three identities divide by a row that
    takes ``newton_inverse``, once each: the two f0_conjecture identities
    by (q; q^5)_inf (q^4; q^5)_inf with 195 other terms, and
    theta34_radial_collapse by its theta quotients' whole denominator, one
    product with 191; every identity passes."""
    newton, _ = _quotient_paths(monkeypatch)
    took = {}
    clear_memos()
    for r in builtin_records():
        if r.name != "master_expansion_11":
            newton.clear()
            assert verify_identity(r, force_order=200).status == "pass", r.name
            if newton:
                took[r.name] = newton[:]
    assert took == {"f0_conjecture_g": [195], "f0_conjecture_m": [195],
                    "theta34_radial_collapse": [191]}, took


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


def test_eulerian_sum_widens_its_conductor():
    """A coefficient outside the field of the specs and the first three
    terms (zeta_4 from term 3 on, against zeta_3 and -1/2) lifts the
    coordinate lists to conductor 12, also with a constant of denominator
    3; equal to the accumulator oracle."""
    def monos(n):
        return (qmono(zeta(1, 4) if n >= 3 else rat(-1, 2), n * n),)

    x, base = qmono(zeta(1, 3), 1), qmono(1, 1)
    for const in (None, rat(2, 3)):
        args = (40, monos, (), ((x, base, lambda n: n + 1),), const, 0)
        got, want = eulerian_sum(*args), eulerian_sum_oracle(*args)
        assert (got.scale, got.order, got.terms) == (want.scale, want.order, want.terms)
        assert any(type(c) is CycRat and c.n == 12 for c in got.terms.values())
        _assert_canonical(got, const)


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


def test_eulerian_sum_rejects_a_monomial_that_falls():
    """The stop rule needs every monomial's exponent to stay nondecreasing
    in n, not only the least one to stay at or above the first term's:
    here the second monomial runs 15, 5, 0, 0, 5 while the first passes
    the window at term 1, so summing stopped after term 0 with the q^0
    coefficient 1 where terms 2 and 3 add two more.  A fall from term 0 to
    1, a negative second difference over terms 0 to 2, and a change in
    the number of monomials are each refused."""
    with pytest.raises(ValueError, match="below the first"):
        eulerian_sum(3, lambda n: (qmono(1, 20 * n), qmono(1, (5 * n * n - 25 * n + 30) // 2)))
    with pytest.raises(ValueError, match="below the first"):  # 0, 6, 7: second difference -5
        eulerian_sum(3, lambda n: (qmono(1, 20 * n), qmono(1, 5 * n * (3 - n) // 2 + n)))
    for n_at in (1, 3):
        with pytest.raises(ValueError, match="as many"):
            eulerian_sum(30, lambda n: (qmono(1, n * n),) * (1 + (n == n_at)))


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


def test_compose_monomial_window_on_its_grid():
    """The window's image order*expo(m) is on the result's grid, whatever
    the terms' exponents: 1 known below q^1, at q -> q^(3/2), is known
    below exactly q^(3/2)."""
    t = compose_monomial(QSeries(1, 1, {0: 1}), qmono(1, rat(3, 2)))
    assert t.window_q() == rat(3, 2) and t.terms == {0: 1}
    assert t.coeff_at(1) == 0
    with pytest.raises(OrderExceeded):
        t.coeff_at(rat(3, 2))


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
