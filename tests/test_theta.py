"""Theta kernel: Pochhammer products, j(x; base), classical identities.

The kernel evaluates j(x; base) as the sparse bilateral sum; the Jacobi
triple product (x)_inf (base/x)_inf (base)_inf, built here from poch_inf,
serves as its independent oracle, next to the straightforward bilateral-sum
oracle in tests/oracles.py.  J_m = (q^m; q^m)_inf is evaluated as j(q^m; q^(3m))
and checked against the poch_inf product.  Frozen coefficient lists below were computed by
hand from the defining sums.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import geom_inv, has_coeff_types, jtheta_sum_oracle, poch_inf_product_oracle
from qverify.appell import bilateral_sum, changing_z_delta
from qverify.cyclotomic import CycRat, Rat, rat, zeta
from qverify.errors import GenericityError, UnsupportedArgument
from qverify.hecke import f_eval, string_function
from qverify import kernels
from qverify.series import MONO_ONE, QSeries, clear_memos, qmono
from qverify.theta import (
    J,
    Jbar,
    Jm,
    binom2,
    jtheta,
    jtheta_shift,
    jtheta_val,
    poch_fin,
    poch_inf,
    quotient,
    theta_quotient,
)

Q = qmono(1, 1)
W3 = zeta(1, 3)
I4 = zeta(1, 4)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def theta_product(factors, order, extra=None):
    """Product of jtheta(x, base) over (x, base) pairs, padded internally so
    the result window reaches `order`.  `extra` is a QMonomial multiplier."""
    vals = []
    for x, b in factors:
        v = jtheta_val(x, b)
        if v is None:
            return QSeries(1, None, {})
        vals.append(v)
    pad = sum(max(0, -v) for v in vals)
    if extra is not None and extra.expo < 0:
        pad += -extra.expo
    out = None
    for (x, b), v in zip(factors, vals):
        s = jtheta(x, b, rat(order) + pad)
        out = s if out is None else out * s
    if out is None:
        out = QSeries.from_coeff(1)
    if extra is not None:
        out = out.mul_monomial(extra)
    return out


def assert_match(lhs, rhs, at_least):
    """Both series agree exactly, and the common window is at least at_least."""
    wl, wr = lhs.window_q(), rhs.window_q()
    for w in (wl, wr):
        assert w is None or w >= at_least, f"window {w} below {at_least}"
    diff = QSeries.first_difference(lhs, rhs)
    assert diff is None, f"first mismatch at q^({diff[0]}): {diff[1]} != {diff[2]}"


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def jtheta_product_oracle(x, base, order):
    """Triple-product evaluation j(x; base) = pref * (x')_inf (base/x')_inf
    (base)_inf, after the kernel's index shift x = base^n * x'."""
    order = rat(order)
    _, xp, pref = jtheta_shift(x, base)
    if xp == base:
        return QSeries(1, None, {})
    inner_order = order - pref.expo
    p1 = poch_inf(xp, base, inner_order)
    p2 = poch_inf(base / xp, base, inner_order)
    p3 = poch_inf(base, base, inner_order)
    return ((p1 * p2) * p3).mul_monomial(pref)


def pentagonal_sign(n):
    """Coefficient of q^n in prod (1-q^k): +-1 at generalized pentagonal
    numbers k(3k-1)/2, else 0."""
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g == n:
                return 1 if k % 2 == 0 else -1
        k += 1
    return 1 if n == 0 else 0


# j(q; q^3) = sum (-1)^n q^{3 binom(n,2) + n}: exponents 0,1,2,5,7,12,15,...
FROZEN_J_1_3 = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]

# j(-1; q) = sum q^{binom(n,2)}: 2 q^T for T = 0,1,3,6,10,...
FROZEN_JBAR_0_1 = [2, 2, 0, 2, 0, 0, 2, 0, 0, 0, 2, 0]


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def test_euler_product_matches_pentagonal_signs():
    e = Jm(1, 120)
    for n in range(120):
        assert e.coeff_at(n) == pentagonal_sign(n)


def test_Jm_matches_poch_inf_product_oracle():
    """J_m is evaluated as J_{m,3m}; (B; B)_inf from poch_inf is its oracle,
    also for the bases the hecke and appell J_m factors use."""
    for m in (1, 2, 5, rat(1, 2), 12):
        for T in (1, 7, 60, rat(61, 2)):
            got, want = Jm(m, T), poch_inf(qmono(1, m), qmono(1, m), T)
            assert (got.scale, got.order, got.terms) == (want.scale, want.order, want.terms)
    for B in (Q, qmono(1, 5), qmono(-1, 2), qmono(1, rat(1, 2)), qmono(W3, 1), qmono(2, 3)):
        for T in (1, 7, 60, rat(61, 2)):
            got, want = jtheta(B, B**3, T), poch_inf(B, B, T)
            assert (got.scale, got.order, got.terms) == (want.scale, want.order, want.terms)


def test_poch_inf_edge_cases():
    assert poch_inf(qmono(1, 0), Q, 10).order is None  # (1;q)_inf = 0 exactly
    assert poch_inf(qmono(1, 0), Q, 10).is_zero()
    with pytest.raises(UnsupportedArgument):
        poch_inf(qmono(1, -1), Q, 10)
    with pytest.raises(UnsupportedArgument):
        poch_inf(qmono(1, 1), qmono(1, 0), 10)
    # constant first factor: (-1;q)_inf = 2 (-q;q)_inf
    a = poch_inf(qmono(-1, 0), Q, 30)
    b = poch_inf(qmono(-1, 1), Q, 30) * 2
    assert_match(a, b, 30)


def test_poch_inf_matches_product_oracle_randomized():
    """Euler's sum for (x; base)_inf has the product's grid, window and
    terms, and coefficients of series types, for rational and root-of-unity
    coefficients, fractional grids and orders, and constant x."""
    rng = random.Random(20261019)
    coeffs = [rat(1), rat(-1), rat(2), rat(1, 2), rat(-1, 2), W3, W3 * W3]
    base_coeffs = [rat(1), rat(1), rat(-1), rat(2), I4]
    for _ in range(80):
        x = qmono(rng.choice(coeffs), rat(rng.randint(0, 6), rng.choice([1, 1, 2, 3])))
        base = qmono(rng.choice(base_coeffs), rat(rng.randint(1, 4), rng.choice([1, 1, 2, 3])))
        order = rat(rng.randint(0, 60), rng.choice([1, 1, 1, 2, 3]))
        got, want = poch_inf(x, base, order), poch_inf_product_oracle(x, base, order)
        assert (got.scale, got.order, got.terms) == (want.scale, want.order, want.terms), \
            (x, base, order)
        assert has_coeff_types(got)


def test_dense_euler_sum_matches_product_oracle(monkeypatch):
    """(x; base)_inf on the dense Eulerian engine against the product of its
    binomials: x = +-q^a at orders 150 and 400 (a base of -q^b gives
    binomials -1 * q^d), x = q/2 and zeta_3 q, and bases q/2, zeta_3 q^3
    and (with x = q/2) zeta_3 q^3 again, whose binomials have Rat, CycRat
    and non-integral CycRat coefficients.  On the row accumulator, both
    ways of dividing by a binomial run for c = 1, -1, a Rat and a
    root-of-unity CycRat (strided prefix sums for d, or k*d for a root of
    unity of order k, up to 1/STRIDED of the window, and for a Rat a long
    division by its one step d; doubling above)."""
    ways, strided = set(), []
    list_over, row_over = kernels.over_one_minus, kernels.RowSum.over
    long_division = kernels.long_division

    def kind(c):
        return c if c in (1, -1) else type(c)

    def spy_list(a, c, d):
        strided.append(d * kernels.STRIDED <= len(a))
        list_over(a, c, d)

    def spy_long(rem, step, lead):
        strided.append(step[0][0] * kernels.STRIDED <= len(rem))
        long_division(rem, step, lead)

    def spy_row(acc, c, d):
        strided.clear()
        row_over(acc, c, d)
        ways.add((any(strided), kind(c)))

    monkeypatch.setattr(kernels, "over_one_minus", spy_list)
    monkeypatch.setattr(kernels, "long_division", spy_long)
    monkeypatch.setattr(kernels.RowSum, "over", spy_row)
    clear_memos()
    cases = [(qmono(c, a), qmono(cb, b), order)
             for order, a, b in ((150, 1, 1), (150, 0, 2), (150, 3, rat(1, 2)),
                                 (400, 1, 1), (400, 2, 3))
             for c, cb in ((1, 1), (-1, -1))]
    cases += [(qmono(rat(1, 2), 1), Q, 150), (qmono(W3, 1), Q, 150),
              (Q, qmono(rat(1, 2), 1), 60), (Q, qmono(W3, 3), 150),
              (qmono(rat(1, 2), 1), qmono(W3, 3), 60)]
    for x, base, order in cases:
        got, want = poch_inf(x, base, order), poch_inf_product_oracle(x, base, order)
        assert (got.scale, got.order, got.terms) == (want.scale, want.order, want.terms), \
            (x, base, order)
        assert has_coeff_types(got)
    assert ways == {(way, c) for way in (True, False) for c in (1, -1, Rat, CycRat)}


def test_poch_fin_small_products():
    # (q;q)_3 = (1-q)(1-q^2)(1-q^3) = 1 - q - q^2 + q^4 + q^5 - q^6
    p = poch_fin(qmono(1, 1), Q, 3)
    assert p.order is None
    assert [p.coeff_at(n) for n in range(7)] == [1, -1, -1, 0, 1, 1, -1]
    assert poch_fin(qmono(5, 2), Q, 0).terms == {0: rat(1)}


def test_poch_fin_approximates_poch_inf():
    x = qmono(-1, rat(1, 2))
    fin = poch_fin(x, Q, 25).truncate(40)  # scale 2: window q^20
    inf = poch_inf(x, Q, 20)
    assert_match(fin, inf, 20)


# ---------------------------------------------------------------------------
# jtheta: frozen values, zeros, oracle agreement
# ---------------------------------------------------------------------------


def test_jtheta_frozen_coefficients():
    s = jtheta(Q, qmono(1, 3), len(FROZEN_J_1_3))
    assert [s.coeff_at(n) for n in range(len(FROZEN_J_1_3))] == FROZEN_J_1_3
    t = Jbar(0, 1, len(FROZEN_JBAR_0_1))
    assert [t.coeff_at(n) for n in range(len(FROZEN_JBAR_0_1))] == FROZEN_JBAR_0_1


def test_jtheta_zero_when_argument_is_base_power():
    for x in (qmono(1, 0), Q, qmono(1, 3), qmono(1, -2)):
        s = jtheta(x, Q, 25)
        assert s.order is None and s.is_zero()
        assert jtheta_val(x, Q) is None
    assert not jtheta(qmono(-1, 1), Q, 10).is_zero()
    assert not jtheta(qmono(1, rat(1, 2)), Q, 10).is_zero()


def test_jtheta_negative_valuation_window():
    # j(q^-2; q^5) has valuation -2; the window must still reach the order
    s = jtheta(qmono(1, -2), qmono(1, 5), 30)
    assert jtheta_val(qmono(1, -2), qmono(1, 5)) == -2
    assert s.coeff_at(-2) == -1  # the n = 1 summand q^{binom(1,2)*5 - 2}
    assert s.window_q() >= 30


def test_jtheta_matches_bilateral_sum_oracle_randomized():
    rng = random.Random(20260825)
    coeffs = [rat(1), rat(-1), W3, I4, -W3, zeta(1, 8)]
    for _ in range(14):
        c = rng.choice(coeffs)
        num = rng.randint(-6, 10)
        den = rng.choice([1, 1, 2])
        m_num = rng.randint(1, 6)
        m_den = rng.choice([1, 1, 2])
        x = qmono(c, rat(num, den))
        base = qmono(1, rat(m_num, m_den))
        a = jtheta(x, base, 60)
        b = jtheta_sum_oracle(x, base, 60)
        assert_match(a, b, 60)
        assert_match(a, jtheta_product_oracle(x, base, 60), 60)


def test_jtheta_sum_oracle_negative_base_coeff():
    x = qmono(W3, 2)
    base = qmono(-1, 1)
    assert_match(jtheta(x, base, 50), jtheta_sum_oracle(x, base, 50), 50)
    assert_match(jtheta(x, base, 50), jtheta_product_oracle(x, base, 50), 50)


def test_jtheta_val_matches_series():
    rng = random.Random(7)
    for _ in range(10):
        x = qmono(rng.choice([rat(-1), W3]), rat(rng.randint(-5, 8)))
        base = qmono(1, rng.randint(1, 5))
        v = jtheta_val(x, base)
        s = jtheta(x, base, 20)
        assert v == min(e for e, _ in s.items_q())


# ---------------------------------------------------------------------------
# classical transformation laws
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([rat(-1), W3, I4]),
    st.integers(-4, 6),
    st.integers(1, 4),
)
def test_inversion_symmetry(c, e2, m):
    # j(x;q) = j(q/x;q) = -x j(1/x;q)
    x = qmono(c, rat(e2, 2))
    base = qmono(1, m)
    o = 30
    a = theta_product([(x, base)], o)
    b = theta_product([(base / x, base)], o)
    d = theta_product([(x.inverse(), base)], o, extra=-x)
    assert_match(a, b, o)
    assert_match(a, d, o)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 4), st.sampled_from([rat(-1), W3, I4]), st.integers(0, 5))
def test_quasi_periodicity(n, c, e):
    # j(q^n x;q) = (-1)^n q^{-binom(n,2)} x^{-n} j(x;q)
    x = qmono(c, rat(e, 2))
    o = 30
    lhs = theta_product([(x * Q**n, Q)], o)
    extra = (Q ** (-binom2(n))) * (x ** (-n))
    if n % 2:
        extra = -extra
    rhs = theta_product([(x, Q)], o, extra=extra)
    assert_match(lhs, rhs, o)


def test_sign_change_split():
    # j(-x;q) j(x;q) = J_{1,2} j(x^2;q^2)
    o = 40
    for x in (qmono(1, rat(1, 2)), qmono(W3, 1), qmono(-1, 2), qmono(I4, 0)):
        lhs = theta_product([(-x, Q), (x, Q)], o)
        rhs = theta_product([(x * x, qmono(1, 2))], o) * J(1, 2, o + 10)
        assert_match(lhs, rhs, o)


def test_base_refinement():
    # j(x;q) J_n^n = J_1 j(x, qx, ..., q^{n-1}x; q^n)
    o = 40
    for n in (2, 3):
        for x in (qmono(-1, 1), qmono(W3, rat(1, 2))):
            lhs = theta_product([(x, Q)], o) * (Jm(n, o + 10) ** n)
            rhs = theta_quotient(
                MONO_ONE, [(x * Q**k, qmono(1, n)) for k in range(n)], (), o + 10
            ) * Jm(1, o + 10)
            assert_match(lhs, rhs, o)


def test_negated_base_factorization():
    # j(x;-q) J_{1,4} = j(x;q^2) j(-qx;q^2)
    o = 40
    for x in (qmono(1, rat(1, 2)), qmono(-1, 1), qmono(W3, 2)):
        lhs = theta_product([(x, qmono(-1, 1))], o) * J(1, 4, o + 10)
        rhs = theta_product([(x, qmono(1, 2)), (qmono(-1, 1) * x, qmono(1, 2))], o)
        assert_match(lhs, rhs, o)


def test_argument_root_of_unity_factorization():
    # j(x^n;q^n) J_1^n = J_n j(x, zeta x, ..., zeta^{n-1} x; q)
    o = 36
    for n in (2, 3):
        zn = zeta(1, n)
        for x in (qmono(-1, 1), qmono(zeta(1, 8), rat(1, 2))):
            lhs = theta_product([(x**n, qmono(1, n))], o) * (Jm(1, o + 10) ** n)
            rhs = theta_quotient(
                MONO_ONE, [(qmono(zn, 0) ** k * x, Q) for k in range(n)], (), o + 10
            ) * Jm(n, o + 10)
            assert_match(lhs, rhs, o)


def test_argument_splitting():
    # j(z;q) = sum_{k<m} (-1)^k q^binom(k,2) z^k j((-1)^{m+1} q^{binom(m,2)+mk} z^m; q^{m^2})
    o = 40
    for m in (2, 3):
        for z in (qmono(1, rat(1, 2)), qmono(-1, 1), qmono(W3, 2)):
            lhs = theta_product([(z, Q)], o)
            rhs = None
            sign_inner = rat(1) if (m + 1) % 2 == 0 else rat(-1)
            for k in range(m):
                inner = qmono(sign_inner, binom2(m) + m * k) * z**m
                sign_k = rat(1) if k % 2 == 0 else rat(-1)
                extra = qmono(sign_k, binom2(k)) * z**k
                term = theta_product([(inner, qmono(1, m * m))], o, extra=extra)
                rhs = term if rhs is None else rhs + term
            assert_match(lhs, rhs, o)


def test_reciprocal_partial_fractions():
    # sum_n (-1)^n q^binom(n+1,2) / (1 - q^n z) = J_1^3 / j(z;q), cross-multiplied
    o = 35
    for z in (qmono(1, rat(1, 2)), qmono(-1, 1), qmono(W3, 1), qmono(zeta(1, 8), 0)):
        acc = QSeries.zero(1, o + 8)
        n = 0
        while True:  # n >= 0 terms: valuation binom(n+1,2)
            if binom2(n + 1) > o + 8:
                break
            sign = rat(1) if n % 2 == 0 else rat(-1)
            term = geom_inv(Q**n * z, 1, o + 8)
            acc = acc + term.mul_monomial(qmono(sign, binom2(n + 1)))
            n += 1
        n = -1
        while True:  # n < 0: valuation binom(n+1,2) - n - expo(z)
            if binom2(n + 1) + (-n - z.expo) > o + 8:
                break
            sign = rat(1) if n % 2 == 0 else rat(-1)
            term = geom_inv(Q**n * z, 1, o + 8)
            acc = acc + term.mul_monomial(qmono(sign, binom2(n + 1)))
            n -= 1
        lhs = acc * theta_product([(z, Q)], o + 4)
        rhs = Jm(1, o + 4) ** 3
        assert_match(lhs, rhs, o)


def test_riemann_addition():
    # j(ac,a/c,bd,b/d;q) = j(ad,a/d,bc,b/c;q) + (b/c) j(ab,a/b,cd,c/d;q)
    o = 30
    rng = random.Random(99)
    picks = [rat(1), rat(-1), W3, I4]
    for _ in range(6):
        a, b, c, d = (
            qmono(rng.choice(picks), rat(rng.randint(0, 4), 2)) for _ in range(4)
        )
        lhs = theta_product([(a * c, Q), (a / c, Q), (b * d, Q), (b / d, Q)], o)
        r1 = theta_product([(a * d, Q), (a / d, Q), (b * c, Q), (b / c, Q)], o)
        r2 = theta_product([(a * b, Q), (a / b, Q), (c * d, Q), (c / d, Q)], o, extra=b / c)
        assert_match(lhs, r1 + r2, o)


def test_quintuple_product():
    o = 35
    for x in (qmono(-1, 1), qmono(W3, 1), qmono(1, rat(3, 2))):
        core = theta_product([(Q * x**3, qmono(1, 3))], o) + theta_product(
            [(Q**2 * x**3, qmono(1, 3))], o, extra=x
        )
        lhs1 = core * Jm(2, o + 8)
        rhs1 = theta_product([(-x, Q), (Q * x * x, qmono(1, 2))], o)
        assert_match(lhs1, rhs1, o)
        lhs2 = core * theta_product([(x, Q)], o + 8)
        rhs2 = theta_product([(x * x, Q)], o) * Jm(1, o + 8)
        assert_match(lhs2, rhs2, o)


def test_theta_product_split_even_odd():
    # j(x;q)j(y;q) = j(-xy;q^2)j(-qx/y... (see below), difference of twists
    o = 32
    B2 = qmono(1, 2)
    cases = [
        (qmono(-1, 1), qmono(W3, 1)),
        (qmono(1, rat(1, 2)), qmono(-1, 2)),
        (qmono(I4, 0), qmono(I4, 1)),
    ]
    for x, y in cases:
        lhs = theta_product([(x, Q), (y, Q)], o)
        t1 = theta_product([(-(x * y), B2), (-(Q / x * y), B2)], o)
        t2 = theta_product([(-(Q * x * y), B2), (-(y / x), B2)], o, extra=-x)
        assert_match(lhs, t1 + t2, o)


def test_theta_product_twist_difference_and_sum():
    o = 32
    B2 = qmono(1, 2)
    cases = [
        (qmono(-1, 1), qmono(W3, 1)),
        (qmono(1, rat(1, 2)), qmono(-1, 2)),
        (qmono(W3, 1), qmono(I4, 2)),
    ]
    for x, y in cases:
        jmx = theta_product([(-x, Q), (y, Q)], o)
        jx = theta_product([(x, Q), (-y, Q)], o)
        diff = jmx - jx
        rhs_a = theta_product([(y / x, B2), (Q * x * y, B2)], o, extra=x * qmono(2, 0))
        assert_match(diff, rhs_a, o)
        total = jmx + jx
        rhs_b = theta_product([(x * y, B2), (Q / x * y, B2)], o) * 2
        assert_match(total, rhs_b, o)


def test_theta_quotient_partial_fraction_expansion():
    # J_1^3 j(xz;q) j(x^n;q^n) / (J_n^3 j(x;q) j(z;q))
    #   = sum_{k<n} x^k j(q^k x^n z;q^n) / j(q^k z;q^n), cross-multiplied
    o = 30
    for n in (2, 3):
        Bn = qmono(1, n)
        for x, z in ((qmono(-1, 1), qmono(W3, 1)), (qmono(W3, 1), qmono(-1, rat(1, 2)))):
            denom_all = [(Q**k * z, Bn) for k in range(n)]
            lhs = (
                theta_product([(x * z, Q), (x**n, Bn)] + denom_all, o)
                * (Jm(1, o + 12) ** 3)
            )
            rhs = None
            for k in range(n):
                others = [(Q**j * z, Bn) for j in range(n) if j != k]
                term = theta_product(
                    [(Q**k * x**n * z, Bn), (x, Q), (z, Q)] + others, o, extra=x**k
                )
                rhs = term if rhs is None else rhs + term
            rhs = rhs * (Jm(n, o + 12) ** 3)
            assert_match(lhs, rhs, o)


def test_mixed_base_expansion():
    # j(x;q) j(y;q^n) as a k-sum over bases q^{n(n+1)} and q^{n+1}
    o = 30
    for n in (2, 3):
        for x, y in ((qmono(-1, 1), qmono(W3, 1)), (qmono(W3, 0), qmono(-1, rat(3, 2)))):
            lhs = theta_product([(x, Q), (y, qmono(1, n))], o)
            rhs = None
            sign_n = rat(1) if n % 2 == 0 else rat(-1)
            for k in range(n + 1):
                inner1 = qmono(sign_n, binom2(n) + k * n) * x**n * y
                inner2 = qmono(-1, 1 - k) * x.inverse() * y
                sign_k = rat(1) if k % 2 == 0 else rat(-1)
                extra = qmono(sign_k, binom2(k)) * x**k
                term = theta_product(
                    [(inner1, qmono(1, n * (n + 1))), (inner2, qmono(1, n + 1))],
                    o,
                    extra=extra,
                )
                rhs = term if rhs is None else rhs + term
            assert_match(lhs, rhs, o)


def test_cubic_root_twist_relation():
    # j(w^2 y;q) j(qy;q^3) j(y;q^3) = J_3 (w y j(y;q^3) j(q^2 y^2;q^3)
    #                                      + j(qy;q^3) j(y^2;q^3))
    o = 32
    B3 = qmono(1, 3)
    for y in (qmono(-1, 1), qmono(I4, 1), qmono(1, rat(1, 2))):
        w2 = qmono(W3**2, 0)
        lhs = theta_product([(w2 * y, Q), (Q * y, B3), (y, B3)], o)
        t1 = theta_product([(y, B3), (Q**2 * y * y, B3)], o, extra=qmono(W3, 0) * y)
        t2 = theta_product([(Q * y, B3), (y * y, B3)], o)
        rhs = (t1 + t2) * Jm(3, o + 8)
        assert_match(lhs, rhs, o)


def test_eta_quotient_table():
    o = 60
    J1, J2, J3, J4, J6, J12 = (Jm(m, o + 12) for m in (1, 2, 3, 4, 6, 12))
    assert_match(Jbar(0, 1, o) * J1, J2**2 * 2, o)
    assert_match(Jbar(1, 4, o) * J1, J2**2, o)
    assert_match(Jbar(1, 2, o) * J1**2 * J4**2, J2**5, o)
    assert_match(J(1, 2, o) * J2, J1**2, o)
    assert_match(Jbar(1, 3, o) * J1 * J6, J2 * J3**2, o)
    assert_match(J(1, 4, o) * J2, J1 * J4, o)
    assert_match(J(1, 6, o) * J2 * J3, J1 * J6**2, o)
    assert_match(Jbar(1, 6, o) * J1 * J4 * J6, J2**2 * J3 * J12, o)


def test_theta_quotient_zero_factor_and_window():
    assert theta_quotient(MONO_ONE, [(Q, Q), (qmono(1, 3), Q)], (), 20).is_zero()  # j(q;q) = 0
    s = theta_quotient(MONO_ONE, [(qmono(1, -2), qmono(1, 5)), (qmono(-1, 3), qmono(1, 5))], (), 25)
    assert s.window_q() == 25


def test_theta_quotient_matches_triple_product_oracle():
    """theta_quotient against the triple product: each factor is evaluated
    by jtheta_product_oracle far above the order, then multiplied, divided
    and shifted.  The terms below the order agree and the window is exactly
    the order.  The draws mix negative valuations, repeated factors,
    fractional grids and root-of-unity coefficients; a vanishing numerator
    factor gives the exact zero, a vanishing denominator factor raises."""
    rng = random.Random(2024)
    coeffs = [rat(1), rat(-1), W3, -W3]
    expos = [rat(-2), rat(-1, 2), rat(1, 3), rat(1), rat(3, 2), rat(4)]
    bases = [qmono(1, 1), qmono(1, 2), qmono(-1, 1), qmono(1, rat(1, 2)), qmono(1, rat(3, 4))]

    def draw_factors(k):
        out = []
        while len(out) < k:
            f = (qmono(rng.choice(coeffs), rng.choice(expos)), rng.choice(bases))
            out += [f] * rng.choice((1, 1, 2))  # sometimes a repeated factor
        return out[:k]

    def vanishing(b):
        return (b ** rng.randint(-2, 2), b)

    seen = {"zero": 0, "pole": 0, "generic": 0, "negative": 0}
    for _ in range(30):
        num, den = draw_factors(rng.randint(1, 3)), draw_factors(rng.randint(0, 2))
        kind = rng.choice(("generic",) * 6 + ("zero", "pole"))
        if kind == "zero":
            num[rng.randrange(len(num))] = vanishing(rng.choice(bases))
        elif kind == "pole":
            den.append(vanishing(rng.choice(bases)))
        pre = qmono(rng.choice(coeffs), rng.choice((rat(-2), rat(-1, 2), rat(0), rat(1))))
        order = rng.choice((6, 11, 16))
        vn = [jtheta_val(x, b) for x, b in num]
        vd = [jtheta_val(y, d) for y, d in den]
        if None in vd:
            seen["pole"] += 1
            with pytest.raises(GenericityError):
                theta_quotient(pre, num, den, order)
            continue
        got = theta_quotient(pre, num, den, order)
        if None in vn:
            seen["zero"] += 1
            assert got.is_zero() and got.window_q() is None
            continue
        seen["generic"] += 1
        seen["negative"] += any(v < 0 for v in vn + vd)
        pad = order + 3 * sum(abs(v) for v in vn + vd) + abs(pre.expo)
        ref = QSeries.from_coeff(1)
        for x, b in num:
            ref = ref * jtheta_product_oracle(x, b, pad)
        for y, d in den:
            ref = ref.divide(jtheta_product_oracle(y, d, pad))
        ref = ref.mul_monomial(pre)
        assert ref.window_q() >= order
        assert got.window_q() == order
        assert QSeries.first_difference(got, ref.truncate_q(order)) is None
    assert all(seen.values()), seen


def test_quotient_matches_padded_division_randomized():
    """quotient(pre, num_at, den, order) against the numerator and each
    denominator factor built far past the order, divided, shifted and
    truncated: the terms below the order agree and the window is exactly
    the order.  The numerators are bilateral sums (m's) and double sums
    f_{a,b,c}; the draws mix root-of-unity coefficients, denominators of
    negative valuation, repeated factors, and prefactors that leave the
    numerator no term below its window (the zero series is returned)."""
    rng = random.Random(2025)
    coeffs = [rat(1), rat(-1), W3, -W3]
    expos = [rat(-2), rat(-1, 2), rat(1, 3), rat(1), rat(3, 2)]
    bases = [qmono(1, 1), qmono(1, 2), qmono(-1, 1), qmono(1, rat(1, 2))]

    def draw():
        return qmono(rng.choice(coeffs), rng.choice(expos))

    def draw_numerator():
        b = rng.choice(bases)
        if rng.random() < 0.5:
            x, z = draw(), draw()
            return lambda K: bilateral_sum(-z, b, x * z / b, b, K)
        a, c = rng.randint(1, 2), rng.randint(1, 2)
        x, y = (qmono(rng.choice(coeffs), rat(rng.randint(1, 4), 2)) for _ in "xy")
        return lambda K: f_eval(a, a + c, c, x, y, b, K)

    seen = {"zeta": 0, "negative": 0, "repeated": 0, "empty": 0}
    done = 0
    while done < 24:
        num_at = draw_numerator()
        den = []
        while len(den) < rng.randint(0, 3):
            den += [(draw(), rng.choice(bases))] * rng.choice((1, 1, 2))
        vd = [jtheta_val(y, d) for y, d in den]
        if None in vd:
            continue
        order = rng.choice((8, 13, rat(21, 2)))
        pad = 2 * order + 3 * sum(abs(v) for v in vd) + 20
        try:
            A = num_at(pad)
        except GenericityError:  # a pole of the bilateral sum
            continue
        if not A.terms:
            continue
        pre = qmono(rng.choice(coeffs), rng.choice((rat(-2), rat(0), rat(1, 2))))
        if rng.random() < 0.25:  # no numerator term below T + V_D
            va = rat(min(A.terms), A.scale)
            pre = qmono(pre.coeff, order + sum(vd) - va + rng.choice((0, rat(1, 2), 3)))
        ref = A
        for y, d in den:
            ref = ref.divide(jtheta(y, d, pad))
        ref = ref.mul_monomial(pre)
        assert ref.window_q() >= order
        got = quotient(pre, num_at, den, order)
        assert got.window_q() == order
        assert QSeries.first_difference(got, ref.truncate_q(order)) is None
        done += 1
        seen["zeta"] += any(isinstance(c, CycRat) for c in A.terms.values())
        seen["negative"] += any(v < 0 for v in vd)
        seen["repeated"] += len(set(den)) < len(den)
        seen["empty"] += got.is_zero()
    assert all(seen.values()), seen


def test_quotient_divides_once_by_the_whole_denominator(monkeypatch):
    """``string_function`` (f_{1,2,1} over J_1^3) and ``changing_z_delta``
    (a theta product over four factors) each make one ``QSeries.divide``
    call, by the denominator's product, and give the quotient divided
    factor by factor: the numerator and each factor built far past the
    order, divided in turn, shifted and truncated."""
    divide, divisors = QSeries.divide, []

    def spy(self, other, window_hint=None):
        divisors.append(len(other.terms))
        return divide(self, other, window_hint)

    monkeypatch.setattr(QSeries, "divide", spy)
    J1, b2 = (Q, qmono(1, 3)), qmono(1, 2)
    x, z1, z0 = qmono(W3, 1), qmono(I4, 0), Q
    cases = (
        ("strfn[1,0,0]", lambda o: string_function(1, 0, 0, Q, o), MONO_ONE,
         lambda K: f_eval(1, 2, 1, Q, Q, Q, K), (J1,) * 3, 60),
        ("changing_z", lambda o: changing_z_delta(x, b2, z1, z0, o), z0,
         lambda K: (jtheta(b2, b2 ** 3, K) ** 3 * jtheta(z1 / z0, b2, K)
                    * jtheta(x * z0 * z1, b2, K)),
         tuple((y, b2) for y in (z0, z1, x * z0, x * z1)), 40),
    )
    for name, evaluate, pre, num_at, den, order in cases:
        clear_memos()
        divisors.clear()
        got = evaluate(order)
        assert len(divisors) == 1, (name, divisors)
        pad = 2 * order + 30
        ref = num_at(pad)
        for y, d in den:
            ref = divide(ref, jtheta(y, d, pad))
        ref = ref.mul_monomial(pre)
        assert ref.window_q() >= order and got.window_q() == order, name
        assert QSeries.first_difference(got, ref.truncate_q(order)) is None, name
