"""Appell-Lerch sums: special values, functional equations, splittings,
and the g/h/k Lambert-series bridges."""

import pytest

import test_series as ts
from oracles import g_alt_oracle, m_alt_oracle, one_minus
from qverify import appell
from qverify.appell import (
    changing_z_delta,
    eval_padded,
    g_eval,
    h_eval,
    k_eval,
    m_eval,
)
from qverify.cyclotomic import rat, zeta
from qverify.errors import GenericityError
from qverify.series import QSeries, clear_memos, qmono
from qverify.theta import jtheta, poch_inf

Q = qmono(1, 1)
W3 = zeta(1, 3)
I4 = zeta(1, 4)
ONE = qmono(1, 0)
NEG1 = qmono(-1, 0)


def assert_match(lhs, rhs, at_least):
    wl, wr = lhs.window_q(), rhs.window_q()
    for w in (wl, wr):
        assert w is None or w >= at_least, f"window {w} below {at_least}"
    diff = QSeries.first_difference(lhs, rhs)
    assert diff is None, f"first mismatch at q^({diff[0]}): {diff[1]} != {diff[2]}"


def Jb(k, base, T):
    """(base^k; base^k)_inf."""
    b = base**k
    return poch_inf(b, b, T)


# ---------------------------------------------------------------------------
# s/(1-m), the division step of g and the Eulerian sums
# ---------------------------------------------------------------------------


def test_divide_by_binomial_matches_inverse_then_multiply():
    s = QSeries(1, 20, {0: rat(1), 3: rat(-2), 5: rat(7)})
    for m in (qmono(1, 1), qmono(-1, 2), qmono(W3, rat(1, 2)), qmono(2, 0), qmono(1, -1)):
        lhs = s.divide(one_minus(m))
        den = QSeries.from_coeff(1) - QSeries.from_monomial(m)
        rhs = ts.divide_oracle(s, den)
        assert_match(lhs, rhs, 15)
        assert lhs.window_q() == rhs.window_q()
    with pytest.raises(GenericityError):
        one_minus(ONE)


# ---------------------------------------------------------------------------
# m(x, base, z): special values and the shifted-index oracle
# ---------------------------------------------------------------------------


def test_m_special_value_one_half():
    s = m_eval(Q, qmono(1, 2), NEG1, 80)
    assert s.coeff_at(0) == rat(1, 2)
    assert all(c == 0 for _, c in s.items_q() if _ != 0)
    assert s.window_q() >= 80


def test_m_special_value_zero():
    s = m_eval(NEG1, qmono(1, 2), Q, 80)
    assert s.is_zero()
    assert s.window_q() >= 80


M_PARAMS = [
    (qmono(1, 1), qmono(1, 3), qmono(-1, 2)),
    (qmono(-1, 1), qmono(1, 2), NEG1),
    (qmono(W3, 0), Q, qmono(-1, 1)),
    (qmono(1, rat(1, 2)), qmono(1, 2), qmono(I4, 0)),
    (qmono(1, -2), qmono(1, 5), qmono(-1, 3)),
]


def test_m_matches_shifted_index_oracle():
    for x, b, z in M_PARAMS:
        assert_match(m_eval(x, b, z, 45), m_alt_oracle(x, b, z, 45), 45)


def test_m_translation_in_z():
    for x, b, z in M_PARAMS:
        assert_match(m_eval(x, b, z, 40), m_eval(x, b, b * z, 40), 40)


def test_m_inversion():
    # m(x,q,z) = x^{-1} m(x^{-1}, q, z^{-1})
    for x, b, z in M_PARAMS:
        lhs = m_eval(x, b, z, 40)
        rhs = m_eval(x.inverse(), b, z.inverse(), 42).mul_monomial(x.inverse())
        assert_match(lhs, rhs, 40)


def test_m_flip_xz():
    # m(x,q,z) = m(x,q,x^{-1}z^{-1})
    for x, b, z in M_PARAMS:
        assert_match(m_eval(x, b, z, 40), m_eval(x, b, (x * z).inverse(), 40), 40)


def test_m_x_shift_family():
    one = QSeries.from_coeff(1)
    for x, b, z in M_PARAMS:
        m0 = m_eval(x, b, z, 40 - min(x.expo, 0))
        # m(qx,q,z) = 1 - x m(x,q,z)
        lhs = m_eval(b * x, b, z, 40)
        assert_match(lhs, one - m0.mul_monomial(x), 38)
        # m(x,q,z) = 1 - q^{-1} x m(q^{-1} x, q, z)
        xb = x / b
        rhs = one - m_eval(xb, b, z, 40 - min(xb.expo, 0)).mul_monomial(xb)
        assert_match(m0.truncate_q(40), rhs, 38)
        # m(x,q,z) = x^{-1} - x^{-1} m(qx,q,z)
        rhs2 = (one - m_eval(b * x, b, z, 40 + max(x.expo, 0))).mul_monomial(x.inverse())
        assert_match(m0.truncate_q(40), rhs2, 38)


def test_changing_z():
    cases = [
        (qmono(1, 1), qmono(1, 3), qmono(-1, 2), qmono(-1, 0)),
        (qmono(-1, 1), qmono(1, 2), qmono(-1, 0), qmono(1, rat(1, 2))),
        (qmono(W3, 1), qmono(1, 2), qmono(I4, 0), qmono(1, 1)),
        (qmono(1, -1), qmono(1, 4), qmono(-1, 1), qmono(-1, 2)),
    ]
    for x, b, z1, z0 in cases:
        lhs = m_eval(x, b, z1, 40) - m_eval(x, b, z0, 40)
        rhs = changing_z_delta(x, b, z1, z0, 40)
        assert_match(lhs, rhs, 40)


@pytest.mark.parametrize("x, b, z, order", [
    (Q, qmono(1, 2), NEG1, 0),  # m = 1/2; j(-1; q^2) starts at q^0
    (Q, Q, qmono(-1, -3), -6),  # the sum and j(-q^(-3); q) both start at q^(-6)
])
def test_m_at_an_order_at_or_below_its_valuation(x, b, z, order):
    # the numerator sum has no term below its window, so m is the zero
    # series known below exactly the order, with no division by a theta
    # function that has no term below the order either
    s = m_eval(x, b, z, order)
    assert s.is_zero() and s.window_q() == order
    assert m_eval(x, b, z, 20).items_q()[0][0] >= order


def test_m_genericity_errors():
    with pytest.raises(GenericityError):
        m_eval(Q, qmono(1, 2), qmono(1, 2), 10)  # j(z;base) = 0
    with pytest.raises(GenericityError):
        m_eval(ONE, Q, qmono(1, 1), 10)  # summand pole 1/(1 - q^{r-1} x z)


# ---------------------------------------------------------------------------
# splitting the index modulo n
# ---------------------------------------------------------------------------


def msplit2_rhs(x, b, z, order):
    m1 = m_eval(-(b * x * x), b**4, z**4, order)
    m2 = m_eval(-(x * x / b), b**4, z**4, order + 2)

    def build(T):
        num = (
            Jb(2, b, T)
            * Jb(4, b, T)
            * jtheta(-(x * z * z), b, T)
            * jtheta(-(x * z**3), b, T)
        )
        den = (
            jtheta(x * z, b, T)
            * jtheta(z**4, b**4, T)
            * jtheta(-(b * x * x * z**4), b * b, T)
        )
        return num.divide(den).mul_monomial(x.inverse())

    delta = eval_padded(build, order)
    return m1 - m2.mul_monomial(x / b) - delta


def test_msplit_bisection():
    cases = [
        (qmono(W3, 1), Q, qmono(zeta(1, 8), 0)),
        (qmono(1, rat(1, 2)), Q, qmono(W3, 1)),
        (qmono(-1, 2), qmono(1, 2), qmono(I4, 1)),
    ]
    for x, b, z in cases:
        assert_match(m_eval(x, b, z, 32), msplit2_rhs(x, b, z, 32), 32)


def msplit3_rhs(x, b, order):
    z = NEG1
    m1 = m_eval(b**3 * x**3, b**9, z, order)
    m2 = m_eval(x**3, b**9, z, order + 4)
    m3 = m_eval(x**3 / b**3, b**9, z, order + 8)

    def build(T):
        num = (
            Jb(1, b, T)
            * (Jb(3, b, T) ** 2)
            * Jb(6, b, T)
            * Jb(9, b, T)
            * jtheta(b * x * x, b * b, T)
        )
        den = (Jb(2, b, T) ** 2) * (Jb(18, b, T) ** 2) * jtheta(-(x**3), b**3, T)
        return num.divide(den).mul_monomial(x / (b * qmono(2, 0)))

    delta = eval_padded(build, order)
    return m1 - m2.mul_monomial(x / b) + m3.mul_monomial((x * x) / b**3) + delta


def test_msplit_trisection():
    for x, b in ((qmono(W3, 1), Q), (qmono(I4, 1), Q), (qmono(1, rat(1, 2)), Q)):
        assert_match(m_eval(x, b, NEG1, 30), msplit3_rhs(x, b, 30), 30)


def rootsof1_rhs(n, k, x, b, z, zp, order):
    wn = zeta(1, n)
    pref = (-x) ** k * (b ** (-binom2_int(k + 1))) * qmono(n, 0)
    head = m_eval(
        -(b ** (binom2_int(n) - n * k)) * ((-x) ** n),
        b ** (n * n),
        zp,
        order - min(pref.expo, 0),
    ).mul_monomial(pref)

    def build(T):
        bn2 = b ** (n * n)
        total = None
        for t in range(n):
            num = (
                jtheta(-(b ** (binom2_int(n + 1) + n * k + n * t)) * ((-z) ** n) / zp, bn2, T)
                * jtheta((b ** (n * t)) * (x**n) * (z**n) * zp, bn2, T)
            )
            num = num.mul_monomial(
                (b ** (binom2_int(t + 1) + k * t)) * ((-z) ** t)
            )
            den = jtheta(-(b ** (binom2_int(n) - n * k)) * ((-x) ** n) * zp, bn2, T) * jtheta(
                (b ** (n * t)) * (x**n) * (z**n), bn2, T
            )
            term = num.divide(den)
            total = term if total is None else total + term
        core = (Jb(n * n, b, T) ** 3) * total
        den2 = jtheta(z, b, T) * jtheta(zp, bn2, T)
        res = core.divide(den2)
        return res.mul_monomial((x**k) * (z ** (k + 1)) * qmono(n, 0))

    tail = eval_padded(build, order)
    return head - tail, wn


def binom2_int(n):
    return (n * (n - 1)) // 2


def test_roots_of_unity_averaging():
    cases = [
        (2, 0, qmono(W3, 1), Q, qmono(1, rat(1, 2)), NEG1),
        (2, 1, qmono(W3, 1), Q, qmono(1, rat(1, 2)), NEG1),
        (3, 0, qmono(I4, 1), Q, NEG1, qmono(-1, 1)),
        (3, 2, qmono(I4, 1), Q, NEG1, qmono(-1, 1)),
    ]
    for n, k, x, b, z, zp in cases:
        rhs, wn = rootsof1_rhs(n, k, x, b, z, zp, 26)
        lhs = None
        for t in range(n):
            coeff = wn ** ((-k * t) % n)
            term = m_eval(qmono(wn, 0) ** t * x, b, z, 26) * coeff
            lhs = term if lhs is None else lhs + term
        assert_match(lhs, rhs, 26)


# ---------------------------------------------------------------------------
# g, h, k
# ---------------------------------------------------------------------------

G_PARAMS = [
    (Q, qmono(1, 3)),
    (qmono(-1, 1), qmono(1, 2)),
    (qmono(W3, 0), Q),
    (qmono(I4, rat(1, 2)), Q),
    (qmono(-1, rat(1, 3)), qmono(1, rat(1, 2))),
]


def test_g_matches_alternate_sum_oracle():
    # at a fractional order the sum must run on that order's grid: a window
    # rounded up to the next integer would report terms it never summed
    for x, b in G_PARAMS:
        for T in (40, rat(81, 2)):
            assert_match(g_eval(x, b, T), g_alt_oracle(x, b, T), T)


def test_g_sums_once(monkeypatch):
    # the Eulerian sum runs to order + expo(x), so the shift by x^{-1} leaves
    # the window at the order and no padding round repeats the sum
    calls = []
    real = appell.eulerian_sum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(appell, "eulerian_sum", counted)
    clear_memos()
    for x, b in G_PARAMS:
        if x.expo > 0:
            calls.clear()
            g_eval(x, b, 40)
            assert len(calls) == 1, (x, b, calls)


def test_g_to_m():
    # g(x,q) = -x^{-1} m(q^2 x^{-3}, q^3, x^2) - x^{-2} m(q x^{-3}, q^3, x^2)
    for x, b in G_PARAMS:
        lhs = g_eval(x, b, 36)
        x3 = x ** (-3)
        z = x * x
        rhs = -(
            m_eval(b * b * x3, b**3, z, 40).mul_monomial(x.inverse())
            + m_eval(b * x3, b**3, z, 40).mul_monomial(x ** (-2))
        )
        assert_match(lhs, rhs, 36)


def test_h_to_m():
    # h(x,q) = -x^{-1} m(x^{-2} q, q^2, x)
    cases = [
        (qmono(1, 2), qmono(1, 5)),
        (Q, qmono(1, 5)),
        (qmono(-1, 1), qmono(1, 3)),
        (qmono(W3, 0), Q),
    ]
    for x, b in cases:
        lhs = h_eval(x, b, 40)
        rhs = -m_eval((x ** (-2)) * b, b * b, x, 44).mul_monomial(x.inverse())
        assert_match(lhs, rhs, 40)


def test_k_to_m_both_forms():
    cases = [(Q, qmono(1, 5)), (qmono(1, 2), qmono(1, 5)), (qmono(W3, 1), qmono(1, 2))]
    for x, b in cases:
        xk = k_eval(x, b, 36).mul_monomial(x)
        zz = -((x ** (-2)) / b)
        quartic = m_eval(-(b * x**4), b**4, zz, 40) + m_eval(
            -(x**4 / b), b**4, zz, 42
        ).mul_monomial((x * x) / b)
        assert_match(xk, quartic, 36)

        def build(T, x=x, b=b):
            num = Jb(1, b, T) ** 4
            den = (Jb(2, b, T) ** 2) * jtheta(x * x, b, T) * QSeries.from_coeff(2)
            return num.divide(den)

        single = m_eval(-(x * x), b, (x * x).inverse(), 40) + eval_padded(build, 36)
        assert_match(xk, single, 36)


def test_g_pole_detection():
    with pytest.raises(GenericityError):
        g_eval(Q, Q, 10)  # (q/x;q) factor collapses to (1-1)
    with pytest.raises(GenericityError):
        g_eval(ONE, Q, 10)  # 1/(1-x) pole at x = 1
