"""Hecke-type double sums: enumeration soundness, functional equations,
master expansions into Appell-Lerch sums plus theta corrections, and the
classical product identities they certify."""

import random

import pytest

from oracles import f_direct_oracle, kp_lhs_oracle, string_function_oracle
from qverify.appell import eval_padded
from qverify.cyclotomic import rat, zeta
from qverify.errors import GenericityError
from qverify.hecke import (
    big_theta_eval,
    f_eval,
    g_abc_eval,
    h_abc_eval,
    string_function,
    theta_abc_eval,
    theta_np_eval,
)
from qverify.series import QSeries, qmono
from qverify.theta import binom2, jtheta, poch_inf

Q = qmono(1, 1)
NEG1 = qmono(-1, 0)
W3 = zeta(1, 3)
I4 = zeta(1, 4)

COEFF_POOL = [rat(1), rat(-1), W3, I4, -W3]
EXPO_POOL = [rat(1), rat(2), rat(3), rat(1, 2), rat(3, 2), rat(-1)]


def draw_pair(rng):
    return (
        qmono(rng.choice(COEFF_POOL), rng.choice(EXPO_POOL)),
        qmono(rng.choice(COEFF_POOL), rng.choice(EXPO_POOL)),
    )


def run_generic(rng, check, times, max_attempts=60):
    """Run ``check(x, y)`` at ``times`` generic points, redrawing on
    legitimate genericity refusals."""
    done = attempts = 0
    while done < times:
        attempts += 1
        assert attempts <= max_attempts, "too many non-generic draws"
        x, y = draw_pair(rng)
        try:
            check(x, y)
        except GenericityError:
            continue
        done += 1


def assert_match(lhs, rhs, at_least):
    wl, wr = lhs.window_q(), rhs.window_q()
    for w in (wl, wr):
        assert w is None or w >= at_least, f"window {w} below {at_least}"
    diff = QSeries.first_difference(lhs, rhs)
    assert diff is None, f"first mismatch at q^({diff[0]}): {diff[1]} != {diff[2]}"


def Jm(k, T, base=Q):
    b = base**k
    return poch_inf(b, b, T)


def Jbar0(k, T, base=Q):
    b = base**k
    return jtheta(-b, b, T)


def master_np_residual(n, p, x, y, base, order):
    f = f_eval(n, n + p, n, x, y, base, order)
    g = g_abc_eval(n, n + p, n, x, y, base, NEG1, NEG1, order)
    M = n * p * (2 * n + p)

    def build(T):
        return theta_np_eval(n, p, x, y, base, T).divide(Jbar0(M, T, base))

    corr = eval_padded(build, order)
    return f, g + corr


def master_abc_residual(a, b, c, x, y, base, order):
    f = f_eval(a, b, c, x, y, base, order)
    h = h_abc_eval(a, b, c, x, y, base, NEG1, NEG1, order)
    M1, M2 = b * b // a - c, b * b // c - a

    def build(T):
        th = theta_abc_eval(a, b, c, x, y, base, T)
        return th.divide(Jbar0(M1, T, base) * Jbar0(M2, T, base))

    corr = eval_padded(build, order)
    return f, h - corr


def subtheorem_residual(n, p, x, y, base, order):
    f = f_eval(n, n + p, n, x, y, base, order)
    z1 = (y**n) / (x**n)
    g = g_abc_eval(n, n + p, n, x, y, base, z1, z1.inverse(), order)
    th = big_theta_eval(n, p, x, y, base, order)
    return f, g - th


# ---------------------------------------------------------------------------
# the double sum itself
# ---------------------------------------------------------------------------


def test_f_constant_term():
    for a, b, c in ((1, 2, 1), (3, 7, 3), (2, 2, 1)):
        s = f_eval(a, b, c, qmono(1, 1), qmono(1, 2), Q, 25)
        assert s.coeff_at(0) == 1


def test_f_matches_anti_diagonal_oracle():
    rng = random.Random(20260825)
    for a, b, c in ((1, 2, 1), (3, 7, 3), (1, 3, 1), (2, 3, 2), (5, 5, 1)):
        for _ in range(3):
            x, y = draw_pair(rng)
            assert_match(
                f_eval(a, b, c, x, y, Q, 30),
                f_direct_oracle(a, b, c, x, y, Q, 30),
                30,
            )
    # Fractional bases, coefficients 2 and -1/2, and x, y with negative
    # exponents, so that rows first fall and then rise: the walk's stop rule
    # against the oracle's direct powers.
    pairs = (
        (qmono(2, -1), qmono(rat(-1, 2), -1)),
        (qmono(rat(-1, 2), rat(-3, 2)), qmono(2, 2)),
        (qmono(2, rat(1, 2)), qmono(rat(-1, 2), -2)),
    )
    bases = (Q, qmono(1, rat(1, 2)), qmono(rat(-1, 2), rat(1, 2)))
    for a, b, c in ((1, 2, 1), (2, 3, 1), (1, 5, 2)):
        for x, y in pairs:
            for base in bases:
                for order in (30, 60):
                    assert_match(
                        f_eval(a, b, c, x, y, base, order),
                        f_direct_oracle(a, b, c, x, y, base, order),
                        order,
                    )
    # Rows that start past the window and fall into it, and row starts for
    # r, s < 0 that fall into it: the walk's and the rows' stop rules.
    for (a, b, c), x, y in (
        ((1, 2, 1), qmono(2, 20), qmono(rat(-1, 2), -10)),
        ((1, 5, 2), qmono(rat(-1, 2), 20), qmono(2, -50)),
    ):
        for order in (30, 60):
            assert_match(
                f_eval(a, b, c, x, y, Q, order),
                f_direct_oracle(a, b, c, x, y, Q, order),
                order,
            )


def test_f_swap_symmetry():
    rng = random.Random(7)
    for a, b, c in ((1, 2, 1), (2, 3, 1), (3, 7, 3)):
        x, y = draw_pair(rng)
        assert_match(
            f_eval(a, b, c, x, y, Q, 30), f_eval(c, b, a, y, x, Q, 30), 30
        )


def test_f_parity_split():
    # f(x,y,q) as a four-term combination of f's in q^4
    rng = random.Random(11)
    Q4 = qmono(1, 4)
    for a, b, c in ((1, 2, 1), (2, 3, 2)):
        for _ in range(2):
            x, y = draw_pair(rng)
            lhs = f_eval(a, b, c, x, y, Q, 30)
            x2, y2 = x * x, y * y

            def F(xe, ye):
                return f_eval(a, b, c, -(x2 * Q**xe), -(y2 * Q**ye), Q4, 34)

            rhs = (
                F(a, c)
                - F(3 * a, c + 2 * b).mul_monomial(x)
                - F(a + 2 * b, 3 * c).mul_monomial(y)
                + F(3 * a + 2 * b, 3 * c + 2 * b).mul_monomial(x * y * Q**b)
            )
            assert_match(lhs, rhs, 30)


def test_f_inversion_swap():
    # f(x,y,q) = -(q^{a+b+c}/(xy)) f(q^{2a+b}/x, q^{2c+b}/y, q)
    rng = random.Random(13)
    for a, b, c in ((1, 2, 1), (3, 7, 3), (1, 3, 1)):
        x, y = draw_pair(rng)
        pre = (Q ** (a + b + c)) / (x * y)
        inner = f_eval(
            a, b, c, (Q ** (2 * a + b)) / x, (Q ** (2 * c + b)) / y, Q, 34
        )
        assert_match(
            f_eval(a, b, c, x, y, Q, 30), -inner.mul_monomial(pre).truncate_q(30), 30
        )


def conv_indices(hi):
    """Index/sign pairs for sum_{m=0}^{hi-1} under the convention
    sum_{r=a}^{b} := -sum_{r=b+1}^{a-1} when b < a."""
    if hi >= 0:
        return [(m, 1) for m in range(hi)]
    return [(m, -1) for m in range(hi, 0)]


def gen1_rhs(a, b, c, x, y, l, k, order):
    T = rat(order) + 4 * (abs(l) + abs(k))
    pre = ((-x) ** l) * ((-y) ** k) * Q ** (a * binom2(l) + b * l * k + c * binom2(k))
    shifted = f_eval(
        a, b, c, (Q ** (a * l + b * k)) * x, (Q ** (b * l + c * k)) * y, Q, T
    ).mul_monomial(pre)
    acc = shifted
    for m, sgn in conv_indices(l):
        term = jtheta((Q ** (m * b)) * y, Q**c, T).mul_monomial(
            ((-x) ** m) * Q ** (a * binom2(m))
        )
        acc = acc + term * rat(sgn)
    for m, sgn in conv_indices(k):
        term = jtheta((Q ** (m * b)) * x, Q**a, T).mul_monomial(
            ((-y) ** m) * Q ** (c * binom2(m))
        )
        acc = acc + term * rat(sgn)
    return acc.truncate_q(order)


def test_f_general_functional_equation():
    rng = random.Random(17)
    for l, k in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        for a, b, c in ((1, 2, 1), (2, 3, 2)):
            x, y = draw_pair(rng)
            assert_match(
                f_eval(a, b, c, x, y, Q, 30), gen1_rhs(a, b, c, x, y, l, k, 30), 30
            )


def fg_functional_residual(G, a, b, c, x, y, order):
    """Both f and g(...,-1,-1) satisfy the same x-shift functional equation."""
    D = b * b - a * c
    T = rat(order) + 2 * D + 10
    lhs = G((Q**D) * x, y, T)
    pref = (Q ** (c * binom2(b + 1) - a * binom2(c + 1))) * ((-x) ** c) * ((-y) ** (-b))
    acc = G(x, y, T).mul_monomial(pref)
    for r in range(c):
        acc = acc + jtheta((Q ** (r * b)) * y, Q**c, T).mul_monomial(
            ((-x) ** r) * Q ** (a * binom2(r) + r * D)
        )
    for r in range(b):
        acc = acc - jtheta((Q ** (r * b)) * x, Q**a, T).mul_monomial(
            pref * ((-y) ** r) * Q ** (c * binom2(r))
        )
    return lhs.truncate_q(order), acc.truncate_q(order)


def test_fg_shared_functional_equation():
    rng = random.Random(19)

    def as_f(a, b, c):
        return lambda x, y, T: f_eval(a, b, c, x, y, Q, T)

    def as_g(a, b, c):
        return lambda x, y, T: g_abc_eval(a, b, c, x, y, Q, NEG1, NEG1, T)

    for a, b, c in ((1, 2, 1), (2, 3, 2)):
        for make in (as_f, as_g):

            def check(x, y, make=make, a=a, b=b, c=c):
                lhs, rhs = fg_functional_residual(make(a, b, c), a, b, c, x, y, 26)
                assert_match(lhs, rhs, 26)

            run_generic(rng, check, 2)


def fh_functional_residual(G, a, b, c, x, y, order):
    D2 = b * b // c - a
    T = rat(order) + 2 * D2 + 10
    lhs = G((Q**D2) * x, y, T)
    pref = (Q ** (c * binom2(b // c + 1) - a)) * (-x) * ((-y) ** (-(b // c)))
    inner = G(x, y, T)
    for r in range(b // c):
        inner = inner - jtheta((Q ** (r * b)) * x, Q**a, T).mul_monomial(
            ((-y) ** r) * Q ** (c * binom2(r))
        )
    rhs = inner.mul_monomial(pref) + jtheta(y, Q**c, T)
    return lhs.truncate_q(order), rhs.truncate_q(order)


def test_fh_shared_functional_equation():
    rng = random.Random(23)

    def as_f(a, b, c):
        return lambda x, y, T: f_eval(a, b, c, x, y, Q, T)

    def as_h(a, b, c):
        return lambda x, y, T: h_abc_eval(a, b, c, x, y, Q, NEG1, NEG1, T)

    for a, b, c in ((1, 2, 1), (2, 2, 1)):
        for make in (as_f, as_h):

            def check(x, y, make=make, a=a, b=b, c=c):
                lhs, rhs = fh_functional_residual(make(a, b, c), a, b, c, x, y, 24)
                assert_match(lhs, rhs, 24)

            run_generic(rng, check, 2)


# ---------------------------------------------------------------------------
# master expansions
# ---------------------------------------------------------------------------

MASTER_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (3, 4)]


def test_master_expansion_np():
    rng = random.Random(20260825)
    for n, p in MASTER_PAIRS:

        def check(x, y, n=n, p=p):
            lhs, rhs = master_np_residual(n, p, x, y, Q, 24)
            assert_match(lhs, rhs, 24)

        run_generic(rng, check, 2)


def test_master_expansion_np_specialization_display():
    # n=1, p=1 at explicit monomials, matching the displayed single-quotient
    # form of theta_{1,1}
    x, y = qmono(W3, 2), qmono(-1, 1)
    f = f_eval(1, 2, 1, x, y, Q, 30)
    g = g_abc_eval(1, 2, 1, x, y, Q, NEG1, NEG1, 30)

    def build(T):
        num = (Jm(3, T) ** 3) * jtheta(-(x / y), Q, T) * jtheta(Q**2 * x * y, Q**3, T)
        den = (
            Jbar0(3, T)
            * jtheta(-(Q * y * y / x), Q**3, T)
            * jtheta(-(Q * x * x / y), Q**3, T)
        )
        return num.divide(den).mul_monomial(-y)

    corr = eval_padded(build, 30)
    assert_match(f, g + corr, 30)


DIVISIBLE_TRIPLES = [(1, 2, 1), (1, 3, 1), (1, 2, 2), (2, 2, 1), (5, 5, 1)]


def test_master_expansion_divisible_b():
    rng = random.Random(97)
    for a, b, c in DIVISIBLE_TRIPLES:

        def check(x, y, a=a, b=b, c=c):
            lhs, rhs = master_abc_residual(a, b, c, x, y, Q, 24)
            assert_match(lhs, rhs, 24)

        run_generic(rng, check, 2)


def test_subtheorems():
    rng = random.Random(31)
    cases = (
        [(n, 1) for n in (1, 2, 3)]
        + [(n, 2) for n in (1, 3)]
        + [(n, 3) for n in (1, 2)]
        + [(n, 4) for n in (1, 3)]
    )
    for n, p in cases:

        def check(x, y, n=n, p=p):
            lhs, rhs = subtheorem_residual(n, p, x, y, Q, 22)
            assert_match(lhs, rhs, 22)

        run_generic(rng, check, 2)


def test_subtheorem_z_shift():
    # f = g(x,y,q, q^{l*n*p} y^n/x^n, q^{-l*n*p} x^n/y^n)
    #       - (-x)^l q^{n*binom(l,2)} Theta_{n,p}(q^{l*n} x, q^{l*(n+p)} y, q)
    rng = random.Random(41)
    for n, p, l in ((1, 2, 1), (1, 3, -1)):

        def check(x, y, n=n, p=p, l=l):
            order = 22
            f = f_eval(n, n + p, n, x, y, Q, order)
            z1 = (Q ** (l * n * p)) * (y**n) / (x**n)
            g = g_abc_eval(n, n + p, n, x, y, Q, z1, z1.inverse(), order)
            pad = order + max(rat(0), -(n * binom2(l) + l * x.expo))
            th = big_theta_eval(
                n, p, (Q ** (l * n)) * x, (Q ** (l * (n + p))) * y, Q, pad
            ).mul_monomial(((-x) ** l) * Q ** (n * binom2(l)))
            assert_match(f, (g - th).truncate_q(order), order)

        run_generic(rng, check, 2)


# ---------------------------------------------------------------------------
# classical identities and string functions
# ---------------------------------------------------------------------------


def test_kp_product_identity_f_form():
    f = f_eval(5, 5, 1, qmono(1, 5), qmono(1, 2), Q, 60)
    rhs = Jm(2, rat(60)) * Jm(10, rat(60))
    assert_match(f, rhs, 60)


def test_kp_classical_sum():
    lhs = kp_lhs_oracle(80)
    rhs = (Jm(4, rat(80)) * Jm(20, rat(80))).mul_monomial(Q)
    assert_match(lhs, rhs, 80)


def test_sixth_order_f_to_appell():
    # f_{1,2,1}(q,-q,q) = 2 Jbar_{1,4} m(q,q^3,-1)
    from qverify.appell import m_eval

    f = f_eval(1, 2, 1, Q, qmono(-1, 1), Q, 40)
    rhs = (jtheta(qmono(-1, 1), Q**4, rat(40)) * m_eval(Q, Q**3, NEG1, 40)) * rat(2)
    assert_match(f, rhs, 40)


def test_level_one_string_functions():
    # C^1_{m,l} = q^{(m^2-l^2)/4} / (q)_inf
    for m, l in ((0, 0), (2, 0), (1, 1), (3, 1)):
        s = string_function(1, m, l, Q, 30)
        e = rat(m * m - l * l, 4)

        def build(T, e=e):
            inv = QSeries.from_coeff(1).divide(Jm(1, T))
            return inv.mul_monomial(qmono(1, e))

        assert_match(s, eval_padded(build, 30), 30)


def test_level_two_string_function_against_oracle():
    for m, l in ((0, 0), (2, 0), (1, 1), (2, 2)):
        assert_match(
            string_function(2, m, l, Q, 30),
            string_function_oracle(2, m, l, Q, 30),
            30,
        )


def test_string_function_validation():
    with pytest.raises(ValueError):
        string_function(2, 1, 0, Q, 10)  # parity mismatch
    with pytest.raises(ValueError):
        string_function(2, 0, 3, Q, 10)  # l out of range


def test_theta_np_genericity_error():
    # x = y = -q^2 puts a denominator theta at an exact power of its base:
    # j(q(-y)^2/(-x)^{-1}...) reduces to j(q^3; q^3) = 0.
    with pytest.raises(GenericityError):
        theta_np_eval(1, 1, qmono(-1, 2), qmono(-1, 2), Q, 10)


@pytest.mark.parametrize("a, b, c, x, y, order", [
    (3, 4, 1, Q, Q, 3),
    (3, 4, 2, qmono(2, 1), Q**20, 20),
    (2, 3, 2, Q, Q**7, 6),
])
def test_g_abc_prefactor_at_or_past_the_order(a, b, c, x, y, order):
    # a summand's prefactor (-y)^t base^(c*binom2(t)) reaches the order, so
    # its j factor has no term below the window; its m is still evaluated
    # where m's divisor j(z; base) has a term, and the sum agrees with the
    # same sum taken far past the order
    g = g_abc_eval(a, b, c, x, y, Q, NEG1, NEG1, order)
    assert g.window_q() == order
    ref = g_abc_eval(a, b, c, x, y, Q, NEG1, NEG1, 60)
    assert QSeries.first_difference(g, ref) is None


def test_h_abc_validation():
    with pytest.raises(ValueError):
        h_abc_eval(2, 3, 1, Q, Q**2, Q, NEG1, NEG1, 10)  # a does not divide b
    with pytest.raises(ValueError):
        big_theta_eval(2, 2, Q, Q**2, Q, 10)  # parity constraint
