"""End-to-end acceptance suite.

One test per headline guarantee of the engine: theta kernel soundness at
high order, Appell-Lerch special values and transformation laws, index
splitting, the master expansions of Hecke-type double sums, the classical
product identities they certify, the mock theta catalog, string functions,
the functional-equation property suite, and runner determinism.

Each test states its order explicitly and uses fixed seeds so that reruns
are reproducible coefficient-for-coefficient.
"""

import json
import random
import time

import test_appell as ta
import test_hecke as th
import test_theta as tt
from oracles import jtheta_sum_oracle, kp_lhs_oracle, string_function_oracle

from qverify.appell import changing_z_delta, eval_padded, g_eval, h_eval, k_eval, m_eval
from qverify.catalog import catalog_lookup, eulerian_sum
from qverify.cli import builtin_records, catalog_records
from qverify.cyclotomic import rat, zeta
from qverify.errors import GenericityError
from qverify.hecke import f_eval, string_function
from qverify.runner import run_suite
from qverify.series import MONO_ONE, QSeries, compose_monomial, qmono
from qverify.theta import (
    J,
    Jm,
    binom2,
    jtheta,
    poch_inf,
    theta_quotient,
)

Q = qmono(1, 1)
ONE = QSeries.from_coeff(1)
NEG1 = qmono(-1, 0)
W3 = zeta(1, 3)
I4 = zeta(1, 4)

# mostly-rational coefficient pool: keeps cyclotomic degrees small so the
# high-order checks stay fast, while still exercising a root of unity
CHEAP_COEFFS = [rat(1), rat(-1), rat(2), rat(-1, 2), W3]
EXPOS = [rat(1), rat(2), rat(3), rat(1, 2), rat(3, 2), rat(-1)]


def agree(lhs, rhs, at_least):
    """Exact equality of all coefficients on a common window >= at_least."""
    lhs = lhs.truncate_q(at_least)
    rhs = rhs.truncate_q(at_least)
    for w in (lhs.window_q(), rhs.window_q()):
        assert w is None or w >= at_least, f"window {w} below {at_least}"
    diff = QSeries.first_difference(lhs, rhs)
    assert diff is None, f"first mismatch at q^({diff[0]}): {diff[1]} != {diff[2]}"


def draw_cheap_pair(rng):
    return (
        qmono(rng.choice(CHEAP_COEFFS), rng.choice(EXPOS)),
        qmono(rng.choice(CHEAP_COEFFS), rng.choice(EXPOS)),
    )


def run_generic(rng, check, times, max_attempts=60):
    """Run check(x, y) at `times` generic points, redrawing on refusals."""
    done = attempts = 0
    while done < times:
        attempts += 1
        assert attempts <= max_attempts, "too many non-generic draws"
        x, y = draw_cheap_pair(rng)
        try:
            check(x, y)
        except GenericityError:
            continue
        done += 1


# ---------------------------------------------------------------------------
# 1. theta kernel (sparse bilateral sum) against the straightforward sum
#    oracle at order 300 within 10 s, then against the triple-product oracle
# ---------------------------------------------------------------------------


def test_01_theta_kernel_matches_sum_oracle_order_300_under_10s():
    rng = random.Random(20260825)
    coeffs = [rat(1), rat(-1), W3, I4, -W3, rat(2), rat(-1, 2)]
    t0 = time.perf_counter()
    for _ in range(20):
        x = qmono(rng.choice(coeffs), rat(rng.randint(-6, 10), rng.choice([1, 1, 2])))
        base = qmono(1, rat(rng.randint(1, 6), rng.choice([1, 1, 2])))
        agree(jtheta(x, base, 300), jtheta_sum_oracle(x, base, 300), 300)
    assert time.perf_counter() - t0 < 10.0
    # the same 20 draws against the independent product form, outside the timer
    rng = random.Random(20260825)
    for _ in range(20):
        x = qmono(rng.choice(coeffs), rat(rng.randint(-6, 10), rng.choice([1, 1, 2])))
        base = qmono(1, rat(rng.randint(1, 6), rng.choice([1, 1, 2])))
        agree(jtheta(x, base, 300), tt.jtheta_product_oracle(x, base, 300), 300)


# ---------------------------------------------------------------------------
# 2. Appell-Lerch special values at order 200
# ---------------------------------------------------------------------------


def test_02_m_special_values_order_200():
    # m(q, q^2, -1) = 1/2 identically
    half = m_eval(Q, qmono(1, 2), NEG1, 200)
    agree(half, QSeries.from_coeff(rat(1, 2)), 200)
    # m(-1, q^2, q) = 0 identically
    zero = m_eval(NEG1, qmono(1, 2), Q, 200)
    agree(zero, QSeries.zero(1, 200), 200)


# ---------------------------------------------------------------------------
# 3. changing the free parameter z at order 150
# ---------------------------------------------------------------------------


def test_03_changing_z_randomized_order_150():
    rng = random.Random(20260825)
    coeffs = [rat(1), rat(-1), rat(2), rat(-1, 2), W3, I4]
    done = attempts = 0
    while done < 10:
        attempts += 1
        assert attempts <= 80, "too many non-generic draws"
        x = qmono(rng.choice(coeffs), rat(rng.randint(-2, 3)))
        b = qmono(1, rng.randint(1, 4))
        z1 = qmono(rng.choice(coeffs), rat(rng.randint(0, 3)))
        z0 = qmono(rng.choice(coeffs), rat(rng.randint(0, 3)))
        try:
            lhs = m_eval(x, b, z1, 150) - m_eval(x, b, z0, 150)
            rhs = changing_z_delta(x, b, z1, z0, 150)
        except GenericityError:
            continue
        agree(lhs, rhs, 150)
        done += 1


# ---------------------------------------------------------------------------
# 4. splitting the Appell-Lerch index modulo 2 and modulo 3 at order 150
# ---------------------------------------------------------------------------


def test_04_m_index_splitting_mod2_mod3_order_150():
    # modulo 2, generic z, with the closed theta-quotient correction
    for x, b, z in [
        (qmono(2, 1), Q, qmono(3, 0)),
        (qmono(-1, 2), qmono(1, 2), qmono(rat(1, 2), 1)),
        (qmono(rat(-1, 2), 1), Q, qmono(2, 0)),
        (qmono(W3, 1), Q, qmono(W3, 0)),
        (qmono(1, rat(1, 2)), Q, qmono(W3, 1)),
    ]:
        agree(m_eval(x, b, z, 150), ta.msplit2_rhs(x, b, z, 150), 150)
    # modulo 3 at z = -1
    for x, b in [
        (qmono(2, 1), Q),
        (qmono(W3, 1), Q),
        (qmono(I4, 1), Q),
        (qmono(rat(1, 2), 1), Q),
        (qmono(3, 2), qmono(1, 2)),
    ]:
        agree(m_eval(x, b, NEG1, 150), ta.msplit3_rhs(x, b, 150), 150)


# ---------------------------------------------------------------------------
# 5. g, h, k reduced to m at order 150
# ---------------------------------------------------------------------------


def test_05_g_h_k_to_m_order_150():
    # g(x,q) = -x^{-1} m(q^2 x^{-3}, q^3, x^2) - x^{-2} m(q x^{-3}, q^3, x^2)
    for x, b in [
        (Q, qmono(1, 3)),
        (qmono(-1, 1), qmono(1, 2)),
        (qmono(2, 1), Q),
        (qmono(W3, 0), Q),
        (qmono(1, 2), qmono(1, 5)),
    ]:
        lhs = g_eval(x, b, 150)
        x3 = x ** (-3)
        z = x * x
        rhs = -(
            m_eval(b * b * x3, b**3, z, 154).mul_monomial(x.inverse())
            + m_eval(b * x3, b**3, z, 154).mul_monomial(x ** (-2))
        )
        agree(lhs, rhs, 150)
    # h(x,q) = -x^{-1} m(q x^{-2}, q^2, x)
    for x, b in [
        (qmono(1, 2), qmono(1, 5)),
        (Q, qmono(1, 5)),
        (qmono(-1, 1), qmono(1, 3)),
        (qmono(W3, 0), Q),
        (qmono(2, 1), qmono(1, 2)),
    ]:
        lhs = h_eval(x, b, 150)
        rhs = -m_eval((x ** (-2)) * b, b * b, x, 154).mul_monomial(x.inverse())
        agree(lhs, rhs, 150)
    # x k(x,q) = m(-q x^4, q^4, z) + (x^2/q) m(-x^4/q, q^4, z), z = -x^{-2}/q
    for x, b in [
        (Q, qmono(1, 5)),
        (qmono(1, 2), qmono(1, 5)),
        (qmono(W3, 1), qmono(1, 2)),
        (qmono(2, 1), qmono(1, 3)),
        (qmono(1, 3), qmono(1, 7)),
    ]:
        lhs = k_eval(x, b, 150).mul_monomial(x)
        zz = -((x ** (-2)) / b)
        rhs = m_eval(-(b * x**4), b**4, zz, 154) + m_eval(
            -(x**4 / b), b**4, zz, 158
        ).mul_monomial((x * x) / b)
        agree(lhs, rhs, 150)


# ---------------------------------------------------------------------------
# 6. master expansion of f_{n,n+p,n} at order 120
# ---------------------------------------------------------------------------

MASTER_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (3, 4)]


def test_06_master_expansion_np_order_120():
    rng = random.Random(20260825)
    for n, p in MASTER_PAIRS:

        def check(x, y, n=n, p=p):
            lhs, rhs = th.master_np_residual(n, p, x, y, Q, 120)
            agree(lhs, rhs, 120)

        run_generic(rng, check, 3)


# ---------------------------------------------------------------------------
# 7. divisible-b master expansion at order 120; product identity at order 300
# ---------------------------------------------------------------------------

DIVISIBLE_TRIPLES = [(1, 2, 1), (1, 3, 1), (1, 2, 2), (2, 2, 1), (5, 5, 1)]


def test_07_divisible_b_expansion_and_product_identity():
    rng = random.Random(20260826)
    for a, b, c in DIVISIBLE_TRIPLES:

        def check(x, y, a=a, b=b, c=c):
            lhs, rhs = th.master_abc_residual(a, b, c, x, y, Q, 120)
            agree(lhs, rhs, 120)

        run_generic(rng, check, 3)
    # f_{5,5,1}(q^5, q^2, q) equals the product (q^2;q^2)_inf (q^10;q^10)_inf
    f = f_eval(5, 5, 1, qmono(1, 5), qmono(1, 2), Q, 300)
    agree(f, Jm(2, 300) * Jm(10, 300), 300)
    # and the classical single-sum form of the same identity, rescaled q -> q^4
    agree(kp_lhs_oracle(300), (Jm(4, 300) * Jm(20, 300)).mul_monomial(Q), 300)


# ---------------------------------------------------------------------------
# 8. specialized expansions with the structured theta corrections at order 120
# ---------------------------------------------------------------------------

SUBTHEOREM_CASES = (
    [(n, 1) for n in (1, 2, 3)]
    + [(n, 2) for n in (1, 3)]  # p = 2 requires n odd
    + [(n, 3) for n in (1, 2)]  # p = 3 requires gcd(n, 3) = 1
    + [(n, 4) for n in (1, 3)]  # p = 4 requires n odd
)


def test_08_structured_theta_corrections_order_120():
    rng = random.Random(20260827)
    for n, p in SUBTHEOREM_CASES:

        def check(x, y, n=n, p=p):
            lhs, rhs = th.subtheorem_residual(n, p, x, y, Q, 120)
            agree(lhs, rhs, 120)

        run_generic(rng, check, 3)


# ---------------------------------------------------------------------------
# 9. the fifth-order mock theta f0: Eulerian opening and Appell-Lerch form
# ---------------------------------------------------------------------------


def _f0_theta_quotient(order):
    num = poch_inf(qmono(1, 5), qmono(1, 5), order + 2) * poch_inf(
        qmono(1, 5), qmono(1, 10), order + 2
    )
    den = poch_inf(qmono(1, 1), qmono(1, 5), order + 2) * poch_inf(
        qmono(1, 4), qmono(1, 5), order + 2
    )
    return num.divide(den, order + 2)


def test_09_fifth_order_f0_conjecture_order_200():
    lhs = catalog_lookup("f0_5th").eulerian(200)
    # opening form: 2 - 2 sum_{n>=0} q^{10n^2} / ((q^2;q^10)_{n+1} (q^8;q^10)_n)
    # plus the theta quotient
    inner = eulerian_sum(
        200,
        lambda n: (qmono(1, 10 * n * n),),
        den=[
            (qmono(1, 2), qmono(1, 10), lambda n: n + 1),
            (qmono(1, 8), qmono(1, 10), lambda n: n),
        ],
    )
    tq = _f0_theta_quotient(200)
    agree(lhs, QSeries.from_coeff(2) - inner.mul_monomial(qmono(2, 0)) + tq, 200)
    # Appell-Lerch form: 2 m(q^14, q^30, q^4) + 2 q^{-2} m(q^4, q^30, q^4)
    # plus the same theta quotient
    rhs = (
        m_eval(qmono(1, 14), qmono(1, 30), qmono(1, 4), 202).mul_monomial(qmono(2, 0))
        + m_eval(qmono(1, 4), qmono(1, 30), qmono(1, 4), 204).mul_monomial(qmono(2, -2))
        + tq
    )
    agree(lhs, rhs, 200)


# ---------------------------------------------------------------------------
# 10. the full mock theta catalog at order 150; sixth-order combination at 200
# ---------------------------------------------------------------------------


def test_10_catalog_all_representations_order_150():
    records = catalog_records()
    assert len(records) > 100
    reports = run_suite(records, force_order=150, jobs=4)
    bad = [(r.name, r.status, r.message or r.first_mismatch) for r in reports if r.status != "pass"]
    assert not bad, f"catalog failures: {bad}"
    # phi(q^2) + 2 sigma(q) = (-q;q^2)_inf^2 (q^6;q^6)_inf (-q^3;q^6)_inf^2
    phi2 = compose_monomial(catalog_lookup("phi_6th").eulerian(100), qmono(1, 2))
    sigma = catalog_lookup("sigma_6th").eulerian(200)
    lhs = phi2 + sigma.mul_monomial(qmono(2, 0))
    rhs = (
        poch_inf(qmono(-1, 1), qmono(1, 2), 200) ** 2
        * poch_inf(qmono(1, 6), qmono(1, 6), 200)
        * poch_inf(qmono(-1, 3), qmono(1, 6), 200) ** 2
    )
    agree(lhs, rhs, 200)


# ---------------------------------------------------------------------------
# 11. seventh-order functions and the double-sum corollaries at order 150
# ---------------------------------------------------------------------------

HECKE_FORM_NAMES = [
    "f0_hecke",
    "f0_hecke_radial",
    "f1_hecke",
    "f1_hecke_radial",
    "F0_5th_hecke",
    "F1_5th_hecke",
    "F0_7th_hecke",
    "F1_7th_hecke",
    "F2_7th_hecke",
    "phi_10th_hecke",
    "psi_10th_hecke",
    "X_10th_hecke",
    "chi_10th_hecke",
    "theta34_radial_collapse",
]


def test_11_seventh_order_and_hecke_form_corollaries_order_150():
    seventh = [
        r
        for r in catalog_records()
        if r.name.split(".")[0] in ("F0_7th", "F1_7th", "F2_7th")
    ]
    assert seventh
    wanted = set(HECKE_FORM_NAMES)
    hecke_forms = [r for r in builtin_records() if r.name in wanted]
    assert {r.name for r in hecke_forms} == wanted
    reports = run_suite(seventh + hecke_forms, force_order=150, jobs=4)
    bad = [(r.name, r.status, r.message or r.first_mismatch) for r in reports if r.status != "pass"]
    assert not bad, f"failures at order 150: {bad}"


# ---------------------------------------------------------------------------
# 12. affine string functions
# ---------------------------------------------------------------------------


def test_12_string_functions_level1_order_100_level2_order_80():
    # level 1: C_{m,l} = q^{(m^2 - l^2)/4} / (q;q)_inf
    for m, l in ((0, 0), (1, 1), (2, 0), (3, 1)):
        s = string_function(1, m, l, Q, 100)
        e = rat(m * m - l * l, 4)

        def build(T, e=e):
            return QSeries.from_coeff(1).divide(Jm(1, T)).mul_monomial(qmono(1, e))

        agree(s, eval_padded(build, 100), 100)
    # level 2: against the brute-force double-sum oracle
    agree(string_function(2, 0, 0, Q, 80), string_function_oracle(2, 0, 0, Q, 80), 80)


# ---------------------------------------------------------------------------
# 13. functional-equation property suite at order 100
# ---------------------------------------------------------------------------


def _check_m_equations(rng, order):
    picks = [rat(1), rat(-1), rat(2), rat(-1, 2), W3]
    done = attempts = 0
    while done < 3:
        attempts += 1
        assert attempts <= 40, "too many non-generic draws"
        x = qmono(rng.choice(picks), rat(rng.randint(-2, 3)))
        b = qmono(1, rng.randint(1, 4))
        z = qmono(rng.choice(picks), rat(rng.randint(0, 3)))
        try:
            m0 = m_eval(x, b, z, order + 6 - min(x.expo, 0))
            # translation in z
            agree(m0, m_eval(x, b, b * z, order), order)
            # inversion in x and z
            agree(
                m0,
                m_eval(x.inverse(), b, z.inverse(), order + 6).mul_monomial(x.inverse()),
                order,
            )
            # z may be replaced by 1/(xz)
            agree(m0, m_eval(x, b, (x * z).inverse(), order), order)
            # the three-term shift family in x
            agree(m_eval(b * x, b, z, order), ONE - m0.mul_monomial(x), order)
            xb = x / b
            agree(
                m0,
                ONE - m_eval(xb, b, z, order + 6 - min(xb.expo, 0)).mul_monomial(xb),
                order,
            )
            agree(
                m0,
                (ONE - m_eval(b * x, b, z, order + 6 + max(x.expo, 0))).mul_monomial(
                    x.inverse()
                ),
                order,
            )
        except GenericityError:
            continue
        done += 1


def _check_f_equations(rng, order):
    # general shift equation, including negative shifts, which exercise the
    # empty-sum convention sum_{r=a}^{b} = -sum_{r=b+1}^{a-1} for b < a
    for l, k in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        for a, b, c in ((1, 2, 1), (2, 3, 2)):

            def check(x, y, a=a, b=b, c=c, l=l, k=k):
                agree(
                    f_eval(a, b, c, x, y, Q, order),
                    th.gen1_rhs(a, b, c, x, y, l, k, order),
                    order,
                )

            run_generic(rng, check, 1)
    # f and g(...,-1,-1) satisfy one shared functional equation
    for a, b, c in ((1, 2, 1), (2, 3, 2)):
        for make in (
            lambda a, b, c: (lambda x, y, T: f_eval(a, b, c, x, y, Q, T)),
            lambda a, b, c: (
                lambda x, y, T: th.g_abc_eval(a, b, c, x, y, Q, NEG1, NEG1, T)
            ),
        ):

            def check(x, y, make=make, a=a, b=b, c=c):
                lhs, rhs = th.fg_functional_residual(make(a, b, c), a, b, c, x, y, order)
                agree(lhs, rhs, order)

            run_generic(rng, check, 1)
    # f and h satisfy the divisible-b analogue
    for a, b, c in ((1, 2, 1), (2, 2, 1)):
        for make in (
            lambda a, b, c: (lambda x, y, T: f_eval(a, b, c, x, y, Q, T)),
            lambda a, b, c: (
                lambda x, y, T: th.h_abc_eval(a, b, c, x, y, Q, NEG1, NEG1, T)
            ),
        ):

            def check(x, y, make=make, a=a, b=b, c=c):
                lhs, rhs = th.fh_functional_residual(make(a, b, c), a, b, c, x, y, order)
                agree(lhs, rhs, order)

            run_generic(rng, check, 1)


def _check_theta_laws(rng, order):
    tp = tt.theta_product
    picks = [rat(1), rat(-1), W3, I4]

    def draw_x():
        return qmono(rng.choice(picks), rat(rng.randint(-4, 6), 2))

    for _ in range(3):
        x = draw_x()
        base = qmono(1, rng.randint(1, 4))
        # inversion symmetry: j(x;q) = j(q/x;q) = -x j(1/x;q)
        a = tp([(x, base)], order)
        agree(a, tp([(base / x, base)], order), order)
        agree(a, tp([(x.inverse(), base)], order, extra=-x), order)
        # quasi-periodicity: j(q^n x;q) = (-1)^n q^{-binom(n,2)} x^{-n} j(x;q)
        n = rng.randint(-3, 4)
        lhs = tp([(x * Q**n, Q)], order)
        extra = (Q ** (-binom2(n))) * (x ** (-n))
        if n % 2:
            extra = -extra
        agree(lhs, tp([(x, Q)], order, extra=extra), order)
        # sign change: j(-x;q) j(x;q) = J_{1,2} j(x^2;q^2)
        lhs = tp([(-x, Q), (x, Q)], order)
        agree(lhs, tp([(x * x, qmono(1, 2))], order) * J(1, 2, order + 10), order)
        # negated base: j(x;-q) J_{1,4} = j(x;q^2) j(-qx;q^2)
        lhs = tp([(x, qmono(-1, 1))], order) * J(1, 4, order + 10)
        agree(lhs, tp([(x, qmono(1, 2)), (-(Q * x), qmono(1, 2))], order), order)
        for n in (2, 3):
            # base refinement: j(x;q) J_n^n = J_1 j(x, qx, ..., q^{n-1}x; q^n)
            lhs = tp([(x, Q)], order) * (Jm(n, order + 10) ** n)
            rhs = theta_quotient(
                MONO_ONE, [(x * Q**k, qmono(1, n)) for k in range(n)], (), order + 10
            ) * Jm(1, order + 10)
            agree(lhs, rhs, order)
            # argument roots of unity: j(x^n;q^n) J_1^n = J_n j(x, zx, ..., z^{n-1}x; q)
            zn = zeta(1, n)
            lhs = tp([(x**n, qmono(1, n))], order) * (Jm(1, order + 10) ** n)
            rhs = theta_quotient(
                MONO_ONE, [(qmono(zn, 0) ** k * x, Q) for k in range(n)], (), order + 10
            ) * Jm(n, order + 10)
            agree(lhs, rhs, order)
        # argument splitting into m residue classes, m = 2, 3, 4
        for m in (2, 3, 4):
            lhs = tp([(x, Q)], order)
            rhs = None
            sign_inner = rat(1) if (m + 1) % 2 == 0 else rat(-1)
            for k in range(m):
                inner = qmono(sign_inner, binom2(m) + m * k) * x**m
                sign_k = rat(1) if k % 2 == 0 else rat(-1)
                extra = qmono(sign_k, binom2(k)) * x**k
                term = tp([(inner, qmono(1, m * m))], order, extra=extra)
                rhs = term if rhs is None else rhs + term
            agree(lhs, rhs, order)
        # quintuple product, both product forms; the factors can have strictly
        # negative valuation, so evaluate them well past the target order
        qp = order + 16
        core = tp([(Q * x**3, qmono(1, 3))], qp) + tp(
            [(Q**2 * x**3, qmono(1, 3))], qp, extra=x
        )
        agree(core * Jm(2, qp), tp([(-x, Q), (Q * x * x, qmono(1, 2))], order), order)
        agree(core * tp([(x, Q)], qp), tp([(x * x, Q)], order) * Jm(1, qp), order)
    # Riemann relation for four arguments
    for _ in range(3):
        a, b, c, d = (
            qmono(rng.choice(picks), rat(rng.randint(0, 4), 2)) for _ in range(4)
        )
        lhs = tp([(a * c, Q), (a / c, Q), (b * d, Q), (b / d, Q)], order)
        r1 = tp([(a * d, Q), (a / d, Q), (b * c, Q), (b / c, Q)], order)
        r2 = tp([(a * b, Q), (a / b, Q), (c * d, Q), (c / d, Q)], order, extra=b / c)
        agree(lhs, r1 + r2, order)


def test_13_functional_equation_suite_order_100():
    rng = random.Random(20260825)
    _check_m_equations(rng, 100)
    _check_f_equations(rng, 100)
    _check_theta_laws(rng, 100)


# ---------------------------------------------------------------------------
# 14. runner determinism and total running time
# ---------------------------------------------------------------------------


def test_14_runner_determinism_full_suite_under_5_minutes():
    records = builtin_records() + catalog_records()

    def snapshot(reports):
        out = []
        for r in reports:
            d = r.to_dict()
            d.pop("ms")
            out.append(d)
        return out

    t0 = time.perf_counter()
    first = run_suite(records, jobs=4)
    t_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = run_suite(records, jobs=2)
    t_second = time.perf_counter() - t0
    assert json.dumps(snapshot(first), indent=2) == json.dumps(snapshot(second), indent=2)
    assert all(r.status == "pass" for r in first), [
        (r.name, r.status) for r in first if r.status != "pass"
    ]
    assert max(t_first, t_second) < 300.0
