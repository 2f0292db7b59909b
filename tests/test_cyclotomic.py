"""Exact cyclotomic-rational arithmetic: canonical forms, ring laws, roots."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cyc_add,
    cyc_canonical,
    cyc_inverse,
    cyc_mul,
    cyc_of,
    cyc_pow,
    cyc_reduce,
    cyc_solve,
    cyc_sub,
)
from qverify.cyclotomic import (
    CycRat,
    Rat,
    cinv,
    coeff_root,
    coeff_str,
    cyclotomic_coeffs,
    euler_phi,
    rat,
    root_of_unity_log,
    zeta,
)
from qverify.errors import UnsupportedSubstitution
from qverify.series import QMonomial


# ---------------------------------------------------------------------------
# basic constructors and canonical forms
# ---------------------------------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 401):
        poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        assert cyclotomic_coeffs(n) == tuple(int(c) for c in reversed(poly.all_coeffs())), n


def test_rat_refuses_floats():
    """A float is inexact: an int / int slip must raise, not become the
    exponent Fraction(0.333...)."""
    for args in ((1 / 3,), (0.5,), (1, 2.0), (2.0, 3), (Fraction(1, 2), 1.0)):
        with pytest.raises(TypeError):
            rat(*args)
    with pytest.raises(TypeError):
        QMonomial(1, 4 / 2)
    with pytest.raises(TypeError):
        QMonomial(0.5, 1)
    with pytest.raises(TypeError):
        QMonomial(-1, 1) ** 0.5
    assert type(rat(4, 2)) is Fraction and rat(4, 2) == 2
    assert rat(Fraction(1, 2), 3) == Fraction(1, 6) and rat("5/8") == Fraction(5, 8)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 6, 8, 12)] == [1, 1, 2, 2, 4, 2, 4, 4]


def test_zeta_low_conductors_are_plain_rationals():
    assert zeta(0, 1) == 1 and not isinstance(zeta(0, 1), CycRat)
    assert zeta(1, 2) == -1 and not isinstance(zeta(1, 2), CycRat)
    assert zeta(2, 4) == -1
    assert zeta(3, 3) == 1


def test_zeta_exponent_reduction():
    assert zeta(4, 3) == zeta(1, 3)
    assert zeta(2, 6) == zeta(1, 3)  # gcd reduction
    assert zeta(10, 8) == zeta(5, 4) == zeta(1, 4) * zeta(1, 1) * zeta(1, 4) ** 4


def test_zeta_even_twice_odd_normalizes():
    # conductor 2m with m odd collapses into conductor m
    w = zeta(1, 3)
    assert zeta(1, 6) == -(w**2)
    assert zeta(5, 6) == -w
    assert zeta(1, 6) ** 6 == 1
    assert zeta(1, 6) ** 3 == -1


def test_zeta_matches_canonical_oracle():
    """zeta(k, n) is the reference canonical value of z^k mod Phi_n, in its
    least field and a Rat when rational, for n <= 60 and k in [-n, 2n)."""
    for n in range(1, 61):
        for r in range(n):
            want = cyc_canonical(n, cyc_reduce([0] * r + [1], n))
            for k in (r - n, r, r + n):
                assert cyc_of(zeta(k, n)) == want, (k, n)


def test_omega_arithmetic():
    w = zeta(1, 3)
    assert w**3 == 1
    assert w * w == zeta(2, 3)
    assert w + w**2 == rat(-1)
    assert not isinstance(w + w**2, CycRat)  # demoted to a plain rational
    assert (1 - w) * (1 - w**2) == rat(3)


def test_gauss_sum_conductor_5():
    z = zeta(1, 5)
    assert z + z**2 + z**3 + z**4 == rat(-1)
    # (zeta_5 + zeta_5^4) satisfies x^2 + x - 1 = 0
    x = z + z**4
    assert x * x + x - 1 == rat(0)


def test_i_arithmetic():
    i = zeta(1, 4)
    assert i * i == rat(-1)
    assert cinv(i) == -i == zeta(3, 4)
    assert (1 + i) * (1 - i) == rat(2)


def test_minimal_conductor_demotion():
    # an element written in conductor 12 that really lives in conductor 4
    i12 = zeta(3, 12)
    assert i12 == zeta(1, 4)
    assert isinstance(i12, CycRat) and i12.n == 4
    # and one that really lives in conductor 3
    w12 = zeta(4, 12)
    assert w12 == zeta(1, 3) and w12.n == 3


def test_mixed_conductor_sum_and_product():
    w, i = zeta(1, 3), zeta(1, 4)
    s = w + i
    assert isinstance(s, CycRat) and s.n == 12
    assert s - i == w
    assert (w + i) * cinv(w + i) == rat(1)


def test_adding_a_zero_returns_the_element():
    """x + 0, 0 + x, x - 0 and x + Fraction(0) return x itself (the dense
    Eulerian lists add zeros at every empty slot), and 0 - x is -x."""
    for x in (zeta(1, 3), rat(2, 3) * zeta(1, 4) - 1, zeta(1, 5) + zeta(2, 5)):
        for y in (x + 0, 0 + x, x - 0, x + Fraction(0), Fraction(0) + x):
            assert y is x
        assert 0 - x == -x == Fraction(0) - x


def test_inverse_and_division():
    w = zeta(1, 3)
    assert cinv(1 + w) == -w  # since 1 + w = -w^2 and 1/w^2 = w
    a = rat(2, 3) + zeta(1, 8)
    assert a * cinv(a) == rat(1)
    assert cinv(rat(7, 5)) == rat(5, 7)


def test_pow_negative_and_zero():
    z = zeta(1, 8)
    assert z**0 == rat(1)
    assert z**-3 == zeta(5, 8)
    assert (2 * z) ** -1 == cinv(z) * rat(1, 2)


def test_equality_is_structural_and_hashable():
    a = zeta(1, 3) + zeta(1, 4)
    b = zeta(4, 12) + zeta(3, 12)
    assert a == b and hash(a) == hash(b)
    assert a != zeta(1, 3)
    assert zeta(1, 3) != rat(1, 3)
    d = {a: "x"}
    assert d[b] == "x"


# ---------------------------------------------------------------------------
# roots of unity: discrete log and fractional powers
# ---------------------------------------------------------------------------


def test_root_of_unity_log():
    assert root_of_unity_log(rat(1)) == (0, 1)
    assert root_of_unity_log(rat(-1)) == (1, 2)
    assert root_of_unity_log(zeta(1, 3)) == (1, 3)
    assert root_of_unity_log(zeta(1, 3) ** 2) == (2, 3)
    assert root_of_unity_log(-zeta(1, 3)) == (5, 6)
    assert root_of_unity_log(zeta(1, 4)) == (1, 4)
    assert root_of_unity_log(rat(2)) is None
    assert root_of_unity_log(zeta(1, 3) + 1) == (1, 6)  # 1 + w = -w^2 = zeta_6
    assert root_of_unity_log(zeta(1, 3) * 2) is None


def test_coeff_root_basic():
    assert coeff_root(rat(1), 1, 2) == rat(1)
    assert coeff_root(rat(-1), 1, 2) == zeta(1, 4)
    assert coeff_root(zeta(1, 3), 1, 2) == zeta(1, 6)
    # consistency: the claimed root really squares back
    r = coeff_root(zeta(1, 5), 1, 2)
    assert r * r == zeta(1, 5)


def test_coeff_root_rejects_non_roots():
    with pytest.raises(UnsupportedSubstitution):
        coeff_root(rat(2), 1, 2)
    with pytest.raises(UnsupportedSubstitution):
        coeff_root(zeta(1, 3) + 2, 1, 3)


# ---------------------------------------------------------------------------
# rendering: canonical value => canonical string
# ---------------------------------------------------------------------------


def test_coeff_str_rationals():
    assert coeff_str(rat(3, 2)) == "3/2"
    assert coeff_str(rat(-7)) == "-7"
    assert coeff_str(rat(0)) == "0"


def test_coeff_str_is_canonical():
    a = zeta(1, 3) + zeta(1, 4)
    b = zeta(4, 12) + zeta(3, 12)
    assert coeff_str(a) == coeff_str(b)
    assert coeff_str(zeta(2, 6)) == coeff_str(zeta(1, 3))


# ---------------------------------------------------------------------------
# ring laws on random elements (small conductors)
# ---------------------------------------------------------------------------

_CONDUCTORS = (1, 3, 4, 5, 8, 12)


@st.composite
def cyc_elements(draw):
    n = draw(st.sampled_from(_CONDUCTORS))
    num = draw(st.integers(-9, 9))
    den = draw(st.integers(1, 9))
    k = draw(st.integers(0, 11))
    return rat(num, den) * zeta(1, n) ** k + draw(st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(cyc_elements(), cyc_elements(), cyc_elements())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == rat(0) or a - a == 0


@settings(max_examples=60, deadline=None)
@given(cyc_elements())
def test_multiplicative_inverse(a):
    if a == 0 or a == rat(0):
        return
    assert a * cinv(a) == rat(1)


# ---------------------------------------------------------------------------
# the integer layout against the Fraction-vector reference (tests/oracles.py)
# ---------------------------------------------------------------------------

_ORACLE_CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 24)


def assert_canonical(x):
    """x is a Rat, or a CycRat (n, nums, den) with den > 0, gcd(den, *nums)
    = 1, phi(n) integer coordinates, at its minimal conductor and not
    rational; it survives a pickle round trip with its hash."""
    if not isinstance(x, CycRat):
        assert type(x) is Rat
        return
    n, nums, den = x.n, x.nums, x.den
    assert n >= 3 and n % 4 != 2
    assert type(nums) is tuple and len(nums) == euler_phi(n)
    assert all(type(c) is int for c in nums)
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert any(nums[1:])
    coords = cyc_of(x)[1]
    for d in range(3, n):
        if n % d == 0 and d % 4 != 2:
            assert cyc_solve(coords, n, d) is None, (x, d)
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is CycRat and y == x and hash(y) == hash(x)
    assert (y.n, y.nums, y.den) == (n, nums, den)


@st.composite
def cyc_with_reference(draw):
    """(engine value, reference value) of sum c_i zeta_n^i over i < phi(n),
    with fractional c_i, many of them zero so that subfield and rational
    values come up."""
    n = draw(st.sampled_from(_ORACLE_CONDUCTORS))
    coord = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=6))
    coords = draw(st.lists(coord, min_size=euler_phi(n), max_size=euler_phi(n)))
    value = sum((c * zeta(i, n) for i, c in enumerate(coords)), Rat(0))
    return value, cyc_canonical(n, coords)


@settings(max_examples=150, deadline=None)
@given(cyc_with_reference(), cyc_with_reference())
def test_ring_ops_match_fraction_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert_canonical(a)
    assert cyc_of(a) == ra
    for got, want in ((a + b, cyc_add(ra, rb)), (a - b, cyc_sub(ra, rb)),
                      (a * b, cyc_mul(ra, rb))):
        assert_canonical(got)
        assert cyc_of(got) == want


@settings(max_examples=150, deadline=None)
@given(cyc_with_reference(), st.integers(-3, 4))
def test_inverse_and_pow_match_fraction_reference(x, k):
    a, ra = x
    if not ra:
        return
    inv = cinv(a)
    assert_canonical(inv)
    assert cyc_of(inv) == cyc_inverse(ra)
    got = a ** k
    assert_canonical(got)
    assert cyc_of(got) == cyc_pow(ra, k)


def test_mixed_conductor_results_match_fraction_reference():
    # conductors 3 and 8 meet in 24, 5 and 3 in 15, 12 and 8 in 24; and
    # zeta_12 * zeta_12^2 = zeta_4 falls back to conductor 4
    cases = [(rat(1, 2) * zeta(1, 3), zeta(1, 8) + rat(2, 3)),
             (zeta(1, 5) - rat(3, 4), zeta(2, 3) * rat(5, 6)),
             (zeta(1, 12) + zeta(1, 8), zeta(11, 12) - zeta(7, 8))]
    for a, b in cases:
        for got, want in ((a + b, cyc_add(cyc_of(a), cyc_of(b))),
                          (a - b, cyc_sub(cyc_of(a), cyc_of(b))),
                          (a * b, cyc_mul(cyc_of(a), cyc_of(b))),
                          (a / b, cyc_mul(cyc_of(a), cyc_inverse(cyc_of(b))))):
            assert_canonical(got)
            assert cyc_of(got) == want
    assert (zeta(1, 12) * zeta(2, 12)).n == 4
