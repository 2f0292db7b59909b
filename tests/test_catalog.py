"""Catalog tests.

The registry's Eulerian q-hypergeometric sums are checked three ways:

1. against a deliberately naive evaluator written with stdlib Fractions
   and dict polynomials (shared code with the engine: none), for a
   representative subset of the registry, with the leading coefficients
   frozen below;
2. every alternate Eulerian form against the primary one;
3. every closed-form representation (Appell-Lerch / theta-quotient)
   against the Eulerian form, through the expression evaluator.

Each definition keeps its highest-order sum; the memo's truncations are
checked against fresh engine sums, and its results against shared state.
"""

from fractions import Fraction

import pytest

from oracles import has_coeff_types
from qverify import kernels
from qverify.catalog import CATALOG, catalog_lookup, catalog_names
from qverify.cyclotomic import rat
from qverify.dsl import eval_expr, parse_expression
from qverify.errors import UnknownCatalogName
from qverify.eulerian import eulerian_sum
from qverify.series import QSeries, clear_memos


# ---------------------------------------------------------------------------
# naive reference evaluator (stdlib only)
# ---------------------------------------------------------------------------

F1 = Fraction(1)


def pmul(a, b, T):
    out = {}
    bs = sorted(b.items())
    for ka, va in sorted(a.items()):
        if ka >= T:
            break
        for kb, vb in bs:
            k = ka + kb
            if k >= T:
                break
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def pinv(a, T):
    inv0 = Fraction(1) / a[0]
    w = {0: inv0}
    sup = sorted(k for k in a if k > 0)
    for n in range(1, T):
        acc = Fraction(0)
        for k in sup:
            if k > n:
                break
            if (n - k) in w:
                acc += a[k] * w[n - k]
        if acc:
            w[n] = -inv0 * acc
    return w


def poch(ce, sign, be, n, T):
    """prod_{k=0}^{n-1} (1 + sign*q^{ce+k*be}) truncated below q^T."""
    out = {0: F1}
    for k in range(n):
        e = ce + k * be
        if e >= T:
            break
        out = pmul(out, {0: F1, e: Fraction(sign)}, T)
    return out


def naive_series(term_fn, T, const=Fraction(0)):
    total = {0: const} if const else {}
    n = 0
    while True:
        t, lead = term_fn(n, T)
        if lead >= T:
            break
        for k, v in t.items():
            total[k] = total.get(k, Fraction(0)) + v
        n += 1
    return {k: v for k, v in total.items() if v and k < T}


def A_2nd(n, T):
    num = pmul({n + 1: F1}, poch(2, +1, 2, n, T), T)
    return pmul(num, pinv(poch(1, -1, 2, n + 1, T), T), T), n + 1


def mu_2nd(n, T):
    num = pmul({n * n: Fraction((-1) ** n)}, poch(1, -1, 2, n, T), T)
    den = pmul(poch(2, +1, 2, n, T), poch(2, +1, 2, n, T), T)
    return pmul(num, pinv(den, T), T), n * n


def f_3rd(n, T):
    den = pmul(poch(1, +1, 1, n, T), poch(1, +1, 1, n, T), T)
    return pmul({n * n: F1}, pinv(den, T), T), n * n


def omega_3rd(n, T):
    den = pmul(poch(1, -1, 2, n + 1, T), poch(1, -1, 2, n + 1, T), T)
    return pmul({2 * n * (n + 1): F1}, pinv(den, T), T), 2 * n * (n + 1)


def f0_5th(n, T):
    return pmul({n * n: F1}, pinv(poch(1, +1, 1, n, T), T), T), n * n


def chi0_5th(n, T):
    den = poch(n + 1, -1, 1, n + 1, T)
    return pmul({2 * n + 1: F1}, pinv(den, T), T), 2 * n + 1


def phi_6th(n, T):
    num = pmul({n * n: Fraction((-1) ** n)}, poch(1, -1, 2, n, T), T)
    return pmul(num, pinv(poch(1, +1, 1, 2 * n, T), T), T), n * n


def mu_6th(n, T):
    onepqn = {0: F1}
    onepqn[n] = onepqn.get(n, Fraction(0)) + F1  # (1+q^n), = 2 at n=0
    num = pmul({n + 1: Fraction((-1) ** n) / 2},
               pmul(onepqn, poch(1, -1, 2, n, T), T), T)
    return pmul(num, pinv(poch(1, +1, 1, n + 1, T), T), T), n + 1


def F0_7th(n, T):
    return pmul({n * n: F1}, pinv(poch(n + 1, -1, 1, n, T), T), T), n * n


def S1_8th(n, T):
    num = pmul({n * (n + 2): F1}, poch(1, +1, 2, n, T), T)
    return pmul(num, pinv(poch(2, +1, 2, n, T), T), T), n * (n + 2)


def V1_8th(n, T):
    num = pmul({(n + 1) ** 2: F1}, poch(1, +1, 2, n, T), T)
    return pmul(num, pinv(poch(1, -1, 2, n + 1, T), T), T), (n + 1) ** 2


def phi_10th(n, T):
    e = n * (n + 1) // 2
    return pmul({e: F1}, pinv(poch(1, -1, 2, n + 1, T), T), T), e


def X_10th(n, T):
    num = {n * n: Fraction((-1) ** n)}
    return pmul(num, pinv(poch(1, +1, 1, 2 * n, T), T), T), n * n


NAIVE = {
    "A_2nd": (A_2nd, Fraction(0)),
    "mu_2nd": (mu_2nd, Fraction(0)),
    "f_3rd": (f_3rd, Fraction(0)),
    "omega_3rd": (omega_3rd, Fraction(0)),
    "f0_5th": (f0_5th, Fraction(0)),
    "chi0_5th": (chi0_5th, Fraction(1)),
    "phi_6th": (phi_6th, Fraction(0)),
    "mu_6th": (mu_6th, Fraction(1, 2)),
    "F0_7th": (F0_7th, Fraction(0)),
    "S1_8th": (S1_8th, Fraction(0)),
    "V1_8th": (V1_8th, Fraction(0)),
    "phi_10th": (phi_10th, Fraction(0)),
    "X_10th": (X_10th, Fraction(0)),
}

# Leading coefficients (q^0..q^14) frozen from the naive evaluator.
FROZEN_HEADS = {
    "A_2nd": [0, 1, 2, 3, 5, 8, 11, 16, 23, 31, 43, 58, 76, 101, 132],
    "mu_2nd": [1, -1, 1, 2, -1, -4, 1, 5, -2, -5, 4, 7, -4, -11, 3],
    "f_3rd": [1, 1, -2, 3, -3, 3, -5, 7, -6, 6, -10, 12, -11, 13, -17],
    "omega_3rd": [1, 2, 3, 4, 6, 8, 10, 14, 18, 22, 29, 36, 44, 56, 68],
    "f0_5th": [1, 1, -1, 1, 0, 0, -1, 1, 0, 1, -2, 1, -1, 2, -2],
    "chi0_5th": [1, 1, 1, 2, 1, 3, 2, 3, 3, 5, 3, 6, 5, 7, 7],
    "phi_6th": [1, -1, 2, -1, 1, -3, 3, -3, 4, -4, 6, -6, 5, -9, 11],
    "mu_6th": ["1/2", 1, "-3/2", 2, -2, 3, "-11/2", 7, "-15/2", 11,
               "-31/2", 17, "-41/2", 28, "-69/2"],
    "F0_7th": [1, 1, 0, 1, 1, 1, 0, 2, 1, 2, 1, 2, 1, 3, 2],
    "S1_8th": [1, 0, 0, 1, 1, -1, -1, 1, 2, 0, -2, 1, 2, -2, -2],
    "V1_8th": [0, 1, 1, 1, 2, 3, 3, 4, 5, 6, 8, 9, 11, 14, 16],
    "phi_10th": [1, 2, 2, 3, 4, 4, 6, 7, 8, 10, 12, 14, 16, 20, 22],
    "X_10th": [1, -1, 1, 0, 1, -2, 1, -1, 1, -2, 3, -1, 2, -4, 3],
}


def _to_rat(x):
    if isinstance(x, str):
        p, q = x.split("/")
        return rat(int(p), int(q))
    return rat(x)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_registry_size_and_shape():
    names = catalog_names()
    assert len(names) == 46
    for name in names:
        entry = catalog_lookup(name)
        assert entry.representations, name


def test_unknown_name_raises():
    with pytest.raises(UnknownCatalogName):
        catalog_lookup("no_such_function")


@pytest.mark.parametrize("name", sorted(NAIVE))
def test_eulerian_matches_naive_oracle(name):
    T = 25
    term_fn, const = NAIVE[name]
    oracle = naive_series(term_fn, T, const)
    eng = catalog_lookup(name).eulerian(T)
    for k in range(T):
        co = oracle.get(k, Fraction(0))
        assert eng.coeff_at(k) == rat(co.numerator, co.denominator), \
            f"{name} at q^{k}"


@pytest.mark.parametrize("name", sorted(FROZEN_HEADS))
def test_eulerian_matches_frozen_head(name):
    head = FROZEN_HEADS[name]
    eng = catalog_lookup(name).eulerian(len(head))
    for k, v in enumerate(head):
        assert eng.coeff_at(k) == _to_rat(v), f"{name} at q^{k}"


def test_alternate_eulerian_forms_agree():
    T = 45
    checked = 0
    for name in catalog_names():
        entry = catalog_lookup(name)
        base = entry.eulerian(T)
        for alt in entry.eulerian_alts:
            assert QSeries.first_difference(base, alt(T)) is None, name
            checked += 1
    assert checked >= 6


def test_eulerian_prefix_is_stable():
    """Each Eulerian sum at T is the longer sum at T + 9 truncated to T, so
    the stop rule (first n whose least monomial exponent reaches T) never
    stops early, at fractional orders too."""
    for name in catalog_names():
        entry = catalog_lookup(name)
        for f in (entry.eulerian,) + entry.eulerian_alts:
            for T in (5, 17, rat(39, 2), 30, rat(181, 3)):
                short, long = f(T), f(T + 9).truncate_q(T)
                assert (short.scale, short.order, short.terms) == \
                    (long.scale, long.order, long.terms), f"{name} at {T}"


@pytest.mark.parametrize("name", catalog_names())
def test_representations_match_eulerian(name):
    T = 35
    entry = catalog_lookup(name)
    base = entry.eulerian(T)
    for i, src in enumerate(entry.representations):
        rep = eval_expr(parse_expression(src), T)
        diff = QSeries.first_difference(rep.truncate_q(T), base)
        assert diff is None, f"{name}.repr[{i}]: first difference {diff}"


def _definitions():
    for name in catalog_names():
        entry = catalog_lookup(name)
        for f in (entry.eulerian,) + entry.eulerian_alts:
            yield name, f


def test_memo_results_are_fresh_copies():
    """A memo hit hands out the kept series itself, which cannot be written
    into; each order is still the right truncation of the sum."""
    f = catalog_lookup("chi0_5th").eulerian
    clear_memos()
    first = f(40)
    kept = dict(first.terms)
    with pytest.raises(TypeError):
        first.terms[0] = rat(99)
    assert f(40) is first
    for T in (40, 25):
        assert f(T).terms == {k: c for k, c in kept.items() if k < T}


def test_eulerian_results_keep_integral_coefficients_as_ints():
    """Every definition hands out int, Rat or CycRat coefficients, also
    where a constant or a +-1/2 or 2 monomial mixes Rats into the int
    terms; f_3rd, whose Pochhammer and monomial coefficients are all +-1,
    hands out ints only."""
    f3 = catalog_lookup("f_3rd").eulerian
    for T in (rat(45, 2), 45):
        for name, f in _definitions():
            s = f(T)
            assert s.terms and has_coeff_types(s), name
        assert all(type(c) is int for c in f3(T).terms.values())


def test_eulerian_results_hold_no_integral_rats():
    """No definition hands out an integral Rat: the Eulerian engine makes
    every integral coefficient an int, also where Rat monomials and a Rat
    constant sum to integers (mu_6th: +-1/2 and 1/2)."""
    clear_memos()
    for name, f in _definitions():
        s = f(60)
        assert not [c for c in s.terms.values() if type(c) is Fraction and c.denominator == 1], name


def test_eulerian_sums_keep_their_ints_small(monkeypatch):
    """The running product and the total keep their own denominators, so a
    term's denominator reaches the total once, not once a term: at order
    300, every definition and alternate ends with the total over at most 2
    (mu_6th's +-1/2 terms), every total entry below 64 bits and the
    product over 1."""
    ends = []
    items = kernels.RowSum.items
    monkeypatch.setattr(kernels.RowSum, "items", lambda acc: ends.append(acc) or items(acc))
    names = []
    for name, f in _definitions():
        eulerian_sum(300, *f.spec)
        names.append(name)
    assert len(ends) == len(names)
    sizes = {name: (acc.den, max(abs(x) for x in acc.total).bit_length())
           for name, acc in zip(names, ends)}
    assert not {name: v for name, v in sizes.items() if v[0] > 2 or v[1] >= 64}
    assert all(acc.pd == 1 for acc in ends)
