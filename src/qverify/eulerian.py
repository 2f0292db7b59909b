"""The Eulerian engine: one evaluator for every series of Pochhammer
quotients (the catalog definitions, g(x, q), and (x; b)_inf as Euler's sum
over n of (-1)^n b^binom(n,2) x^n / (b; b)_n).

An Eulerian series is a sum of terms
    term(n) = (one or two monomials in q) * prod_i (x_i; b_i)_{c_i(n)}
            / prod_j (y_j; d_j)_{e_j(n)}
with nondecreasing counts c_i, e_j.  The running product over all
Pochhammer factors is one value for the whole sum: advancing a count by one
multiplies it by a single binomial (1 - mono) in place or divides it by one
in place, both O(window), and each term adds the product times its
monomials into the total.  When every coefficient is an int, the product
and the total are dense int lists stepped by the list kernels of
``kernels``; otherwise they are accumulators (``series._Acc``, whose
``over_one_minus`` is c[k+d] += m*c[k] in ascending k).  Summation stops at
the first n whose least monomial exponent reaches the window.  That is
sound when the least exponent does not decrease in n and every Pochhammer x
has exponent >= 0: the product then has valuation >= 0, so no term from n
on reaches below the window.
"""

from __future__ import annotations

from itertools import count, repeat
from math import gcd, lcm
from operator import add, mul, sub

from .cyclotomic import rat
from .kernels import over_one_minus, times_one_minus
from .series import QMonomial, QSeries, _Acc, _int, common_scale


def eulerian_sum(order, monos_fn, num=(), den=(), const=None, start=0):
    """Sum ``term(n)`` for ``n >= start`` below q^order (order in q-units,
    on the grid of its denominator), stopping at the first n whose least
    exponent of ``monos_fn(n)`` reaches the order.

    ``monos_fn(n)`` returns the monomial part(s) of the n-th term, and
    ``num``/``den`` are Pochhammer specs ``(x, base, count_fn)`` multiplied
    into / divided out of the term; ``const`` is added once.  The least
    exponent of ``monos_fn(n)`` must not decrease in n, and every x must
    have exponent >= 0.  Integral coefficients are ints, as in any series.
    When every x, base and const has an int coefficient the sum runs on
    dense int lists (``_dense_sum``); any other sum, or one that
    ``_dense_sum`` gives up, runs on accumulators.
    """
    order = rat(order)
    const = None if const is None else QMonomial(const)
    if all(type(_int(m.coeff)) is int for m in _spec_monos(num, den, const)):
        s = _dense_sum(order, monos_fn, num, den, const, start)
        if s is not None:
            return s
    prod = _Acc.below(order, {0: 1})
    total = _Acc.below(order)
    num_next, den_next = [(0, x) for x, _, _ in num], [(0, x) for x, _, _ in den]
    for n in count(start):
        monos = monos_fn(n)
        if min(m.expo for m in monos) >= order:
            break
        for m in _advance(num, num_next, n):
            prod.times_one_minus(m)
        for m in _advance(den, den_next, n):
            prod.over_one_minus(m)
        for mono in monos:
            total.add_series(mono, prod)
    if const is not None:
        total.add_mono(const)
    return total.freeze()


def _spec_monos(num, den, const):
    """The x and base of every Pochhammer spec, and const when given."""
    yield from (m for x, b, _ in (*num, *den) for m in (x, b))
    if const is not None:
        yield const


def _dense_sum(order, monos_fn, num, den, const, start):
    """``eulerian_sum`` with int coefficients on dense lists: the running
    product below the window, and the total from the least exponent of the
    first term (or 0) to the window, on the grid of the order and the specs
    with one slot per multiple of g, the gcd there of the specs' exponents
    and those of the first three terms (for exponents quadratic in n, the
    gcd of them all).
    The result is on the grid the accumulators would reach: that of the
    order, the binomials applied and the monomials added.  None, to leave
    the sum to the accumulators, when a monomial has a coefficient that is
    not an int, an exponent off the slots or below the first term's, or a
    binomial divided out is constant and its inverse not an int."""
    expos = [m.expo for m in _spec_monos(num, den, None)]
    scale = common_scale(order, *expos)
    firsts = [m.expo * scale for n in range(start, start + 3) for m in monos_fn(n)]
    W, used = int(order * scale), order.denominator
    if W < 1 or any(e.denominator != 1 for e in firsts):
        return None
    g = gcd(*(int(e * scale) for e in expos), *map(int, firsts)) or 1
    base = min(0, int(min(m.expo for m in monos_fn(start)) * scale) // g * g)
    size, top = -(-W // g), W + base
    prod, total = [1] + [0] * (size - 1), [0] * size
    # per spec: [over, count_fn, count k, scaled exponent and coefficient
    # of its next binomial x*b^k, and those of b]
    steps = [[over, cf, 0, int(x.expo * scale), _int(x.coeff), int(b.expo * scale), _int(b.coeff)]
             for over, specs in ((False, num), (True, den)) for x, b, cf in specs]
    for n in count(start):
        monos = monos_fn(n)
        if min(m.expo for m in monos) >= order:
            break
        for step in steps:
            over, cf, k, e, c, be, bc = step
            target = cf(n)
            while k < target:
                used, d = lcm(used, scale // gcd(e, scale)), e // g
                if d < 0 or d == 0 and over and c != 2:
                    return None
                if d == 0:  # a constant binomial: 1 - c, or 1/(1 - 2)
                    prod = list(map(mul, prod, repeat(-1 if over else 1 - c)))
                elif over:
                    over_one_minus(prod, c, d)
                else:
                    times_one_minus(prod, c, d)
                k, e, c = k + 1, e + be, c * bc
            step[2:5] = k, e, c
        for mono in monos:
            q, c = mono.expo.denominator, _int(mono.coeff)
            e = mono.expo.numerator * (scale // q)
            if scale % q or e < base or e % g or type(c) is not int:
                return None
            used = lcm(used, q)
            i = (e - base) // g
            t = total[i:]
            total[i:] = (map(add, t, prod) if c == 1 else map(sub, t, prod) if c == -1
                         else map(add, t, map(mul, prod, repeat(c))))
    if const is not None and top > 0:
        total[-base // g] += _int(const.coeff)
    f = scale // used
    terms = {(base + g * i) // f: c for i, c in enumerate(total) if c}
    return QSeries(used, top // f, terms)


def _advance(specs, nexts, n):
    """Yield the binomials x*b^k, each the one before times b, that bring
    each spec's count up to count_fn(n); nexts[i] holds its count k and x*b^k."""
    for i, (_, b, cf) in enumerate(specs):
        k, m, target = *nexts[i], cf(n)
        while k < target:
            yield m
            k, m = k + 1, m * b
        nexts[i] = (k, m)
