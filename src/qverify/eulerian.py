"""The Eulerian engine: one evaluator for every series of Pochhammer
quotients (the catalog definitions, g(x, q), and (x; b)_inf as Euler's sum
over n of (-1)^n b^binom(n,2) x^n / (b; b)_n).

An Eulerian series is a sum of terms
    term(n) = (one or two monomials in q) * prod_i (x_i; b_i)_{c_i(n)}
            / prod_j (y_j; d_j)_{e_j(n)}
with nondecreasing counts c_i, e_j.  The running product over all
Pochhammer factors is one value for the whole sum: advancing a count by one
multiplies it by a single binomial (1 - c*q^d) in place or divides it by
one in place, both O(window), and each term adds the product times its
monomials into the total.  The product and the total are dense lists of
coefficients (int, Rat or CycRat) on one grid, stepped by the list kernels
of ``kernels``.  Summation stops at the first n whose least monomial
exponent reaches the window.  That is sound when the least exponent does
not decrease in n and every Pochhammer x has exponent >= 0: the product
then has valuation >= 0, so no term from n on reaches below the window.
A term that breaks either rule raises ValueError.  The accumulator sum in
the tests (``oracles.eulerian_sum_oracle``) is the engine's oracle.
"""

from __future__ import annotations

from itertools import count, repeat
from math import gcd, lcm
from operator import add, mul, sub

from .cyclotomic import cinv, rat
from .errors import GenericityError
from .kernels import over_one_minus, times_one_minus
from .series import QMonomial, QSeries, _int, common_scale


def eulerian_sum(order, monos_fn, num=(), den=(), const=None, start=0):
    """Sum ``term(n)`` for ``n >= start`` below q^order (order in q-units,
    on the grid of its denominator), stopping at the first n whose least
    exponent of ``monos_fn(n)`` reaches the order.

    ``monos_fn(n)`` returns the monomial part(s) of the n-th term, and
    ``num``/``den`` are Pochhammer specs ``(x, base, count_fn)`` multiplied
    into / divided out of the term; ``const`` is added once.  Term
    exponents must be quadratic in n and never below the first term's
    least, and every x must have exponent >= 0; ValueError otherwise.
    Dividing by a constant binomial 1 - 1 raises GenericityError.

    The running product (below the window) and the total (from the first
    term's least exponent, or 0, to the window) are dense lists with one
    slot per multiple of g, the gcd of the specs' exponents and those of the
    first three terms (for exponents quadratic in n, the gcd of them all),
    on the grid of the order, the specs and those terms.  The result is on
    the grid the sum reaches: that of the order, the binomials applied and
    the monomials added.  Integral coefficients are ints, as in any series.
    """
    order = rat(order)
    const = None if const is None else QMonomial(const)
    expos = [m.expo for x, b, _ in (*num, *den) for m in (x, b)]
    firsts = [m.expo for n in range(start, start + 3) for m in monos_fn(n)]
    scale = common_scale(order, *expos, *firsts)
    g = gcd(*(int(e * scale) for e in (*expos, *firsts))) or 1
    W, used = int(order * scale), order.denominator
    lo = int(min(m.expo for m in monos_fn(start)) * scale)
    base = min(0, lo) if lo < W else 0
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
                if e < 0:
                    raise ValueError(f"eulerian_sum: binomial 1 - ({c})q^({rat(e, scale)}) "
                                     "has a negative exponent; every x needs exponent >= 0")
                used, d = lcm(used, scale // gcd(e, scale)), e // g
                if d == 0:  # a constant binomial: times 1 - c, or 1/(1 - c)
                    if over and c == 1:
                        raise GenericityError("pole: 1/(1 - 1)")
                    f = _int(cinv(1 - c) if over else 1 - c)
                    prod = list(map(mul, prod, repeat(f)))
                elif over:
                    over_one_minus(prod, c, d)
                else:
                    times_one_minus(prod, c, d)
                k, e, c = k + 1, e + be, c * bc
            step[2:5] = k, e, c
        for mono in monos:
            q, c = mono.expo.denominator, _int(mono.coeff)
            e = mono.expo.numerator * (scale // q)
            if scale % q or e % g:
                raise ValueError(f"eulerian_sum: term {n} has exponent {mono.expo}, off the "
                                 "lattice of the first three terms; exponents must be "
                                 "quadratic in n")
            if e < lo:
                raise ValueError(f"eulerian_sum: term {n} has exponent {mono.expo}, below the "
                                 "first term's; the least exponent must not decrease in n")
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
