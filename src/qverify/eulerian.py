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
monomials into the total.  The product and the total are dense lists on
one grid, held by ``kernels.RowSum`` as rows of integer coordinates over
Q(zeta_M), each over its own denominator (M = 1 for a rational sum; M
widens when a coefficient needs it), each output coefficient made once,
an int when it is integral.  Summation stops at the
first n whose least monomial exponent reaches the window.  That is sound
when no monomial's exponent decreases in n and every Pochhammer x has
exponent >= 0: the product then has valuation >= 0, so no term from n on
reaches below the window.  For exponents quadratic in n the first rule
holds when it holds on the first three terms, which are checked before
anything is summed; a term that breaks either rule raises ValueError.
The accumulator sum in the tests (``oracles.eulerian_sum_oracle``) is the
engine's oracle.
"""

from __future__ import annotations

from itertools import count
from math import gcd, lcm

from .cyclotomic import cinv
from .errors import GenericityError
from .kernels import RowSum
from .series import QMonomial, QSeries, common_scale, qnum


def eulerian_sum(order, monos_fn, num=(), den=(), const=None, start=0):
    """Sum ``term(n)`` for ``n >= start`` below q^order (order in q-units,
    on the grid of its denominator), stopping at the first n whose least
    exponent of ``monos_fn(n)`` reaches the order.

    ``monos_fn(n)`` returns the monomial part(s) of the n-th term, and
    ``num``/``den`` are Pochhammer specs ``(x, base, count_fn)`` multiplied
    into / divided out of the term; ``const`` is added once.  Every term
    has as many monomials, the exponent of each is quadratic in n and does
    not decrease (it rises from term start to start + 1 and its second
    difference over those and start + 2 is >= 0), and every x has
    exponent >= 0; ValueError otherwise.
    Dividing by a constant binomial 1 - 1 raises GenericityError.

    The running product (below the window) and the total (from the first
    term's least exponent, or 0, to the window) are dense lists with one
    slot per multiple of g, the gcd of the specs' exponents and those of the
    first three terms (for exponents quadratic in n, the gcd of them all),
    on the grid of the order, the specs and those terms.  The result is on
    the grid the sum reaches: that of the order, the binomials applied and
    the monomials added.  Integral coefficients are ints, as in any series.
    """
    order = qnum(order)
    const = None if const is None else QMonomial(const)
    first, second, third = monos_fn(start), monos_fn(start + 1), monos_fn(start + 2)
    if not len(first) == len(second) == len(third):
        raise ValueError(f"eulerian_sum: terms {start} to {start + 2} have {len(first)}, "
                         f"{len(second)} and {len(third)} monomials; every term needs as many")
    for i, (m0, m1, m2) in enumerate(zip(first, second, third)):
        e0, e1, e2 = m0.expo, m1.expo, m2.expo
        if e1 < e0 or e2 - 2 * e1 + e0 < 0:
            raise ValueError(f"eulerian_sum: monomial {i} has exponents {e0}, {e1}, {e2} in "
                             f"terms {start} to {start + 2}, so it falls below the first "
                             "term's; each monomial's exponent must not decrease in n")
    lattice = [m for x, b, _ in (*num, *den) for m in (x, b)]
    lattice += [*first, *second, *third]
    expos = [m.expo for m in lattice]
    scale = common_scale(order, *expos)
    g = gcd(*(int(e * scale) for e in expos)) or 1
    W, used = int(order * scale), order.denominator
    lo = int(min(m.expo for m in first) * scale)
    base = min(0, lo) if lo < W else 0
    size, top = -(-W // g), W + base
    acc = RowSum(size)
    add_term = acc.add
    # per spec: [over, count_fn, count k, scaled exponent and coefficient
    # of its next binomial x*b^k, and those of b]
    steps = [[over, cf, 0, int(x.expo * scale), x.coeff, int(b.expo * scale), b.coeff]
             for over, specs in ((False, num), (True, den)) for x, b, cf in specs]
    for n in count(start):
        monos = monos_fn(n)
        if len(monos) != len(first):
            raise ValueError(f"eulerian_sum: term {n} has {len(monos)} monomials and term "
                             f"{start} {len(first)}; every term needs as many")
        # on ints: W is integral, so floor(e * scale) >= W exactly when e >= order
        if min(m.expo.numerator * scale // m.expo.denominator for m in monos) >= W:
            break
        for step in steps:
            over, cf, k, e, c, be, bc = step
            target = cf(n)
            while k < target:
                if e < 0:
                    raise ValueError(f"eulerian_sum: binomial 1 - ({c})q^({qnum(e, scale)}) "
                                     "has a negative exponent; every x needs exponent >= 0")
                if used < scale:  # used divides scale: at scale, no lcm moves it
                    used = lcm(used, scale // gcd(e, scale))
                d = e // g
                if d == 0:  # a constant binomial: times 1 - c, or 1/(1 - c)
                    if over and c == 1:
                        raise GenericityError("pole: 1/(1 - 1)")
                    acc.scale(cinv(1 - c) if over else 1 - c)
                elif over:
                    acc.over(c, d)
                else:
                    acc.times(c, d)
                k, e, c = k + 1, e + be, c * bc
            step[2:5] = k, e, c
        for mono in monos:
            q, c = mono.expo.denominator, mono.coeff
            e = mono.expo.numerator * (scale // q)
            if scale % q or e % g:
                raise ValueError(f"eulerian_sum: term {n} has exponent {mono.expo}, off the "
                                 "lattice of the first three terms; exponents must be "
                                 "quadratic in n")
            if e < lo:
                raise ValueError(f"eulerian_sum: term {n} has exponent {mono.expo}, below the "
                                 "first term's; the least exponent must not decrease in n")
            if used < scale:
                used = lcm(used, q)
            add_term((e - base) // g, c)
    if const is not None and top > 0:
        acc.add_const(-base // g, const.coeff)
    f = scale // used
    terms = {(base + g * i) // f: c for i, c in acc.items()}
    return QSeries(used, top // f, terms)
