"""Theta-function kernel: q-Pochhammer products and the theta function
j(x; q) = sum_n (-1)^n q^binom(n,2) x^n, evaluated as this bilateral sum.
By the Jacobi triple product it equals (x)_inf (q/x)_inf (q)_inf; the
product form is the independent oracle in the tests, and the sum has only
O(sqrt(window)) nonzero terms where the product costs O(window^2).

Arguments are monomials (possibly with root-of-unity coefficients and
fractional exponents) and a base monomial with positive exponent; results are
QSeries known strictly below the requested order (given in plain q-units).

General x is first normalized with the index shift
    j(B^n * x'; B) = (-1)^n B^(-binom(n,2)) x'^(-n) j(x'; B),  0 < expo(x') <= expo(B),
so the exponents of the sum for j(x'; B) grow monotonically away from n = 0.
Each direction of n is one run of the series module's term walker, which
f_{a,b,c} and the Appell-Lerch sums share; the Pochhammer products apply
each factor (1 - x*base^i) in place to one accumulator.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import cinv, rat
from .errors import UnsupportedArgument
from .series import QMonomial, QSeries, _Acc, _walk, ceil_rat, common_scale, qmono


def _check_base(base: QMonomial):
    if base.expo <= 0:
        raise UnsupportedArgument(f"base must have positive exponent, got {base!r}")


def binom2(n) -> int:
    """binom(n, 2) = n(n-1)/2 for any integer n (negative allowed)."""
    return (n * (n - 1)) // 2


@lru_cache(maxsize=None)
def poch_inf(x: QMonomial, base: QMonomial, order) -> QSeries:
    """(x; base)_inf = prod_{i>=0} (1 - x*base^i), known below q^order.

    x must have nonnegative exponent; (1; base)_inf is the exact zero series.
    """
    _check_base(base)
    order = rat(order)
    e = x.expo
    if e < 0:
        raise UnsupportedArgument(f"(x; base)_inf needs expo(x) >= 0, got {x!r}")
    if e == 0 and x.coeff == 1:
        return QSeries(1, None, {})
    scale = common_scale(e, base.expo)
    acc = _Acc(scale, ceil_rat(order * scale), {0: rat(1)})
    while x.expo < order:
        acc.times_one_minus(x)
        x = x * base
    return acc.freeze()


def poch_fin(x: QMonomial, base: QMonomial, n: int) -> QSeries:
    """(x; base)_n = prod_{i=0..n-1} (1 - x*base^i), an exact polynomial."""
    _check_base(base)
    if n < 0:
        raise UnsupportedArgument("finite Pochhammer needs n >= 0")
    acc = _Acc(common_scale(x.expo, base.expo), None, {0: rat(1)})
    for _ in range(n):
        acc.times_one_minus(x)
        x = x * base
    return acc.freeze()


def jtheta_shift(x: QMonomial, base: QMonomial):
    """Normalization (n, x', prefactor) with j(x;B) = prefactor * j(x';B),
    0 < expo(x') <= expo(B).  prefactor is a QMonomial."""
    _check_base(base)
    E = base.expo
    n = ceil_rat(x.expo / E) - 1
    xp = x * (base ** (-n))
    pref = QMonomial(-1 if n % 2 else 1, 0) * (base ** (-binom2(n))) * (xp ** (-n))
    return n, xp, pref


def jtheta_val(x: QMonomial, base: QMonomial):
    """Exact valuation (smallest exponent, in q-units) of j(x; base); None if
    j(x; base) is identically zero (x an integral power of the base)."""
    _, xp, pref = jtheta_shift(x, base)
    if xp == base:
        return None
    return pref.expo


@lru_cache(maxsize=None)
def jtheta(x: QMonomial, base: QMonomial, order) -> QSeries:
    """j(x; base) = sum_n (-1)^n base^binom(n,2) x^n, known below q^order.

    Evaluated as pref * j(x'; base) after :func:`jtheta_shift`.  With
    e = expo(x') and E = expo(base) on a common grid, the n-th term has
    exponent binom(n,2)*E + n*e, which grows as n runs up from 0 and as n
    runs down from -1 (0 < e <= E), so each direction stops at its first
    term past the window: only the O(sqrt(window)) live terms are visited.
    Each coefficient is its neighbour's times a step factor,
        c(n+1) = c(n) * (-x'.coeff * bc^n),  c(n-1) = c(n) * (-bc^(1-n) / x'.coeff),
    with bc = base.coeff, and each step factor is the previous one times bc.
    """
    order = rat(order)
    _, xp, pref = jtheta_shift(x, base)
    if xp == base:
        return QSeries(1, None, {})
    scale = common_scale(xp.expo, base.expo)
    W = ceil_rat(order * scale)
    E = int(base.expo * scale)
    e = int(xp.expo * scale)
    bc = base.coeff
    acc = _Acc(scale, W)
    off = int(pref.expo * scale)
    c0 = pref.coeff
    _walk(acc, off, e, E, c0, -xp.coeff, bc)  # n = 0, 1, 2, ...
    down = -bc * cinv(xp.coeff)
    _walk(acc, off + E - e, 2 * E - e, E, c0 * down, down * bc, bc)  # n = -1, -2, ...
    return acc.freeze()


def J(a, m, order) -> QSeries:
    """J_{a,m} = j(q^a; q^m)."""
    return jtheta(qmono(1, rat(a)), qmono(1, rat(m)), order)


def Jbar(a, m, order) -> QSeries:
    """Jbar_{a,m} = j(-q^a; q^m)."""
    return jtheta(qmono(-1, rat(a)), qmono(1, rat(m)), order)


def Jm(m, order) -> QSeries:
    """J_m = (q^m; q^m)_inf, evaluated as J_{m,3m} = j(q^m; q^(3m)): by the
    triple product (B; B)_inf = j(B; B^3), the pentagonal-number sum."""
    return jtheta(qmono(1, rat(m)), qmono(1, 3 * rat(m)), order)


def jprod(args, base: QMonomial, order) -> QSeries:
    """j(x1, x2, ..., xk; base) = prod of jtheta(xi; base).

    The working order is padded so the product window still reaches `order`
    even when individual factors have negative valuation.
    """
    order = rat(order)
    vals = []
    for x in args:
        v = jtheta_val(x, base)
        if v is None:
            return QSeries(1, None, {})
        vals.append(v)
    total = sum(vals)
    out = None
    for x, v in zip(args, vals):
        # factor must be known below order - (sum of the other valuations)
        s = jtheta(x, base, order - (total - v))
        out = s if out is None else out * s
    if out is None:
        out = QSeries(1, None, {0: rat(1)})
    return out
