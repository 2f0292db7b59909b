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
f_{a,b,c} and the Appell-Lerch sums share.  (x; base)_inf is Euler's sum,
one call of the Eulerian engine with O(sqrt(window)) terms (the product
is its test oracle); (x; base)_n is built factor by factor.

Every series over a theta product, pre * A / prod j(y; d), is evaluated by
one quotient evaluator, :func:`quotient`: the Appell-Lerch sums m, h, k and
g (A a bilateral or Eulerian sum), the string functions (A a double sum
f_{a,b,c}) and the theta quotients of :func:`theta_quotient` (A a theta
product), the theta corrections of the Hecke-type expansions among them.
Every denominator factor's valuation is known exactly before anything is
evaluated (:func:`jtheta_val`), and A's is read from its terms once it is
built, so A and each factor are evaluated once, at the orders the series
module's product and quotient windows need for the quotient to be known
below the requested order, with no second round.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from .cyclotomic import cinv, rat
from .errors import GenericityError, UnsupportedArgument
from .eulerian import eulerian_sum
from .series import (QMonomial, QSeries, _Acc, _walk, ceil_rat, common_scale,
                     memo, operand_orders, qmono)


def _check_base(base: QMonomial):
    if base.expo <= 0:
        raise UnsupportedArgument(f"base must have positive exponent, got {base!r}")


def binom2(n) -> int:
    """binom(n, 2) = n(n-1)/2 for any integer n (negative allowed)."""
    return (n * (n - 1)) // 2


@memo
def poch_inf(x: QMonomial, base: QMonomial, order) -> QSeries:
    """(x; base)_inf = prod_{i>=0} (1 - x*base^i), known below q^order, as
    Euler's sum over n of (-1)^n base^binom(n,2) x^n / (base; base)_n: one
    ``eulerian_sum`` on the grid of x and base, below ceil(order*scale).
    x must have nonnegative exponent (the engine's stop rule then holds);
    (1; base)_inf is the exact zero series.
    """
    _check_base(base)
    if x.expo < 0:
        raise UnsupportedArgument(f"(x; base)_inf needs expo(x) >= 0, got {x!r}")
    if x.is_one:
        return QSeries(1, None, {})
    scale = common_scale(x.expo, base.expo)
    return eulerian_sum(rat(ceil_rat(order * scale), scale),
                        lambda n: ((-x) ** n * base ** binom2(n),),
                        den=((base, base, lambda n: n),)).rescaled(scale)


def poch_fin(x: QMonomial, base: QMonomial, n: int) -> QSeries:
    """(x; base)_n = prod_{i=0..n-1} (1 - x*base^i), an exact polynomial."""
    _check_base(base)
    if n < 0:
        raise UnsupportedArgument("finite Pochhammer needs n >= 0")
    p = QSeries(common_scale(x.expo, base.expo), None, {0: 1})
    for _ in range(n):
        p = p - p.mul_monomial(x)
        x = x * base
    return p


@lru_cache(maxsize=1024)
def jtheta_shift(x: QMonomial, base: QMonomial):
    """Normalization (n, x', prefactor) with j(x;B) = prefactor * j(x';B),
    0 < expo(x') <= expo(B).  prefactor is a QMonomial.  Cached: both
    :func:`jtheta_val` and :func:`jtheta` normalise every theta factor."""
    _check_base(base)
    E = base.expo
    n = ceil_rat(rat(x.expo, E)) - 1  # two int exponents: no float
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


@memo
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
    return jtheta(qmono(1, a), qmono(1, m), order)


def Jbar(a, m, order) -> QSeries:
    """Jbar_{a,m} = j(-q^a; q^m)."""
    return jtheta(qmono(-1, a), qmono(1, m), order)


def Jm(m, order) -> QSeries:
    """J_m = (q^m; q^m)_inf, evaluated as J_{m,3m} = j(q^m; q^(3m)): by the
    triple product (B; B)_inf = j(B; B^3), the pentagonal-number sum."""
    return jtheta(qmono(1, m), qmono(1, 3 * m), order)


def _jproduct(pairs, vals, K) -> QSeries:
    """prod j(x; b) over the (x, b) pairs of valuations vals, known below K:
    each factor is evaluated below K less the other factors' valuations, and
    the factors are multiplied sparsest first, so that the running product
    stays short as long as it can.  A vanishing factor (valuation None)
    makes the product the exact zero."""
    if None in vals:
        return QSeries(1, None, {})
    total = sum(vals)
    factors = sorted((jtheta(x, b, operand_orders(K, v, total - v)[0])
                      for (x, b), v in zip(pairs, vals)), key=lambda f: len(f.terms))
    return reduce(mul, factors) if factors else QSeries.from_coeff(1)


def quotient(pre: QMonomial, num_at, den, order) -> QSeries:
    """pre * A / prod j(y; d) over the (y, d) pairs of den, known below
    exactly q^order, where ``num_at(K)`` returns the numerator A known below
    q^K.  A repeated factor, such as J_1^3 = j(q; q^3)^3, is a repeated
    entry.

    The windows are the series module's quotient windows solved for the
    operands' orders (``series.operand_orders``).  With T = order - expo(pre)
    and V_D the sum of the denominator's exact valuations (:func:`jtheta_val`),
    A is built once, below T + V_D, whatever its valuation.  val(A) is then
    read from A's terms, and A is divided once by the denominator's
    product, built as a numerator's is (:func:`_jproduct`) below
    T + 2*V_D - val(A), the order the quotient needs; an empty denominator
    divides nothing.  An A with no term below its window gives the zero
    series known below the order (the exact zero when A is exact), with no
    division.  With pre one and the quotient known below exactly the
    order, it is returned as it is.  A vanishing denominator factor raises
    GenericityError naming it, before A is built.
    """
    order = rat(order)
    vd = []
    for y, d in den:
        v = jtheta_val(y, d)
        if v is None:
            raise GenericityError(f"theta denominator vanishes: j({y!r}; {d!r})")
        vd.append(v)
    V, T = sum(vd), order - pre.expo
    A = num_at(T + V)
    acc = _Acc.below(order)
    if not A.terms:  # no term below T + V_D, so none below T in the quotient
        return A if A.order is None else acc.freeze()
    if den:
        A = A.divide(_jproduct(den, vd, operand_orders(T, rat(min(A.terms), A.scale), V, "/")[1]))
    if pre.is_one and A.window_q() == order:  # already on the order's grid
        return A
    acc.add_series(pre, A)
    return acc.freeze()


def theta_quotient(pre: QMonomial, num, den, order) -> QSeries:
    """pre * prod j(x; b) / prod j(y; d), over the (x, b) pairs of num and
    the (y, d) pairs of den, known below exactly q^order: :func:`quotient`
    with the numerator product as A.  Each numerator factor's valuation is
    exact too, so A is built once, each factor below T + V_D less the other
    numerator factors' valuations.  A vanishing denominator factor raises
    GenericityError naming it, even when a numerator factor vanishes too;
    otherwise a vanishing numerator factor gives the exact zero series.
    """
    vn = [jtheta_val(x, b) for x, b in num]
    return quotient(pre, lambda K: _jproduct(num, vn, K), den, order)
