"""Hecke-type double sums and the structured theta corrections appearing in
their Appell-Lerch expansions.

The central object is the indefinite double sum

    f_{a,b,c}(x, y, q) = sum_{sg(r)=sg(s)} sg(r) (-1)^{r+s} x^r y^s
                             q^{a*binom(r,2) + b*r*s + c*binom(s,2)},

where sg(r) = 1 for r >= 0 and -1 for r < 0.  Everything else in this module
is a finite combination of theta functions and Appell-Lerch sums ``m`` that
such double sums are equal to: the two-sum expression ``g_{a,b,c}``, its
divisible-``b`` variant ``h_{a,b,c}``, the p x p correction ``theta_np``, the
triple-sum correction ``theta_abc``, and the closed-form corrections
``big_theta`` used when both z-parameters of ``g`` are set to x^n/y^n and its
inverse.  String functions and one classical product identity round out the
module as verification targets.
"""

from math import gcd

from .appell import m_eval
from .cyclotomic import cpow
from .series import (MONO_ONE, QMonomial, QSeries, _Acc, _walk2, common_scale, operand_orders,
                     qnum)
from .theta import _check_base, binom2, jtheta, jtheta_val, quotient, theta_quotient

__all__ = [
    "f_eval",
    "g_abc_eval",
    "h_abc_eval",
    "theta_np_eval",
    "theta_abc_eval",
    "big_theta_eval",
    "string_function",
]


def f_eval(a: int, b: int, c: int, x: QMonomial, y: QMonomial, base: QMonomial, order) -> QSeries:
    """The double sum f_{a,b,c}(x, y, base), truncated below ``order``.

    Each quadrant is one run of the series module's double walker
    ``_walk2`` over i, j >= 0, with r = rho + sigma*i and s = rho + sigma*j
    (sigma = 1, rho = 0 for r, s >= 0 and sigma = -1, rho = -1 for r, s < 0).
    The exponent is quadratic in (i, j), so a step in i or j multiplies the
    term by a monomial, and a step in i multiplies the monomial of a step
    in j by base^b.
    """
    if min(a, b, c) < 1:
        raise ValueError("a, b, c must be positive integers")
    _check_base(base)
    T = qnum(order)
    scale = common_scale(T, base.expo, x.expo, y.expo)
    acc = _Acc(scale, int(T * scale))
    E, ex, ey = (int(m.expo * scale) for m in (base, x, y))
    xc, yc, bc = x.coeff, y.coeff, base.coeff
    # (sigma, q-exponent at i = j = 0, its first step in i, in j): r, s >= 0
    # give a*binom(i,2) + b*i*j + c*binom(j,2); r, s < 0 give
    # a*binom(i+2,2) + b*(i+1)*(j+1) + c*binom(j+2,2) and the sign sg(r) = -1.
    for sigma, q0, dq_i, dq_j in ((1, 0, 0, 0), (-1, a + b + c, 2 * a + b, b + 2 * c)):
        rho = (sigma - 1) // 2
        _walk2(acc, q0 * E + rho * (ex + ey),
               sigma * cpow(xc, rho) * cpow(yc, rho) * cpow(bc, q0),  # sg(r)
               (dq_i * E + sigma * ex, a * E, -cpow(xc, sigma) * cpow(bc, dq_i), cpow(bc, a)),
               (dq_j * E + sigma * ey, c * E, -cpow(yc, sigma) * cpow(bc, dq_j), cpow(bc, c)),
               (b * E, cpow(bc, b)))
    return acc.freeze()


def _add_jm(acc, pre, jx, jbase, mx, mbase, z, order) -> None:
    """Add the summand pre * j(jx; jbase) * m(mx, mbase, z) below q^order.
    The product window (``series.operand_orders``) is solved in order for
    the target T = order - expo(pre): m is built first, below T - v with v
    j's exact valuation, and then j below T - val(m), with val(m) read from
    m's terms.  An m with no term below its window leaves nothing to add
    below T.  A vanishing j makes the summand zero; m is still evaluated,
    so that a pole of m raises GenericityError."""
    v = jtheta_val(jx, jbase)
    T = order - pre.expo
    m = m_eval(mx, mbase, z, qnum(T - (v or 0)))
    if v is not None and m.terms:
        tj = operand_orders(T, v, qnum(min(m.terms), m.scale))[0]
        acc.add_series(pre, jtheta(jx, jbase, tj) * m)


def g_abc_eval(a, b, c, x, y, base, z1, z0, order) -> QSeries:
    """The two-sum Appell-Lerch expression g_{a,b,c}(x, y, base, z1, z0)."""
    D = b * b - a * c
    if D <= 0:
        raise ValueError("requires b^2 > ac")
    acc = _Acc.below(order)
    # the two sums are mirror images under (a, x, z0) <-> (c, y, z1)
    for a_, c_, x_, y_, z in ((a, c, x, y, z0), (c, a, y, x, z1)):
        for t in range(a_):
            pre = ((-y_) ** t) * base ** (c_ * binom2(t))
            mx = -(
                base ** (a_ * binom2(b + 1) - c_ * binom2(a_ + 1) - t * D)
                * ((-y_) ** a_)
                * ((-x_) ** (-b))
            )
            _add_jm(acc, pre, base ** (b * t) * x_, base**a_, mx, base ** (a_ * D), z, order)
    return acc.freeze()


def h_abc_eval(a, b, c, x, y, base, z1, z0, order) -> QSeries:
    """The two-term Appell-Lerch expression h_{a,b,c}(x, y, base, z1, z0),
    defined when a and c divide b and ac < b^2."""
    if b % a or b % c:
        raise ValueError("requires a | b and c | b")
    if a * c >= b * b:
        raise ValueError("requires ac < b^2")
    acc = _Acc.below(order)
    for a_, c_, x_, y_, z in ((a, c, x, y, z1), (c, a, y, x, z0)):
        mx = -(base ** (a_ * binom2(b // a_ + 1) - c_) * (-y_) * ((-x_) ** (-(b // a_))))
        _add_jm(acc, MONO_ONE, x_, base**a_, mx, base ** (b * b // a_ - c_), z, order)
    return acc.freeze()


def theta_np_eval(n, p, x, y, base, order) -> QSeries:
    """The p x p theta correction paired with g_{n,n+p,n}(..., -1, -1): a
    sum of p^2 theta quotients.

    Indices carry the fractional shift {(n-1)/2}, so individual index values
    are half-integers for even n; all assembled exponents are integral in the
    working variables.
    """
    if gcd(n, p) != 1:
        raise ValueError("requires gcd(n, p) = 1")
    half = 1 if n % 2 == 0 else 0  # twice the fractional shift {(n-1)/2}
    bigM = base ** (p * p * (2 * n + p))
    jm = (bigM, bigM**3)  # j(base^M; base^3M) = (base^M; base^M)_inf
    eshift = qnum(p * (n + p), 2)
    acc = _Acc()
    for rstar in range(p):
        for sstar in range(p):
            # r - (n-1)/2 and s + (n+1)/2 are integers for either parity.
            ri = rstar + (half + 1 - n) // 2
            si = sstar + (half + n + 1) // 2
            qexp = n * binom2(ri) + (n + p) * ri * si + n * binom2(si)
            pre = ((-x) ** ri) * ((-y) ** si) * base**qexp
            num = (
                jm, jm, jm,
                (-(base ** (n * p * (sstar - rstar)) * (x**n) * (y ** (-n))),
                 base ** (n * p * p)),
                (base ** (p * (2 * n + p) * (rstar + sstar + half) + p * (n + p))
                 * (x**p) * (y**p), bigM),
            )
            d1 = base ** (p * (2 * n + p) * (rstar + qnum(half, 2)) + eshift) * (
                (-y) ** (n + p)
            ) * ((-x) ** (-n))
            d2 = base ** (p * (2 * n + p) * (sstar + qnum(half, 2)) + eshift) * (
                (-x) ** (n + p)
            ) * ((-y) ** (-n))
            acc.add_series(MONO_ONE, theta_quotient(pre, num, ((d1, bigM), (d2, bigM)), order))
    return acc.freeze()


def theta_abc_eval(a, b, c, x, y, base, order) -> QSeries:
    """The triple-sum theta correction paired with h_{a,b,c}(..., -1, -1): a
    sum of theta quotients."""
    if b % a or b % c:
        raise ValueError("requires a | b and c | b")
    ba, bc = b // a, b // c
    D1 = b * b // a - c
    D2 = b * b // c - a
    big = b * (ba * bc - 1)
    big2 = (b * b // a) * (ba * bc - 1)
    bigb = base**big
    jm = (bigb, bigb**3)  # j(bigb; bigb^3) = (bigb; bigb)_inf
    acc = _Acc()
    for d in range(bc):
        for e in range(ba):
            for f in range(ba):
                qexp = D1 * binom2(d + 1) + D2 * binom2(e + f + 1) + a * binom2(f)
                pre = ((-x) ** f) * base**qexp
                e2 = big * (e + f + 1) - D1 * (d + 1) + qnum(b**3 * (b - a), 2 * a * a * c)
                e3 = D2 * (e + 1) + D1 * (d + 1) - c * binom2(bc) - a * binom2(ba)
                num = (
                    (base ** (D1 * (d + 1) + b * f) * y, base ** (b * b // a)),
                    (base**e2 * ((-x) ** ba) * (y ** (-1)), base**big2),
                    jm, jm, jm,
                    (base**e3 * ((-x) ** (1 - ba)) * ((-y) ** (1 - bc)), bigb),
                )
                d1 = base ** (D2 * (e + 1) - c * binom2(bc)) * (-x) * ((-y) ** (-bc))
                d2 = base ** (D1 * (d + 1) - a * binom2(ba)) * ((-x) ** (-ba)) * (-y)
                acc.add_series(MONO_ONE, theta_quotient(pre, num, ((d1, bigb), (d2, bigb)), order))
    return acc.freeze()


def big_theta_eval(n, p, x, y, base, order) -> QSeries:
    """Closed-form corrections Theta_{n,p} for p in {1,2,3,4}, paired with
    g_{n,n+p,n}(x, y, base, y^n/x^n, x^n/y^n).  Theta_{n,1} is zero."""
    if p == 1:
        w = qnum(order)
        scale = w.denominator
        return QSeries(scale, int(w * scale), {})
    if p == 2:
        return _big_theta_2(n, x, y, base, order)
    if p == 3:
        return _big_theta_3(n, x, y, base, order)
    if p == 4:
        return _big_theta_4(n, x, y, base, order)
    raise ValueError("p must be in {1, 2, 3, 4}")


def _big_theta_2(n, x, y, base, order) -> QSeries:
    if n % 2 == 0:
        raise ValueError("requires odd n")
    pre = y ** ((n + 1) // 2) * base ** (-qnum(n * n - 3, 2)) * x ** (-((n - 3) // 2))
    B4, B8 = base ** (4 * (n + 1)), base ** (8 * (n + 1))
    num = (
        (base ** (2 * n), base ** (4 * n)),
        (B4, B8),
        (y / x, B4),
        (base ** (n + 2) * x * y, B4),
        (base ** (2 * n) / (x * x * y * y), B8),
    )
    den = (
        (y**n / x**n, base ** (4 * n * (n + 1))),
        (-(base ** (n + 2) * x * x), B4),
        (-(base ** (n + 2) * y * y), B4),
    )
    return theta_quotient(pre, num, den, order)


def _big_theta_3(n, x, y, base, order) -> QSeries:
    if n % 3 == 0:
        raise ValueError("requires gcd(n, 3) = 1")
    P = 2 * n + 3
    pre = base ** (n * binom2(n + 1)) * (-x) * ((-y) ** n)
    B3, B9 = base ** (3 * P), base ** (9 * P)
    # J_k = (base^k; base^k)_inf enters as J_{k,3k} = j(base^k; base^3k)
    num = (
        (base ** (3 * n), base ** (9 * n)),
        (B3, B9),
        (y / x, B3),
        (base ** (n * n + n) * x, base**P),
        (base ** (n * n + n) * y, base**P),
    )
    den = (
        (base**P, B3),
        (base**P, B3),
        (y**n / x**n, base ** (3 * n * P)),
        (base ** (3 * n * n + 3 * n) * (x**3), B3),
        (base ** (3 * n * n + 3 * n) * (y**3), B3),
    )
    # the brace j(base^e1 x^2 y; B) j(base^e1 x y^2; B)
    #   - base^(2n^2+2n) x y j(base^e2 x^2 y; B) j(base^e2 x y^2; B)
    # puts two more factors on the numerator of each of two quotients
    B = base ** (3 * P)
    acc = _Acc()
    for c, e in ((MONO_ONE, 3 * n * n + 5 * n + 3),
                 (-(base ** (2 * n * n + 2 * n) * x * y), 3 * n * n + 7 * n + 6)):
        brace = ((base**e * x * x * y, B), (base**e * x * y * y, B))
        acc.add_series(MONO_ONE, theta_quotient(pre * c, num + brace, den, order))
    return acc.freeze()


def _big_theta_4(n, x, y, base, order) -> QSeries:
    if n % 2 == 0:
        raise ValueError("requires odd n")
    P = 2 * n + 4
    pre = base ** (-(n * n + n - 3)) * x ** (-((n - 3) // 2)) * y ** ((n + 1) // 2)
    B4 = base ** (4 * P)
    num = ((y / x, B4),)
    den = (
        (y**n / x**n, base ** (4 * n * P)),
        (-(base ** (2 * n + 8) * (x**4)), B4),
        (-(base ** (2 * n + 8) * (y**4)), B4),
    )
    # combo = s1 * j(base^4n; base^16n) - base * s2 * j(base^8n; base^16n),
    # each s_i a theta quotient times a brace of two theta quotients: four
    # theta quotients in all.  J_k = (base^k; base^k)_inf enters as
    # J_{k,3k} = j(base^k; base^3k).
    x2y2, y2x2 = x * x * y * y, y * y / (x * x)
    B2, B8 = base ** (2 * P), base ** (8 * P)
    J2, J4, J8 = (B2, B2**3), (B4, B4**3), (B8, B8**3)
    s1 = (((base ** (6 * n + 16) * x2y2, B4), (-(B2 * y / x), B4),
           (base ** (n + 4) * x * y, B2), (base ** (4 * n), base ** (16 * n))),
          (J2, J2, J2, J8))
    s1_brace = (
        (MONO_ONE, ((-(base ** (2 * n + 8) * x2y2), B4), (B2 * y2x2, B4), J4, J4), ()),
        (base ** (n + 4) * x * x,
         ((-(base ** (6 * n + 16) * x2y2), B4), (B2 * y / x, B4), (B2 * y / x, B4),
          (-(y / x), B4), (-(y / x), B4)), (J4,)),
    )
    s2 = (((base ** (2 * n + 8) * x2y2, B4), (-(y / x), B4),
           (base ** (3 * n + 8) * x * y, B2), (base ** (8 * n), base ** (16 * n))),
          (J2, J2))
    s2_brace = (
        (base ** (n + 1) / y, ((-(base ** (2 * n + 8) * x2y2), B4), (B2 * y2x2, B4), J8), (J4,)),
        (base * x, ((-(base ** (6 * n + 16) * x2y2), B4), (B4 * y2x2, B8), (B4 * y2x2, B8)),
         (J8,)),
    )
    acc = _Acc()
    for c, (sn, sd), brace in ((MONO_ONE, s1, s1_brace), (-base, s2, s2_brace)):
        for cb, bn, bd in brace:
            acc.add_series(MONO_ONE, theta_quotient(pre * c * cb, num + sn + bn,
                                                    den + sd + bd, order))
    return acc.freeze()


def string_function(N, m, l, base, order) -> QSeries:
    """Integral-level string function: f_{1,1+N,1} at shifted powers of the
    base, divided by the cube of the Euler product."""
    if not (0 <= l <= N):
        raise ValueError("l must lie in 0..N")
    if (m - l) % 2:
        raise ValueError("m and l must have equal parity")
    x = base ** ((2 + m + l) // 2)
    y = base ** ((2 - m + l) // 2)
    J1 = (base, base**3)  # J_1 = (base; base)_inf = j(base; base^3)
    return quotient(MONO_ONE, lambda K: f_eval(1, 1 + N, 1, x, y, base, K),
                    (J1, J1, J1), order)
