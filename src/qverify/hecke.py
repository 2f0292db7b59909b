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

from .appell import eval_padded, m_eval
from .cyclotomic import rat
from .errors import GenericityError
from .series import QMonomial, QSeries, ceil_rat, qmono
from .theta import _check_base, binom2, jtheta, jtheta_val

__all__ = [
    "f_eval",
    "f_direct_oracle",
    "g_abc_eval",
    "h_abc_eval",
    "theta_np_eval",
    "theta_abc_eval",
    "big_theta_eval",
    "string_function",
    "string_function_oracle",
    "kp_lhs_oracle",
]


def _bpow(mono: QMonomial, e) -> QMonomial:
    """mono**e for an exact rational e, taking the integer fast path."""
    e = rat(e)
    if e.denominator == 1:
        return mono ** int(e)
    return mono**e


def _series_from_monomials(monos, window) -> QSeries:
    """Sum a finite list of monomials into a series known below ``window``."""
    window = rat(window)
    scale = int(window.denominator)
    for m in monos:
        d = int(rat(m.expo).denominator)
        scale = scale * d // gcd(scale, d)
    terms = {}
    for m in monos:
        k = int(m.expo * scale)
        cur = terms.get(k)
        cur = m.coeff if cur is None else cur + m.coeff
        if not cur:
            terms.pop(k, None)
        else:
            terms[k] = cur
    terms = {k: v for k, v in terms.items() if k < window * scale}
    return QSeries(scale, ceil_rat(window * scale), terms)


def f_eval(a: int, b: int, c: int, x: QMonomial, y: QMonomial, base: QMonomial, order) -> QSeries:
    """The double sum f_{a,b,c}(x, y, base), truncated below ``order``.

    Both index quadrants are enumerated with sound bounds: over each quadrant
    the q-exponent is bounded below by a sum of two one-variable convex
    quadratics, so each loop may stop as soon as its bound is past the window
    and non-decreasing.
    """
    if min(a, b, c) < 1:
        raise ValueError("a, b, c must be positive integers")
    _check_base(base)
    T = rat(order)
    E = base.expo
    ex, ey = x.expo, y.expo
    monos = []

    def scan_quadrant(A, C, cross, emit):
        # Collect all (i, j) with A(i) + cross(i,j) + C(j) < T, where A and C
        # are convex and cross >= 0.  minC bounds the inner contribution.
        minC, s0, prev = None, 0, None
        while True:
            v = C(s0)
            if minC is None or v < minC:
                minC = v
            if prev is not None and v >= prev:
                break
            prev, s0 = v, s0 + 1
        i, prevA = 0, None
        while True:
            Ai = A(i)
            if prevA is not None and Ai >= prevA and Ai + minC >= T:
                break
            j, prevH = 0, None
            while True:
                h = cross(i, j) + C(j)
                if Ai + h < T:
                    emit(i, j)
                elif prevH is not None and h >= prevH:
                    break
                prevH, j = h, j + 1
            prevA, i = Ai, i + 1

    # Quadrant r, s >= 0: every factor of the exponent is non-negative except
    # the monomial shifts, which sit inside A and C.
    def emit_pos(r, s):
        qexp = a * binom2(r) + b * r * s + c * binom2(s)
        mono = (x**r) * (y**s) * _bpow(base, qexp)
        monos.append(mono if (r + s) % 2 == 0 else -mono)

    scan_quadrant(
        lambda r: a * binom2(r) * E + r * ex,
        lambda s: c * binom2(s) * E + s * ey,
        lambda r, s: b * r * s * E,
        emit_pos,
    )

    # Quadrant r, s <= -1 via r = -1-u, s = -1-v with u, v >= 0:
    # binom(-1-u, 2) = binom(u+2, 2) and the cross term b(u+1)(v+1) > 0.
    def emit_neg(u, v):
        qexp = a * binom2(u + 2) + b * (u + 1) * (v + 1) + c * binom2(v + 2)
        mono = (x ** (-1 - u)) * (y ** (-1 - v)) * _bpow(base, qexp)
        monos.append(-mono if (u + v) % 2 == 0 else mono)

    scan_quadrant(
        lambda u: a * binom2(u + 2) * E - (1 + u) * ex,
        lambda v: c * binom2(v + 2) * E - (1 + v) * ey,
        lambda u, v: b * (u + 1) * (v + 1) * E,
        emit_neg,
    )

    return _series_from_monomials(monos, T)


def f_direct_oracle(a, b, c, x, y, base, order) -> QSeries:
    """Anti-diagonal enumeration of the same double sum, for cross-checks.

    Each quadrant is scanned by diagonals d = r+s; a closed-form convex lower
    bound on the exponent over the whole diagonal decides termination.
    """
    T = rat(order)
    E = base.expo
    ex, ey = x.expo, y.expo
    monos = []

    m0 = min(a, c)
    shift_pos = min(ex, ey, rat(0))

    def pos_bound(d):
        # binom(r,2)+binom(s,2) >= 2*binom(d/2,2) by convexity; b*r*s >= 0.
        h = rat(d, 2)
        return m0 * E * h * (h - 1) + d * shift_pos

    d = 0
    while True:
        lb = pos_bound(d)
        if lb >= T and pos_bound(d + 1) >= lb:
            break
        for r in range(d + 1):
            s = d - r
            qexp = a * binom2(r) + b * r * s + c * binom2(s)
            if qexp * E + r * ex + s * ey < T:
                mono = (x**r) * (y**s) * _bpow(base, qexp)
                monos.append(mono if d % 2 == 0 else -mono)
        d += 1

    shift_neg = min(-ex, -ey, rat(0))

    def neg_bound(d):
        h = rat(d, 2) + 2
        return m0 * E * h * (h - 1) + b * E + (d + 2) * shift_neg

    d = 0
    while True:
        lb = neg_bound(d)
        if lb >= T and neg_bound(d + 1) >= lb:
            break
        for u in range(d + 1):
            v = d - u
            qexp = a * binom2(u + 2) + b * (u + 1) * (v + 1) + c * binom2(v + 2)
            if qexp * E - (1 + u) * ex - (1 + v) * ey < T:
                mono = (x ** (-1 - u)) * (y ** (-1 - v)) * _bpow(base, qexp)
                monos.append(-mono if d % 2 == 0 else mono)
        d += 1

    return _series_from_monomials(monos, T)


def g_abc_eval(a, b, c, x, y, base, z1, z0, order) -> QSeries:
    """The two-sum Appell-Lerch expression g_{a,b,c}(x, y, base, z1, z0)."""
    D = b * b - a * c
    if D <= 0:
        raise ValueError("requires b^2 > ac")

    def build(T):
        acc = None
        for t in range(a):
            pre = ((-y) ** t) * _bpow(base, c * binom2(t))
            mx = -(
                _bpow(base, a * binom2(b + 1) - c * binom2(a + 1) - t * D)
                * ((-y) ** a)
                * ((-x) ** (-b))
            )
            term = jtheta(_bpow(base, b * t) * x, _bpow(base, a), T) * m_eval(
                mx, _bpow(base, a * D), z0, T
            )
            term = term.mul_monomial(pre)
            acc = term if acc is None else acc + term
        for t in range(c):
            pre = ((-x) ** t) * _bpow(base, a * binom2(t))
            mx = -(
                _bpow(base, c * binom2(b + 1) - a * binom2(c + 1) - t * D)
                * ((-x) ** c)
                * ((-y) ** (-b))
            )
            term = jtheta(_bpow(base, b * t) * y, _bpow(base, c), T) * m_eval(
                mx, _bpow(base, c * D), z1, T
            )
            acc = acc + term.mul_monomial(pre)
        return acc

    return eval_padded(build, order)


def h_abc_eval(a, b, c, x, y, base, z1, z0, order) -> QSeries:
    """The two-term Appell-Lerch expression h_{a,b,c}(x, y, base, z1, z0),
    defined when a and c divide b and ac < b^2."""
    if b % a or b % c:
        raise ValueError("requires a | b and c | b")
    if a * c >= b * b:
        raise ValueError("requires ac < b^2")

    def build(T):
        mx1 = -(_bpow(base, a * binom2(b // a + 1) - c) * (-y) * ((-x) ** (-(b // a))))
        t1 = jtheta(x, _bpow(base, a), T) * m_eval(
            mx1, _bpow(base, b * b // a - c), z1, T
        )
        mx2 = -(_bpow(base, c * binom2(b // c + 1) - a) * (-x) * ((-y) ** (-(b // c))))
        t2 = jtheta(y, _bpow(base, c), T) * m_eval(
            mx2, _bpow(base, b * b // c - a), z0, T
        )
        return t1 + t2

    return eval_padded(build, order)


def _require_nonzero(arg, tbase):
    if jtheta_val(arg, tbase) is None:
        raise GenericityError(f"theta denominator vanishes: j({arg!r}; {tbase!r})")


def theta_np_eval(n, p, x, y, base, order) -> QSeries:
    """The p x p theta correction paired with g_{n,n+p,n}(..., -1, -1).

    Indices carry the fractional shift {(n-1)/2}, so individual index values
    are half-integers for even n; all assembled exponents are integral in the
    working variables.
    """
    if gcd(n, p) != 1:
        raise ValueError("requires gcd(n, p) = 1")
    half = 1 if n % 2 == 0 else 0  # twice the fractional shift {(n-1)/2}
    M = p * p * (2 * n + p)

    def build(T):
        bigM = _bpow(base, M)
        jm = jtheta(bigM, bigM**3, T)  # J_M = (base^M; base^M)_inf
        acc = None
        for rstar in range(p):
            for sstar in range(p):
                # r - (n-1)/2 and s + (n+1)/2 are integers for either parity.
                ri = rstar + (half + 1 - n) // 2
                si = sstar + (half + n + 1) // 2
                qexp = n * binom2(ri) + (n + p) * ri * si + n * binom2(si)
                pre = ((-x) ** ri) * ((-y) ** si) * _bpow(base, qexp)
                num = (
                    (jm**3)
                    * jtheta(
                        -(_bpow(base, n * p * (sstar - rstar)) * (x**n) * (y ** (-n))),
                        _bpow(base, n * p * p),
                        T,
                    )
                    * jtheta(
                        _bpow(base, p * (2 * n + p) * (rstar + sstar + half) + p * (n + p))
                        * (x**p)
                        * (y**p),
                        bigM,
                        T,
                    )
                )
                eshift = rat(p * (n + p), 2)
                d1 = _bpow(base, p * (2 * n + p) * (rstar + rat(half, 2)) + eshift) * (
                    (-y) ** (n + p)
                ) * ((-x) ** (-n))
                d2 = _bpow(base, p * (2 * n + p) * (sstar + rat(half, 2)) + eshift) * (
                    (-x) ** (n + p)
                ) * ((-y) ** (-n))
                _require_nonzero(d1, bigM)
                _require_nonzero(d2, bigM)
                den = jtheta(d1, bigM, T) * jtheta(d2, bigM, T)
                term = num.divide(den).mul_monomial(pre)
                acc = term if acc is None else acc + term
        return acc

    return eval_padded(build, order)


def theta_abc_eval(a, b, c, x, y, base, order) -> QSeries:
    """The triple-sum theta correction paired with h_{a,b,c}(..., -1, -1)."""
    if b % a or b % c:
        raise ValueError("requires a | b and c | b")
    ba, bc = b // a, b // c
    D1 = b * b // a - c
    D2 = b * b // c - a
    big = b * (ba * bc - 1)
    big2 = (b * b // a) * (ba * bc - 1)

    def build(T):
        bigb = _bpow(base, big)
        jm3 = jtheta(bigb, bigb**3, T) ** 3  # (bigb; bigb)_inf^3
        acc = None
        for d in range(bc):
            for e in range(ba):
                for f in range(ba):
                    qexp = D1 * binom2(d + 1) + D2 * binom2(e + f + 1) + a * binom2(f)
                    pre = ((-x) ** f) * _bpow(base, qexp)
                    j1 = jtheta(
                        _bpow(base, D1 * (d + 1) + b * f) * y, _bpow(base, b * b // a), T
                    )
                    e2 = big * (e + f + 1) - D1 * (d + 1) + rat(b**3 * (b - a), 2 * a * a * c)
                    j2 = jtheta(
                        _bpow(base, e2) * ((-x) ** ba) * (y ** (-1)), _bpow(base, big2), T
                    )
                    e3 = (
                        D2 * (e + 1)
                        + D1 * (d + 1)
                        - c * binom2(bc)
                        - a * binom2(ba)
                    )
                    j3 = jtheta(
                        _bpow(base, e3) * ((-x) ** (1 - ba)) * ((-y) ** (1 - bc)),
                        bigb,
                        T,
                    )
                    d1 = _bpow(base, D2 * (e + 1) - c * binom2(bc)) * (-x) * ((-y) ** (-bc))
                    d2 = _bpow(base, D1 * (d + 1) - a * binom2(ba)) * ((-x) ** (-ba)) * (-y)
                    _require_nonzero(d1, bigb)
                    _require_nonzero(d2, bigb)
                    den = jtheta(d1, bigb, T) * jtheta(d2, bigb, T)
                    term = (j1 * j2 * jm3 * j3).divide(den).mul_monomial(pre)
                    acc = term if acc is None else acc + term
        return acc

    return eval_padded(build, order)


def big_theta_eval(n, p, x, y, base, order) -> QSeries:
    """Closed-form corrections Theta_{n,p} for p in {1,2,3,4}, paired with
    g_{n,n+p,n}(x, y, base, y^n/x^n, x^n/y^n).  Theta_{n,1} is zero."""
    if p == 1:
        w = rat(order)
        scale = int(w.denominator)
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

    def build(T):
        def jt(mono, k):
            return jtheta(mono, _bpow(base, k), T)

        pre = (
            _bpow(y, (n + 1) // 2)
            * _bpow(base, -rat(n * n - 3, 2))
            * _bpow(x, -((n - 3) // 2))
        )
        num = (
            jt(_bpow(base, 2 * n), 4 * n)
            * jt(_bpow(base, 4 * (n + 1)), 8 * (n + 1))
            * jt(y / x, 4 * (n + 1))
            * jt(_bpow(base, n + 2) * x * y, 4 * (n + 1))
            * jt(_bpow(base, 2 * n) / (x * x * y * y), 8 * (n + 1))
        )
        d1 = _bpow(y, n) / _bpow(x, n)
        d2 = -(_bpow(base, n + 2) * x * x)
        d3 = -(_bpow(base, n + 2) * y * y)
        for mono, k in ((d1, 4 * n * (n + 1)), (d2, 4 * (n + 1)), (d3, 4 * (n + 1))):
            _require_nonzero(mono, _bpow(base, k))
        den = jt(d1, 4 * n * (n + 1)) * jt(d2, 4 * (n + 1)) * jt(d3, 4 * (n + 1))
        return num.divide(den).mul_monomial(pre)

    return eval_padded(build, order)


def _big_theta_3(n, x, y, base, order) -> QSeries:
    if n % 3 == 0:
        raise ValueError("requires gcd(n, 3) = 1")
    P = 2 * n + 3

    def build(T):
        def jt(mono, k):
            return jtheta(mono, _bpow(base, k), T)

        # J_k = (base^k; base^k)_inf enters as J_{k,3k} = jt(base^k, 3k)
        pre = _bpow(base, n * binom2(n + 1)) * (-x) * ((-y) ** n)
        num = (
            jt(_bpow(base, 3 * n), 9 * n)
            * jt(_bpow(base, 3 * P), 9 * P)
            * jt(y / x, 3 * P)
            * jt(_bpow(base, n * n + n) * x, P)
            * jt(_bpow(base, n * n + n) * y, P)
        )
        d1 = _bpow(y, n) / _bpow(x, n)
        d2 = _bpow(base, 3 * n * n + 3 * n) * (x**3)
        d3 = _bpow(base, 3 * n * n + 3 * n) * (y**3)
        for mono, k in ((d1, 3 * n * P), (d2, 3 * P), (d3, 3 * P)):
            _require_nonzero(mono, _bpow(base, k))
        den = (jt(_bpow(base, P), 3 * P) ** 2) * jt(d1, 3 * n * P) * jt(d2, 3 * P) \
            * jt(d3, 3 * P)
        e1 = 3 * n * n + 5 * n + 3
        e2 = 3 * n * n + 7 * n + 6
        brace = jt(_bpow(base, e1) * x * x * y, 3 * P) * jt(
            _bpow(base, e1) * x * y * y, 3 * P
        ) - (
            jt(_bpow(base, e2) * x * x * y, 3 * P)
            * jt(_bpow(base, e2) * x * y * y, 3 * P)
        ).mul_monomial(_bpow(base, 2 * n * n + 2 * n) * x * y)
        return (num * brace).divide(den).mul_monomial(pre)

    return eval_padded(build, order)


def _big_theta_4(n, x, y, base, order) -> QSeries:
    if n % 2 == 0:
        raise ValueError("requires odd n")
    P = 2 * n + 4

    def build(T):
        def jt(mono, k):
            return jtheta(mono, _bpow(base, k), T)

        # J_k = (base^k; base^k)_inf enters as J_{k,3k} = jt(base^k, 3k)
        x2, y2 = x * x, y * y
        xy = x * y
        s1 = (
            jt(_bpow(base, 6 * n + 16) * x2 * y2, 4 * P)
            * jt(-(_bpow(base, 2 * P) * y / x), 4 * P)
            * jt(_bpow(base, n + 4) * xy, 2 * P)
        ).divide(jt(_bpow(base, 2 * P), 6 * P) ** 3 * jt(_bpow(base, 8 * P), 24 * P))
        s1_brace = jt(-(_bpow(base, 2 * n + 8) * x2 * y2), 4 * P) * jt(
            _bpow(base, 2 * P) * y2 / x2, 4 * P
        ) * (jt(_bpow(base, 4 * P), 12 * P) ** 2) + (
            jt(-(_bpow(base, 6 * n + 16) * x2 * y2), 4 * P)
            * (jt(_bpow(base, 2 * P) * y / x, 4 * P) ** 2)
            * (jt(-(y / x), 4 * P) ** 2)
        ).divide(jt(_bpow(base, 4 * P), 12 * P)).mul_monomial(_bpow(base, n + 4) * x2)
        s1 = s1 * s1_brace

        s2 = (
            jt(_bpow(base, 2 * n + 8) * x2 * y2, 4 * P)
            * jt(-(y / x), 4 * P)
            * jt(_bpow(base, 3 * n + 8) * xy, 2 * P)
        ).divide(jt(_bpow(base, 2 * P), 6 * P) ** 2)
        s2_brace = (
            jt(-(_bpow(base, 2 * n + 8) * x2 * y2), 4 * P)
            * jt(_bpow(base, 2 * P) * y2 / x2, 4 * P)
            * jt(_bpow(base, 8 * P), 24 * P)
        ).divide(jt(_bpow(base, 4 * P), 12 * P)).mul_monomial(_bpow(base, n + 1) / y) + (
            jt(-(_bpow(base, 6 * n + 16) * x2 * y2), 4 * P)
            * (jt(_bpow(base, 4 * P) * y2 / x2, 8 * P) ** 2)
        ).divide(jt(_bpow(base, 8 * P), 24 * P)).mul_monomial(base * x)
        s2 = s2 * s2_brace

        combo = (s1 * jt(_bpow(base, 4 * n), 16 * n)) - (
            s2 * jt(_bpow(base, 8 * n), 16 * n)
        ).mul_monomial(base)

        pre = (
            _bpow(base, -(n * n + n - 3))
            * _bpow(x, -((n - 3) // 2))
            * _bpow(y, (n + 1) // 2)
        )
        d1 = _bpow(y, n) / _bpow(x, n)
        d2 = -(_bpow(base, 2 * n + 8) * (x**4))
        d3 = -(_bpow(base, 2 * n + 8) * (y**4))
        for mono, k in ((d1, 4 * n * P), (d2, 4 * P), (d3, 4 * P)):
            _require_nonzero(mono, _bpow(base, k))
        den = jt(d1, 4 * n * P) * jt(d2, 4 * P) * jt(d3, 4 * P)
        num = jt(y / x, 4 * P) * combo
        return num.divide(den).mul_monomial(pre)

    return eval_padded(build, order)


def string_function(N, m, l, base, order) -> QSeries:
    """Integral-level string function: f_{1,1+N,1} at shifted powers of the
    base, divided by the cube of the Euler product."""
    if not (0 <= l <= N):
        raise ValueError("l must lie in 0..N")
    if (m - l) % 2:
        raise ValueError("m and l must have equal parity")
    x = _bpow(base, (2 + m + l) // 2)
    y = _bpow(base, (2 - m + l) // 2)

    def build(T):
        f = f_eval(1, 1 + N, 1, x, y, base, T)
        return f.divide(jtheta(base, base**3, T) ** 3)

    return eval_padded(build, order)


def string_function_oracle(N, m, l, base, order) -> QSeries:
    """Direct evaluation of the string function's defining double sum,

        (1/J_1^3) { sum_{j>=1, k<=0} - sum_{j<=0, k>=1} }
            (-1)^{k-j} q^{binom(k-j,2) - N*j*k + k(m-l)/2 + j(m+l)/2},

    enumerated by anti-diagonals with a convex lower bound for termination.
    """
    if (m - l) % 2:
        raise ValueError("m and l must have equal parity")
    E = base.expo
    cm = rat(m - l, 2)
    cp = rat(m + l, 2)

    def build(T):
        monos = []
        # quadrant j >= 1, k <= 0: j = 1 + u, k = -w
        lin_lo = min(cp, rat(0)) - max(cm, rat(0))

        def bound(dd):
            return E * (rat((dd + 1) * (dd + 2), 2) + lin_lo * (dd + 1))

        d = 0
        while True:
            lb = bound(d)
            if lb >= T and bound(d + 1) >= lb:
                break
            for u in range(d + 1):
                w = d - u
                j, k = 1 + u, -w
                qexp = binom2(k - j) - N * j * k + k * cm + j * cp
                if qexp * E < T:
                    mono = _bpow(base, qexp)
                    monos.append(mono if (k - j) % 2 == 0 else -mono)
            d += 1
        # quadrant j <= 0, k >= 1: j = -u, k = 1 + w, with an overall minus;
        # here k - j = d + 1, so the quadratic part is binom(d+1, 2).
        lin_lo2 = min(cm, rat(0)) - max(cp, rat(0))

        def bound2(dd):
            return E * (rat(dd * (dd + 1), 2) + lin_lo2 * (dd + 1))

        d = 0
        while True:
            lb = bound2(d)
            if lb >= T and bound2(d + 1) >= lb:
                break
            for u in range(d + 1):
                w = d - u
                j, k = -u, 1 + w
                qexp = binom2(k - j) - N * j * k + k * cm + j * cp
                if qexp * E < T:
                    mono = _bpow(base, qexp)
                    monos.append(-mono if (k - j) % 2 == 0 else mono)
            d += 1
        s = _series_from_monomials(monos, T)
        return s.divide(jtheta(base, base**3, T) ** 3)

    return eval_padded(build, order)


def kp_lhs_oracle(order) -> QSeries:
    """The classical indefinite sum over 2k >= l >= 0 of
    (-1)^k q^{[5(2k+1)^2 - (2l+1)^2]/4}, enumerated directly."""
    T = rat(order)
    q = qmono(1, 1)
    monos = []
    k = 0
    while k * k + 3 * k + 1 < T:  # minimum exponent on row k is at l = 2k
        for l in range(2 * k + 1):
            qexp = rat(5 * (2 * k + 1) ** 2 - (2 * l + 1) ** 2, 4)
            if qexp < T:
                mono = _bpow(q, qexp)
                monos.append(mono if k % 2 == 0 else -mono)
        k += 1
    return _series_from_monomials(monos, T)
