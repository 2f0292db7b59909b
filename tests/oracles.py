"""Independent evaluations that the tests check the engine against.

Each oracle enumerates its sum in its own way and adds its terms with the
helpers here: a dict sum, the coefficient loops ``add_oracle`` and
``mul_monomial_oracle``, and ``divide_one_minus``/``geom_inv`` (long division
by ``one_minus``).  None of them uses the engine's accumulator, its term
walker, or the ``QSeries`` sums and monomial products built on them.
``eulerian_sum_oracle`` sums an Eulerian series term by term on sparse
series, the way the engine did before its dense lists.
``has_coeff_types`` checks the coefficient layout of a series.
``tokenize_oracle`` is the DSL's per-character tokenizer, the reference for
``qverify.dsl.tokenize``, and ``parse_oracle`` its parser before the one-scan
front end, the reference for ``parse_expression`` and ``parse_identities``.

The ``cyc_*`` functions are a reference for ``qverify.cyclotomic``: an
element of Q(zeta_n) is a tuple of ``Fraction`` coordinates over the power
basis, multiplied by convolution and reduced mod Phi_n, carried to a larger
conductor by lifting each power of zeta, brought down to its minimal
conductor by Gaussian elimination over Q in every subfield, and inverted by
the extended Euclidean algorithm against Phi_n.
"""

import re
from fractions import Fraction
from itertools import count
from math import lcm
from typing import NamedTuple

from qverify.appell import eval_padded
from qverify.cyclotomic import CycRat, cinv, cpow, cyclotomic_coeffs, rat, rat_den
from qverify.dsl import (_HEADS, BinOp, Call, CatalogRef, IdentityRecord, Neg, Num,
                         PochInf, Pow, QPow, Zeta)
from qverify.errors import GenericityError, ParseError, UnsupportedArgument
from qverify.series import QMonomial, QSeries, ceil_rat, common_scale, qmono
from qverify.theta import _check_base, binom2, jtheta, jtheta_val


#: the types a series coefficient may have (an int when it is integral)
COEFF_TYPES = (int, Fraction, CycRat)


def has_coeff_types(s: QSeries) -> bool:
    """Every coefficient of s is an int, a Rat or a CycRat, never a float."""
    return all(type(c) in COEFF_TYPES for c in s.terms.values())


def add_term(terms: dict, k: int, c) -> None:
    """terms[k] += c, dropping a zero sum."""
    s = terms.get(k, 0) + c
    if s:
        terms[k] = s
    else:
        terms.pop(k, None)


def add_oracle(a: QSeries, b: QSeries) -> QSeries:
    """a + b, term by term on the common grid below the lower window."""
    a, b = QSeries.unify(a, b)
    order = min((o for o in (a.order, b.order) if o is not None), default=None)
    terms = dict(a.terms)
    for k, c in b.terms.items():
        cur = terms.get(k)
        if cur is None:
            terms[k] = c
        else:
            s = cur + c
            if not s:
                del terms[k]
            else:
                terms[k] = s
    return QSeries(a.scale, order, terms)


def mul_monomial_oracle(self: QSeries, m: QMonomial) -> QSeries:
    """m * self: each exponent and the window shift by expo(m)."""
    s = lcm(self.scale, common_scale(m.expo))
    a = self.rescaled(s)
    shift = int(m.expo * s)
    c0 = m.coeff
    order = None if a.order is None else a.order + shift
    if c0 == 1:
        terms = {k + shift: c for k, c in a.terms.items()}
    elif c0 == -1:
        terms = {k + shift: -c for k, c in a.terms.items()}
    else:
        terms = {k + shift: c * c0 for k, c in a.terms.items()}
    return QSeries(s, order, terms)


def one_minus(m: QMonomial) -> QSeries:
    """The exact binomial 1 - m, to divide by; m == 1 raises GenericityError
    (the genuine pole 1/(1 - 1))."""
    if m.is_one:
        raise GenericityError(f"pole: 1/(1 - {m!r})")
    return add_oracle(QSeries.from_coeff(1), QSeries.from_monomial(-m))


def divide_one_minus(s: QSeries, m: QMonomial, window_hint=None) -> QSeries:
    """s / (1 - m) by the long division of ``QSeries.divide``; a constant m
    scales s by 1/(1 - m) in ``mul_monomial_oracle`` (``divide`` takes an
    exact monomial divisor through the accumulator)."""
    d = one_minus(m)
    if m.expo == 0:
        return mul_monomial_oracle(s, qmono(cinv(d.terms[0])))
    return s.divide(d, window_hint)


def geom_inv(m: QMonomial, scale: int, window: int) -> QSeries:
    """1/(1 - m) as a series on the given grid, known below window (scaled).

    Exact when m is a constant; m == 1 raises GenericityError (a genuine
    pole).
    """
    s = lcm(scale, common_scale(m.expo))
    return divide_one_minus(QSeries(s, None, {0: rat(1)}), m, window * (s // scale))


def series_from_monomials(monos, window) -> QSeries:
    """Sum a finite list of monomials into a series known below ``window``."""
    window = rat(window)
    scale = lcm(rat_den(window), *(rat_den(m.expo) for m in monos))
    terms: dict = {}
    for m in monos:
        add_term(terms, int(m.expo * scale), m.coeff)
    return QSeries(scale, ceil_rat(window * scale), terms)


def bilateral_sum_oracle(mono_of_r, w_of_r, T) -> QSeries:
    """sum_{r in Z} mono(r) / (1 - w(r)) below q^T: each summand expanded by
    ``geom_inv`` long division and added with ``add_oracle``; each
    direction of r stops once the (convex) valuations are past T and rising."""
    T = rat(T)
    acc = QSeries.zero(rat_den(T), int(T * rat_den(T)))
    for r, dr in ((0, 1), (-1, -1)):
        prev = None
        while True:
            mono, w = mono_of_r(r), w_of_r(r)
            v = mono.expo - min(w.expo, 0)
            if v >= T and prev is not None and v >= prev:
                break
            if w.is_one:
                raise GenericityError(f"pole: summand 1/(1 - {w!r})")
            if mono.expo < T:
                term = mul_monomial_oracle(geom_inv(w, 1, ceil_rat(T - mono.expo)), mono)
                acc = add_oracle(acc, term)
            prev = v
            r += dr
    return acc


def jtheta_sum_oracle(x: QMonomial, base: QMonomial, order) -> QSeries:
    """Independent bilateral-sum evaluation sum_n (-1)^n base^binom(n,2) x^n."""
    _check_base(base)
    order = rat(order)
    scale = common_scale(x.expo, base.expo)
    W = ceil_rat(order * scale)
    E = int(base.expo * scale)
    e = int(x.expo * scale)
    terms: dict = {}

    def visit(n: int) -> bool:
        expo = binom2(n) * E + n * e
        if expo >= W:
            return False
        coeff = base.coeff ** binom2(n) * cpow(x.coeff, n)
        add_term(terms, expo, -coeff if n % 2 else coeff)
        return True

    # The exponent binom(n,2)E + n*e is convex in n (second difference E > 0),
    # so each direction may stop once the term is out of window *and* the
    # exponent is nondecreasing onward.
    n = 0
    while True:
        live = visit(n)
        if not live and n * E + e >= 0:
            break
        n += 1
    n = -1
    while True:
        live = visit(n)
        if not live and (n - 1) * E + e <= 0:
            break
        n -= 1
    return QSeries(scale, W, terms)


def poch_inf_product_oracle(x: QMonomial, base: QMonomial, order) -> QSeries:
    """(x; base)_inf as the product of its binomials (1 - x*base^i) with
    exponent below the order, each multiplied in as s + (-x*base^i)*s, on
    the grid of x and base below ceil(order*scale) there; (1; base)_inf is
    the exact zero series."""
    _check_base(base)
    order = rat(order)
    if x.expo < 0:
        raise UnsupportedArgument(f"(x; base)_inf needs expo(x) >= 0, got {x!r}")
    if x.is_one:
        return QSeries(1, None, {})
    scale = common_scale(x.expo, base.expo)
    s = QSeries(scale, ceil_rat(order * scale), {0: rat(1)})
    while x.expo < order:
        s = add_oracle(s, mul_monomial_oracle(s, -x))
        x = x * base
    return s


def eulerian_sum_oracle(order, monos_fn, num=(), den=(), const=None, start=0) -> QSeries:
    """``eulerian.eulerian_sum`` as the sparse accumulator engine summed it:
    the running Pochhammer product is a series known below the order, times
    (1 - m) as s + (-m)*s and over (1 - m) by ``divide_one_minus``, one
    binomial x*b^k at a time; each term adds the product times its
    monomials with ``add_oracle``, until the least exponent of a term
    reaches the order.  It checks none of the engine's preconditions."""
    order = rat(order)
    scale = rat_den(order)
    window = int(order * scale)
    prod, total = QSeries(scale, window, {0: 1}), QSeries.zero(scale, window)
    specs = [(over, x, b, cf) for over, ss in ((False, num), (True, den)) for x, b, cf in ss]
    counts = [0] * len(specs)
    for n in count(start):
        monos = monos_fn(n)
        if min(m.expo for m in monos) >= order:
            break
        for i, (over, x, b, cf) in enumerate(specs):
            for k in range(counts[i], cf(n)):
                m = x * b ** k
                if over:
                    prod = divide_one_minus(prod, m)
                else:
                    prod = add_oracle(prod, mul_monomial_oracle(prod, -m))
            counts[i] = max(counts[i], cf(n))
        for m in monos:
            total = add_oracle(total, mul_monomial_oracle(prod, m))
    if const is not None:
        total = add_oracle(total, QSeries.from_monomial(QMonomial(const)))
    return total


def m_alt_oracle(x: QMonomial, base: QMonomial, z: QMonomial, order) -> QSeries:
    """Independent evaluation via the shifted-index form
    m(x,base,z) = (-z/j(z;base)) sum_r (-1)^r base^binom(r+1,2) z^r / (1 - base^r x z)."""
    _check_base(base)
    order = rat(order)
    if jtheta_val(z, base) is None:
        raise GenericityError(f"j(z; base) vanishes for z = {z!r}")

    def build(T):
        S = bilateral_sum_oracle(
            lambda r: (base ** binom2(r + 1)) * (z**r) * qmono(-1 if r % 2 else 1),
            lambda r: (base**r) * x * z,
            T,
        )
        return mul_monomial_oracle(S, -z).divide(jtheta(z, base, T))

    return eval_padded(build, order)


def g_alt_oracle(x: QMonomial, base: QMonomial, order) -> QSeries:
    """Independent evaluation of g via
    g(x, base) = sum_{n>=0} base^{n(n+1)} / ((x;base)_{n+1} (base/x;base)_{n+1})."""
    _check_base(base)
    order = rat(order)
    E = base.expo
    if x.expo < 0 or x.expo > E:
        raise GenericityError(f"g(x, base) needs 0 <= expo(x) <= expo(base), got {x!r}")

    def build(T):
        W = ceil_rat(T)
        R = divide_one_minus(QSeries(1, W, {0: rat(1)}), x)
        R = divide_one_minus(R, base / x)
        acc = R
        n = 1
        while n * (n + 1) * E < T:
            R = divide_one_minus(R, x * base**n)
            R = divide_one_minus(R, (base ** (n + 1)) / x)
            acc = add_oracle(acc, mul_monomial_oracle(R, base ** (n * (n + 1))))
            n += 1
        return acc

    return eval_padded(build, order)


def f_direct_oracle(a, b, c, x, y, base, order) -> QSeries:
    """Anti-diagonal enumeration of f_{a,b,c}(x, y, base), each term by direct
    powers.

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
                mono = (x**r) * (y**s) * base**qexp
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
                mono = (x ** (-1 - u)) * (y ** (-1 - v)) * base**qexp
                monos.append(-mono if d % 2 == 0 else mono)
        d += 1

    return series_from_monomials(monos, T)


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
                    mono = base**qexp
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
                    mono = base**qexp
                    monos.append(-mono if (k - j) % 2 == 0 else mono)
            d += 1
        s = series_from_monomials(monos, T)
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
                mono = q**qexp
                monos.append(mono if k % 2 == 0 else -mono)
        k += 1
    return series_from_monomials(monos, T)


# -- cyclotomic reference: Fraction coordinate vectors ------------------------
#
# A reference value is a Fraction when rational and otherwise a pair
# (n, coords): n the minimal conductor, coords the phi(n) Fraction
# coordinates over 1, z, ..., z^(phi(n)-1), z = zeta_n.


def cyc_reduce(vec, n: int) -> tuple:
    """An ascending Fraction coefficient list reduced mod Phi_n."""
    cyc = cyclotomic_coeffs(n)
    phi = len(cyc) - 1
    v = [Fraction(c) for c in vec] + [Fraction(0)] * max(0, phi - len(vec))
    for d in range(len(v) - 1, phi - 1, -1):
        c = v[d]
        if c:
            for i, f in enumerate(cyc):
                v[d - phi + i] -= c * f
    return tuple(v[:phi])


def cyc_lift(coords, n: int, m: int) -> tuple:
    """Conductor-n coordinates rewritten in conductor m (n | m):
    zeta_n^i = z^(i*m/n)."""
    poly = [Fraction(0)] * ((len(coords) - 1) * (m // n) + 1)
    for i, c in enumerate(coords):
        poly[i * (m // n)] = c
    return cyc_reduce(poly, m)


def cyc_solve(coords, n: int, d: int):
    """Coordinates of a conductor-n vector over the zeta_d power basis
    (d | n), by Gaussian elimination over Q, or None."""
    basis = [cyc_lift([0] * i + [1], d, n) for i in range(len(cyclotomic_coeffs(d)) - 1)]
    rows, cols = len(coords), len(basis)
    aug = [[basis[j][i] for j in range(cols)] + [Fraction(coords[i])] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if aug[k][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [a * inv for a in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c]:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[r])]
        piv_cols.append(c)
        r += 1
    if any(aug[k][-1] for k in range(r, rows)):
        return None
    sol = [Fraction(0)] * cols
    for row, c in zip(aug, piv_cols):
        sol[c] = row[-1]
    return tuple(sol) if cyc_lift(sol, d, n) == tuple(coords) else None


def cyc_canonical(n: int, coords):
    """The reference value of sum coords[i] zeta_n^i (coords reduced)."""
    coords = tuple(Fraction(c) for c in coords)
    if not any(coords[1:]):
        return coords[0]
    for d in range(3, n):
        if n % d == 0 and d % 4 != 2:
            sol = cyc_solve(coords, n, d)
            if sol is not None:
                return (d, sol)
    return (n, coords)


def cyc_of(x):
    """The reference value of an engine coefficient."""
    if isinstance(x, CycRat):
        return (x.n, tuple(Fraction(c, x.den) for c in x.nums))
    return Fraction(x)


def _cyc_pair(x, y):
    """(m, a, b): reference values x and y as coordinates in one conductor."""
    xn, xc = x if isinstance(x, tuple) else (1, (x,))
    yn, yc = y if isinstance(y, tuple) else (1, (y,))
    m = lcm(xn, yn)
    return m, cyc_lift(xc, xn, m), cyc_lift(yc, yn, m)


def cyc_add(x, y):
    m, a, b = _cyc_pair(x, y)
    return cyc_canonical(m, [p + q for p, q in zip(a, b)])


def cyc_sub(x, y):
    m, a, b = _cyc_pair(x, y)
    return cyc_canonical(m, [p - q for p, q in zip(a, b)])


def cyc_mul(x, y):
    m, a, b = _cyc_pair(x, y)
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            prod[i + j] += p * q
    return cyc_canonical(m, cyc_reduce(prod, m))


def cyc_inverse(x):
    """1/x for a nonzero reference value: extended Euclid in Q[z], solving
    a(z) u(z) + Phi_n(z) v(z) = 1 for u."""
    if not isinstance(x, tuple):
        return 1 / x
    n, coords = x

    def deg(p):
        return max((i for i, c in enumerate(p) if c), default=-1)

    r0, r1 = [Fraction(c) for c in cyclotomic_coeffs(n)], list(coords)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) > 0:
        d0, d1 = deg(r0), deg(r1)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        f = r0[d0] / r1[d1]
        shift = d0 - d1
        for i in range(d1 + 1):
            r0[i + shift] -= f * r1[i]
        s0 = s0 + [Fraction(0)] * max(0, len(s1) + shift - len(s0))
        for i, c in enumerate(s1):
            s0[i + shift] -= f * c
        if deg(r0) < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
    inv = 1 / r1[0]
    return cyc_canonical(n, cyc_reduce([c * inv for c in s1], n))


def cyc_pow(x, k: int):
    """x**k by k-fold products (of 1/x when k < 0)."""
    base = cyc_inverse(x) if k < 0 else x
    out = Fraction(1)
    for _ in range(abs(k)):
        out = cyc_mul(out, base)
    return out


def tokenize_oracle(text: str) -> list:
    """(kind, value, line, col) of each token of text, EOF last, scanned one
    character at a time.  It differs from ``qverify.dsl.tokenize`` in two
    places: a non-ASCII digit starts an INT here (an error there), and the
    column does not advance through a comment, so after a trailing comment
    EOF sits at the ``#``."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            toks.append(("STRING", text[i + 1:j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in "()[]{},;=+-*/^.":
            toks.append(("PUNCT", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("EOF", "", line, col))
    return toks


class _OracleTok(NamedTuple):
    kind: str  # NAME INT STRING PUNCT EOF
    value: str
    line: int
    col: int


# One alternative per token kind, tried in order at each position; ERROR
# takes any character that starts no token.  A NAME starts with a letter or
# '_', so a \w run that starts with another character (a non-ASCII digit) is
# an error too.
_ORACLE_TOKEN = re.compile(
    r'(?P<NEWLINE>\n)|(?P<SKIP>[ \t\r]+|#[^\n]*)|(?P<INT>[0-9]+)|(?P<NAME>\w+)'
    r'|"(?P<STRING>[^"\n]*)"|(?P<PUNCT>[][(){},;=+\-*/^.])|(?P<ERROR>.)',
    re.DOTALL,
)


def _pattern_tokens(text: str):
    toks = []
    line, line_start = 1, 0
    for m in _ORACLE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        if kind == "SKIP":
            continue
        value = m.group(kind)
        col = m.start() - line_start + 1
        if kind == "ERROR" or (kind == "NAME" and not (value[0].isalpha() or value[0] == "_")):
            if value == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        toks.append(_OracleTok(kind, value, line, col))
    toks.append(_OracleTok("EOF", "", line, len(text) - line_start + 1))
    return toks


class _OracleParser:
    """The DSL's parser before its one-scan front end: every token a
    _OracleTok with its line and column, read through peek/at/accept."""

    def __init__(self, text: str):
        self.toks = _pattern_tokens(text)
        self.pos = 0

    def parse(self, rule):
        """Run a grammar rule; nesting deeper than the Python stack allows
        is a ParseError at the token reached."""
        try:
            return rule()
        except RecursionError:
            t = self.peek()
        raise ParseError("expression nested too deeply", t.line, t.col)

    # -- token plumbing --

    def peek(self, ahead=0) -> _OracleTok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _OracleTok:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, value: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> _OracleTok:
        t = self.peek()
        if t.kind == "PUNCT" and t.value == value:
            return self.next()
        raise ParseError(f"expected {value!r}, found {t.value!r}", t.line, t.col)

    def expect_kind(self, kind: str) -> _OracleTok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.value!r}", t.line, t.col)
        return self.next()

    def error(self, message: str, tok=None):
        t = tok or self.peek()
        raise ParseError(message, t.line, t.col)

    # -- small literals --

    def parse_int(self) -> int:
        neg = self.accept("-")
        t = self.expect_kind("INT")
        v = int(t.value)
        return -v if neg else v

    def parse_rational(self):
        """Signed p or p/q (used inside parenthesized exponents)."""
        neg = self.accept("-")
        t = self.expect_kind("INT")
        num = int(t.value)
        den = 1
        if self.accept("/"):
            den = int(self.expect_kind("INT").value)
            if den == 0:
                self.error("zero denominator in exponent", t)
        v = rat(num, den)
        return -v if neg else v

    def parse_q_exponent(self):
        """Exponent after 'q^': INT, -INT, or (signed rational)."""
        if self.accept("("):
            v = self.parse_rational()
            self.expect(")")
            return v
        return rat(self.parse_int())

    def parse_power_exponent(self) -> int:
        """Integer exponent after '^' on a non-monomial factor."""
        if self.accept("("):
            v = self.parse_int()
            self.expect(")")
            return v
        return self.parse_int()

    # -- expression grammar --

    def parse_expression(self):
        node = self.parse_term()
        while True:
            if self.accept("+"):
                node = BinOp("+", node, self.parse_term())
            elif self.accept("-"):
                node = BinOp("-", node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            if self.accept("*"):
                node = BinOp("*", node, self.parse_unary())
            elif self.accept("/"):
                node = BinOp("/", node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        if self.accept("-"):
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_primary()
        while self.at("^"):
            self.next()
            node = Pow(node, self.parse_power_exponent())
        return node

    def parse_primary(self):
        t = self.peek()
        if self.accept("("):
            node = self.parse_expression()
            self.expect(")")
            return node
        if t.kind == "INT":
            self.next()
            return Num(rat(int(t.value)))
        if t.kind == "NAME":
            if t.value == "q":
                self.next()
                if self.at("^"):
                    self.next()
                    return QPow(self.parse_q_exponent())
                return QPow(rat(1))
            if t.value == "zeta":
                self.next()
                self.expect("(")
                k = self.parse_int()
                self.expect(",")
                n = self.parse_int()
                self.expect(")")
                if n <= 0:
                    self.error("zeta(k,N) needs N >= 1", t)
                return Zeta(k, n)
            if t.value == "catalog":
                return self.parse_catalog_ref()
            if t.value in _HEADS:
                return self.parse_call()
            self.error(f"unknown function or symbol {t.value!r}", t)
        self.error(f"expected an expression, found {t.value!r}", t)

    def parse_catalog_ref(self):
        t = self.expect_kind("NAME")  # 'catalog'
        self.expect("(")
        name = self.expect_kind("STRING").value
        subst = self.parse_expression() if self.accept(",") else None
        self.expect(")")
        index = None
        if subst is None and self.accept("."):
            field = self.expect_kind("NAME")
            if field.value != "repr":
                self.error("only '.repr[i]' can follow catalog(...)", field)
            self.expect("[")
            index = self.parse_int()
            self.expect("]")
            if index < 0:
                self.error("representation index must be >= 0", field)
        return CatalogRef(name, index, subst)

    def parse_call(self):
        head_tok = self.expect_kind("NAME")
        head = head_tok.value
        n_params, groups, _ = _HEADS[head]
        params = ()
        if n_params:
            self.expect("[")
            vals = [self.parse_int()]
            while self.accept(","):
                vals.append(self.parse_int())
            self.expect("]")
            if len(vals) != n_params:
                self.error(
                    f"{head} expects {n_params} bracket parameters, got {len(vals)}",
                    head_tok,
                )
            params = tuple(vals)
        if not groups:
            if self.at("("):
                self.error(f"{head}[...] takes no call arguments", head_tok)
            return Call(head, params, ())
        self.expect("(")
        parsed = []
        for gi, names in enumerate(groups):
            parse_arg = self.parse_count if names == ("count",) else self.parse_expression
            args = [parse_arg()]
            while self.accept(","):
                args.append(parse_arg())
            if len(args) != len(names):
                self.error(
                    f"{head} expects {len(names)} argument(s) in group {gi + 1}, "
                    f"got {len(args)}",
                    head_tok,
                )
            parsed.append(tuple(args))
            if gi + 1 < len(groups):
                self.expect(";")
        self.expect(")")
        return Call(head, params, tuple(parsed))

    def parse_count(self):
        """The count of poch(x; q; n|inf): an integer literal or 'inf'."""
        t = self.peek()
        if t.kind == "NAME" and t.value == "inf":
            self.next()
            return PochInf()
        if t.kind == "INT":
            return Num(rat(int(self.next().value)))
        self.error("poch count must be a nonnegative integer or 'inf'", t)

    # -- identity files --

    def parse_identities(self):
        records, names = [], set()
        while self.peek().kind != "EOF":
            t = self.expect_kind("NAME")
            if t.value != "identity":
                self.error("expected 'identity'", t)
            t = self.expect_kind("NAME")
            name = t.value
            if name in names:
                self.error(f"duplicate identity name {name!r}", t)
            names.add(name)
            order = None
            nxt = self.peek()
            if nxt.kind == "NAME" and nxt.value == "order":
                self.next()
                order = self.parse_int()
                if order <= 0:
                    self.error("order must be positive", nxt)
            self.expect("{")
            sides = {}
            for side in ("lhs", "rhs"):
                st = self.expect_kind("NAME")
                if st.value != side:
                    self.error(f"expected '{side}'", st)
                self.expect("=")
                sides[side] = self.parse_expression()
                self.expect(";")
            self.expect("}")
            records.append(IdentityRecord(name, order, sides["lhs"], sides["rhs"]))
        return records


def parse_oracle(text: str, identities: bool = False):
    """The AST of text as an expression (with identities, the list of
    IdentityRecords of text as an identity file), or its ParseError, by the
    DSL's parser before its one-scan front end: a pattern tokenizer that
    gives every token its line and column, then recursive descent over the
    tokens.  The reference for ``qverify.dsl.parse_expression`` and
    ``parse_identities``."""
    p = _OracleParser(text)
    if identities:
        return p.parse(p.parse_identities)
    node = p.parse(p.parse_expression)
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected trailing input {t.value!r}", t.line, t.col)
    return node
