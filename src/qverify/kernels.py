"""Dense kernels of the series layer.

Products.  ``kronecker`` multiplies two term dicts by Kronecker substitution
(one multiply of two Python ints); ``series`` chooses it over its term loop
by the thresholds here.  Int and Rat sides are scaled to ints by the lcm of
their denominators, one exponent a digit.  A side holding a CycRat is split
at the common conductor M into phi(M) integer coordinates per exponent over
one denominator (the power basis mod Phi_M, so the coordinates are unique),
and each digit packs the zeta-degree too: 2*phi(M) - 1 sub-digits a slot.
Each output slot is reduced mod Phi_M and becomes one coefficient, an int,
a Rat or one ``cyclotomic._canonical`` call; nothing in between is
canonicalised.

Quotients.  ``long_division`` is the division loop of ``QSeries.divide``.
``cyc_quotient`` divides when a side holds a CycRat: a CycRat divisor is
made rational by multiplying both sides by its other Galois conjugates, and
each coordinate row of the dividend is long-divided by the rational
divisor.

Eulerian sums.  ``ListSum`` and ``CycSum`` hold the running product and the
total of the Eulerian engine (``eulerian``) as dense lists: of int or Rat
coefficients, or of coordinates over Q(zeta_M), on which a binomial
(1 - c*q^d) with c in Q(zeta_M) is the integer matrix of c's numerator.
``times_one_minus`` and ``over_one_minus`` multiply and divide a list by a
binomial in place, by slice ``map`` and strided prefix sums.

They are a module of their own because each module is compiled when it is
imported without a bytecode cache, and the peak memory of that compile
grows with the module: with this code inside ``series``, the peak resident
memory of a benchmark run rose by about 2 %.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, neg, sub

from .cyclotomic import (CycRat, Rat, _canonical, _lift, _lift_power, _reduce_mod_cyclo,
                         cyclotomic_coeffs, euler_phi, root_of_unity_log)


#: a product of series takes ``kronecker`` when it has more than this many
#: term pairs per output slot, KRON_PAIRS with no CycRat and CYC_PAIRS
#: with one (measured; see CHANGES.md).  CYC_PAIRS <= KRON_PAIRS, so a
#: product with at most CYC_PAIRS pairs a slot takes the loop either way.
KRON_PAIRS = 12
CYC_PAIRS = 2


def conductor(*coeffs) -> int:
    """The lcm of the conductors of the CycRats among the given collections
    of coefficients; 1 when there is none (found by a C-level type scan)."""
    if CycRat not in set(map(type, chain(*coeffs))):
        return 1
    return lcm(*{c.n for c in chain(*coeffs) if type(c) is CycRat})


def kronecker(at: dict, bt: dict, window):
    """The product of two term dicts below window (None: all of it) by
    Kronecker substitution; None when it has at most KRON_PAIRS term pairs
    per output slot with no CycRat, or CYC_PAIRS with one: the term loop is
    then the faster.

    Without a CycRat, each side is scaled to ints by the lcm of its
    denominators and read as the digits, one per exponent, of one int.  A
    side holding a CycRat is split into its coordinates at the common
    conductor (``_coords``) and multiplied by ``_cmul``."""
    # a side of k terms gives at most k pairs a slot (untruncated), so at
    # most CYC_PAIRS <= KRON_PAIRS takes the loop without a type scan
    if min(len(at), len(bt)) <= CYC_PAIRS:
        return None
    ta, tb = set(map(type, at.values())), set(map(type, bt.values()))
    cyc = CycRat in ta or CycRat in tb
    pairs_max = CYC_PAIRS if cyc else KRON_PAIRS
    if min(len(at), len(bt)) <= pairs_max:
        return None
    va, vb = min(at), min(bt)
    la = (max(at) if window is None else min(max(at), window - vb - 1)) - va + 1
    lb = (max(bt) if window is None else min(max(bt), window - va - 1)) - vb + 1
    slots = la + lb - 1 if window is None else min(la + lb - 1, window - va - vb)
    if slots < 1 or len(at) * len(bt) <= pairs_max * slots:
        return None
    if cyc:
        m = conductor(at.values(), bt.values())
        (ra, da), (rb, db) = _coords(at, m, va, la), _coords(bt, m, vb, lb)
        return _join(_cmul(ra, rb, m, slots), da * db, m, va + vb)
    sides = []
    for t, v, n, types in ((at, va, la, ta), (bt, vb, lb, tb)):
        coeffs = list(map(t.get, range(v, v + n), repeat(0)))
        d = 1
        if Rat in types:
            d = lcm(*(c.denominator for c in t.values()))
            coeffs = [c.numerator * (d // c.denominator) for c in coeffs]
        sides.append((coeffs, d, max(map(abs, coeffs))))
    (ca, da, ma), (cb, db, mb) = sides
    digits = _kmul(ca, cb, ma * mb * min(len(at), len(bt)), slots)
    k0, d = va + vb, da * db
    if d == 1:
        return {k0 + i: c for i, c in enumerate(digits) if c}
    return {k0 + i: c // d if c % d == 0 else Rat(c, d) for i, c in enumerate(digits) if c}


def _kmul(ca: list, cb: list, bound: int, count: int) -> list:
    """The first count coefficients of the product of the int polynomials
    ca and cb, whose coefficients are below bound in size: one multiply of
    two ints with a digit of nb bytes each, bound plus a sign bit.  Digits
    are packed and unpacked offset by half their range, so that negative
    ones need no borrow."""
    nb = bound.bit_length() // 8 + 1
    half, unit, fb = 1 << (8 * nb - 1), bytes(nb - 1) + b"\x80", int.from_bytes

    def pack(coeffs):
        digits = map(int.to_bytes, map(add, coeffs, repeat(half)), repeat(nb), repeat("little"))
        return fb(b"".join(digits), "little") - fb(unit * len(coeffs), "little")

    c = pack(ca) * pack(cb) + fb(unit * count, "little")
    buf = (c & ((1 << 8 * nb * count) - 1)).to_bytes(nb * count, "little")
    return [fb(buf[i:i + nb], "little") - half for i in range(0, nb * count, nb)]


# -- coordinates: a series over Q(zeta_m) as phi(m) rows of ints, row i
# holding coordinate i (over the power basis mod Phi_m, so they are unique)
# of each exponent slot, all over one positive denominator


def _coords(t: dict, m: int, v: int, n: int):
    """(rows, den): the terms of t at exponents v .. v + n - 1 (v <= min(t))
    as coordinates at conductor m over the lcm of their denominators."""
    den = lcm(*{c.den if type(c) is CycRat else c.denominator
                for c in t.values() if type(c) is not int})
    rows = [[0] * n for _ in range(euler_phi(m))]
    for k, c in t.items():
        k -= v
        if k < n:
            if type(c) is int:
                rows[0][k] = c * den
            elif type(c) is CycRat:
                f = den // c.den
                for r, x in zip(rows, _lift(c.nums, c.n, m)):
                    r[k] = x * f
            else:
                rows[0][k] = c.numerator * (den // c.denominator)
    return rows, den


def _cmul(ra: list, rb: list, m: int, slots: int) -> list:
    """The product of two coordinate rows at conductor m, below ``slots``
    slots: one ``_kmul`` with each slot's zeta-degree packed inside it
    (2*phi - 1 sub-digits a slot), then every slot reduced mod Phi_m."""
    phi = len(ra)
    s = 2 * phi - 1
    la, lb = min(len(ra[0]), slots), min(len(rb[0]), slots)
    slots = min(slots, la + lb - 1)
    xa, xb = [0] * (la * s), [0] * (lb * s)
    for i in range(phi):
        xa[i::s], xb[i::s] = ra[i][:la], rb[i][:lb]
    bound = max(map(abs, xa)) * max(map(abs, xb)) * min(la, lb) * phi
    digits = _kmul(xa, xb, bound, slots * s)
    cyc = cyclotomic_coeffs(m)
    for d in range(s - 1, phi - 1, -1):  # z^d = z^d - z^(d-phi) * Phi_m
        top = digits[d::s]
        for i, f in enumerate(cyc[:phi]):
            if f:
                j = d - phi + i
                r = digits[j::s]
                digits[j::s] = (map(sub, r, top) if f == 1 else map(add, r, top) if f == -1
                                else map(sub, r, map(mul, top, repeat(f))))
    return [digits[i::s] for i in range(phi)]


def _join(rows: list, den: int, m: int, v: int) -> dict:
    """{v + s: coefficient} for each nonzero slot s of coordinate rows at
    conductor m over den: one ``_canonical`` call per irrational slot, and
    an int or Rat for a rational one."""
    out = {}
    for k, nums in enumerate(zip(*rows), v):
        if any(nums[1:]):
            out[k] = _canonical(m, (den, *nums))
        elif nums[0]:
            c = nums[0]
            out[k] = c // den if c % den == 0 else Rat(c, den)
    return out


def cyc_quotient(at: dict, bt: dict, window: int, m: int) -> dict:
    """at / bt at exponents below window (scaled units, the quotient window
    of ``QSeries.divide``), m the conductor of both sides; at nonempty.

    A divisor holding a CycRat, at conductor mb, is made rational first:
    the dividend and divisor are multiplied by C, the product of the
    divisor's images under zeta -> zeta^t (t prime to mb, t != 1), so the
    divisor becomes its norm, an integer series.  Every list has the
    quotient's slot count, size = window - va + vb: that is the window
    each side is known to, by the product and quotient windows.  The
    divisor is divided by its content, signed like its leading
    coefficient, and each coordinate row of the dividend is long-divided
    by it (``long_division``)."""
    va, vb = min(at), min(bt)
    size = window - va + vb
    if size < 1:
        return {}
    mb = conductor(bt.values())
    ra, den = _coords(at, m, va, size)
    rb, db = _coords(bt, mb, vb, size)
    div, dn = rb[0], db
    if mb > 1:
        pb, cj = len(rb), None
        for t in range(2, mb):
            if gcd(t, mb) == 1:
                conj = _apply(_galois(mb, mb, t), rb)
                cj = conj if cj is None else _cmul(cj, conj, mb, size)
        div, dn = _cmul(rb, cj, mb, size)[0], db ** pb
        ra, den = _cmul(ra, _apply(_galois(mb, m, 1), cj), m, size), den * db ** (pb - 1)
    # at / bt = (ra / den) / (div / dn) = (ra * f / (div / g)) / (den * |g|),
    # g the content signed like div[0] and f = +-dn the same way
    g = gcd(*div)
    g, f = (g, dn) if div[0] > 0 else (-g, -dn)
    step = [(k, -(c // g)) for k, c in enumerate(div) if c and k]
    b0inv = 1 if div[0] == g else Rat(g, div[0])
    for row in ra:
        if f != 1:
            row[:] = map(mul, row, repeat(f))
        long_division(row, step, b0inv)
    dens = {x.denominator for row in ra for x in row if type(x) is Rat}
    if dens:  # a leading coefficient other than +-g: one denominator for all
        d = lcm(*dens)
        den *= d
        ra = [[x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row]
              for row in ra]
    return _join(ra, den * abs(g), m, va - vb)


def long_division(rem: list, step, b0inv, lo: int = 0) -> dict:
    """Divide in place: rem holds a dividend's coefficients (None or 0 where
    it has none) over consecutive quotient exponents and becomes the
    quotient by a divisor with leading coefficient 1/b0inv, whose other
    terms are ``step``: (offset, minus its coefficient) pairs by offset.
    q_i = rem_i * b0inv, then q_i * f is added to the entry k above it
    for each (k, f).  A unit b0 (b0inv == 1) skips a multiply a term.
    Returns {lo + i: q_i} for every nonzero q_i."""
    unit, size, out = b0inv == 1, len(rem), {}
    for i in range(size):
        c = rem[i]
        if not c:
            continue
        if not unit:
            c = rem[i] = c * b0inv
        out[lo + i] = c
        for k, f in step:
            j = i + k
            if j >= size:
                break
            p = f * c
            cur = rem[j]
            rem[j] = p if cur is None else cur + p
    return out


#: a dense Eulerian sum divides by (1 - c*q^d) by strided prefix sums when
#: d is at most 1/STRIDED of the window, else by doubling (measured; see
#: CHANGES.md)
STRIDED = 8


def times_one_minus(a: list, c, d: int) -> None:
    """a *= (1 - c*q^d) in place, a a dense list below its length, d > 0."""
    t = a[:-d]
    a[d:] = (map(sub, a[d:], t) if c == 1 else map(add, a[d:], t) if c == -1
             else map(sub, a[d:], map(mul, t, repeat(c))))


def over_one_minus(a: list, c, d: int) -> None:
    """a /= (1 - c*q^d) in place, a a dense list below its length, d > 0:
    a prefix sum over each residue class mod d when d <= len(a)/STRIDED,
    else the product of (1 + c^(2^i) q^(2^i d)) over 2^i d < len(a)."""
    n = len(a)
    if d * STRIDED > n:
        while d < n:
            times_one_minus(a, -c, d)
            c, d = c * c, 2 * d
        return
    step = (None if c == 1 else (lambda t, x: x - t) if c == -1
            else lambda t, x: x + c * t)
    for r in range(d):
        a[r::d] = accumulate(a[r::d], step)


class ListSum:
    """The running product and the total of an Eulerian sum (``eulerian``)
    as dense lists of int or Rat coefficients, one a slot.  ``times(c, d)``
    and ``over(c, d)`` are ``times_one_minus`` and ``over_one_minus`` bound
    to prod, which changes only in place: one call a binomial step."""

    __slots__ = ("prod", "total", "times", "over")

    def __init__(self, size: int):
        self.prod, self.total = [1] + [0] * (size - 1), [0] * size
        self.times = partial(times_one_minus, self.prod)
        self.over = partial(over_one_minus, self.prod)

    def scale(self, f) -> None:
        """prod *= f."""
        self.prod[:] = map(mul, self.prod, repeat(f))

    def add(self, i: int, c) -> None:
        """total += c * q^i * prod."""
        total, prod = self.total, self.prod
        t = total[i:]
        total[i:] = (map(add, t, prod) if c == 1 else map(sub, t, prod) if c == -1
                     else map(add, t, map(mul, prod, repeat(c))))

    def add_const(self, i: int, c) -> None:
        self.total[i] += c

    def items(self):
        """(slot, coefficient) for each nonzero slot of the total."""
        return filter(itemgetter(1), enumerate(self.total))


class CycSum:
    """The running product and the total of an Eulerian sum over Q(zeta_m)
    as coordinate rows (see ``_coords``) of dense int lists, all over one
    positive denominator.  A coefficient acts on the rows through the
    integer matrix of its numerator (``_matrix``); its denominator
    multiplies den, and every list is rescaled to keep one den.  The
    conductor grows when a coefficient needs it."""

    __slots__ = ("m", "prod", "total", "den")

    def __init__(self, m: int, size: int):
        phi = euler_phi(m)
        self.m, self.den = m, 1
        self.prod = [[1] + [0] * (size - 1)] + [[0] * size for _ in range(phi - 1)]
        self.total = [[0] * size for _ in range(phi)]

    def _matrix(self, c):
        """c's numerator matrix and denominator e; den and the total take e
        (the caller rescales prod)."""
        if type(c) is CycRat and self.m % c.n:
            m = lcm(self.m, c.n)
            lift = _galois(self.m, m, 1)
            self.m, self.prod, self.total = m, _apply(lift, self.prod), _apply(lift, self.total)
        e, mat = _matrix(c, self.m)
        if e != 1:
            self.den *= e
            self.total = _scaled(self.total, e)
        return mat, e

    def scale(self, f) -> None:
        """prod *= f."""
        self.prod = _apply(self._matrix(f)[0], self.prod)

    def times(self, c, d: int) -> None:
        """prod *= 1 - c*q^d."""
        mat, e = self._matrix(c)
        t = _apply(mat, [r[:-d] for r in self.prod])
        if e != 1:
            self.prod = _scaled(self.prod, e)
        for r, x in zip(self.prod, t):
            r[d:] = map(sub, r[d:], x)

    def over(self, c, d: int) -> None:
        """prod /= 1 - c*q^d: for c a root of unity of order k with k*d at
        most 1/STRIDED of the slots, prod times 1 + c q^d + ... +
        c^(k-1) q^((k-1)d), then each row over 1 - q^(kd) by prefix sums;
        else by doubling, prod times (1 + c^(2^i) q^(2^i d))."""
        n, k = len(self.prod[0]), _root_order(c)
        if k is None or k * d * STRIDED > n:
            while d < n:
                self.times(-c, d)
                c, d = c * c, 2 * d
            return
        mat, _ = self._matrix(c)
        prod = s = self.prod
        for _ in range(k - 1):
            t = _apply(mat, [r[:-d] for r in s])
            s = [r[:d] + list(map(add, r[d:], x)) for r, x in zip(prod, t)]
        for r in s:
            over_one_minus(r, 1, k * d)
        self.prod = s

    def add(self, i: int, c) -> None:
        """total += c * q^i * prod."""
        if type(c) is int and (c == 1 or c == -1):
            op, t = add if c == 1 else sub, self.prod
        else:
            mat, e = self._matrix(c)
            op, t = add, _apply(mat, [r[:len(r) - i] for r in self.prod])
            if e != 1:
                self.prod = _scaled(self.prod, e)
        for r, x in zip(self.total, t):
            r[i:] = map(op, r[i:], x)

    def add_const(self, i: int, c) -> None:
        """total += c * q^i."""
        mat, e = self._matrix(c)
        if e != 1:
            self.prod = _scaled(self.prod, e)
        f = self.den // e  # c = (numerator * f) / den
        for r, x in zip(self.total, mat):
            r[i] += x[0] * f

    def items(self):
        """(slot, coefficient) for each nonzero slot of the total."""
        return _join(self.total, self.den, self.m, 0).items()


def _scaled(rows: list, e: int) -> list:
    return [list(map(mul, r, repeat(e))) for r in rows]


def _transpose(cols) -> list:
    return [list(r) for r in zip(*cols)]


def _galois(n: int, m: int, t: int) -> list:
    """The matrix, for ``_apply``, of zeta_n -> zeta_n^t from conductor n to
    conductor m (n | m): a Galois conjugate (t prime to n), or a lift (t =
    1)."""
    return _transpose([_lift_power(n, m, t * i % n) for i in range(euler_phi(n))])


@lru_cache(maxsize=1024)
def _matrix(c, m: int):
    """(e, mat): c = (numerator) / e with e > 0, and mat[j][i] coordinate j
    at conductor m of the numerator times zeta^i."""
    phi = euler_phi(m)
    if type(c) is not CycRat:
        e, p = (1, c) if type(c) is int else (c.denominator, c.numerator)
        return e, [[p if i == j else 0 for i in range(phi)] for j in range(phi)]
    nums = _lift(c.nums, c.n, m)
    return c.den, _transpose([_reduce_mod_cyclo([0] * i + list(nums), m) for i in range(phi)])


@lru_cache(maxsize=1024)
def _root_order(c):
    """k when c is a root of unity of order k, else None."""
    log = root_of_unity_log(c) if type(c) is CycRat or c in (1, -1) else None
    return None if log is None else log[1]


def _apply(mat, rows) -> list:
    """The rows mapped by the integer matrix mat, in new lists: row j is the
    sum over i of mat[j][i] * rows[i]."""
    out = []
    for mj in mat:
        acc = None
        for f, r in zip(mj, rows):
            if f:
                t = r if f == 1 else map(neg, r) if f == -1 else map(mul, r, repeat(f))
                acc = t if acc is None else map(add, acc, t)
        out.append([0] * len(rows[0]) if acc is None else list(acc))
    return out
