"""Dense kernels of the series layer, on one representation.

Rows.  A series over Q(zeta_M) is held, slot by exponent slot, as phi(M)
rows of ints over one positive denominator, interleaved in one list: entry
s*phi + i is coordinate i of slot s over the power basis mod Phi_M, so the
coordinates are unique (``_coords``).  A rational series is the case M = 1:
one row over one denominator.  A shift by d slots is a shift by d*phi
entries, so a rational coefficient acts on every row at once.  A slot
becomes one coefficient where it leaves a kernel (``_join``): an int when
it is integral, else a Rat or one ``cyclotomic._canonical`` call; nothing
in between is canonicalised.

Products.  ``kronecker`` puts both sides on rows at their common conductor
and ``_cmul`` multiplies them by Kronecker substitution, one multiply of
two Python ints: each digit is an exponent slot holding 2*phi(M) - 1
sub-digits of its zeta-degree, and each output slot is reduced mod Phi_M.
``series`` chooses it over its sparse product by the one threshold
KRON_PAIRS, the same at every conductor.

Quotients.  ``quotient`` puts the divisor on one row, made rational (by
multiplying both sides by its other Galois conjugates) when it holds a
CycRat, and divides it by its content.  A divisor with leading
coefficient 1 and more than NEWTON_STEPS other terms is inverted by Newton
iteration, a doubling of the precision per two Kronecker products
(``newton_inverse``), and the dividend's rows are multiplied by that
inverse once.  Any other divisor long-divides the dividend's rows, scaled
once by a power of the leading coefficient, at once with an exact integer
division a term (``long_division``).  Either way no slot is a Rat before
``_join``.

Eulerian sums.  ``RowSum`` holds the running product and the total of the
Eulerian engine (``eulerian``) on rows.  A binomial (1 - c*q^d) acts on
them by slice ``map`` and strided prefix sums when c is an int
(``times_one_minus``, ``over_one_minus``), a Rat divisor p/e as the
integer divisor e - p*q^d by ``long_division``, and anything else through
the integer matrix of c's numerator.

They are a module of their own because each module is compiled when it is
imported without a bytecode cache, and the peak memory of that compile
grows with the module: with this code inside ``series``, the peak resident
memory of a benchmark run rose by about 2 %.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import add, mul, neg, sub

from .cyclotomic import (CycRat, Rat, _canonical, _lift, _lift_power, _reduce_mod_cyclo,
                         cyclotomic_coeffs, euler_phi, root_of_unity_log)


#: a product of series takes ``kronecker`` when it has more than this many
#: term pairs per output slot, at any conductor (measured; see CHANGES.md)
KRON_PAIRS = 2

#: a quotient whose divisor has lead 1 after its content and more than
#: NEWTON_STEPS other terms multiplies by the divisor's inverse
#: (``newton_inverse``); any other long-divides (measured; see CHANGES.md)
NEWTON_STEPS = 100


def conductor(*coeffs):
    """(m, ints) for the given collections of coefficients: m the lcm of
    the conductors of their CycRats (1 when there is none), and ints
    whether every one is an int; by one C-level type scan."""
    types = set(map(type, chain(*coeffs)))
    if CycRat not in types:
        return 1, types <= {int}
    return lcm(*{c.n for c in chain(*coeffs) if type(c) is CycRat}), False


def kronecker(at: dict, bt: dict, window):
    """The product of two term dicts below window (None: all of it), on
    rows at their common conductor (``_coords``, ``_cmul``, ``_join``);
    None when it has at most KRON_PAIRS term pairs per output slot: the
    sparse product is then the faster.  The coefficients' types are
    scanned (``conductor``) only once that size test has chosen this."""
    # a side of k terms gives at most k pairs a slot (untruncated)
    if min(len(at), len(bt)) <= KRON_PAIRS:
        return None
    va, vb = min(at), min(bt)
    la = (max(at) if window is None else min(max(at), window - vb - 1)) - va + 1
    lb = (max(bt) if window is None else min(max(bt), window - va - 1)) - vb + 1
    slots = la + lb - 1 if window is None else min(la + lb - 1, window - va - vb)
    if slots < 1 or len(at) * len(bt) <= KRON_PAIRS * slots:
        return None
    m, ints = conductor(at.values(), bt.values())
    (a, da), (b, db) = _coords(at, m, va, la, ints), _coords(bt, m, vb, lb, ints)
    return dict(_join(_cmul(a, b, m, slots), da * db, m, va + vb))


def _kmul(ca: list, cb: list, count: int) -> list:
    """The first count coefficients of the product of the int polynomials
    ca and cb: one multiply of two ints with a digit of nb bytes each, the
    bound on a product coefficient plus a sign bit.  Digits are packed and
    unpacked offset by half their range, so that negative ones need no
    borrow."""
    # a digit sums at most min(nonzero entries) products of two entries
    pairs = min(len(ca) - ca.count(0), len(cb) - cb.count(0))
    bound = max(map(abs, ca)) * max(map(abs, cb)) * pairs
    nb = bound.bit_length() // 8 + 1
    half, unit, fb = 1 << (8 * nb - 1), bytes(nb - 1) + b"\x80", int.from_bytes

    def pack(coeffs):
        digits = map(int.to_bytes, map(add, coeffs, repeat(half)), repeat(nb), repeat("little"))
        return fb(b"".join(digits), "little") - fb(unit * len(coeffs), "little")

    c = pack(ca) * pack(cb) + fb(unit * count, "little")
    buf = (c & ((1 << 8 * nb * count) - 1)).to_bytes(nb * count, "little")
    return [fb(buf[i:i + nb], "little") - half for i in range(0, nb * count, nb)]


def _coords(t: dict, m: int, v: int, n: int, ints: bool):
    """(a, den): the terms of t at exponents v .. v + n - 1 (v <= min(t))
    as rows at conductor m over the lcm of their denominators; ints says
    that every coefficient is an int (so m = 1).  Any other coefficient, an
    integral Rat included, is turned into ints."""
    phi = euler_phi(m)
    a = [0] * (n * phi)
    if ints:
        for k, c in t.items():
            if k - v < n:
                a[k - v] = c
        return a, 1
    den = lcm(*{c.den if type(c) is CycRat else c.denominator for c in t.values()})
    for k, c in t.items():
        k -= v
        if k < n:
            if type(c) is CycRat:
                f = den // c.den
                a[k * phi:(k + 1) * phi] = [x * f for x in _lift(c.nums, c.n, m)]
            else:
                a[k * phi] = c.numerator * (den // c.denominator)
    return a, den


def _cmul(a: list, b: list, m: int, slots: int) -> list:
    """The product of rows a and b at conductor m, below ``slots`` slots:
    one ``_kmul`` with each slot's zeta-degree packed inside it (2*phi - 1
    sub-digits a slot), then every slot reduced mod Phi_m."""
    phi = euler_phi(m)
    s = 2 * phi - 1
    la, lb = len(a) // phi, len(b) // phi
    slots = min(slots, la + lb - 1)
    if phi == 1:
        xa, xb = a, b
    else:
        xa, xb = [0] * (la * s), [0] * (lb * s)
        for i in range(phi):
            xa[i::s], xb[i::s] = a[i::phi], b[i::phi]
    digits = _kmul(xa, xb, slots * s)
    if phi == 1:
        return digits
    cyc = cyclotomic_coeffs(m)
    for d in range(s - 1, phi - 1, -1):  # z^d = z^d - z^(d-phi) * Phi_m
        top = digits[d::s]
        for i, f in enumerate(cyc[:phi]):
            if f:
                j = d - phi + i
                r = digits[j::s]
                digits[j::s] = (map(sub, r, top) if f == 1 else map(add, r, top) if f == -1
                                else map(sub, r, map(mul, top, repeat(f))))
    out = [0] * (slots * phi)
    for i in range(phi):
        out[i::phi] = digits[i::s]
    return out


def _join(a: list, den: int, m: int, v: int):
    """(v + s, coefficient) for each nonzero slot s of rows a at conductor
    m over den, as an iterator: an int or Rat for a rational slot, and one
    ``_canonical`` call for any other."""
    phi = euler_phi(m)
    if phi > 1:
        return ((k, _canonical(m, (den, *nums)) if any(nums[1:])
                 else nums[0] // den if nums[0] % den == 0 else Rat(nums[0], den))
                for k, nums in enumerate(zip(*[iter(a)] * phi), v) if any(nums))
    if den == 1:
        return compress(enumerate(a, v), a)
    return ((k, c // den if c % den == 0 else Rat(c, den)) for k, c in enumerate(a, v) if c)


def quotient(at: dict, bt: dict, window: int) -> dict:
    """at / bt at exponents below window (scaled units, the quotient window
    of ``QSeries.divide``); at nonempty.

    Both sides go on rows (``_coords``) with the quotient's slot count,
    size = window - va + vb: that is the window each side is known to, by
    the product and quotient windows.  A divisor holding a CycRat, at
    conductor mb, is made rational first: the dividend and divisor are
    multiplied by C, the product of the divisor's images under
    zeta -> zeta^t (t prime to mb, t != 1), so the divisor becomes its
    norm, one integer row.  The divisor row is divided by its content,
    signed like its leading coefficient.  With leading coefficient 1 and
    more than NEWTON_STEPS other terms it is inverted to size slots
    (``newton_inverse``) and the dividend's rows are multiplied by the
    inverse, put on row 0, in one ``_kmul``; else they are long-divided by
    it at once (``long_division``)."""
    va, vb = min(at), min(bt)
    size = window - va + vb
    if size < 1:
        return {}
    m, ints = conductor(at.values(), bt.values())
    mb = 1 if m == 1 else conductor(bt.values())[0]
    a, den = _coords(at, m, va, size, ints)
    b, dn = _coords(bt, mb, vb, size, ints)
    if mb > 1:
        pb, cj = euler_phi(mb), None
        for t in range(2, mb):
            if gcd(t, mb) == 1:
                conj = _apply(_galois(mb, mb, t), b, pb)
                cj = conj if cj is None else _cmul(cj, conj, mb, size)
        a, den = _cmul(a, _apply(_galois(mb, m, 1), cj, pb), m, size), den * dn ** (pb - 1)
        b, dn = _cmul(b, cj, mb, size)[::pb], dn ** pb
    # at / bt = (a / den) / (b / dn) = (a * f / (b / g)) / (den * |g|), g the
    # content signed like b[0] and f = +-dn the same way; b / g has the
    # leading coefficient lead > 0, and quotient slot s a denominator
    # dividing lead^(s // d + 1), d the least step in slots: a scaled by
    # that power at the last slot long-divides exactly
    ks = list(compress(range(len(b)), b))  # the divisor's slots, ks[0] = 0
    g = gcd(*map(b.__getitem__, ks))
    g, f = (g, dn) if b[0] > 0 else (-g, -dn)
    lead, phi = b[0] // g, euler_phi(m)
    if lead != 1:
        e = lead ** ((size - 1) // (ks[1] if len(ks) > 1 else size) + 1)
        f, den = f * e, den * e
    if f != 1:
        a = _scaled(a, f)
    if lead == 1 and len(ks) > NEWTON_STEPS + 1:
        x = newton_inverse([c // g for c in b])
        if phi > 1:  # x on row 0 of rows at m: no slot needs reducing
            xs, x = x, [0] * len(a)
            x[::phi] = xs
        a = _kmul(a, x, len(a))
    else:
        long_division(a, [(k * phi, -(b[k] // g)) for k in ks[1:]], lead)
    return dict(_join(a, den * abs(g), m, va - vb))


def newton_inverse(b: list) -> list:
    """The inverse of the int polynomial b with b[0] = 1, to len(b)
    coefficients, by Newton iteration: from x = b^-1 to p coefficients,
    x + x*(1 - b*x) is it to 2p, and 1 - b*x is 0 below p, so each step
    takes slots [p, 2p) of b*x and one more product (``_kmul``)."""
    n, sizes = len(b), []
    while n > 1:
        sizes.append(n)
        n = (n + 1) // 2
    x = [1]
    for n in reversed(sizes):
        p = len(x)
        r = _kmul(b[:n], x, n)[p:]
        x += map(neg, _kmul(x[:n - p], r, n - p))
    return x


def long_division(rem: list, step, lead: int) -> None:
    """Divide in place: rem holds a dividend's rows over consecutive
    quotient exponents and becomes the quotient by an integer divisor with
    leading coefficient lead > 0, whose other terms are ``step``: (offset in
    entries, minus its coefficient) pairs by offset.  q_i = rem_i // lead,
    then q_i * f is added to the entry k above it for each (k, f).  The
    caller scales rem so that every division is exact; lead 1 skips it."""
    unit, size = lead == 1, len(rem)
    # compress reads rem[i] only when the loop reaches i, after every
    # update to it, and skips the zero slots at C speed
    for i in compress(range(size), rem):
        c = rem[i]
        if not unit:
            rem[i] = c = c // lead
        for k, f in step:
            j = i + k
            if j >= size:
                break
            rem[j] += f * c


#: a dense Eulerian sum divides by (1 - c*q^d) by strided prefix sums when
#: d is at most 1/STRIDED of the window, else by doubling (measured; see
#: CHANGES.md)
STRIDED = 8


def times_one_minus(a: list, c, d: int) -> None:
    """a *= (1 - c*q^d) in place, a a dense list below its length, d > 0."""
    t = a[:-d]
    a[d:] = (map(sub, a[d:], t) if c == 1 else map(add, a[d:], t) if c == -1
             else map(sub, a[d:], map(mul, t, repeat(c))))


def over_one_minus(a: list, c: int, d: int) -> None:
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


class RowSum:
    """The running product and the total of an Eulerian sum as rows (see
    ``_coords``) over one positive denominator.  An int coefficient acts
    on every row at once, by ``times_one_minus``, ``over_one_minus`` or a
    slice ``map``, and so does a Rat divisor (``over``); any other
    coefficient acts through the integer matrix of its numerator
    (``_matrix``).  A denominator e of a coefficient multiplies den, and
    every list is rescaled to keep one den.  The conductor grows when a
    coefficient needs it."""

    __slots__ = ("m", "phi", "prod", "total", "den")

    def __init__(self, m: int, size: int):
        self.m, self.phi, self.den = m, euler_phi(m), 1
        self.total = [0] * (max(size, 0) * self.phi)
        self.prod = [1] + self.total[1:] if self.total else []

    def _matrix(self, c):
        """c's numerator matrix and denominator e; den and the total take e
        (the caller rescales prod)."""
        if type(c) is CycRat and self.m % c.n:
            m = lcm(self.m, c.n)
            lift = _galois(self.m, m, 1)
            self.prod, self.total = (_apply(lift, a, self.phi) for a in (self.prod, self.total))
            self.m, self.phi = m, euler_phi(m)
        e, mat = _matrix(c, self.m)
        if e != 1:
            self.den *= e
            self.total = _scaled(self.total, e)
        return mat, e

    def scale(self, f) -> None:
        """prod *= f."""
        self.prod = _apply(self._matrix(f)[0], self.prod, self.phi)

    def times(self, c, d: int) -> None:
        """prod *= 1 - c*q^d."""
        if type(c) is int:
            return times_one_minus(self.prod, c, d * self.phi)
        mat, e = self._matrix(c)
        d *= self.phi
        t = _apply(mat, self.prod[:-d], self.phi)
        if e != 1:
            self.prod = _scaled(self.prod, e)
        self.prod[d:] = map(sub, self.prod[d:], t)

    def over(self, c, d: int) -> None:
        """prod /= 1 - c*q^d: an int c by ``over_one_minus``, and a Rat
        c = p/e with d at most 1/STRIDED of the slots as e*prod over
        e - p*q^d by ``long_division`` (prod, the total and den scaled
        first by e^((slots - 1) // d), so that it is exact, and divided
        after by their gcd: with the scale of doubling, a sum's ints grow
        several times over); for c a root of unity of order k with k*d at
        most 1/STRIDED of the slots, prod times 1 + c q^d + ... +
        c^(k-1) q^((k-1)d), then over 1 - q^(kd) by prefix sums; else by
        doubling, prod times (1 + c^(2^i) q^(2^i d))."""
        phi = self.phi
        if type(c) is int:
            return over_one_minus(self.prod, c, d * phi)
        n = len(self.prod) // phi
        if type(c) is Rat and d * STRIDED <= n:
            e = c.denominator
            f = e ** ((n - 1) // d)
            self.den *= f
            self.total, self.prod = _scaled(self.total, f), _scaled(self.prod, f * e)
            long_division(self.prod, [(d * phi, c.numerator)], e)
            return self._reduce()
        k = _root_order(c)
        if k is None or k * d * STRIDED > n:
            while d < n:
                self.times(-c, d)
                c, d = c * c, 2 * d
            return
        mat, _ = self._matrix(c)
        d *= phi
        prod = s = self.prod
        for _ in range(k - 1):
            s = prod[:d] + list(map(add, prod[d:], _apply(mat, s[:-d], phi)))
        over_one_minus(s, 1, k * d)
        self.prod = s

    def _reduce(self) -> None:
        """Divide den, prod and the total by their gcd."""
        g = gcd(self.den, *self.prod, *self.total)
        if g > 1:
            self.den //= g
            self.prod = [x // g for x in self.prod]
            self.total = [x // g for x in self.total]

    def add(self, i: int, c) -> None:
        """total += c * q^i * prod."""
        if type(c) is int:
            i *= self.phi
            total, prod = self.total, self.prod
            t = total[i:]
            total[i:] = (map(add, t, prod) if c == 1 else map(sub, t, prod) if c == -1
                         else map(add, t, map(mul, prod, repeat(c))))
            return
        mat, e = self._matrix(c)
        i *= self.phi
        t = _apply(mat, self.prod[:len(self.prod) - i], self.phi)
        if e != 1:
            self.prod = _scaled(self.prod, e)
        self.total[i:] = map(add, self.total[i:], t)

    def add_const(self, i: int, c) -> None:
        """total += c * q^i."""
        mat, e = self._matrix(c)
        if e != 1:
            self.prod = _scaled(self.prod, e)
        f, i = self.den // e, i * self.phi  # c = (numerator * f) / den
        for j, x in enumerate(mat):
            self.total[i + j] += x[0] * f

    def items(self):
        """(slot, coefficient) for each nonzero slot of the total."""
        return _join(self.total, self.den, self.m, 0)


def _scaled(a: list, e: int) -> list:
    return list(map(mul, a, repeat(e)))


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


def _apply(mat, a: list, phi: int) -> list:
    """Rows a (phi of them) mapped by the integer matrix mat, into new rows:
    row j is the sum over i of mat[j][i] times row i."""
    rows, k = [a[i::phi] for i in range(phi)], len(mat)
    out = [0] * (len(rows[0]) * k)
    for j, mj in enumerate(mat):
        acc = None
        for f, r in zip(mj, rows):
            if f:
                t = r if f == 1 else map(neg, r) if f == -1 else map(mul, r, repeat(f))
                acc = t if acc is None else map(add, acc, t)
        if acc is not None:
            out[j::k] = acc
    return out
