"""Dense kernels of the series layer.

``kronecker`` multiplies two term dicts with int or Rat coefficients by
Kronecker substitution (one multiply of two Python ints); ``series``
chooses it over its term loop by the threshold here.  ``times_one_minus``
and ``over_one_minus`` multiply and divide a dense list of coefficients
(int, Rat or CycRat) by a binomial (1 - c*q^d) in place, by slice ``map``
and strided prefix sums; they step the Eulerian engine (``eulerian``).

They are a module of their own because each module is compiled when it is
imported without a bytecode cache, and the peak memory of that compile
grows with the module: with this code inside ``series``, the peak resident
memory of a benchmark run rose by about 2 %.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import lcm
from operator import add, mul, sub

from .cyclotomic import CycRat, Rat


#: a product of series takes ``kronecker`` when it has more than this many
#: term pairs per output slot (measured; see CHANGES.md)
KRON_PAIRS = 12


def kronecker(at: dict, bt: dict, window):
    """The product of two term dicts below window (None: all of it) by
    Kronecker substitution; None when it has at most KRON_PAIRS term pairs
    per output slot or a side holds a CycRat.

    Each side is scaled to ints by the lcm of its denominators and read as
    the digits, one per exponent, of one int; one multiply convolves them.
    A digit has nb bytes: a product coefficient is at most max|a| * max|b|
    * min(nnz) in size, plus a sign bit.  Digits are packed and unpacked
    offset by half their range, so that negative ones need no borrow."""
    if min(len(at), len(bt)) <= KRON_PAIRS:  # so, untruncated, is the density
        return None
    va, vb = min(at), min(bt)
    la = (max(at) if window is None else min(max(at), window - vb - 1)) - va + 1
    lb = (max(bt) if window is None else min(max(bt), window - va - 1)) - vb + 1
    slots = la + lb - 1 if window is None else min(la + lb - 1, window - va - vb)
    if slots < 1 or len(at) * len(bt) <= KRON_PAIRS * slots:
        return None
    sides = []
    for t, v, n in ((at, va, la), (bt, vb, lb)):
        types = set(map(type, t.values()))
        if CycRat in types:
            return None
        coeffs = list(map(t.get, range(v, v + n), repeat(0)))
        d = 1
        if Rat in types:
            d = lcm(*(c.denominator for c in t.values()))
            coeffs = [c.numerator * (d // c.denominator) for c in coeffs]
        sides.append((coeffs, d, max(map(abs, coeffs))))
    (ca, da, ma), (cb, db, mb) = sides
    nb = (ma * mb * min(len(at), len(bt))).bit_length() // 8 + 1
    half, unit, fb = 1 << (8 * nb - 1), bytes(nb - 1) + b"\x80", int.from_bytes

    def pack(coeffs):
        digits = map(int.to_bytes, map(add, coeffs, repeat(half)), repeat(nb), repeat("little"))
        return fb(b"".join(digits), "little") - fb(unit * len(coeffs), "little")

    c = pack(ca) * pack(cb) + fb(unit * slots, "little")
    buf = (c & ((1 << 8 * nb * slots) - 1)).to_bytes(nb * slots, "little")
    k0, d = va + vb, da * db
    digits = [fb(buf[i:i + nb], "little") - half for i in range(0, nb * slots, nb)]
    if d == 1:
        return {k0 + i: c for i, c in enumerate(digits) if c}
    return {k0 + i: c // d if c % d == 0 else Rat(c, d) for i, c in enumerate(digits) if c}


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
