"""Exact arithmetic in cyclotomic number fields Q(zeta_N).

Coefficients throughout the engine are elements of some Q(zeta_N).  They are
represented as a tagged union:

* plain rationals are ``Rat`` (``fractions.Fraction``) objects; inside a
  series an integral one is kept as a Python ``int`` (see the series module);
* genuinely irrational elements are ``CycRat`` instances holding
  ``(n, nums, den)``: the element (sum of nums[i] * z^i) / den of Q(zeta_n),
  z = exp(2*pi*i/n).  ``nums`` are phi(n) Python ints, the coordinates over
  the power basis 1, z, ..., z^(phi(n)-1) reduced mod the n-th cyclotomic
  polynomial Phi_n, and ``den`` is one positive int with
  gcd(den, *nums) = 1.

Phi_n is monic with integer coefficients, so reduction mod Phi_n, lifting to
a larger conductor and the subfield bases stay integral, and every
operation runs on Python ints.  An ``int`` or ``Fraction`` operand enters as
a numerator and a denominator.

Every ``CycRat`` is canonical: n is the smallest conductor whose field
contains the element (never 1, 2, or congruent to 2 mod 4), and a vector that
is secretly rational is demoted to a plain ``Rat``.  :func:`_canonical` is
the one normaliser.  Canonical form makes equality and hashing structural,
which the series layer relies on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DivisionByZero, UnsupportedSubstitution

Rat = Fraction
#: types acceptable wherever a rational is expected
RAT_TYPES = (int, Fraction)

ZERO = Rat(0)
ONE = Rat(1)


def rat(p, q=1):
    """Exact rational from integers, strings like '5/8', or Fractions; a Rat
    (immutable) is returned as it is.  A float raises TypeError: it is
    inexact, and a Fraction made from one would hide that."""
    if type(q) is int:
        if type(p) is int:
            return Rat(p, q)
        if type(p) is Fraction and q == 1:
            return p
    if type(p) is float or type(q) is float:
        raise TypeError(f"rat({p!r}, {q!r}): a float is not an exact rational")
    if q != 1:
        return Rat(p) / Rat(q)
    if isinstance(p, str):
        num, _, den = p.partition("/")
        return Rat(int(num), int(den)) if den else Rat(int(num))
    return Rat(p)


def rat_den(x) -> int:
    """Denominator of a rational as a plain int."""
    return 1 if isinstance(x, int) else x.denominator


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending:
    x^n - 1 divided exactly by Phi_d for every proper divisor d of n."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        phi_d = cyclotomic_coeffs(d)
        deg = len(phi_d) - 1
        # synthetic division by the monic Phi_d, top coefficient first
        quot = [0] * (len(p) - deg)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = p[i + deg]
            if c:
                for j, f in enumerate(phi_d):
                    p[i + j] -= c * f
        p = quot
    return tuple(p)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_coeffs(n)) - 1


def _reduce_mod_cyclo(v: list, n: int) -> tuple:
    """Reduce a polynomial (ascending integer coefficient list, changed in
    place) mod Phi_n."""
    cyc = cyclotomic_coeffs(n)
    phi = len(cyc) - 1
    if len(v) < phi:
        v.extend([0] * (phi - len(v)))
    for d in range(len(v) - 1, phi - 1, -1):
        c = v[d]
        if c:
            # subtract c * x^(d-phi) * Phi_n  (Phi_n is monic of degree phi)
            base = d - phi
            for i in range(phi + 1):
                if cyc[i]:
                    v[base + i] -= c * cyc[i]
    return tuple(v[:phi])


def _mul_vecs(a: tuple, b: tuple, n: int) -> tuple:
    """Product of two conductor-n integer vectors, reduced mod Phi_n."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce_mod_cyclo(prod, n)


@lru_cache(maxsize=None)
def _lift_power(n: int, m: int, i: int) -> tuple:
    """zeta_n^i expressed in the power basis of Q(zeta_m), n | m."""
    k = (m // n) * i
    vec = [0] * (k + 1)
    vec[k] = 1
    return _reduce_mod_cyclo(vec, m)


def _lift(nums: tuple, n: int, m: int, a: int = 1) -> tuple:
    """Re-express a conductor-n coordinate vector in conductor m (n | m),
    with zeta_n sent to zeta_n^a (a Galois conjugate when a is prime to n)."""
    if n == m and a == 1:
        return nums
    out = [0] * euler_phi(m)
    for i, c in enumerate(nums):
        if c:
            for jdx, b in enumerate(_lift_power(n, m, a * i % n)):
                if b:
                    out[jdx] += c * b
    return tuple(out)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _subconductors(n: int) -> tuple[int, ...]:
    """Conductors of the proper subfields of Q(zeta_n) beyond Q, ascending."""
    return tuple(d for d in _divisors(n)[:-1] if d >= 3 and d % 4 != 2)


@lru_cache(maxsize=None)
def _subfield_basis(n: int, d: int) -> tuple:
    """Power basis of Q(zeta_d) written as conductor-n vectors (d | n)."""
    return tuple(_lift_power(d, n, i) for i in range(euler_phi(d)))


def _solve_in_subfield(nums: tuple, n: int, d: int):
    """Coordinates of the integer vector nums over the zeta_d power basis,
    or None when nums is not in Q(zeta_d).

    An element of Z[zeta_n] that lies in Q(zeta_d) lies in Z[zeta_d], whose
    power basis is integral, so a non-integral solution means nums is not in
    the subfield.  Fraction-free Gauss-Jordan elimination on the
    (rows x cols | nums) system; the lifted basis is independent, so every
    column gets a pivot.
    """
    basis = _subfield_basis(n, d)
    rows, cols = len(nums), len(basis)
    aug = [[b[i] for b in basis] + [nums[i]] for i in range(rows)]
    for c in range(cols):
        piv = next(k for k in range(c, rows) if aug[k][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        prow = aug[c]
        p = prow[c]
        for k in range(rows):
            f = aug[k][c]
            if k != c and f:
                aug[k] = [p * x - f * y for x, y in zip(aug[k], prow)]
    sol = []
    for c in range(cols):
        q, r = divmod(aug[c][-1], aug[c][c])
        if r:
            return None
        sol.append(q)
    sol = tuple(sol)
    # the pivot rows alone fix sol; lifting it back checks the other rows
    return sol if _lift(sol, d, n) == nums else None


def _lowest(den: int, nums: tuple) -> tuple[int, tuple]:
    """(den, nums) divided by gcd(den, *nums); den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return den // g, tuple(c // g for c in nums)
    return den, nums


def _canonical(n: int, vec: tuple):
    """Return the canonical Rat | CycRat for vec = (den, *nums): the element
    (sum of nums[i] * zeta_n^i) / den, with den > 0 and nums reduced mod
    Phi_n."""
    den, nums = _lowest(vec[0], vec[1:])
    if not any(nums[1:]):
        return Rat(nums[0], den)
    for d in _subconductors(n):
        sol = _solve_in_subfield(nums, n, d)
        if sol is not None:
            return CycRat(d, sol, den)
    return CycRat(n, nums, den)


class CycRat:
    """A (non-rational) element (sum of nums[i] * zeta_n^i) / den of
    Q(zeta_n) in canonical form.

    Do not construct directly unless (n, nums, den) is already canonical;
    use :func:`zeta` and arithmetic instead.
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums: tuple, den: int):
        self.n = n
        self.nums = nums
        self.den = den

    # -- arithmetic -------------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign * other, or NotImplemented."""
        n, a, da = self.n, self.nums, self.den
        if isinstance(other, CycRat):
            m = n if other.n == n else lcm(n, other.n)
            a = _lift(a, n, m)
            b, db = _lift(other.nums, other.n, m), other.den
        elif isinstance(other, RAT_TYPES):
            if not other:  # a dense list adds zeros at its empty slots
                return self
            m = n
            p, db = other.numerator, other.denominator
            b = (p,) + (0,) * (len(a) - 1)
        else:
            return NotImplemented
        if da == db:
            return _canonical(m, (da, *(x + sign * y for x, y in zip(a, b))))
        sb = sign * da
        return _canonical(m, (da * db, *(x * db + sb * y for x, y in zip(a, b))))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycRat(self.n, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, CycRat):
            n, on = self.n, other.n
            if n == on:
                m, a, b = n, self.nums, other.nums
            else:
                m = lcm(n, on)
                a, b = _lift(self.nums, n, m), _lift(other.nums, on, m)
            return _canonical(m, (self.den * other.den, *_mul_vecs(a, b, m)))
        if not isinstance(other, RAT_TYPES):
            return NotImplemented
        p, q = other.numerator, other.denominator
        if not p:  # zero times an element: an int zero stays an int, as in a series
            return 0 if type(other) is int else ZERO
        if q == 1 and (p == 1 or p == -1):  # a sign: no new vector to reduce
            return self if p == 1 else -self
        den, nums = _lowest(self.den * q, tuple(c * p for c in self.nums))
        return CycRat(self.n, nums, den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse from the norm: with c the product of the
        images of nums under zeta_n -> zeta_n^a (1 < a < n, a prime to n),
        the other Galois conjugates, nums * c is the integer N(nums), so
        1/x = den * c / N(nums)."""
        n, nums = self.n, self.nums
        conj = None
        for a in range(2, n):
            if gcd(a, n) == 1:
                s = _lift(nums, n, n, a)
                conj = s if conj is None else _mul_vecs(conj, s, n)
        norm = _mul_vecs(nums, conj, n)[0]
        sign = -self.den if norm < 0 else self.den
        return _canonical(n, (abs(norm), *(sign * c for c in conj)))

    def __truediv__(self, other):
        inv = cinv(other)
        return self * inv

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = base * result if result is not ONE else base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structure --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycRat):
            return (self.n == other.n and self.den == other.den
                    and self.nums == other.nums)
        if isinstance(other, RAT_TYPES):
            return False  # canonical CycRat is never rational
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.nums, self.den))

    def __bool__(self):
        return True  # canonical CycRat is never zero

    def __reduce__(self):
        return (CycRat, (self.n, self.nums, self.den))

    def __repr__(self):
        return coeff_str(self)


def zeta(k: int, n: int):
    """The root of unity zeta_n^k = exp(2*pi*i*k/n), canonical Rat | CycRat."""
    if n <= 0:
        raise ValueError("conductor must be positive")
    vec = [0] * (k % n + 1)
    vec[-1] = 1
    return _canonical(n, (1, *_reduce_mod_cyclo(vec, n)))


# -- dispatch helpers over Rat | CycRat ----------------------------------


def as_coeff(x):
    """Normalize ints/Fractions/strings to a canonical Rat | CycRat."""
    if isinstance(x, CycRat):
        return x
    return rat(x)


def cinv(x):
    if isinstance(x, CycRat):
        return x.inverse()
    if x == 0:
        raise DivisionByZero("division by zero coefficient")
    return ONE / x


def cpow(x, k: int):
    if isinstance(x, CycRat):
        return x ** k
    if k < 0:
        if x == 0:
            raise DivisionByZero("zero to a negative power")
        return ONE / (x ** (-k))
    return x ** k


@lru_cache(maxsize=None)
def _roots_of_unity(m: int) -> dict:
    """Map each root of unity of order dividing m to its exponent."""
    table = {}
    z = zeta(1, m)
    cur = as_coeff(1)
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * z
    return table

def root_of_unity_log(x):
    """If x is a root of unity return (j, m) with x = zeta_m^j in lowest
    terms, else None."""
    if isinstance(x, CycRat):
        m = lcm(2, x.n)
        j = _roots_of_unity(m).get(x)
        if j is None:
            return None
        g = gcd(j, m)
        return (j // g, m // g)
    if x == 1:
        return (0, 1)
    if x == -1:
        return (1, 2)
    return None


def coeff_root(x, num: int, den: int):
    """x**(num/den) for a root-of-unity coefficient: (zeta_m^j)^(num/den)
    is resolved as zeta_{m*den}^(j*num).  Raises otherwise."""
    if den == 1:
        return cpow(x, num)
    log = root_of_unity_log(x)
    if log is None:
        raise UnsupportedSubstitution(
            f"fractional power {num}/{den} of non-root-of-unity coefficient {coeff_str(x)}"
        )
    j, m = log
    return zeta(j * num, m * den)


def coeff_str(x) -> str:
    """Human-readable rendering used in reports: '3/2', 'zeta(1,3)', or a
    polynomial in zN like '(1/2 - 1/2*z12^2)'."""
    if not isinstance(x, CycRat):
        return str(x)
    log = root_of_unity_log(x)
    if log is not None:
        return f"zeta({log[0]},{log[1]})"
    parts = []
    for i, num in enumerate(x.nums):
        if not num:
            continue
        c = Fraction(num, x.den)
        mono = "1" if i == 0 else (f"z{x.n}" if i == 1 else f"z{x.n}^{i}")
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"+ {mono}" if parts else mono)
        elif c == -1:
            parts.append(f"- {mono}" if parts else f"-{mono}")
        else:
            cs = str(c)
            if parts and not cs.startswith("-"):
                parts.append(f"+ {cs}*{mono}")
            elif parts:
                parts.append(f"- {cs[1:]}*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
    return "(" + " ".join(parts) + ")"
