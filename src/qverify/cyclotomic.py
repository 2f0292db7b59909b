"""Exact arithmetic in cyclotomic number fields Q(zeta_N).

Coefficients throughout the engine are elements of some Q(zeta_N).  They are
represented as a tagged union:

* plain rationals stay native ``Rat`` objects (gmpy2.mpq when available,
  fractions.Fraction otherwise); inside a series an integral one is kept as
  a Python ``int`` (see the series module);
* genuinely irrational elements are ``CycRat`` instances holding the
  coefficient vector over the power basis 1, z, ..., z^(phi(N)-1) of
  Q(zeta_N), z = exp(2*pi*i/N), reduced mod the N-th cyclotomic polynomial.

Every ``CycRat`` is canonical: N is the smallest conductor whose field
contains the element (never 1, 2, or congruent to 2 mod 4), and a vector that
is secretly rational is demoted to a plain ``Rat``.  Canonical form makes
equality and hashing structural, which the series layer relies on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DivisionByZero, UnsupportedSubstitution

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is optional (the `gmpy2` extra)
    Rat = Fraction

_RAT = type(Rat(1))
#: types acceptable wherever a rational is expected
RAT_TYPES = (int, Fraction, _RAT)

ZERO = Rat(0)
ONE = Rat(1)


def rat(p, q=1):
    """Exact rational from integers, strings like '5/8', or Fractions; a Rat
    (immutable) is returned as it is."""
    if type(p) is _RAT and q == 1:
        return p
    if type(p) is int and type(q) is int:
        return Rat(p, q)
    if q != 1:
        return Rat(p) / Rat(q)
    if isinstance(p, str):
        num, _, den = p.partition("/")
        return Rat(int(num)) / Rat(int(den)) if den else Rat(int(num))
    if isinstance(p, Fraction):
        return Rat(p.numerator) / Rat(p.denominator)
    return Rat(p)


def rat_den(x) -> int:
    """Denominator of a rational as a plain int."""
    return int(x.denominator) if not isinstance(x, int) else 1


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


def _reduce_mod_cyclo(vec: list, n: int) -> tuple:
    """Reduce a polynomial (ascending coeff list over Rat) mod Phi_n."""
    phi = euler_phi(n)
    cyc = cyclotomic_coeffs(n)
    v = list(vec)
    if len(v) < phi:
        v.extend([ZERO] * (phi - len(v)))
    for d in range(len(v) - 1, phi - 1, -1):
        c = v[d]
        if c:
            # subtract c * x^(d-phi) * Phi_n  (Phi_n is monic of degree phi)
            base = d - phi
            for i in range(phi + 1):
                if cyc[i]:
                    v[base + i] -= c * cyc[i]
    return tuple(v[:phi])


@lru_cache(maxsize=None)
def _lift_power(n: int, m: int, i: int) -> tuple:
    """zeta_n^i expressed in the power basis of Q(zeta_m), n | m."""
    k = (m // n) * i
    vec = [ZERO] * (k + 1)
    vec[k] = ONE
    return _reduce_mod_cyclo(vec, m)


def _lift(coeffs: tuple, n: int, m: int) -> tuple:
    """Re-express a conductor-n coefficient vector in conductor m (n | m)."""
    if n == m:
        return coeffs
    out = [ZERO] * euler_phi(m)
    for i, c in enumerate(coeffs):
        if c:
            for jdx, b in enumerate(_lift_power(n, m, i)):
                if b:
                    out[jdx] += c * b
    return tuple(out)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _subfield_basis(n: int, d: int) -> tuple:
    """Power basis of Q(zeta_d) written as conductor-n vectors (d | n)."""
    return tuple(_lift_power(d, n, i) for i in range(euler_phi(d)))


def _solve_in_subfield(vec: tuple, n: int, d: int):
    """Coefficients of vec over the zeta_d power basis, or None."""
    basis = _subfield_basis(n, d)
    rows = euler_phi(n)
    cols = len(basis)
    # Gaussian elimination on the (rows x cols | vec) system.
    aug = [[basis[j][i] for j in range(cols)] + [vec[i]] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((k for k in range(r, rows) if aug[k][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][c]
        aug[r] = [a * inv for a in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c]:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    sol = [ZERO] * cols
    for row, c in zip(aug, piv_cols):
        sol[c] = row[-1]
    # consistency: rows below the pivots must have zero RHS
    for k in range(len(piv_cols), rows):
        if aug[k][-1]:
            return None
    # verify (cheap, and guards against a rank-deficient corner case)
    for i in range(rows):
        acc = ZERO
        for j in range(cols):
            if sol[j]:
                acc += sol[j] * basis[j][i]
        if acc != vec[i]:
            return None
    return tuple(sol)


def _canonical(n: int, vec: tuple):
    """Return the canonical Rat | CycRat for a conductor-n vector."""
    if all(c == 0 for c in vec[1:]):
        return vec[0] if isinstance(vec[0], RAT_TYPES) else rat(vec[0])
    for d in _divisors(n):
        if d < 3 or d % 4 == 2 or d == n:
            continue
        sol = _solve_in_subfield(vec, n, d)
        if sol is not None:
            return CycRat(d, sol)
    return CycRat(n, vec)


class CycRat:
    """A (non-rational) element of Q(zeta_n) in canonical form.

    Do not construct directly unless the (n, coeffs) pair is already
    canonical; use :func:`zeta` and arithmetic instead.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        self.n = n
        self.coeffs = coeffs

    # -- arithmetic -------------------------------------------------------

    def _binop_vecs(self, other):
        if isinstance(other, RAT_TYPES):
            other_n, other_c = 1, (rat(other),)
        elif isinstance(other, CycRat):
            other_n, other_c = other.n, other.coeffs
        else:
            return None
        m = lcm(self.n, other_n)
        return m, _lift(self.coeffs, self.n, m), _lift(other_c, other_n, m)

    def __add__(self, other):
        lifted = self._binop_vecs(other)
        if lifted is None:
            return NotImplemented
        m, a, b = lifted
        return _canonical(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __sub__(self, other):
        lifted = self._binop_vecs(other)
        if lifted is None:
            return NotImplemented
        m, a, b = lifted
        return _canonical(m, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycRat(self.n, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, RAT_TYPES):
            if other == 0:
                return ZERO
            r = rat(other)
            return CycRat(self.n, tuple(c * r for c in self.coeffs))
        if not isinstance(other, CycRat):
            return NotImplemented
        m = lcm(self.n, other.n)
        a = _lift(self.coeffs, self.n, m)
        b = _lift(other.coeffs, other.n, m)
        prod = [ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _canonical(m, _reduce_mod_cyclo(prod, m))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        n = self.n
        # a(x) * u(x) + Phi_n(x) * v(x) = 1 in Q[x]
        a = list(self.coeffs)
        b = [rat(c) for c in cyclotomic_coeffs(n)]
        # extended gcd over Q[x], tracking coefficients for a only
        r0, r1 = b, a
        s0, s1 = [ZERO], [ONE]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        while True:
            d1 = deg(r1)
            if d1 < 0:
                raise DivisionByZero("inverse of zero cyclotomic element")
            if d1 == 0:
                inv = ONE / r1[0]
                u = [c * inv for c in s1]
                return _canonical(n, _reduce_mod_cyclo(u, n))
            d0 = deg(r0)
            if d0 < d1:
                r0, r1 = r1, r0
                s0, s1 = s1, s0
                continue
            f = r0[d0] / r1[d1]
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[i + shift] -= f * r1[i]
            if len(s0) < len(s1) + shift:
                s0 = s0 + [ZERO] * (len(s1) + shift - len(s0))
            for i in range(len(s1)):
                s0[i + shift] -= f * s1[i]
            if deg(r0) < d1:
                r0, r1 = r1, r0
                s0, s1 = s1, s0

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
            return self.n == other.n and self.coeffs == other.coeffs
        if isinstance(other, RAT_TYPES):
            return False  # canonical CycRat is never rational
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __bool__(self):
        return True  # canonical CycRat is never zero

    def __reduce__(self):
        return (CycRat, (self.n, self.coeffs))

    def __repr__(self):
        return coeff_str(self)


def zeta(k: int, n: int):
    """The root of unity zeta_n^k = exp(2*pi*i*k/n), canonical Rat | CycRat."""
    if n <= 0:
        raise ValueError("conductor must be positive")
    k %= n
    g = gcd(k, n)
    if g:
        k, n = k // g, n // g
    if n == 1:
        return ONE
    if n == 2:
        return -ONE
    if n % 4 == 2:
        # Q(zeta_{2m}) = Q(zeta_m) for odd m: zeta_{2m}^k = (-1)^k zeta_m^k...
        # precisely zeta_{2m}^k = zeta_m^{k/2} if k even, else -zeta_m^{(k+m)/2 mod m}
        m = n // 2
        if k % 2 == 0:
            return zeta(k // 2, m)
        return -zeta(((k + m) // 2) % m, m)
    vec = [ZERO] * (k + 1)
    vec[k] = ONE
    return _canonical(n, _reduce_mod_cyclo(vec, n))


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
    for i, c in enumerate(x.coeffs):
        if not c:
            continue
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
