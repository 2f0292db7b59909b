"""Truncated q-series with exact cyclotomic-rational coefficients.

A :class:`QMonomial` is c*q^e with c a nonzero coefficient and e an exact
rational.  A :class:`QSeries` stores finitely many terms on the exponent grid
(1/scale)*Z together with a truncation *order*: all coefficients of exponents
strictly below order/scale are exactly known (order None means the series is
exact everywhere, e.g. a polynomial).  Every operation computes the largest
window on which the result is sound:

* product window  = min(Ka + val(B), Kb + val(A))
* quotient window = min(Ka - val(B), Kb - 2*val(B) + val(A)), dropping the
  term of an exact side (long division against B's leading term; the
  inverse is the quotient 1/B, window Kb - 2*val(B))

where val is the smallest stored exponent (or the window itself when the
known part is empty).  An exact monomial divisor gives an exact shift; two
exact sides need a window hint.

A coefficient, in a series or a ``QMonomial``, is an ``int`` when it is
integral and otherwise a ``Rat`` or ``CycRat``, and a monomial's exponent
is an ``int`` or a fractional ``Rat``.  The one helper :func:`_int` turns
an integral Rat into an int: ``QMonomial`` applies it to every argument
that is not an int, and a series where a coefficient enters it
(``from_coeff``, the walkers' step factors, every coefficient of a sparse
product); a monomial's coefficient enters a series as it is, and the dense
kernels hand an integral coefficient out as an int.  Sums and products of
ints stay ints, so integral series (theta functions, Eulerian and Hecke
sums with +-1 coefficients) are summed and convolved on Python ints, and
monomials such as q^2 build no Fraction; any other coefficient turns the
terms it touches into ``Rat | CycRat`` by the usual arithmetic, and a sum
of Rats (1/2 + 1/2) in the accumulator may leave an integral Rat.  No
coefficient or exponent meets ``/`` or a negative ``**`` (an int would
become a float): inverses go through ``cinv``/``cpow``, and a quotient of
exponents through ``rat``, which refuses a float.

A QSeries has two coefficient kernels, the product (``__mul__``) and long
division (``divide``), both on the integer rows of ``kernels``: each side
is split at the common conductor M into phi(M) rows of integer
coordinates over one denominator (one row at M = 1, a rational series),
interleaved slot by slot in one list.
A product with more than ``kernels.KRON_PAIRS`` term pairs per output slot,
at any conductor, is one multiply of two
Python ints by Kronecker substitution (``kernels.kronecker``); any other
product is a sum in the accumulator ``_Acc``, the larger side times each
term of the smaller.  Division (``kernels.quotient``) makes
a CycRat divisor rational by its Galois conjugates and long-divides the
dividend's rows.  On rows, a coefficient is made canonical once, where
it leaves the kernel, and an integral one is an int.

Every other coefficient operation is one call of the accumulator ``_Acc``:
sums and differences, negation, products by a scalar or a monomial, and
division by an exact monomial.  The sparse sums (j(x;q), f_{a,b,c} and
the Appell-Lerch sums) are built in place in the same accumulator and
frozen once into a QSeries; the Eulerian sums run on dense lists
(``eulerian``).

Where exponents are quadratic in the summation indices, each term is its
neighbour times a monomial: the walker ``_walk`` steps such a sequence and
stops past the window once its exponents rise, and ``_walk2`` runs one
``_walk`` per row of a double sum (f_{a,b,c}, the Appell-Lerch sums).

A QSeries is immutable: its ``terms`` are a read-only ``MappingProxyType``.
Every cached series evaluator (``theta.jtheta``, ``theta.poch_inf``, the
Appell-Lerch heads and each catalog definition) is decorated with
:func:`memo`, one cache per evaluator keyed on all its arguments, the order
included; every call with the same arguments gets the kept series itself,
and :func:`clear_memos` empties every such cache at the start of a run.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, inf, lcm
from types import MappingProxyType

from . import kernels

from .cyclotomic import (
    CycRat,
    RAT_TYPES,
    Rat,
    as_coeff,
    cinv,
    coeff_root,
    coeff_str,
    rat,
    rat_den,
)
from .errors import (
    DivisionByZero,
    OrderExceeded,
    UnsupportedSubstitution,
)


def ceil_rat(x) -> int:
    """Ceiling of an exact rational as int."""
    return -((-x.numerator) // x.denominator)


def operand_orders(order, va, vb, op="*"):
    """The orders below which A and B must be known for A*B (op "*") or A/B
    (op "/") to be known below ``order``, given val(A) = va and val(B) = vb:
    the product and quotient windows above, solved for Ka and Kb."""
    if op == "*":
        return order - vb, order - va
    return order + vb, order + 2 * vb - va


def common_scale(*exponents) -> int:
    """Smallest grid that carries all the given rational exponents."""
    s = 1
    for e in exponents:
        s = lcm(s, rat_den(e))
    return s


def _int(c):
    """A series coefficient from c: an integral Rat becomes an int; an int,
    another Rat or a CycRat is returned as it is."""
    if type(c) is Rat and c.denominator == 1:
        return c.numerator
    return c


class QMonomial:
    """c * q^e with exact coefficient and exponent; immutable and hashable.

    An integral coefficient or exponent is stored as an int (see the module
    docstring), so c*q^e built from ints or from Rats is one monomial,
    equal and hashed alike, and q^2 builds no Fraction."""

    __slots__ = ("coeff", "expo")

    def __init__(self, coeff, expo=0):
        if type(coeff) is not int:
            coeff = _int(as_coeff(coeff))
        if not coeff:
            raise ValueError("QMonomial coefficient must be nonzero")
        if type(expo) is not int:
            expo = _int(rat(expo))
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "expo", expo)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("QMonomial is immutable")

    def __mul__(self, other):
        if not isinstance(other, QMonomial):
            return NotImplemented
        return QMonomial(self.coeff * other.coeff, self.expo + other.expo)

    def __truediv__(self, other):
        if not isinstance(other, QMonomial):
            return NotImplemented
        return QMonomial(self.coeff * cinv(other.coeff), self.expo - other.expo)

    def inverse(self):
        return QMonomial(cinv(self.coeff), -self.expo)

    def __neg__(self):
        return QMonomial(-self.coeff, self.expo)

    def __pow__(self, e):
        if type(e) is int:
            num, den = e, 1
        else:
            e = rat(e)
            num, den = e.numerator, e.denominator
        return QMonomial(coeff_root(self.coeff, num, den), self.expo * e)

    @property
    def is_one(self) -> bool:
        return self.expo == 0 and self.coeff == 1

    def __eq__(self, other):
        if not isinstance(other, QMonomial):
            return NotImplemented
        return self.expo == other.expo and self.coeff == other.coeff

    def __hash__(self):
        return hash((self.expo, self.coeff))

    def __reduce__(self):
        return (QMonomial, (self.coeff, self.expo))

    def __repr__(self):
        if self.expo == 0:
            return coeff_str(self.coeff)
        qpart = "q" if self.expo == 1 else f"q^({self.expo})"
        if self.coeff == 1:
            return qpart
        if self.coeff == -1:
            return f"-{qpart}"
        return f"{coeff_str(self.coeff)}*{qpart}"


MONO_ONE = QMonomial(1, 0)
MONO_Q = QMonomial(1, 1)


def qmono(coeff=1, expo=0) -> QMonomial:
    return QMonomial(coeff, expo)


class QSeries:
    """Sparse truncated series over the exponent grid (1/scale)*Z."""

    __slots__ = ("scale", "order", "terms")

    def __init__(self, scale: int, order, terms: dict):
        """Takes ownership of the dict ``terms`` and shows it read-only; keys
        at or past a finite order are dropped, copying the dict only then."""
        self.scale = scale
        self.order = order
        if order is not None and terms and max(terms) >= order:
            terms = {k: c for k, c in terms.items() if k < order}
        self.terms = MappingProxyType(terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, scale: int = 1, order=None) -> "QSeries":
        return cls(scale, order, {})

    @classmethod
    def from_monomial(cls, m: QMonomial, scale=None) -> "QSeries":
        s = common_scale(m.expo) if scale is None else lcm(scale, common_scale(m.expo))
        return cls(s, None, {int(m.expo * s): m.coeff})

    @classmethod
    def from_coeff(cls, c) -> "QSeries":
        c = _int(as_coeff(c))
        return cls(1, None, {0: c} if c else {})

    # -- scale handling ----------------------------------------------------

    def rescaled(self, new_scale: int) -> "QSeries":
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise ValueError("can only refine the exponent grid")
        f = new_scale // self.scale
        order = None if self.order is None else self.order * f
        return QSeries(new_scale, order, {k * f: c for k, c in self.terms.items()})

    def minimize_scale(self) -> "QSeries":
        """The same series on the coarsest grid that carries its terms and,
        when finite, its window."""
        g = self.scale if self.order is None else gcd(self.scale, self.order)
        for k in self.terms:
            g = gcd(g, k)
            if g == 1:
                return self
        if g == 1:
            return self
        order = None if self.order is None else self.order // g
        return QSeries(self.scale // g, order, {k // g: c for k, c in self.terms.items()})

    @staticmethod
    def unify(a: "QSeries", b: "QSeries"):
        s = lcm(a.scale, b.scale)
        return a.rescaled(s), b.rescaled(s)

    # -- inspection --------------------------------------------------------

    def effval(self):
        """Smallest exponent that could carry a nonzero coefficient (scaled).
        None means +infinity (the exact zero series)."""
        if self.terms:
            return min(self.terms)
        return self.order  # None (exact zero) or the window (unknown beyond)

    def coeff_at(self, e):
        """Exact coefficient of q^e (e in plain q-units); OrderExceeded beyond
        the known window."""
        e = rat(e)
        n = e * self.scale
        if self.order is not None and n >= self.order:
            raise OrderExceeded(
                f"coefficient of q^({e}) requested; series known below q^({rat(self.order, self.scale)})"
            )
        if n.denominator != 1:
            return rat(0)
        return self.terms.get(int(n), rat(0))

    def window_q(self):
        """Truncation order in plain q-units (Rat), or None if exact."""
        return None if self.order is None else rat(self.order, self.scale)

    def items_q(self):
        """Sorted (exponent in q-units, coefficient) pairs."""
        return [(rat(k, self.scale), c) for k, c in sorted(self.terms.items())]

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "QSeries":
        return self.mul_monomial(QMonomial(-1))

    def __add__(self, other):
        return self._plus(MONO_ONE, other)

    def __sub__(self, other):
        return self._plus(QMonomial(-1), other)

    def _plus(self, m: QMonomial, other):
        """self + m*other, other a series or monomial, in one accumulator
        seeded with a copy of self's terms."""
        if isinstance(other, QMonomial):
            other = QSeries.from_monomial(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        acc = _Acc(self.scale, self.order, self.terms)
        acc.add_series(m, other)
        return acc.freeze()

    def mul_monomial(self, m: QMonomial) -> "QSeries":
        """m*self: the exponents shift by expo(m) on the grid refined to carry
        it, and so does the window; one ``_Acc.add_series`` call."""
        acc = _Acc()
        acc.add_series(m, self)
        return acc.freeze()

    def __mul__(self, other):
        """Product with a series, monomial or coefficient.  Two series are
        convolved below the module's product window, by ``kernels.kronecker``
        when that takes them, else in one ``_Acc`` that adds the larger side
        times each term of the smaller; an integral coefficient of the
        product is an int."""
        if isinstance(other, QMonomial):
            return self.mul_monomial(other)
        if isinstance(other, RAT_TYPES) or isinstance(other, CycRat):
            if not other:
                return QSeries.zero(self.scale, None)
            return self.mul_monomial(QMonomial(other))
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = QSeries.unify(self, other)
        if not a.terms and a.order is None:
            return QSeries.zero(a.scale, None)
        if not b.terms and b.order is None:
            return QSeries.zero(a.scale, None)
        # sound window
        if a.order is None and b.order is None:
            window = None
        elif a.order is None:
            window = b.order + min(a.terms)
        elif b.order is None:
            window = a.order + min(b.terms)
        else:
            va = a.effval()
            vb = b.effval()
            window = min(a.order + vb, b.order + va)
        out = kernels.kronecker(a.terms, b.terms, window)
        if out is not None:
            return QSeries(a.scale, window, out)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        acc = _Acc(a.scale, window)
        for k, c in a.terms.items():
            acc.add_terms(b.terms, 1, k, c)
        if set(map(type, acc.terms.values())) - {int}:
            acc.terms = {k: _int(c) for k, c in acc.terms.items()}
        return acc.freeze()

    __rmul__ = __mul__

    def inverse(self, window_hint=None) -> "QSeries":
        """Multiplicative inverse, ``1.divide(self, window_hint)``: for a
        finite-order series the window is order - 2*val; an exact
        non-monomial series needs a window_hint (scaled units)."""
        return QSeries.from_coeff(1).divide(self, window_hint)

    def divide(self, other: "QSeries", window_hint=None) -> "QSeries":
        """self / other by long division against other's leading term b_0:
        q_n = (a_{n+v_b} - sum_{k>0} b_k q_{n-k}) / b_0, in
        O(window * nnz(other)) with no second product, on integer rows
        (``kernels.quotient``): other, made rational, is divided by its
        content (the gcd of its scaled coefficients, signed like b_0) and
        the quotient is scaled back once at the end, so a leading
        coefficient of -1, or of +-content, takes the unit path; any other
        leading coefficient costs one exact integer division per quotient
        term, the dividend scaled once by a power of it.

        The window is the module's quotient window; an exact divisor with
        one term gives an exact shift.  window_hint (scaled units, on the
        common grid) is read only when both sides are exact and the divisor
        has several terms, and is then required.
        """
        a, b = QSeries.unify(self, other)
        if not b.terms:
            raise DivisionByZero("division by a series with no known nonzero term")
        if not a.terms and a.order is None:
            return QSeries.zero(a.scale, None)
        vb = min(b.terms)
        if b.order is None and len(b.terms) == 1:
            return a.mul_monomial(QMonomial(cinv(b.terms[vb]), rat(-vb, a.scale)))
        va = a.effval()
        if b.order is None:
            if a.order is None:
                if window_hint is None:
                    raise ValueError("window_hint required to divide two exact series")
                window = window_hint + va
            else:
                window = a.order - vb
        elif a.order is None:
            window = b.order - 2 * vb + va
        else:
            window = min(a.order - vb, b.order - 2 * vb + va)
        out = kernels.quotient(a.terms, b.terms, window) if a.terms else {}
        return QSeries(a.scale, window, out)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = QSeries(self.scale, None, {0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def truncate(self, order_scaled: int) -> "QSeries":
        order = order_scaled if self.order is None else min(self.order, order_scaled)
        return QSeries(self.scale, order, {k: c for k, c in self.terms.items() if k < order})

    def truncate_q(self, order_q) -> "QSeries":
        """Truncate to a window given in plain q-units."""
        return self.truncate(ceil_rat(rat(order_q) * self.scale))

    # -- comparison ---------------------------------------------------------

    @staticmethod
    def first_difference(a: "QSeries", b: "QSeries"):
        """None if the series agree on the common known window; otherwise
        (exponent as Rat in q-units, coeff of a, coeff of b) at the smallest
        disagreement."""
        a, b = QSeries.unify(a, b)
        window = min((o for o in (a.order, b.order) if o is not None), default=None)
        keys = set(a.terms) | set(b.terms)
        if window is not None:
            keys = {k for k in keys if k < window}
        zero = rat(0)
        for k in sorted(keys):
            ca = a.terms.get(k, zero)
            cb = b.terms.get(k, zero)
            if ca != cb:
                return (rat(k, a.scale), ca, cb)
        return None

    def __repr__(self):
        items = self.items_q()
        shown = ", ".join(f"q^({e})*{coeff_str(c)}" for e, c in items[:8])
        if len(items) > 8:
            shown += ", ..."
        w = "exact" if self.order is None else f"O(q^({self.window_q()}))"
        return f"QSeries[{shown} | {w}]"


#: the caches of every :func:`memo` evaluator, emptied by :func:`clear_memos`
_MEMOS = []


def memo(fn):
    """Cache the series-valued ``fn`` on all its arguments, the order
    included: ``functools.lru_cache``, so every call with the same
    arguments gets the kept series itself (a QSeries is read-only) and
    ``cache_info`` counts the hits; :func:`clear_memos` empties the
    cache."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def clear_memos() -> None:
    """Empty the cache of every :func:`memo` evaluator."""
    for cached in _MEMOS:
        cached.cache_clear()


def _add(terms: dict, k: int, c) -> None:
    """terms[k] += c, dropping the key when the sum is zero."""
    cur = terms.get(k)
    if cur is None:
        terms[k] = c
    else:
        s = cur + c
        if s:
            terms[k] = s
        else:
            del terms[k]


def _walk(acc: "_Acc", expo: int, step: int, step2: int, coeff, cstep, cratio) -> None:
    """Add the terms coeff*q^expo of a sequence into acc, on acc's grid.

    Term to term, expo grows by step and step by step2 >= 0; coeff is
    multiplied by cstep and cstep by cratio (each taken through ``_int``).  The exponents are convex, so
    the walk stops at the first one at or past acc's (finite) window once
    step >= 0 (step2 > 0 is needed when step starts negative).
    """
    terms, window = acc.terms, acc.order
    coeff, cstep, cratio = _int(coeff), _int(cstep), _int(cratio)
    grow = cratio != 1
    while expo < window or step < 0:
        if expo < window:
            _add(terms, expo, coeff)
        expo += step
        step += step2
        coeff = coeff * cstep
        if grow:
            cstep = cstep * cratio


def _walk2(acc: "_Acc", expo: int, coeff, row, col, cross) -> None:
    """Add the terms coeff*q^expo of a double sequence over i, j >= 0 into
    acc, one ``_walk`` over j per row i.  ``row`` steps row i's first term
    to row i + 1's and ``col`` steps row 0 in j, each as ``_walk``'s (step,
    step2, cstep, cratio); row to row, col's step grows by cross[0] >= 0 and
    its cstep is multiplied by cross[1].  So each row lies at or above its
    first term plus row 0's least partial sum in j, and the rows stop at the
    first whose bound is past acc's window once row's step >= 0 (both step2
    >= 0, and col's > 0 when its step starts negative)."""
    step, step2, cstep, cratio = row
    jstep, jstep2, jcstep, jcratio = col
    dstep, dcstep = cross
    coeff, cstep, cratio, jcstep, dcstep = map(_int, (coeff, cstep, cratio, jcstep, dcstep))
    low, st = 0, jstep  # least partial sum of row 0's steps in j
    while st < 0:
        low, st = low + st, st + jstep2
    window = acc.order
    while expo + low < window or step < 0:
        if expo + low < window:
            _walk(acc, expo, jstep, jstep2, coeff, jcstep, jcratio)
        expo, step = expo + step, step + step2
        coeff, cstep = coeff * cstep, cstep * cratio
        jstep, jcstep = jstep + dstep, jcstep * dcstep


class _Acc:
    """A sum built in place in its own terms dict on the grid (1/scale)*Z,
    refined as the parts need, below a window (scaled units; None while
    every part is exact) that only falls; frozen once into a QSeries.
    It starts empty or from a copy of given terms, and series added to it
    are read, never changed, so ``QSeries`` sums, monomial products and
    sparse products are each one accumulator.  add_series reads only scale,
    order and terms, so one accumulator can be added into another; the
    walkers add into its terms directly.  Every coefficient it adds or
    multiplies by is an int when integral (a monomial's coefficient by
    construction, a walker's through ``_int``), and a multiplier of +-1
    only adds or negates."""

    __slots__ = ("scale", "order", "terms")

    def __init__(self, scale: int = 1, order=None, terms=()):
        self.scale = scale
        self.order = order
        self.terms = dict(terms)

    @classmethod
    def below(cls, order, terms=()) -> "_Acc":
        """An accumulator windowed at ``order`` (plain q-units), on its grid."""
        s = rat_den(order)
        return cls(s, int(order * s), terms)

    def refine(self, scale: int) -> None:
        """Refine the grid so that it also carries (1/scale)*Z."""
        s = lcm(self.scale, scale)
        if s != self.scale:
            f = s // self.scale
            self.terms = {k * f: c for k, c in self.terms.items()}
            if self.order is not None:
                self.order *= f
            self.scale = s

    def add_mono(self, m: QMonomial) -> None:
        self.refine(rat_den(m.expo))
        _add(self.terms, int(m.expo * self.scale), m.coeff)

    def add_series(self, m: QMonomial, s: QSeries) -> None:
        """Add m*s; the window falls to s's window shifted by m when that is
        lower (the grid is refined first, so the shift is on the new grid)."""
        self.refine(lcm(s.scale, rat_den(m.expo)))
        f = self.scale // s.scale
        shift = int(m.expo * self.scale)
        if s.order is not None and (self.order is None or s.order * f + shift < self.order):
            self.order = s.order * f + shift
        self.add_terms(s.terms, f, shift, m.coeff)

    def add_terms(self, terms, f: int, shift: int, c0) -> None:
        """Add c0 * terms[k] at exponent k*f + shift below the window.  The
        add into the dict is written out: every QSeries sum, monomial
        product and sparse product runs this loop once per term."""
        window = inf if self.order is None else self.order
        acc = self.terms
        get, unit, neg = acc.get, c0 == 1, c0 == -1
        for k, c in terms.items():
            k = k * f + shift
            if k < window:
                if not unit:
                    c = -c if neg else c * c0
                cur = get(k)
                if cur is not None:
                    c = cur + c
                    if not c:
                        del acc[k]
                        continue
                acc[k] = c

    def freeze(self) -> QSeries:
        """The sum as a QSeries, truncated below the window; the accumulator
        is spent."""
        s = QSeries(self.scale, self.order, self.terms)
        self.terms = None
        return s


def series_equal(a: QSeries, b: QSeries) -> bool:
    return QSeries.first_difference(a, b) is None


def compose_monomial(s: QSeries, m: QMonomial) -> QSeries:
    """Substitute q -> m (monomial with positive exponent) into the series:
    the result is on the grid of its terms' exponents and of its window,
    the image order*expo(m) of the series' window."""
    if m.expo <= 0:
        raise UnsupportedSubstitution("substitution base must have positive exponent")
    new_expos = {}
    for k, c in s.terms.items():
        # q^(k/scale) -> m^(k/scale)
        mk = m ** rat(k, s.scale)
        new_expos[k] = (mk.expo, c * mk.coeff)
    window = () if s.order is None else (rat(s.order, s.scale) * m.expo,)
    new_scale = common_scale(*([e for e, _ in new_expos.values()] or [m.expo]), *window)
    terms: dict = {}
    for e, c in new_expos.values():
        _add(terms, int(e * new_scale), c)
    return QSeries(new_scale, int(window[0] * new_scale) if window else None, terms)
