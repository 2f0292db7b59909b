"""Appell-Lerch sums and the classical Lambert-type series g, h, k.

The central object is

    m(x, base, z) = (1/j(z;base)) * sum_{r in Z} (-1)^r base^binom(r,2) z^r
                                               / (1 - base^{r-1} x z)

evaluated as a truncated series in q with exact coefficients.  The bilateral
sums (``bilateral_sum``) expand each summand mono(r) / (1 - w(r)) as the
geometric run sum_k mono(r) w(r)^k (in powers of 1/w(r) when its exponent is
negative), added in place into one accumulator.  Every evaluator
takes the desired window in plain q-units and is one call of the theta
module's quotient evaluator, which sizes each part's window from exact
valuations and builds it once: m, h and k divide a bilateral sum by one
theta function, g is an Eulerian sum over no denominator, and the theta
quotient ``changing_z_delta`` is one call of ``theta.theta_quotient``.
``eval_padded``, which re-runs a build with extra padding when its sound
window falls short of the requested one, is left as the runner's guard
around each side of an identity.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import rat
from .errors import GenericityError, QVerifyError
from .series import MONO_ONE, QMonomial, QSeries, _Acc, eulerian_sum, qmono
from .theta import _check_base, binom2, quotient, theta_quotient


#: evaluations `eval_padded` makes before it gives up on reaching the order
_PAD_TRIES = 10


def eval_padded(build, order) -> QSeries:
    """Run `build(T)` from T = order until its sound window reaches `order`
    and return the result truncated to exactly `order`.

    Each round that falls short adds its shortfall plus one to T.  After
    `_PAD_TRIES` rounds short of `order`, raises QVerifyError naming the
    window reached, so no caller ever gets a shorter window back.
    """
    order = rat(order)
    pad = rat(0)
    for _ in range(_PAD_TRIES):
        res = build(order + pad)
        w = res.window_q()
        if w is None or w >= order:
            return res.truncate_q(order)
        pad += (order - w) + 1
    raise QVerifyError(f"sound window reached only q^({w}), short of the "
                       f"requested order {order}, after {_PAD_TRIES} evaluations")


def bilateral_sum(mono_of_r, w_of_r, T) -> QSeries:
    """sum_{r in Z} mono(r) / (1 - w(r)) truncated below q^T.

    mono(r) and w(r) are QMonomial-valued; the valuation of the r-th term
    (mono(r).expo, plus -w(r).expo when that exponent is negative) must be a
    convex function of r, which holds for the theta-like sums used here.
    Each direction of r stops at its first term past the window once the
    valuations stop falling; each summand is added as a geometric run.
    """
    T = rat(T)
    acc = _Acc.below(T)
    for r, dr in ((0, 1), (-1, -1)):
        prev = None
        while True:
            mono, w = mono_of_r(r), w_of_r(r)
            v = mono.expo - min(w.expo, 0)
            if v >= T and prev is not None and v >= prev:
                break
            acc.add_geom(mono, w)
            prev = v
            r += dr
    return acc.freeze()


@lru_cache(maxsize=None)
def m_eval(x: QMonomial, base: QMonomial, z: QMonomial, order) -> QSeries:
    """m(x, base, z), known below q^order."""
    _check_base(base)
    return quotient(MONO_ONE, lambda K: bilateral_sum(
        lambda r: (base ** binom2(r)) * (z**r) * qmono(-1 if r % 2 else 1),
        lambda r: (base ** (r - 1)) * x * z,
        K,
    ), ((z, base),), order)


def changing_z_delta(x: QMonomial, base: QMonomial, z1: QMonomial, z0: QMonomial, order) -> QSeries:
    """The theta quotient equal to m(x,base,z1) - m(x,base,z0):

        z0 J_1^3 j(z1/z0;base) j(x z0 z1;base)
        / (j(z0;base) j(z1;base) j(x z0;base) j(x z1;base)).
    """
    j1 = (base, base**3)  # J_1 = (base; base)_inf = j(base; base^3)
    num = (j1, j1, j1, (z1 / z0, base), (x * z0 * z1, base))
    den = tuple((arg, base) for arg in (z0, z1, x * z0, x * z1))
    return theta_quotient(z0, num, den, order)


# ---------------------------------------------------------------------------
# Lambert-type series g, h, k
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def g_eval(x: QMonomial, base: QMonomial, order) -> QSeries:
    """g(x, base) = x^{-1} (-1 + sum_{n>=0} base^{n^2} / ((x;base)_{n+1} (base/x;base)_n)).

    One call of the Eulerian engine, ``series.eulerian_sum``, as the
    numerator of the quotient evaluator with no denominator and prefactor
    x^{-1}: the sum runs to order + expo(x).  Its stop rule holds because
    both Pochhammer x's, x and base/x, have exponent >= 0.
    """
    _check_base(base)
    if x.expo < 0 or x.expo > base.expo:
        raise GenericityError(f"g(x, base) needs 0 <= expo(x) <= expo(base), got {x!r}")
    return quotient(x.inverse(), lambda K: eulerian_sum(
        K, lambda n: (base ** (n * n),),
        den=((x, base, lambda n: n + 1), (base / x, base, lambda n: n)),
        const=-1,
    ), (), order)


@lru_cache(maxsize=None)
def h_eval(x: QMonomial, base: QMonomial, order) -> QSeries:
    """h(x, base) = (1/j(base;base^2)) sum_n (-1)^n base^{n(n+1)} / (1 - base^n x)."""
    _check_base(base)
    return quotient(MONO_ONE, lambda K: bilateral_sum(
        lambda r: (base ** (r * (r + 1))) * qmono(-1 if r % 2 else 1),
        lambda r: (base**r) * x,
        K,
    ), ((base, base * base),), order)


@lru_cache(maxsize=None)
def k_eval(x: QMonomial, base: QMonomial, order) -> QSeries:
    """k(x, base) = (1/(x j(-base;base^4))) sum_n base^{n(2n+1)} / (1 - base^{2n} x^2)."""
    _check_base(base)
    return quotient(x.inverse(), lambda K: bilateral_sum(
        lambda r: base ** (r * (2 * r + 1)),
        lambda r: (base ** (2 * r)) * x * x,
        K,
    ), ((-base, base**4),), order)
