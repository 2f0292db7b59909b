"""Registry of classical mock theta functions.

Each entry pairs the defining Eulerian q-series (the ground-truth side,
summed exactly by the series module's Eulerian engine, memoized per order
for one run by ``series.memo``) with closed-form
representations in terms of Appell-Lerch sums ``m(x,q,z)``, the universal
functions ``g``/``h``/``k``, and theta quotients.  Representations are stored
as identity-DSL source strings so that the same data drives the test suite
and the command-line verifier: for every entry, each representation must
reproduce the Eulerian expansion coefficient by coefficient.

Entry names carry the traditional "order" label as a suffix, e.g. ``f0_5th``
for the fifth-order function f0(q) and ``phibar_6th`` for the sixth-order
function written with an underbar.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import rat
from .series import eulerian_sum, memo, qmono
from .errors import UnknownCatalogName

__all__ = ["CatalogEntry", "catalog_lookup", "catalog_names", "CATALOG"]


def _eulerian(monos_fn, num=(), den=(), const=None, start=0):
    """One Eulerian definition as a callable order -> series (order in
    q-units): ``eulerian_sum`` over its ``spec``, memoized per order."""
    spec = (monos_fn, num, den, const, start)

    @memo
    def definition(order):
        return eulerian_sum(order, *spec)

    definition.spec = spec
    return definition


def _ps(cx, ex, eb, count_fn):
    """Pochhammer spec (c*q^ex; q^eb)_{count_fn(n)}."""
    return (qmono(cx, ex), qmono(1, eb), count_fn)


def _qn(expo_fn, sign=None):
    """Single-monomial term builder q^{expo_fn(n)} with optional sign(n)."""
    if sign is None:
        return lambda n: (qmono(1, expo_fn(n)),)
    return lambda n: (qmono(sign(n), expo_fn(n)),)


_ALT = lambda n: -1 if n % 2 else 1  # noqa: E731 - (-1)^n sign

# count functions
_N = lambda n: n  # noqa: E731
_N1 = lambda n: n + 1  # noqa: E731
_NM1 = lambda n: n - 1  # noqa: E731
_2N = lambda n: 2 * n  # noqa: E731
_2N1 = lambda n: 2 * n + 1  # noqa: E731
_2N2 = lambda n: 2 * n + 2  # noqa: E731
_2NM1 = lambda n: 2 * n - 1  # noqa: E731
_2NM2 = lambda n: 2 * n - 2  # noqa: E731


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A named q-series with its defining sum and closed-form equivalents.

    ``eulerian`` (and each member of ``eulerian_alts``) maps an order in
    q-units, integral or not, to the exact truncated expansion, with int
    coefficients where they are integral and Rat | CycRat ones otherwise;
    it is one ``eulerian_sum`` over its ``spec``, memoized by
    ``series.memo``, so each order is summed once per run and every call
    gets its own copy.  ``representations`` holds identity-DSL
    expression sources, each equal to the Eulerian series.
    """

    name: str
    eulerian: object
    eulerian_alts: tuple = ()
    representations: tuple = ()


def _entry(name, eulerian, alts=(), reprs=()):
    return CatalogEntry(name, eulerian, tuple(alts), tuple(reprs))


_ENTRIES = [
    # ---- second order ----------------------------------------------------
    _entry(
        "A_2nd",
        _eulerian(_qn(lambda n: n + 1),
                  num=(_ps(-1, 2, 2, _N),), den=(_ps(1, 1, 2, _N1),)),
        alts=(
            _eulerian(_qn(lambda n: (n + 1) ** 2), num=(_ps(-1, 1, 2, _N),),
                      den=(_ps(1, 1, 2, _N1), _ps(1, 1, 2, _N1))),
        ),
        reprs=("-m(q, q^4, q^2)",),
    ),
    _entry(
        "B_2nd",
        _eulerian(_qn(lambda n: n), num=(_ps(-1, 1, 2, _N),), den=(_ps(1, 1, 2, _N1),)),
        alts=(
            _eulerian(_qn(lambda n: n * n + n), num=(_ps(-1, 2, 2, _N),),
                      den=(_ps(1, 1, 2, _N1), _ps(1, 1, 2, _N1))),
        ),
        reprs=("-q^(-1)*m(1, q^4, q^3)",),
    ),
    _entry(
        "mu_2nd",
        _eulerian(_qn(lambda n: n * n, _ALT), num=(_ps(1, 1, 2, _N),),
                  den=(_ps(-1, 2, 2, _N), _ps(-1, 2, 2, _N))),
        reprs=(
            "2*m(-q, q^4, -1) + 2*m(-q, q^4, q)",
            "4*m(-q, q^4, -1) - J[2,4]^4/Jm[1]^3",
        ),
    ),
    # ---- third order -----------------------------------------------------
    _entry(
        "f_3rd",
        _eulerian(_qn(lambda n: n * n), den=(_ps(-1, 1, 1, _N), _ps(-1, 1, 1, _N))),
        reprs=(
            "2 - 2*g(-1; q)",
            "2*m(-q, q^3, q) + 2*m(-q, q^3, q^2)",
            "4*m(-q, q^3, q) + J[3,6]^2/Jm[1]",
        ),
    ),
    _entry(
        "phi_3rd",
        _eulerian(_qn(lambda n: n * n), den=(_ps(-1, 2, 2, _N),)),
        reprs=(
            "(1 - zeta(1,4))*(1 + zeta(1,4)*g(zeta(1,4); q))",
            "(1 + zeta(1,4))*m(zeta(1,4)*q, q^3, -1)"
            " + (1 - zeta(1,4))*m(-zeta(1,4)*q, q^3, -1)",
            "m(q^5, q^12, q^4) + m(q^5, q^12, q^8)"
            " + q^(-1)*m(q, q^12, q^4) + q^(-1)*m(q, q^12, q^8)",
            "2*m(q, -q^3, -1) + 2*q*Jm[12]^3/(Jm[4]*J[3,12])",
        ),
    ),
    _entry(
        "psi_3rd",
        _eulerian(_qn(lambda n: n * n), den=(_ps(1, 1, 2, _N),), start=1),
        reprs=(
            "q*g(q; q^4)",
            "-q^(-1)*m(q, q^12, q^2) - m(q^5, q^12, q^2)",
            "-m(q, -q^3, -q) + q*Jm[12]^3/(Jm[4]*J[3,12])",
        ),
    ),
    _entry(
        "chi_3rd",
        _eulerian(_qn(lambda n: n * n),
                  num=(_ps(-1, 1, 1, _N),), den=(_ps(-1, 3, 3, _N),)),
        reprs=(
            "(1 + zeta(1,3))*(1 - zeta(1,3)*g(-zeta(1,3); q))",
            "2*m(-q, q^3, q^2) - m(-q, q^3, q)",
            "m(-q, q^3, q) + J[3,6]^2/Jm[1]",
        ),
    ),
    _entry(
        "omega_3rd",
        _eulerian(_qn(lambda n: 2 * n * (n + 1)),
                  den=(_ps(1, 1, 2, _N1), _ps(1, 1, 2, _N1))),
        reprs=(
            "g(q; q^2)",
            "-q^(-1)*m(q, q^6, q^2) - q^(-1)*m(q, q^6, q^4)",
            "-2*q^(-1)*m(q, q^6, q^2) + Jm[6]^3/(Jm[2]*J[3,6])",
        ),
    ),
    _entry(
        "nu_3rd",
        _eulerian(_qn(lambda n: n * (n + 1)), den=(_ps(-1, 1, 2, _N1),)),
        reprs=(
            "g(zeta(1,4)*q^(1/2); q)",
            "zeta(1,4)*q^(-1/2)*(m(zeta(1,4)*q^(1/2), q^3, -q)"
            " - m(-zeta(1,4)*q^(1/2), q^3, -q^2))",
            "q^(-1)*m(q^2, q^12, -q^3) + q^(-1)*m(q^2, q^12, -q^9)",
            "2*q^(-1)*m(q^2, q^12, -q^3) + Jm[1]*J[3,12]/Jm[2]",
        ),
    ),
    _entry(
        "rho_3rd",
        _eulerian(_qn(lambda n: 2 * n * (n + 1)),
                  num=(_ps(1, 1, 2, _N1),), den=(_ps(1, 3, 6, _N1),)),
        reprs=(
            "g(zeta(1,3)*q; q^2)",
            "-zeta(1,3)*q^(-1)*m(q, q^6, zeta(1,3)*q^4)"
            " - zeta(2,3)*q^(-1)*m(q, q^6, zeta(2,3)*q^2)",
            "q^(-1)*m(q, q^6, -q)",
        ),
    ),
    # ---- fifth order -----------------------------------------------------
    _entry(
        "f0_5th",
        _eulerian(_qn(lambda n: n * n), den=(_ps(-1, 1, 1, _N),)),
        reprs=(
            "J[5,10]*J[2,5]/Jm[1] - 2*q^2*g(q^2; q^10)",
            "m(q^14, q^30, q^14) + m(q^14, q^30, q^29)"
            " + q^(-2)*m(q^4, q^30, q^4) + q^(-2)*m(q^4, q^30, q^19)",
            "2*m(q^14, q^30, q^4) + 2*q^(-2)*m(q^4, q^30, q^4)"
            " + J[5,10]*J[2,5]/Jm[1]",
        ),
    ),
    _entry(
        "phi0_5th",
        _eulerian(_qn(lambda n: n * n), num=(_ps(-1, 1, 2, _N),)),
        reprs=(
            "q*g(-q; -q^5) + Jm[10]*j(-q^2; -q^5)/J[2,10]",
            "m(-q^7, -q^15, q^9) - q^(-1)*m(q^2, -q^15, q^9)",
        ),
    ),
    _entry(
        "psi0_5th",
        _eulerian(_qn(lambda n: (n + 1) * (n + 2) // 2), num=(_ps(-1, 1, 1, _N),)),
        reprs=(
            "q^2*g(q^2; q^10) + q*Jm[5]*J[1,10]/J[2,5]",
            "-m(q^14, q^30, q^3) - q^(-2)*m(q^4, q^30, q^3)",
        ),
    ),
    _entry(
        "F0_5th",
        _eulerian(_qn(lambda n: 2 * n * n), den=(_ps(1, 1, 2, _N),)),
        reprs=(
            "1 + q*g(q; q^5) - q*Jm[10]*JB[5,20]/J[4,10]",
            "-1/2*q^(-1)*m(q^2, q^15, q^2) - 1/2*q^(-1)*m(q^2, q^15, -q^2)"
            " + 1/2*m(q^8, q^15, q^8) + 1/2*m(q^8, q^15, -q^8)",
            "-q^(-1)*m(q^2, q^15, q) + m(q^8, q^15, q^4)"
            " - q*Jm[10]*JB[5,20]/J[4,10]",
        ),
    ),
    _entry(
        "chi0_5th",
        _eulerian(_qn(lambda n: n), num=(_ps(1, 1, 1, _N),), den=(_ps(1, 1, 1, _2N),)),
        alts=(
            _eulerian(_qn(lambda n: 2 * n + 1),
                      num=(_ps(1, 1, 1, _N),), den=(_ps(1, 1, 1, _2N1),),
                      const=1),
        ),
        reprs=(
            "2 + 3*q*g(q; q^5) - Jm[5]^2*J[2,5]/J[1,5]^2",
            "2 - 2*m(q^7, q^15, q^12) - m(q^7, q^15, q^9)"
            " - 2*q^(-1)*m(q^2, q^15, q^12) - q^(-1)*m(q^2, q^15, q^9)",
            "2 - 3*m(q^7, q^15, q^9) - 3*q^(-1)*m(q^2, q^15, q^4)"
            " + 2*Jm[5]^2*J[2,5]/J[1,5]^2",
        ),
    ),
    _entry(
        "f1_5th",
        _eulerian(_qn(lambda n: n * (n + 1)), den=(_ps(-1, 1, 1, _N),)),
        reprs=(
            "J[5,10]*J[1,5]/Jm[1] - 2*q^3*g(q^4; q^10)",
            "q^(-1)*m(q^8, q^30, q^8) + q^(-1)*m(q^8, q^30, q^23)"
            " + q^(-3)*m(q^2, q^30, q^2) + q^(-3)*m(q^2, q^30, q^17)",
            "2*q^(-1)*m(q^8, q^30, q^8) + 2*q^(-3)*m(q^2, q^30, q^(-8))"
            " + J[5,10]*J[1,5]/Jm[1]",
        ),
    ),
    _entry(
        "phi1_5th",
        _eulerian(_qn(lambda n: (n + 1) ** 2), num=(_ps(-1, 1, 2, _N),)),
        reprs=(
            "q^2*g(q^2; -q^5) + q*Jm[10]*j(q; -q^5)/J[4,10]",
            "q^(-1)*m(-q, -q^15, q^(-3)) - m(q^4, -q^15, q^3)",
        ),
    ),
    _entry(
        "psi1_5th",
        _eulerian(_qn(lambda n: n * (n + 1) // 2), num=(_ps(-1, 1, 1, _N),)),
        reprs=(
            "q^3*g(q^4; q^10) + Jm[5]*J[3,10]/J[1,5]",
            "-q^(-1)*m(q^8, q^30, q^(-9)) - q^(-3)*m(q^2, q^30, q^9)",
        ),
    ),
    _entry(
        "F1_5th",
        _eulerian(_qn(lambda n: 2 * n * (n + 1)), den=(_ps(1, 1, 2, _N1),)),
        reprs=(
            "q*g(q^2; q^5) + Jm[10]*JB[5,20]/J[2,10]",
            "-1/2*q^(-2)*m(q, q^15, q) - 1/2*q^(-2)*m(q, q^15, -q)"
            " - 1/2*q^(-1)*m(q^4, q^15, q^4) - 1/2*q^(-1)*m(q^4, q^15, -q^4)",
            "-q^(-2)*m(q, q^15, q^(-4)) - q^(-1)*m(q^4, q^15, q^4)"
            " + Jm[10]*JB[5,20]/J[2,10]",
        ),
    ),
    _entry(
        "chi1_5th",
        _eulerian(_qn(lambda n: n), num=(_ps(1, 1, 1, _N),), den=(_ps(1, 1, 1, _2N1),)),
        alts=(
            _eulerian(lambda n: (qmono(1, 2 * n + 1), qmono(1, 3 * n + 1)),
                      num=(_ps(1, 1, 1, _N),), den=(_ps(1, 1, 1, _2N1),),
                      const=1),
        ),
        reprs=(
            "3*q*g(q^2; q^5) + Jm[5]^2*J[1,5]/J[2,5]^2",
            "-2*q^(-1)*m(q^4, q^15, q^(-6)) - q^(-1)*m(q^4, q^15, q^3)"
            " - 2*q^(-2)*m(q, q^15, q^6) - q^(-2)*m(q, q^15, q^(-3))",
            "-3*q^(-1)*m(q^4, q^15, q^3) - 3*q^(-2)*m(q, q^15, q^2)"
            " - 2*Jm[5]^2*J[1,5]/J[2,5]^2",
        ),
    ),
    _entry(
        "Phi_5th",
        _eulerian(_qn(lambda n: 5 * n * n),
                  den=(_ps(1, 1, 5, _N1), _ps(1, 4, 5, _N)), const=-1),
        reprs=(
            "q*g(q; q^5)",
            "-q^(-1)*m(q^2, q^15, q^2) - m(q^7, q^15, q^2)",
        ),
    ),
    _entry(
        "Psi_5th",
        _eulerian(_qn(lambda n: 5 * n * n),
                  den=(_ps(1, 2, 5, _N1), _ps(1, 3, 5, _N)), const=-1),
        reprs=(
            "q^2*g(q^2; q^5)",
            "-q^(-1)*m(q, q^15, q^(-4)) - m(q^4, q^15, q^4)",
        ),
    ),
    # ---- sixth order -----------------------------------------------------
    _entry(
        "phi_6th",
        _eulerian(_qn(lambda n: n * n, _ALT),
                  num=(_ps(1, 1, 2, _N),), den=(_ps(-1, 1, 1, _2N),)),
        reprs=("2*m(q, q^3, -1)",),
    ),
    _entry(
        "psi_6th",
        _eulerian(_qn(lambda n: (n + 1) ** 2, _ALT),
                  num=(_ps(1, 1, 2, _N),), den=(_ps(-1, 1, 1, _2N1),)),
        reprs=("m(1, q^3, -q)",),
    ),
    _entry(
        "rho_6th",
        _eulerian(_qn(lambda n: n * (n + 1) // 2),
                  num=(_ps(-1, 1, 1, _N),), den=(_ps(1, 1, 2, _N1),)),
        reprs=("-q^(-1)*m(1, q^6, q)",),
    ),
    _entry(
        "sigma_6th",
        _eulerian(_qn(lambda n: (n + 1) * (n + 2) // 2),
                  num=(_ps(-1, 1, 1, _N),), den=(_ps(1, 1, 2, _N1),)),
        reprs=("-m(q^2, q^6, q)",),
    ),
    _entry(
        "lambda_6th",
        _eulerian(_qn(lambda n: n, _ALT),
                  num=(_ps(1, 1, 2, _N),), den=(_ps(-1, 1, 1, _N),)),
        reprs=(
            "q^(-1)*m(1, q^6, -q^2) + q^(-1)*m(1, q^6, -q)",
            "2*q^(-1)*m(1, q^6, -q^2) + J[1,2]*JB[3,12]/JB[1,4]",
        ),
    ),
    _entry(
        # The source's star-summation (average of even and odd partial sums)
        # is adopted through its equivalent closed Eulerian form
        # 1/2 + 1/2 * sum (-1)^n q^(n+1) (1+q^n) (q;q^2)_n / (-q;q)_(n+1).
        "mu_6th",
        _eulerian(
            lambda n: (qmono(rat(_ALT(n), 2), n + 1), qmono(rat(_ALT(n), 2), 2 * n + 1)),
            num=(_ps(1, 1, 2, _N),), den=(_ps(-1, 1, 1, _N1),),
            const=rat(1, 2)),
        reprs=(
            "m(q^2, q^6, -1) + m(q^2, q^6, -q^3)",
            "2*m(q^2, q^6, -1) - J[1,2]*JB[1,3]/(2*JB[1,4])",
        ),
    ),
    _entry(
        "gamma_6th",
        _eulerian(_qn(lambda n: n * n),
                  num=(_ps(1, 1, 1, _N),), den=(_ps(1, 3, 3, _N),)),
        reprs=(
            "(1 - zeta(1,3))*(1 + zeta(1,3)*g(zeta(1,3); q))",
            "2*m(q, q^3, -1) + m(q, q^3, -q)",
            "3*m(q, q^3, -q) + J[1,2]^2/JB[1,3]",
        ),
    ),
    _entry(
        "phibar_6th",
        _eulerian(_qn(lambda n: n),
                  num=(_ps(-1, 1, 1, _2NM1),), den=(_ps(1, 1, 2, _N),),
                  start=1),
        reprs=(
            "-3/4*m(q, q^3, q) - 1/4*m(q, q^3, -q)",
            "-m(q, q^3, q) - q*JB[3,12]^3/(Jm[1]*JB[1,4])",
        ),
    ),
    _entry(
        "psibar_6th",
        _eulerian(_qn(lambda n: n),
                  num=(_ps(-1, 1, 1, _2NM2),), den=(_ps(1, 1, 2, _N),),
                  start=1),
        reprs=(
            "-3/4*m(1, q^3, q) + 1/4*m(1, q^3, -q)",
            "-1/2*m(1, q^3, q) + q*Jm[6]^3/(2*Jm[1]*Jm[2])",
        ),
    ),
    # ---- seventh order ----------------------------------------------------
    _entry(
        "F0_7th",
        _eulerian(_qn(lambda n: n * n),
                  num=(_ps(1, 1, 1, _N),), den=(_ps(1, 1, 1, _2N),)),
        reprs=(
            "2 + 2*q*g(q; q^7) - J[3,7]^2/Jm[1]",
            "m(q^10, q^21, q^9) + m(q^10, q^21, q^(-9))"
            " - q^(-1)*m(q^4, q^21, q^9) - q^(-1)*m(q^4, q^21, q^(-9))",
            "2*m(q^10, q^21, q^9) - 2*q^(-1)*m(q^4, q^21, q^(-9))"
            " + J[3,7]^2/Jm[1]",
        ),
    ),
    _entry(
        "F1_7th",
        _eulerian(_qn(lambda n: n * n),
                  num=(_ps(1, 1, 1, _NM1),), den=(_ps(1, 1, 1, _2NM1),),
                  start=1),
        reprs=(
            "2*q^2*g(q^2; q^7) + q*J[1,7]^2/Jm[1]",
            "-m(q^8, q^21, q^3) - m(q^8, q^21, q^(-3))"
            " - q^(-2)*m(q, q^21, q^3) - q^(-2)*m(q, q^21, q^(-3))",
            "-2*m(q^8, q^21, q^3) - 2*q^(-2)*m(q, q^21, q^3)"
            " - q*J[1,7]^2/Jm[1]",
        ),
    ),
    _entry(
        "F2_7th",
        _eulerian(_qn(lambda n: n * (n + 1)),
                  num=(_ps(1, 1, 1, _N),), den=(_ps(1, 1, 1, _2N1),)),
        reprs=(
            "2*q^2*g(q^3; q^7) + J[2,7]^2/Jm[1]",
            "-q^(-1)*m(q^5, q^21, q^6) - q^(-1)*m(q^5, q^21, q^(-6))"
            " - q^(-2)*m(q^2, q^21, q^6) - q^(-2)*m(q^2, q^21, q^(-6))",
            "-2*q^(-1)*m(q^5, q^21, q^6) - 2*q^(-2)*m(q^2, q^21, q^(-6))"
            " + J[2,7]^2/Jm[1]",
        ),
    ),
    # ---- eighth order ------------------------------------------------------
    _entry(
        "S0_8th",
        _eulerian(_qn(lambda n: n * n),
                  num=(_ps(-1, 1, 2, _N),), den=(_ps(-1, 2, 2, _N),)),
        reprs=(
            "m(-q^3, q^8, -q^2) + m(-q^3, q^8, -q^6)",
            "2*m(-q^3, q^8, -1) + q*JB[1,8]*J[2,8]^2/J[3,8]^2",
        ),
    ),
    _entry(
        "S1_8th",
        _eulerian(_qn(lambda n: n * (n + 2)),
                  num=(_ps(-1, 1, 2, _N),), den=(_ps(-1, 2, 2, _N),)),
        reprs=(
            "-q^(-1)*m(-q, q^8, -q^2) - q^(-1)*m(-q, q^8, -q^6)",
            "-2*q^(-1)*m(-q, q^8, -1) + q^(-1)*JB[3,8]*J[2,8]^2/J[1,8]^2",
        ),
    ),
    _entry(
        "T0_8th",
        _eulerian(_qn(lambda n: (n + 1) * (n + 2)),
                  num=(_ps(-1, 2, 2, _N),), den=(_ps(-1, 1, 2, _N1),)),
        reprs=("-m(-q^3, q^8, q^2)",),
    ),
    _entry(
        "T1_8th",
        _eulerian(_qn(lambda n: n * (n + 1)),
                  num=(_ps(-1, 2, 2, _N),), den=(_ps(-1, 1, 2, _N1),)),
        reprs=("q^(-1)*m(-q, q^8, q^6)",),
    ),
    _entry(
        "U0_8th",
        _eulerian(_qn(lambda n: n * n),
                  num=(_ps(-1, 1, 2, _N),), den=(_ps(-1, 4, 4, _N),)),
        reprs=("2*m(-q, q^4, -1)",),
    ),
    _entry(
        "U1_8th",
        _eulerian(_qn(lambda n: (n + 1) ** 2),
                  num=(_ps(-1, 1, 2, _N),), den=(_ps(-1, 2, 4, _N1),)),
        reprs=("-m(-q, q^4, -q^2)",),
    ),
    _entry(
        "V0_8th",
        _eulerian(_qn(lambda n: n * n, lambda n: 2),
                  num=(_ps(-1, 1, 2, _N),), den=(_ps(1, 1, 2, _N),),
                  const=-1),
        alts=(
            _eulerian(_qn(lambda n: 2 * n * n, lambda n: 2),
                      num=(_ps(-1, 2, 4, _N),), den=(_ps(1, 1, 2, _2N1),),
                      const=-1),
        ),
        reprs=(
            "-q^(-1)*m(1, q^8, q) - q^(-1)*m(1, q^8, q^3)",
            "-2*q^(-1)*m(1, q^8, q) - JB[1,4]^2/J[2,8]",
        ),
    ),
    _entry(
        "V1_8th",
        _eulerian(_qn(lambda n: (n + 1) ** 2),
                  num=(_ps(-1, 1, 2, _N),), den=(_ps(1, 1, 2, _N1),)),
        alts=(
            _eulerian(_qn(lambda n: 2 * n * n + 2 * n + 1),
                      num=(_ps(-1, 4, 4, _N),), den=(_ps(1, 1, 2, _2N2),)),
            _eulerian(_qn(lambda n: n + 1),
                      num=(_ps(-1, 1, 1, _2N),), den=(_ps(-1, 2, 4, _N1),)),
        ),
        reprs=("-m(q^2, q^8, q)",),
    ),
    # ---- tenth order -------------------------------------------------------
    _entry(
        "phi_10th",
        _eulerian(_qn(lambda n: n * (n + 1) // 2), den=(_ps(1, 1, 2, _N1),)),
        reprs=(
            "2*q*h(q^2; q^5) + Jm[5]*Jm[10]*J[4,10]/(J[2,5]*J[2,10])",
            "-q^(-1)*m(q, q^10, q) - q^(-1)*m(q, q^10, q^2)",
            "-2*q^(-1)*m(q, q^10, q^2) + Jm[5]*Jm[10]*J[4,10]/(J[2,5]*J[2,10])",
        ),
    ),
    _entry(
        "psi_10th",
        _eulerian(_qn(lambda n: (n + 1) * (n + 2) // 2), den=(_ps(1, 1, 2, _N1),)),
        reprs=(
            "2*q*h(q; q^5) - q*Jm[5]*Jm[10]*J[2,10]/(J[1,5]*J[4,10])",
            "-m(q^3, q^10, q) - m(q^3, q^10, q^3)",
            "-2*m(q^3, q^10, q) - q*Jm[5]*Jm[10]*J[2,10]/(J[1,5]*J[4,10])",
        ),
    ),
    _entry(
        "X_10th",
        _eulerian(_qn(lambda n: n * n, _ALT), den=(_ps(-1, 1, 1, _2N),)),
        reprs=(
            "2*q*k(q; q^5) - Jm[5]*Jm[10]*J[2,5]/(J[2,10]*J[1,5])",
            "m(-q^2, q^5, q) + m(-q^2, q^5, q^4)",
            "2*m(-q^2, q^5, q^4) - J[3,10]*J[5,10]/J[1,5]",
        ),
    ),
    _entry(
        "chi_10th",
        _eulerian(_qn(lambda n: (n + 1) ** 2, _ALT), den=(_ps(-1, 1, 1, _2N1),)),
        reprs=(
            "2 - 2*q^2*k(q^2; q^5) + q*Jm[5]*Jm[10]*J[1,5]/(J[4,10]*J[2,5])",
            "m(-q, q^5, q^2) + m(-q, q^5, q^3)",
            "2*m(-q, q^5, q^2) + q*J[1,10]*J[5,10]/J[2,5]",
        ),
    ),
]

CATALOG = {e.name: e for e in _ENTRIES}

if len(CATALOG) != len(_ENTRIES):  # pragma: no cover - registry sanity
    raise RuntimeError("duplicate catalog entry names")


def catalog_names():
    """Registered function names, in registry (traditional-order) order."""
    return [e.name for e in _ENTRIES]


def catalog_lookup(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownCatalogName(
            f"unknown catalog function {name!r}; see catalog_names()"
        ) from None
