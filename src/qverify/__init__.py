"""qverify: exact q-series engine and identity verifier.

Truncated Laurent series over cyclotomic rationals, theta functions,
Appell-Lerch sums, Hecke-type double sums, a catalog of classical
mock theta functions, and a small DSL + CLI that certifies identities
coefficient-by-coefficient.
"""

from .cyclotomic import CycRat, Rat, rat, zeta
from .errors import (
    DivisionByZero,
    GenericityError,
    OrderExceeded,
    ParseError,
    QVerifyError,
    UnknownCatalogName,
    UnsupportedArgument,
    UnsupportedSubstitution,
)
from .series import QMonomial, QSeries, compose_monomial, qmono, series_equal

__all__ = [
    "CycRat",
    "Rat",
    "rat",
    "zeta",
    "QMonomial",
    "QSeries",
    "qmono",
    "compose_monomial",
    "series_equal",
    "QVerifyError",
    "DivisionByZero",
    "GenericityError",
    "OrderExceeded",
    "ParseError",
    "UnknownCatalogName",
    "UnsupportedArgument",
    "UnsupportedSubstitution",
]

__version__ = "0.1.0"
