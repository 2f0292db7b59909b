"""Identity DSL: tokenizer, parser, pretty-printer, and evaluator.

The textual form of an identity is

    identity NAME [order INT] { lhs = EXPR ; rhs = EXPR ; }

where EXPR is built from rational constants, root-of-unity constants
``zeta(k,N)``, powers of ``q`` with exact rational exponents, the four
arithmetic operations, integer powers ``^k``, and calls into the engine:

    j(x; q)            theta function j(x; q)
    J[a,m] JB[a,m]     j(q^a; q^m) and j(-q^a; q^m)
    Jm[m]              the eta-like product (q^m; q^m)_inf
    m(x, q, z)         Appell-Lerch sum
    g(x; q) h(x; q) k(x; q)
                       universal mock theta functions
    poch(x; q; n|inf)  finite or infinite q-Pochhammer (x; q)_n
    f[a,b,c](x, y; q)  Hecke-type double sum
    gabc[a,b,c](x, y; q; z1, z0)
    habc[a,b,c](x, y; q; z1, z0)
                       Appell-Lerch building blocks of the expansions
    thetanp[n,p](x, y; q)    theta correction for f_{n,n+p,n}
    thetaabc[a,b,c](x, y; q) theta correction for the divisible-b case
    bigtheta[n,p](x, y; q)   theta correction of the subtheorems
    strfn[N,m,l]       affine string function C^N_{m,l}(q)
    catalog("name")    Eulerian expansion of a registry function
    catalog("name").repr[i]  its i-th closed-form representation
    catalog("name", MONO)    the Eulerian expansion with q -> MONO

Numbers are ASCII digits ``[0-9]+``; a poch count is an integer literal or
``inf``.  ``#`` starts a comment running to the end of the line.  Arguments
of the engine calls must evaluate to exact monomials c*q^e.  Malformed text,
nesting deeper than the parser's stack and an identity name repeated within
one text included, raises ``ParseError`` with a line and column.

The table ``_HEADS`` drives every call head: its bracket-parameter count,
its argument names by group (the parser reads the group sizes from them,
the evaluator names a non-monomial argument by them) and its evaluator.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .cyclotomic import ONE as _ONE, Rat, rat, zeta as zeta_root
from .errors import ParseError, UnsupportedArgument, UnsupportedSubstitution
from .series import QMonomial, QSeries, compose_monomial, qmono, ceil_rat, operand_orders
from . import theta as _theta
from . import appell as _appell
from . import hecke as _hecke
from . import catalog as _catalog

__all__ = [
    "Num", "QPow", "Zeta", "Neg", "BinOp", "Pow", "Call", "PochInf",
    "CatalogRef", "IdentityRecord", "tokenize", "parse_expression",
    "parse_identities", "pretty", "pretty_identity", "eval_expr",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


_set = object.__setattr__


class Immutable:
    """An immutable record whose fields are its ``__slots__``, given by
    position or keyword (the class's ``_defaults`` fill the rest).  It
    equals only a record of its own type with equal fields, hashes and
    pickles by its fields, and prints as ``Type(field=value, ...)``."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            fields = dict(self._defaults, **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or fields.keys() != set(names):
                raise TypeError(f"{type(self).__name__} has the fields {names}, "
                                f"not {len(args)} positional and {tuple(kwargs)}")
            args = map(fields.__getitem__, names)
        for name, value in zip(names, args):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Num(Immutable):
    __slots__ = ("value",)  # nonnegative integer literal as Rat


class QPow(Immutable):
    __slots__ = ("expo",)  # Rat


class Zeta(Immutable):
    __slots__ = ("k", "n")


class Neg(Immutable):
    __slots__ = ("arg",)


class BinOp(Immutable):
    __slots__ = ("op", "left", "right")  # op one of + - * /


class Pow(Immutable):
    __slots__ = ("base", "k")


class PochInf(Immutable):
    """Marker for the 'inf' count of poch(x; q; inf)."""

    __slots__ = ()


class Call(Immutable):
    # params: the bracket integers; groups: a tuple of tuples of expressions
    __slots__ = ("head", "params", "groups")


class CatalogRef(Immutable):
    # index: None for the Eulerian form, an int for .repr[i]; subst: the
    # expression for MONO in catalog("name", MONO), or None
    __slots__ = ("name", "index", "subst")
    _defaults = {"index": None, "subst": None}


class IdentityRecord(Immutable):
    __slots__ = ("name", "order_override", "lhs", "rhs", "tags")  # order_override: None or int
    _defaults = {"tags": ()}


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------


class _Tok(NamedTuple):
    kind: str  # NAME INT STRING PUNCT EOF
    value: str
    line: int
    col: int


# One match per token: the blanks and comments before it, then the token
# text, the pattern's one group.  At the end of the text the group matches
# empty, so '' is the end-of-input token.  A token's kind follows from its
# first character (see _kind).  The token alternatives take any character,
# so a match never backtracks into the blanks and comments before it.  The
# parser reads the token texts of one findall; lines and columns are only
# computed when it raises a ParseError, by tokenize scanning the text again.
_TOKEN = re.compile(
    r'[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([0-9]+|\w+|"[^"\n]*"|.|\Z)', re.DOTALL)


def _kind(tok: str) -> str:
    """The kind of a token text.  An ASCII digit starts an INT, a letter or
    '_' a NAME, '"' a STRING and a punctuation character a one-character
    PUNCT.  Any other character is an ERROR: a lone '"' (an unterminated
    string), and a \\w run that starts with a non-ASCII digit too."""
    c = tok[:1]
    if not c:
        return "EOF"
    if "0" <= c <= "9":
        return "INT"
    if c.isalpha() or c == "_":
        return "NAME"
    if c == '"' and len(tok) > 1:
        return "STRING"
    return "PUNCT" if c in "()[]{},;=+-*/^." else "ERROR"


def _value(tok: str) -> str:
    """The value of a token text: a STRING without its quotes."""
    return tok[1:-1] if tok[:1] == '"' and len(tok) > 1 else tok


def tokenize(text: str):
    """The tokens of text with their lines and columns, EOF last, by one
    pass of _TOKEN; a character that starts no token raises ParseError.
    Tokens hold no newline, so lines are counted between token starts."""
    toks = []
    line, line_start, seen = 1, 0, 0
    for m in _TOKEN.finditer(text):
        start = m.start(1)
        nl = text.rfind("\n", seen, start)
        if nl >= 0:
            line += text.count("\n", seen, nl + 1)
            line_start = nl + 1
        seen = start
        tok, col = m.group(1), start - line_start + 1
        kind = _kind(tok)
        if kind == "ERROR":
            if tok == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {tok[0]!r}", line, col)
        toks.append(_Tok(kind, _value(tok), line, col))
        if not tok:
            return toks


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Stop(Exception):
    """A syntax error: (message, token index).  _Parser.parse raises it as
    a ParseError with the token's line and column."""


class _Parser:
    """Recursive descent over the token texts of _TOKEN.findall, compared
    as strings.  A token is only consumed once its text is checked, so no
    ERROR token and nothing past the first EOF ('') is ever consumed.  The
    rules expression, term, unary, power and primary take one Python frame
    each per level of parentheses."""

    __slots__ = ("text", "toks", "pos")

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.pos = 0

    def parse(self, rule):
        """Run a grammar rule; a syntax error, nesting deeper than the
        Python stack allows included, is a ParseError at the token reached."""
        try:
            return rule()
        except _Stop as stop:
            message, at = stop.args
        except RecursionError:
            message, at = "expression nested too deeply", self.pos
        # tokenize raises first for a character that starts no token
        # anywhere in the text: that error wins
        t = tokenize(self.text)[at]
        raise ParseError(message, t.line, t.col)

    def fail(self, message: str, at=None):
        raise _Stop(message, self.pos if at is None else at)

    # -- token plumbing --

    def expect(self, value: str):
        t = self.toks[self.pos]
        if t != value:
            self.fail(f"expected {value!r}, found {_value(t)!r}")
        self.pos += 1

    def expect_kind(self, kind: str) -> str:
        t = self.toks[self.pos]
        if _kind(t) != kind:
            self.fail(f"expected {kind}, found {_value(t)!r}")
        self.pos += 1
        return t

    # -- small literals --

    def digits(self) -> int:
        t = self.toks[self.pos]
        if not "0" <= t < ":":  # an INT token
            self.fail(f"expected INT, found {_value(t)!r}")
        self.pos += 1
        return int(t)

    def integer(self) -> int:
        if self.toks[self.pos] == "-":
            self.pos += 1
            return -self.digits()
        return self.digits()

    def rational(self):
        """Signed p or p/q (used inside parenthesized exponents)."""
        neg = self.toks[self.pos] == "-"
        if neg:
            self.pos += 1
        at = self.pos
        num = self.digits()
        den = 1
        if self.toks[self.pos] == "/":
            self.pos += 1
            den = self.digits()
            if den == 0:
                self.fail("zero denominator in exponent", at)
        v = rat(num, den)
        return -v if neg else v

    def q_exponent(self):
        """Exponent after 'q^': INT, -INT, or (signed rational)."""
        if self.toks[self.pos] == "(":
            self.pos += 1
            v = self.rational()
            self.expect(")")
            return v
        return Rat(self.integer())

    def power_exponent(self) -> int:
        """Integer exponent after '^' on a non-monomial factor."""
        if self.toks[self.pos] == "(":
            self.pos += 1
            v = self.integer()
            self.expect(")")
            return v
        return self.integer()

    # -- expression grammar --

    def sole_expression(self):
        node = self.expression()
        t = self.toks[self.pos]
        if t:
            self.fail(f"unexpected trailing input {_value(t)!r}")
        return node

    def expression(self):
        node = self.term()
        toks = self.toks
        op = toks[self.pos]
        while op == "+" or op == "-":
            self.pos += 1
            node = BinOp(op, node, self.term())
            op = toks[self.pos]
        return node

    def term(self):
        node = self.unary()
        toks = self.toks
        op = toks[self.pos]
        while op == "*" or op == "/":
            self.pos += 1
            node = BinOp(op, node, self.unary())
            op = toks[self.pos]
        return node

    def unary(self):
        # a chain of minuses in a loop, so that a long one does not recurse
        # once per minus
        toks, pos = self.toks, self.pos
        while toks[pos] == "-":
            pos += 1
        negs, self.pos = pos - self.pos, pos
        node = self.power()
        for _ in range(negs):
            node = Neg(node)
        return node

    def power(self):
        node = self.primary()
        toks = self.toks
        while toks[self.pos] == "^":
            self.pos += 1
            node = Pow(node, self.power_exponent())
        return node

    def primary(self):
        toks, pos = self.toks, self.pos
        t = toks[pos]
        self.pos = pos + 1
        if t == "(":
            node = self.expression()
            self.expect(")")
            return node
        if "0" <= t < ":":  # an INT token
            return Num(Rat(int(t)))
        if t == "q":
            if toks[pos + 1] != "^":
                return QPow(_ONE)
            self.pos = pos + 2
            return QPow(self.q_exponent())
        if t in _HEADS:
            return self.call(t, pos)
        if t == "zeta":
            self.expect("(")
            k = self.integer()
            self.expect(",")
            n = self.integer()
            self.expect(")")
            if n <= 0:
                self.fail("zeta(k,N) needs N >= 1", pos)
            return Zeta(k, n)
        if t == "catalog":
            return self.catalog_ref()
        if _kind(t) == "NAME":
            self.fail(f"unknown function or symbol {t!r}", pos)
        self.fail(f"expected an expression, found {_value(t)!r}", pos)

    def catalog_ref(self):
        """catalog("name") after its 'catalog', with .repr[i] or a MONO."""
        self.expect("(")
        name = _value(self.expect_kind("STRING"))
        subst = None
        if self.toks[self.pos] == ",":
            self.pos += 1
            subst = self.expression()
        self.expect(")")
        index = None
        if subst is None and self.toks[self.pos] == ".":
            self.pos += 1
            field = self.pos
            if self.expect_kind("NAME") != "repr":
                self.fail("only '.repr[i]' can follow catalog(...)", field)
            self.expect("[")
            index = self.integer()
            self.expect("]")
            if index < 0:
                self.fail("representation index must be >= 0", field)
        return CatalogRef(name, index, subst)

    def call(self, head: str, at: int):
        """The rest of a call whose head, head, is token number at."""
        n_params, groups, _ = _HEADS[head]
        toks = self.toks
        params = ()
        if n_params:
            self.expect("[")
            vals = [self.integer()]
            while toks[self.pos] == ",":
                self.pos += 1
                vals.append(self.integer())
            self.expect("]")
            if len(vals) != n_params:
                self.fail(f"{head} expects {n_params} bracket parameters, got {len(vals)}", at)
            params = tuple(vals)
        if not groups:
            if toks[self.pos] == "(":
                self.fail(f"{head}[...] takes no call arguments", at)
            return Call(head, params, ())
        self.expect("(")
        parsed = []
        for gi, names in enumerate(groups):
            parse_arg = self.count if names == ("count",) else self.expression
            args = [parse_arg()]
            while toks[self.pos] == ",":
                self.pos += 1
                args.append(parse_arg())
            if len(args) != len(names):
                self.fail(f"{head} expects {len(names)} argument(s) in group {gi + 1}, "
                          f"got {len(args)}", at)
            parsed.append(tuple(args))
            if gi + 1 < len(groups):
                self.expect(";")
        self.expect(")")
        return Call(head, params, tuple(parsed))

    def count(self):
        """The count of poch(x; q; n|inf): an integer literal or 'inf'."""
        t = self.toks[self.pos]
        if t == "inf":
            self.pos += 1
            return PochInf()
        if "0" <= t < ":":  # an INT token
            self.pos += 1
            return Num(Rat(int(t)))
        self.fail("poch count must be a nonnegative integer or 'inf'")

    # -- identity files --

    def identities(self):
        toks = self.toks
        records, names = [], set()
        while toks[self.pos]:
            at = self.pos
            if self.expect_kind("NAME") != "identity":
                self.fail("expected 'identity'", at)
            at = self.pos
            name = self.expect_kind("NAME")
            if name in names:
                self.fail(f"duplicate identity name {name!r}", at)
            names.add(name)
            order = None
            if toks[self.pos] == "order":
                at = self.pos
                self.pos += 1
                order = self.integer()
                if order <= 0:
                    self.fail("order must be positive", at)
            self.expect("{")
            sides = []
            for side in ("lhs", "rhs"):
                at = self.pos
                if self.expect_kind("NAME") != side:
                    self.fail(f"expected '{side}'", at)
                self.expect("=")
                sides.append(self.expression())
                self.expect(";")
            self.expect("}")
            records.append(IdentityRecord(name, order, *sides))
        return records


def parse_expression(text: str):
    p = _Parser(text)
    return p.parse(p.sole_expression)


def parse_identities(text: str):
    p = _Parser(text)
    return p.parse(p.identities)


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_UNARY
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _paren(node, minimum) -> str:
    s = pretty(node)
    return f"({s})" if _prec(node) < minimum else s


def pretty(node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, QPow):
        e = node.expo
        if e == 1:
            return "q"
        if e.denominator == 1 and e >= 0:
            return f"q^{e}"
        return f"q^({e})"
    if isinstance(node, Zeta):
        return f"zeta({node.k},{node.n})"
    if isinstance(node, PochInf):
        return "inf"
    if isinstance(node, Neg):
        # a chain of minuses in a loop, so that a long one does not recurse
        # once per minus
        negs = 0
        while isinstance(node, Neg):
            negs += 1
            node = node.arg
        return "-" * negs + _paren(node, _PREC_UNARY)
    if isinstance(node, BinOp):
        # a left-nested chain of one precedence level in a loop, so that a
        # long flat sum or product does not recurse once per operand
        prec, chain = _prec(node), []
        while isinstance(node, BinOp) and _prec(node) == prec:
            chain.append(node)
            node = node.left
        sep = " " if prec == _PREC_ADD else ""
        parts = [_paren(node, prec)]
        for n in reversed(chain):
            parts.append(f"{sep}{n.op}{sep}{_paren(n.right, prec + (n.op in '-/'))}")
        return "".join(parts)
    if isinstance(node, Pow):
        # a chain of powers in a loop, so that a long one does not recurse
        # once per power; each inner power is parenthesised
        ks = []
        while isinstance(node, Pow):
            ks.append(node.k)
            node = node.base
        s = _paren(node, _PREC_ATOM)
        for i, k in enumerate(reversed(ks)):
            if i:
                s = f"({s})"
            s += f"^{k}" if k >= 0 else f"^({k})"
        return s
    if isinstance(node, Call):
        s = node.head
        if node.params:
            s += "[" + ",".join(str(p) for p in node.params) + "]"
        if node.groups:
            s += "(" + "; ".join(
                ", ".join(pretty(a) for a in g) for g in node.groups
            ) + ")"
        return s
    if isinstance(node, CatalogRef):
        if node.subst is not None:
            return f'catalog("{node.name}", {pretty(node.subst)})'
        s = f'catalog("{node.name}")'
        if node.index is not None:
            s += f".repr[{node.index}]"
        return s
    raise TypeError(f"not an expression node: {node!r}")


def pretty_identity(r: IdentityRecord) -> str:
    head = f"identity {r.name}"
    if r.order_override is not None:
        head += f" order {r.order_override}"
    return (
        f"{head} {{\n"
        f"  lhs = {pretty(r.lhs)};\n"
        f"  rhs = {pretty(r.rhs)};\n"
        f"}}\n"
    )


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------


def _as_monomial(series: QSeries, what: str) -> QMonomial:
    s = series.minimize_scale()
    if s.order is not None or len(s.terms) > 1:
        raise UnsupportedArgument(f"{what} must be an exact monomial c*q^e")
    if not s.terms:
        raise UnsupportedArgument(f"{what} must be nonzero")
    ((k, c),) = s.terms.items()
    return QMonomial(c, rat(k, s.scale))


def _div(a: QSeries, b: QSeries, order) -> QSeries:
    a2, b2 = QSeries.unify(a, b)
    hint = None
    if b2.order is None and len(b2.terms) > 1 and a2.order is None:
        # both sides exact: aim for the requested window
        hint = ceil_rat(rat(order) * b2.scale) + max(0, -min(b2.terms))
    return a2.divide(b2, window_hint=hint)


@lru_cache(maxsize=None)
def _catalog_repr_ast(name: str, index: int):
    entry = _catalog.catalog_lookup(name)
    try:
        src = entry.representations[index]
    except IndexError:
        raise UnsupportedArgument(
            f"{name} has {len(entry.representations)} representation(s); "
            f"index {index} is out of range"
        ) from None
    return parse_expression(src)


def _poch(x, base, count, order):
    if isinstance(count, PochInf):
        return _theta.poch_inf(x, base, order)
    return _theta.poch_fin(x, base, int(count.value))


# head -> (number of bracket parameters, call-argument names by group,
# evaluator).  The evaluator is called as fn(*params, *arguments, order) with
# each argument an exact monomial (a poch count stays its literal).  It looks
# its function up on the module at call time, so a wrapper set on that module
# attribute (a tracer's, a test's spy) is the one called.
_XY = (("x", "y"), ("base",))
_HEADS = {
    "j": (0, (("argument",), ("base",)), lambda *a: _theta.jtheta(*a)),
    "J": (2, (), lambda *a: _theta.J(*a)),
    "JB": (2, (), lambda *a: _theta.Jbar(*a)),
    "Jm": (1, (), lambda *a: _theta.Jm(*a)),
    "m": (0, (("argument", "base", "z"),), lambda *a: _appell.m_eval(*a)),
    "g": (0, (("argument",), ("base",)), lambda *a: _appell.g_eval(*a)),
    "h": (0, (("argument",), ("base",)), lambda *a: _appell.h_eval(*a)),
    "k": (0, (("argument",), ("base",)), lambda *a: _appell.k_eval(*a)),
    "poch": (0, (("argument",), ("base",), ("count",)), _poch),
    "f": (3, _XY, lambda *a: _hecke.f_eval(*a)),
    "gabc": (3, _XY + (("z1", "z0"),), lambda *a: _hecke.g_abc_eval(*a)),
    "habc": (3, _XY + (("z1", "z0"),), lambda *a: _hecke.h_abc_eval(*a)),
    "thetanp": (2, _XY, lambda *a: _hecke.theta_np_eval(*a)),
    "thetaabc": (3, _XY, lambda *a: _hecke.theta_abc_eval(*a)),
    "bigtheta": (2, _XY, lambda *a: _hecke.big_theta_eval(*a)),
    "strfn": (3, (), lambda n, m, l, order:
              _hecke.string_function(n, m, l, qmono(1, 1), order)),
}


def _eval_call(node: Call, order) -> QSeries:
    head = node.head
    _, groups, fn = _HEADS[head]
    names = [name for group in groups for name in group]
    # every argument is evaluated before any is checked to be a monomial, so
    # an evaluation error in a later argument wins over an earlier non-monomial
    vals = [a if name == "count" else eval_expr(a, order)
            for name, a in zip(names, chain.from_iterable(node.groups))]
    monos = [v if name == "count" else _as_monomial(v, f"{head} {name}")
             for name, v in zip(names, vals)]
    return fn(*node.params, *monos, order)


def eval_expr(node, order) -> QSeries:
    """Evaluate an expression to an exact truncated series.

    ``order`` is the target window in q-units.  The right operand of ``*``
    and ``/`` is evaluated higher by the left operand's negative valuation,
    so a left factor such as q^(-1) does not shorten the window.  The
    result's sound window may still fall short of ``order`` when other
    negative valuations are involved; callers who need a specific window
    pass this through ``appell.eval_padded``.
    """
    if isinstance(node, Num):
        return QSeries.from_coeff(node.value)
    if isinstance(node, QPow):
        return QSeries.from_monomial(qmono(1, node.expo))
    if isinstance(node, Zeta):
        return QSeries.from_coeff(zeta_root(node.k, node.n))
    if isinstance(node, Neg):
        # a chain of minuses in a loop, so that a long one does not recurse
        # once per minus
        negs = 0
        while isinstance(node, Neg):
            negs += 1
            node = node.arg
        a = eval_expr(node, order)
        return -a if negs % 2 else a
    if isinstance(node, BinOp):
        # the left operands of a left-nested chain in a loop, so that a long
        # flat sum or product does not recurse once per operand
        chain = []
        while isinstance(node, BinOp):
            chain.append(node)
            node = node.left
        a = eval_expr(node, order)
        for node in reversed(chain):
            if node.op in "*/" and a.terms:
                # b is evaluated higher by a's negative valuation (b's own
                # is not known yet: taken as 0), so a*b and a/b reach the window
                va = min(0, rat(min(a.terms), a.scale))
                b = eval_expr(node.right, operand_orders(order, va, 0, node.op)[1])
            else:
                b = eval_expr(node.right, order)
            a = (a + b if node.op == "+" else a - b if node.op == "-"
                 else a * b if node.op == "*" else _div(a, b, order))
        return a
    if isinstance(node, Pow):
        # a chain of powers in a loop, innermost first, so that a long one
        # does not recurse once per power
        ks = []
        while isinstance(node, Pow):
            ks.append(node.k)
            node = node.base
        a = eval_expr(node, order)
        for k in reversed(ks):
            a = _div(QSeries.from_coeff(1), a, order) ** -k if k < 0 else a ** k
        return a
    if isinstance(node, CatalogRef):
        entry = _catalog.catalog_lookup(node.name)
        if node.subst is not None:
            m = _as_monomial(eval_expr(node.subst, order), "catalog substitution")
            if m.expo <= 0:
                raise UnsupportedSubstitution("catalog substitution needs a positive exponent")
            # the Eulerian window E becomes E * expo(m) after q -> m
            return compose_monomial(entry.eulerian(ceil_rat(rat(order) / m.expo)), m)
        if node.index is None:
            return entry.eulerian(order)
        return eval_expr(_catalog_repr_ast(node.name, node.index), order)
    if isinstance(node, Call):
        try:
            return _eval_call(node, order)
        except Exception as exc:  # attach expression-path context once
            if getattr(exc, "qverify_context", None) is None:
                exc.qverify_context = f"while evaluating {pretty(node)}"
            raise
    if isinstance(node, PochInf):
        raise UnsupportedArgument("'inf' is only valid as a poch count")
    raise TypeError(f"not an expression node: {node!r}")
