"""Seeded workload generator: emits `.qid` identity text only.

Every workload is built from the packaged identity suite
(`src/qverify/data/builtin.qid`) or from the catalog registry
(`qverify.catalog.CATALOG`).  The seed only decides where mismatches are
planted: about one identity in eight gets `c*q^e` added to its right-hand
side, with `e` drawn from [0, order) and `c` a nonzero rational.  The
expected verdict of a planted identity is `fail` at exactly q^e; every other
identity must `pass`.  Planting adds one monomial, so the cost of a workload
does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

#: order at which builtin identities without an `order` clause are verified
BUILTIN_ORDER = 100
CATALOG_ORDER = 60
HIGH_ORDER = 200
#: the one identity left out of `high_order` (it dominates `builtin`)
HIGH_ORDER_SKIP = "master_expansion_11"
PLANT_EVERY = 8

WORKLOADS = ("builtin", "catalog60", "high_order")

_BLOCK = re.compile(
    r"identity\s+(\w+)\s*(?:order\s+(\d+))?\s*\{\s*lhs\s*=\s*(.*?);\s*"
    r"rhs\s*=\s*(.*?);\s*\}",
    re.DOTALL,
)


@dataclass(frozen=True)
class Identity:
    name: str
    order: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Plant:
    """`coeff * q^expo` added to the right-hand side."""

    expo: int
    coeff: Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    text: str
    expected: dict  # identity name -> Plant, or None when it must pass

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def builtin_identities(src: Path) -> list:
    """The packaged identities, comments removed, at their own orders."""
    text = (src / "qverify" / "data" / "builtin.qid").read_text()
    text = re.sub(r"#[^\n]*", "", text)
    out = []
    for m in _BLOCK.finditer(text):
        name, order, lhs, rhs = m.groups()
        out.append(Identity(name, int(order) if order else BUILTIN_ORDER,
                            " ".join(lhs.split()), " ".join(rhs.split())))
    if not out:
        raise ValueError("no identities found in builtin.qid")
    return out


def catalog_identities(catalog: dict) -> list:
    """Eulerian form against each closed-form representation."""
    return [
        Identity(f"{name}_repr{i}", CATALOG_ORDER, f'catalog("{name}")',
                 f'catalog("{name}").repr[{i}]')
        for name, entry in catalog.items()
        for i in range(len(entry.representations))
    ]


def identities(workload: str, src: Path, catalog: dict) -> list:
    if workload == "builtin":
        return builtin_identities(src)
    if workload == "catalog60":
        return catalog_identities(catalog)
    if workload == "high_order":
        return [Identity(i.name, HIGH_ORDER, i.lhs, i.rhs)
                for i in builtin_identities(src) if i.name != HIGH_ORDER_SKIP]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def plant(idents: list, rng: random.Random) -> dict:
    """Choose about one identity in eight and a mismatch for each."""
    count = max(1, round(len(idents) / PLANT_EVERY))
    chosen = rng.sample(range(len(idents)), count)
    expected = {i.name: None for i in idents}
    for k in sorted(chosen):
        ident = idents[k]
        coeff = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        expected[ident.name] = Plant(rng.randrange(ident.order), coeff)
    return expected


def _coeff_text(c: Fraction) -> str:
    mag = abs(c)
    return str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"


def render(ident: Identity, p) -> str:
    rhs = ident.rhs
    if p is not None:
        sign = "+" if p.coeff > 0 else "-"
        rhs = f"({rhs}) {sign} {_coeff_text(p.coeff)}*q^{p.expo}"
    return (f"identity {ident.name} order {ident.order} {{\n"
            f"  lhs = {ident.lhs};\n"
            f"  rhs = {rhs};\n"
            f"}}\n")


def generate(workload: str, seed: int, src: Path, catalog: dict) -> Workload:
    idents = identities(workload, src, catalog)
    expected = plant(idents, random.Random(f"{workload}:{seed}"))
    text = "".join(render(i, expected[i.name]) for i in idents)
    return Workload(workload, seed, text, expected)
