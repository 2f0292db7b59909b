"""Per-layer tracing from wrappers around qverify's public functions.

`Tracer.install()` swaps each traced function for a wrapper in every
`qverify` module namespace that holds it (`appell` and `hecke` import
`jtheta` by name, `dsl` reaches it as `_theta.jtheta`), and on the
`CycRat` / `QSeries` classes for methods.  Spans (name, start, end, parent)
are kept in memory in flat arrays and written out by `write_spans()` at
exit.  Hot coefficient operations are only counted: a span on each of the
10^5-10^6 `CycRat` operations would swamp the timings.

Only the traced child process installs wrappers; end-to-end numbers come
from untraced children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: (module, attribute, span name) of the traced public functions
SPANS = (
    ("theta", "jtheta", "theta.jtheta"),
    ("theta", "poch_inf", "theta.poch_inf"),
    ("appell", "m_eval", "appell.m_eval"),
    ("appell", "g_eval", "appell.ghk"),
    ("appell", "h_eval", "appell.ghk"),
    ("appell", "k_eval", "appell.ghk"),
    ("hecke", "f_eval", "hecke.f_eval"),
    ("hecke", "g_abc_eval", "hecke.g_abc"),
    ("hecke", "theta_np_eval", "hecke.theta_np"),
    ("hecke", "big_theta_eval", "hecke.big_theta"),
    ("hecke", "string_function", "hecke.string_function"),
    ("dsl", "eval_expr", "dsl.eval"),
)
#: span names whose function is an lru_cache; hit ratio from cache_info()
CACHED = ("theta.jtheta", "theta.poch_inf", "appell.m_eval")
CYCRAT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
              "__pow__", "inverse")
#: span names reported as `<name>.calls` and `<name>.self_s`
TIMED = ("theta.jtheta", "theta.poch_inf", "series.mul", "series.inverse",
         "catalog.eulerian", "appell.m_eval", "appell.ghk", "hecke.f_eval",
         "hecke.g_abc", "hecke.theta_np", "hecke.big_theta",
         "hecke.string_function")


def _ratio(num, den) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def self_times(names, starts, ends, parents) -> dict:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (the union of the children, clipped to the span).
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = defaultdict(float)
    for i, name in enumerate(names):
        s, e = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[name] += (e - s) - covered
    return dict(out)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack = [-1]
        self.counts = Counter()
        self.max_conductor = 1
        self.eulerian_keys: set = set()
        self._caches: dict = {}
        self._cache_start: dict = {}

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    @staticmethod
    def _replace(orig, new):
        """Swap `orig` for `new` in every qverify module namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("qverify"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    def install(self):
        from qverify import appell, catalog, cyclotomic, runner, series, theta, hecke, dsl

        mods = {"theta": theta, "appell": appell, "hecke": hecke, "dsl": dsl}
        for modname, attr, name in SPANS:
            orig = getattr(mods[modname], attr)
            if name in CACHED:
                self._caches[name] = orig
                self._cache_start[name] = orig.cache_info()
            self._replace(orig, self.span(name, orig))
        # padding rounds beyond the first, counted where the runner calls in
        runner.eval_expr = self.counter("runner.eval_calls", runner.eval_expr)

        counts = self.counts
        orig_padded = appell.eval_padded

        def eval_padded(build, order, *args, **kwargs):
            counts["appell.eval_padded"] += 1

            def counted_build(T):
                counts["appell.pad_builds"] += 1
                return build(T)

            return orig_padded(counted_build, order, *args, **kwargs)

        self._replace(orig_padded, eval_padded)

        for name, entry in list(catalog.CATALOG.items()):
            catalog.CATALOG[name] = dataclasses.replace(
                entry, eulerian=self.span("catalog.eulerian",
                                          self._keyed(name, entry.eulerian)))

        QS = series.QSeries
        orig_mul = QS.__mul__

        def mul(a, b):
            if isinstance(b, QS):
                counts["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
            return orig_mul(a, b)

        traced_mul = self.span("series.mul", functools.wraps(orig_mul)(mul))
        QS.__mul__ = QS.__rmul__ = traced_mul
        QS.inverse = self.span("series.inverse", QS.inverse)

        for op in CYCRAT_OPS:
            setattr(cyclotomic.CycRat, op,
                    self.counter("cyclotomic.cycrat_ops",
                                 getattr(cyclotomic.CycRat, op)))
        orig_canonical = cyclotomic._canonical

        def canonical(n, vec):
            counts["cyclotomic.canonical_calls"] += 1
            if n > self.max_conductor:
                self.max_conductor = n
            return orig_canonical(n, vec)

        self._replace(orig_canonical, canonical)
        self._replace(cyclotomic._solve_in_subfield,
                      self.counter("cyclotomic.subfield_solves",
                                   cyclotomic._solve_in_subfield))

    def _keyed(self, name, fn):
        keys = self.eulerian_keys

        @functools.wraps(fn)
        def wrapper(order):
            keys.add((name, order))
            return fn(order)

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, identities: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        calls = Counter(self.names)
        selfs = self_times(self.names, self.starts, self.ends, self.parents)
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
        for name in CACHED:
            now, start = self._caches[name].cache_info(), self._cache_start[name]
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[f"{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        c = self.counts
        out["series.mul.term_pairs"] = (c["series.mul.term_pairs"], "count")
        out["catalog.eulerian.distinct_ratio"] = (
            _ratio(len(self.eulerian_keys), calls["catalog.eulerian"]), "ratio")
        out["appell.pad_builds_per_call"] = (
            _ratio(c["appell.pad_builds"], c["appell.eval_padded"]), "ratio")
        out["cyclotomic.cycrat_ops"] = (c["cyclotomic.cycrat_ops"], "count")
        out["cyclotomic.canonical_calls"] = (c["cyclotomic.canonical_calls"], "count")
        out["cyclotomic.subfield_solves"] = (c["cyclotomic.subfield_solves"], "count")
        out["cyclotomic.max_conductor"] = (self.max_conductor, "count")
        out["dsl.eval.self_s"] = (selfs.get("dsl.eval", 0.0), "s")
        # the runner evaluates both sides once per round
        out["runner.eval_rounds"] = (c["runner.eval_calls"] // 2 - identities, "count")
        return out

    def write_spans(self, path):
        """One JSON array per span: [name, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")
