"""Span tracing of ustatkit layers from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every module
namespace that holds it (``stream`` lives in ``montecarlo`` and is imported
into ``geomgraph``; ``contract`` is imported into ``bounds``, ``product`` and
``cli``), so calls between modules are seen as well as the benchmark's own.
Each call becomes a span (name, start, end, parent), kept in flat arrays in
memory and written out once when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict

#: traced functions per module; ``DensityModel.sample`` is traced as a method
TRACED = {
    "core": ("symmetrize",),
    "contractions": ("contract", "verify_contraction_inequalities"),
    "hoeffding": ("decompose", "variance"),
    "product": ("product_kernels", "verify_product_formula", "prefactor_ratio"),
    "bounds": ("bound_degenerate_1d", "bound_dominant", "bound_general",
               "bound_multivariate"),
    "montecarlo": ("stream", "simulate", "ustat_values_from_count_matrix",
                   "coupling_bias", "wasserstein_to_normal", "fit_distance_powerlaw",
                   "ols_loglog"),
    "geomgraph": ("count_subgraphs", "pattern_indicator", "regime_experiment",
                  "variance_lower_bound_check", "gk_contraction_mc"),
    "cli": ("main", "canonical_json"),
}

#: ``GraphPattern.name`` of each built-in pattern -> its label in span names
BUILTIN_PATTERNS = {"edge": "edge", "complete3": "triangle", "path3": "path3"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_label(args, kwargs):
    return BUILTIN_PATTERNS.get(_arg(args, kwargs, 1, "pat").name, "custom")


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outermost = array("b")   # no enclosing span of the same name
        self._stack: list = []
        self._active = defaultdict(int)
        self.counters = defaultdict(float)
        self.originals: dict = {}

    def _id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name, fn, label=None, count=None):
        """Wrapper recording one span per call; ``label`` suffixes the span name
        from the arguments, ``count(counters, span, args, kwargs, result)``
        adds to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(args, kwargs)}"
            idx = len(self.start)
            self.name_id.append(self._id(span))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outermost.append(self._active[span] == 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._active[span] += 1
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._active[span] -= 1
                self._stack.pop()
            if count is not None:
                count(self.counters, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "geomgraph.count_subgraphs": dict(label=_count_label, count=_count_copies),
            "geomgraph.pattern_indicator": dict(count=_count_tuples),
            "geomgraph.gk_contraction_mc": dict(count=_count_gk_samples),
            "montecarlo.simulate": dict(count=_count_replicates),
        }
        modules = {mod: importlib.import_module(f"ustatkit.{mod}") for mod in TRACED}
        wrappers = {}
        for mod, names in TRACED.items():
            for fname in names:
                original = getattr(modules[mod], fname)
                key = f"{mod}.{fname}"
                self.originals[key] = original
                wrappers[id(original)] = (original,
                                          self.wrap(key, original, **hooks.get(key, {})))
        for ns in (importlib.import_module("ustatkit"), *modules.values()):
            for attr, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(ns, attr, entry[1])
        model = modules["geomgraph"].DensityModel
        self.originals["geomgraph.sample"] = model.sample
        model.sample = self.wrap("geomgraph.sample", model.sample, count=_count_points)

    # --- aggregation ---------------------------------------------------------

    def durations(self):
        """Per span name: (calls, outermost total seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec[0] += 1
            if self.outermost[i]:
                rec[1] += dur
            rec[2] += dur - child[i]
        return out

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent span."""
        bad = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and not (self.start[p] <= self.start[i]
                               and self.end[i] <= self.end[p]):
                bad += 1
        return bad

    def write(self, path, summary: dict) -> None:
        doc = {
            "summary": summary,
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
            },
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _count_copies(counters, span, args, kwargs, result):
    counters[span + ".copies"] += int(result)


def _count_tuples(counters, span, args, kwargs, result):
    counters[span + ".tuples"] += result.size
    counters[span + ".hits"] += float(result.sum())


def _count_gk_samples(counters, span, args, kwargs, result):
    counters[span + ".samples"] += int(_arg(args, kwargs, 7, "mc_samples"))


def _count_replicates(counters, span, args, kwargs, result):
    counters[span + ".replicates"] += result.replicates


def _count_points(counters, span, args, kwargs, result):
    counters[span + ".points"] += len(result)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The per-layer metrics of one round: run totals divided by the round count."""
    dur = tracer.durations()
    cnt = tracer.counters

    def calls(name):
        return dur[name][0] if name in dur else 0

    def total(name):
        return dur[name][1] if name in dur else 0.0

    def self_s(name):
        return dur[name][2] if name in dur else 0.0

    m = {}
    m["montecarlo.stream.calls"] = (calls("montecarlo.stream"), "count")
    m["montecarlo.stream.s"] = (total("montecarlo.stream"), "s")
    m["geomgraph.sample.points"] = (cnt["geomgraph.sample.points"], "count")
    m["geomgraph.sample.s"] = (total("geomgraph.sample"), "s")
    for pat in (*BUILTIN_PATTERNS.values(), "custom"):
        span = f"geomgraph.count_subgraphs.{pat}"
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.s"] = (total(span), "s")
        m[f"{span}.copies"] = (cnt[f"{span}.copies"], "count")
    tuples = cnt["geomgraph.pattern_indicator.tuples"]
    m["geomgraph.pattern_indicator.tuples"] = (tuples, "count")
    m["geomgraph.pattern_indicator.s"] = (total("geomgraph.pattern_indicator"), "s")
    cache = tracer.originals["montecarlo.coupling_bias"].cache_info()
    m["montecarlo.coupling_bias.s"] = (total("montecarlo.coupling_bias"), "s")
    m["montecarlo.coupling_bias.hits"] = (cache.hits, "count")
    m["montecarlo.coupling_bias.misses"] = (cache.misses, "count")
    m["montecarlo.wasserstein_to_normal.s"] = (total("montecarlo.wasserstein_to_normal"), "s")
    m["montecarlo.fit.s"] = (total("montecarlo.fit_distance_powerlaw")
                             + total("montecarlo.ols_loglog"), "s")
    m["geomgraph.regime_experiment.self_s"] = (self_s("geomgraph.regime_experiment"), "s")
    m["geomgraph.variance_lower_bound_check.s"] = (
        total("geomgraph.variance_lower_bound_check"), "s")
    m["geomgraph.gk_contraction_mc.s"] = (total("geomgraph.gk_contraction_mc"), "s")
    m["geomgraph.gk_contraction_mc.samples"] = (
        cnt["geomgraph.gk_contraction_mc.samples"], "count")
    m["montecarlo.simulate.s"] = (total("montecarlo.simulate"), "s")
    m["montecarlo.simulate.replicates"] = (cnt["montecarlo.simulate.replicates"], "count")
    m["montecarlo.ustat_values_from_count_matrix.s"] = (
        total("montecarlo.ustat_values_from_count_matrix"), "s")
    m["hoeffding.decompose.calls"] = (calls("hoeffding.decompose"), "count")
    m["hoeffding.decompose.s"] = (total("hoeffding.decompose"), "s")
    m["hoeffding.variance.s"] = (total("hoeffding.variance"), "s")
    m["contractions.contract.calls"] = (calls("contractions.contract"), "count")
    m["contractions.contract.s"] = (total("contractions.contract"), "s")
    m["contractions.verify_contraction_inequalities.s"] = (
        total("contractions.verify_contraction_inequalities"), "s")
    m["core.symmetrize.calls"] = (calls("core.symmetrize"), "count")
    m["core.symmetrize.s"] = (total("core.symmetrize"), "s")
    m["product.product_kernels.s"] = (total("product.product_kernels"), "s")
    m["product.verify_product_formula.s"] = (total("product.verify_product_formula"), "s")
    m["product.prefactor_ratio.calls"] = (calls("product.prefactor_ratio"), "count")
    m["product.prefactor_ratio.s"] = (total("product.prefactor_ratio"), "s")
    for fn in ("bound_degenerate_1d", "bound_dominant", "bound_general",
               "bound_multivariate"):
        m[f"bounds.{fn}.s"] = (total(f"bounds.{fn}"), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.canonical_json.s"] = (total("cli.canonical_json"), "s")

    out = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in m.items()}
    hits = cnt["geomgraph.pattern_indicator.hits"]
    out["geomgraph.pattern_indicator.hit_ratio"] = {
        "value": hits / tuples if tuples else 0.0, "unit": "ratio"}
    return out
