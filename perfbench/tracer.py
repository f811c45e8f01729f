"""Outside-in tracer for lagcheck: per-layer spans and counters, recorded from
the benchmark's own files.  No file of lagcheck changes.

``Tracer.install`` rebinds public functions in their defining module and in
every ``lagcheck`` module that imported them by name, and wraps a few methods
at class level:

* ``Jet`` arithmetic is counted per method and timed as a whole.  It runs
  about 400k times per identities op, too often to keep one span per call.
* ``FrameBundle.__init__`` counts bundle builds and the points they batch.
* ``FrameBundle._get`` records a span on a cache miss only.
* ``Immersion.__init__`` wraps the family jet function of each new immersion.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the op it belongs to.
A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the traced wall time.  Jet
arithmetic is no span: its time stays in the self time of the layer that
does it, and ``jets.self_s`` totals it across layers.

A target that no longer exists is reported on stderr, and the metrics that
need it are left out; the run itself goes on.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, OP = range(5)

# (module, function) pairs traced as spans named "<module>.<function>".
FUNCTIONS = (
    ("cli", "main"),
    ("identities", "run_identity_suite"),
    ("identities", "check_structural"),
    ("identities", "check_gauss_ricci"),
    ("identities", "check_ricci_identity"),
    ("identities", "lemma_laplace_hhat"),
    ("identities", "simons_terms"),
    ("identities", "check_simons_identity"),
    ("identities", "check_simons_inequality"),
    ("geometry", "bundle_at"),
    ("geometry", "geometry_state"),
    ("geometry", "closedness_residual"),
    ("geometry", "scalar_laplacian"),
    ("geometry", "maslov_tensor_gradient"),
    ("cpn", "horizontal_lift_jets"),
    ("tensors", "spectral_summary"),
    ("quadrature", "rule_for"),
    ("quadrature", "energy_report"),
)
JET_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "scaled", "_reciprocal", "partial",
    "compose_series", "sqrt", "sin", "cos", "_trig", "exp", "truncated",
)
# cProfile files __radd__ under __add__: it is the same function.
JET_COUNTER = {"__radd__": "__add__"}

JET_FN = "immersions.jet_fn"
LAZY = "geometry.FrameBundle._get"
FD = ("geometry.scalar_laplacian", "geometry.maslov_tensor_gradient")
HEAVY = (
    "identities.check_ricci_identity",
    "identities.lemma_laplace_hhat",
    "identities.check_simons_identity",
    "identities.check_simons_inequality",
)
LIGHT = (
    "geometry.geometry_state",
    "identities.check_structural",
    "identities.check_gauss_ricci",
    "geometry.closedness_residual",
)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its child spans'."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def _has_ancestor(spans, i: int, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.jet_s = 0.0
        self.op = -1
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._jet_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()

        return traced

    def _jet_method(self, key: str, fn):
        counts, perf = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            if self._jet_depth:
                return fn(*args, **kwargs)
            self._jet_depth = 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.jet_s += perf() - t0
                self._jet_depth = 0

        return traced

    def _set(self, obj, attr: str, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _lost(self, target: str):
        if target in self.missing:
            return
        self.missing.append(target)
        print(f"TRACE TARGET MISSING: lagcheck.{target}; the metrics that need it are not reported",
              file=sys.stderr)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Wrap every target and start recording; ``uninstall`` undoes it.
        A tracer may be installed again, and keeps recording into the same
        spans and counters."""
        mods = {}
        for name in ("cli", "cpn", "geometry", "identities", "immersions", "jets", "quadrature",
                     "tensors"):
            try:
                mods[name] = importlib.import_module(f"lagcheck.{name}")
            except ImportError:
                self._lost(name)
                mods[name] = None
        importers = [m for k, m in sys.modules.items() if k == "lagcheck" or k.startswith("lagcheck.")]
        for modname, attr in FUNCTIONS:
            orig = getattr(mods[modname], attr, None)
            if orig is None:
                self._lost(f"{modname}.{attr}")
                continue
            traced = self._span(f"{modname}.{attr}", orig)
            for mod in importers:
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, traced)

        self._wrap_samples(mods["geometry"], importers)
        self._wrap_jet(mods["jets"])
        self._wrap_bundle(mods["geometry"])
        self._wrap_immersion(mods["immersions"])
        self.active = True

    def uninstall(self):
        self.active = False
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _wrap_samples(self, geometry, importers):
        orig = getattr(geometry, "scalar_samples", None)
        if orig is None:
            self._lost("geometry.scalar_samples")
            return

        def scalar_samples(imm, chart_id, coords, *args, **kwargs):
            if self.active:
                self.counts["nodes"] += len(coords)
            return orig(imm, chart_id, coords, *args, **kwargs)

        for mod in importers:
            if mod.__dict__.get("scalar_samples") is orig:
                self._set(mod, "scalar_samples", scalar_samples)

    def _wrap_jet(self, jets):
        cls = getattr(jets, "Jet", None)
        if cls is None:
            self._lost("jets.Jet")
            return
        for name in JET_METHODS:
            if name not in cls.__dict__:
                self._lost(f"jets.Jet.{name}")
                continue
            self._set(cls, name, self._jet_method(JET_COUNTER.get(name, name), cls.__dict__[name]))

    def _wrap_bundle(self, geometry):
        cls = getattr(geometry, "FrameBundle", None)
        if cls is None:
            self._lost("geometry.FrameBundle")
            return
        init, get = cls.__dict__.get("__init__"), cls.__dict__.get("_get")

        def __init__(fb, *args, **kwargs):
            if self.active:
                self.counts["bundle_builds"] += 1
            init(fb, *args, **kwargs)
            if self.active:
                batch = getattr(fb, "batch", None)
                if batch is None:
                    self._lost("geometry.FrameBundle.batch")
                self.counts["bundle_points"] += batch or 0

        self._set(cls, "__init__", __init__)
        if get is None:
            self._lost("geometry.FrameBundle._get")
            return
        traced_get = self._span(LAZY, get)

        def _get(fb, key, fn):
            if key in getattr(fb, "_cache", ()):
                return get(fb, key, fn)
            return traced_get(fb, key, fn)

        self._set(cls, "_get", _get)

    def _wrap_immersion(self, immersions):
        cls = getattr(immersions, "Immersion", None)
        if cls is None:
            self._lost("immersions.Immersion")
            return
        init = cls.__dict__["__init__"]

        def __init__(imm, *args, **kwargs):
            init(imm, *args, **kwargs)
            if self.active:
                imm.jet_fn = self._span(JET_FN, imm.jet_fn)

        self._set(cls, "__init__", __init__)

    # -- results ---------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics as means per op; targets that were missing
        leave their metrics out."""
        spans = self.spans
        own = self_times(spans)
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[NAME]].append(i)

        def self_s(name):
            return sum(own[i] for i in by_name[name])

        def count(name, outermost=False):
            return sum(1 for i in by_name[name] if not (outermost and _has_ancestor(spans, i, (name,))))

        def inclusive(names, exclude_under):
            return sum(spans[i][END] - spans[i][START]
                       for name in names for i in by_name[name]
                       if not _has_ancestor(spans, i, exclude_under))

        c = self.counts
        # metric -> (value, targets it needs)
        table = {
            "jets.mul_calls": (c["__mul__"], ("jets.Jet", "jets.Jet.__mul__")),
            "jets.add_calls": (c["__add__"], ("jets.Jet", "jets.Jet.__add__", "jets.Jet.__radd__")),
            "jets.self_s": (self.jet_s, ("jets.Jet",)),
            "immersions.jet_fn_calls": (count(JET_FN, outermost=True), ("immersions.Immersion",)),
            "immersions.jet_fn_s": (self_s(JET_FN), ("immersions.Immersion",)),
            "cpn.lift_calls": (count("cpn.horizontal_lift_jets"), ("cpn.horizontal_lift_jets",)),
            "cpn.lift_s": (self_s("cpn.horizontal_lift_jets"), ("cpn.horizontal_lift_jets",)),
            "geometry.bundle_builds": (c["bundle_builds"], ("geometry.FrameBundle",)),
            "geometry.bundle_points": (c["bundle_points"],
                                       ("geometry.FrameBundle", "geometry.FrameBundle.batch")),
            "geometry.frame_s": (self_s("geometry.bundle_at"), ("geometry.bundle_at",)),
            "geometry.lazy_s": (self_s(LAZY), ("geometry.FrameBundle", LAZY)),
            "geometry.state_s": (self_s("geometry.geometry_state"), ("geometry.geometry_state",)),
            "geometry.fd_calls": (sum(count(n) for n in FD), FD),
            "geometry.fd_s": (inclusive(FD, FD), FD),
            "tensors.spectral_s": (self_s("tensors.spectral_summary"), ("tensors.spectral_summary",)),
            "identities.heavy_points": (count(HEAVY[0]), HEAVY[:1]),
            "identities.simons_terms_calls": (count("identities.simons_terms"), ("identities.simons_terms",)),
            "identities.heavy_s": (inclusive(HEAVY, HEAVY), HEAVY),
            "identities.light_s": (inclusive(LIGHT, LIGHT + HEAVY), LIGHT),
            "quadrature.nodes": (c["nodes"], ("geometry.scalar_samples",)),
            "quadrature.rule_s": (self_s("quadrature.rule_for"), ("quadrature.rule_for",)),
            "quadrature.reduce_s": (self_s("quadrature.energy_report"), ("quadrature.energy_report",)),
            "cli.self_s": (self_s("cli.main"), ("cli.main",)),
        }
        lost = set(self.missing)
        return {name: value / ops for name, (value, needs) in table.items() if lost.isdisjoint(needs)}

    def dump(self, path: Path):
        """Write every span, the counters and the Jet time as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "jet_s": self.jet_s,
            "missing": self.missing,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
