"""Spans around the library's public functions, recorded from outside.

:func:`install` replaces each traced function wherever a caller looks it
up: in every ``safemdp`` module that holds it (``explorer`` imports
``compute_safe_sets``, ``shortest_safe_path``, ``r_ret_fixpoint`` ... by
name; ``safeset`` and ``reach`` hold ``r_reach`` and ``r_ret_fixpoint``),
and on the classes for methods.  Spans are kept in memory and written out
at the end of the run.

The explore loop has no function per iteration, so the tracer derives two
spans from the calls it sees inside ``run_safemdp``: ``explorer.iteration``
runs from one ``advance`` entry to the next, and ``explorer.final_closure``
starts at the second ``compute_safe_sets`` call after the last ``advance``
(the loop classifies once per iteration; everything after is the closure).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

ITERATION = "explorer.iteration"
CLOSURE = "explorer.final_closure"
RUN = "explorer.run_safemdp"
SETUP = "terrain.setup"

#: Bytes per element of the float64 distance blocks ``Mdp.distances`` returns.
_FLOAT_BYTES = 8


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int
    episode: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.episode = -1
        self._classified = False

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.episode))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        """Close ``index`` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def top(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    # -- loop structure inside run_safemdp ---------------------------------

    def enter_advance(self) -> None:
        top = self.top()
        if top is None or top.name not in (RUN, ITERATION):
            return
        if top.name == ITERATION:
            self.close(self.stack[-1])
        self.open(ITERATION)
        self._classified = False

    def enter_classification(self) -> None:
        top = self.top()
        if top is None or top.name != ITERATION:
            return
        if self._classified:
            self.close(self.stack[-1])
            self.open(CLOSURE)
        self._classified = True

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                         "parent": s.parent, "episode": s.episode,
                                         **s.attrs}) + "\n")


@contextlib.contextmanager
def null_span(name: str):
    yield None


# ---------------------------------------------------------------------------
# wrappers


def _elements(args, result):
    return {"elements": int(result.size)}


def _mask_size(args, result):
    return {"size": int(result[0].sum())}


def _hops(args, result):
    return {"hops": len(result)}


# (span name, module, attribute, attrs-from-result)
_FUNCTIONS = (
    (RUN, "explorer", "run_safemdp", None),
    ("safeset.compute_safe_sets", "safeset", "compute_safe_sets", None),
    ("safeset.classify_safe", "safeset", "classify_safe", None),
    ("safeset.ergodic_safe", "safeset", "ergodic_safe", None),
    ("safeset.expanders", "safeset", "expanders", _mask_size),
    ("safeset.acquisition_target", "safeset", "acquisition_target", None),
    ("reach.r_reach", "reach", "r_reach", None),
    ("reach.r_ret_fixpoint", "reach", "r_ret_fixpoint", None),
    ("reach.r_safe_eps", "reach", "r_safe_eps", None),
    ("reach.r_eps", "reach", "r_eps", None),
    ("reach.r_eps_fixpoint", "reach", "r_eps_fixpoint", None),
    ("planner.shortest_safe_path", "planner", "shortest_safe_path", _hops),
    ("terrain.synth_terrain", "terrain", "synth_terrain", None),
    ("terrain.build_terrain_environment", "terrain", "build_terrain_environment", None),
    ("terrain.difference_band_model", "terrain", "difference_band_model", None),
    ("terrain.height_gp", "terrain", "height_gp", None),
    ("terrain.height_gp_to_difference_bands", "terrain", "height_gp_to_difference_bands", None),
)

# (span name, module, class, method, attrs-from-result)
_METHODS = (
    ("gp.advance", "explorer", "GpBandModel", "advance", None),
    ("gp.advance", "terrain", "HeightGpBandModel", "advance", None),
    ("gp.posterior", "gp", "GpModel", "posterior", None),
    ("gp.add_observation", "gp", "GpModel", "add_observation", None),
    ("gp.posterior_cov_pairs", "gp", "GpModel", "posterior_cov_pairs", None),
    ("gp.cov", "gp", "StationaryCovariance", "matrix", _elements),
    ("terrain.diff_cov", "terrain", "DifferenceCovariance", "matrix", _elements),
    ("mdp.distances", "mdp", "Mdp", "distances", _elements),
)

_MODULES = ("gp", "mdp", "reach", "safeset", "planner", "explorer", "terrain", "cli")


def _wrap(tracer: Tracer, name: str, fn, attrs_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "gp.advance":
            tracer.enter_advance()
        elif name == "safeset.compute_safe_sets":
            tracer.enter_classification()
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                tracer.spans[index].attrs.update(attrs_of(args, result))
            return result
        finally:
            tracer.close(index)
    return traced


def _count_application(tracer: Tracer, fn):
    """``r_ret_one`` is called once per application of ``r_ret_fixpoint``;
    count it on the enclosing span instead of opening one per call."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        top = tracer.top()
        if top is not None and top.name == "reach.r_ret_fixpoint":
            top.attrs["applications"] = top.attrs.get("applications", 0) + 1
        return fn(*args, **kwargs)
    return counted


def install(tracer: Tracer):
    """Wrap every traced function and method; returns an undo callable."""
    import importlib

    modules = [importlib.import_module("safemdp")]
    modules += [importlib.import_module(f"safemdp.{m}") for m in _MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo = []

    def replace_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    for name, module, attr, attrs_of in _FUNCTIONS:
        original = getattr(by_name[module], attr)
        replace_everywhere(original, _wrap(tracer, name, original, attrs_of))
    r_ret_one = by_name["reach"].r_ret_one
    replace_everywhere(r_ret_one, _count_application(tracer, r_ret_one))
    for name, module, cls_name, method, attrs_of in _METHODS:
        cls = getattr(by_name[module], cls_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        setattr(cls, method, _wrap(tracer, name, original, attrs_of))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], ops: int) -> dict:
    """Per-operation layer totals from the spans of ``ops`` traced episodes
    (``episode >= 0``) plus the set-up span."""
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    count = defaultdict(int)
    attr_sum = defaultdict(float)
    applications_of_eps = 0
    for s, self_s in zip(spans, own):
        if s.episode < 0:
            continue
        total[s.name] += s.duration
        self_total[s.name] += self_s
        count[s.name] += 1
        for key, value in s.attrs.items():
            attr_sum[s.name, key] += value
        if s.name == "reach.r_eps" and spans[s.parent].name == "reach.r_eps_fixpoint":
            applications_of_eps += 1
    setup = sum(s.duration for s in spans if s.name == SETUP)

    def per_op(value):
        return value / ops

    def mean(name, key):
        return attr_sum[name, key] / count[name] if count[name] else 0.0

    elements = attr_sum["mdp.distances", "elements"]
    return {
        "gp.advance.s": (per_op(total["gp.advance"]), "s"),
        "gp.advance.self_s": (per_op(self_total["gp.advance"]), "s"),
        "gp.posterior.s": (per_op(total["gp.posterior"]), "s"),
        "terrain.diff_cov.elements": (per_op(attr_sum["terrain.diff_cov", "elements"]), "count"),
        "gp.cov.elements": (per_op(attr_sum["gp.cov", "elements"]), "count"),
        "gp.add_observation.s": (per_op(total["gp.add_observation"]), "s"),
        "gp.add_observation.calls": (per_op(count["gp.add_observation"]), "count"),
        "gp.posterior_cov_pairs.s": (per_op(total["gp.posterior_cov_pairs"]), "s"),
        "mdp.distances.s": (per_op(total["mdp.distances"]), "s"),
        "mdp.distances.elements": (per_op(elements), "count"),
        "mdp.distances.bytes_computed": (per_op(elements * _FLOAT_BYTES), "bytes"),
        "safeset.classify_safe.s": (per_op(total["safeset.classify_safe"]), "s"),
        "safeset.ergodic_safe.s": (per_op(total["safeset.ergodic_safe"]), "s"),
        "safeset.expanders.self_s": (per_op(self_total["safeset.expanders"]), "s"),
        "safeset.expanders.size_mean": (mean("safeset.expanders", "size"), "count"),
        "reach.r_safe_eps.s": (per_op(total["reach.r_safe_eps"]), "s"),
        "reach.r_ret_fixpoint.s": (per_op(total["reach.r_ret_fixpoint"]), "s"),
        "reach.r_ret_fixpoint.applications":
            (per_op(attr_sum["reach.r_ret_fixpoint", "applications"]), "count"),
        "reach.r_eps_fixpoint.applications": (per_op(applications_of_eps), "count"),
        "planner.shortest_safe_path.s": (per_op(total["planner.shortest_safe_path"]), "s"),
        "planner.path_hops_mean": (mean("planner.shortest_safe_path", "hops"), "count"),
        "explorer.iteration.self_s": (per_op(self_total[ITERATION]), "s"),
        "explorer.final_closure.s": (per_op(total[CLOSURE]), "s"),
        "terrain.setup.s": (setup, "s"),
        "cli.write_artifacts.s": (per_op(total["cli.write_artifacts"]), "s"),
        "trace.spans": (per_op(sum(count.values())), "count"),
    }
