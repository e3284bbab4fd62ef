"""Span recorder and per-layer metrics for the traced benchmark run.

Wrappers are installed from outside the package on the names that consumer
modules bound (``tenclass.subdivision.apply_batch``,
``tenclass.classifiers.decide_form_nonneg``, ...) and removed afterwards, so
the untraced run executes the original functions and nothing under ``src/``
changes.  Each span stores its name, start, end and the index of the span
that was open when it started; a span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

CORE_FUNCTIONS = ("apply", "apply_batch", "form_batch", "form_value", "apply_jacobian")
ENGINES = {
    "decide_all_components_negative": "subdivision.component",
    "decide_form_nonneg": "subdivision.form",
    "search_nonneg_solution": "subdivision.feasibility",
}
DECISIONS = ("component_decision", "form_decision", "feasibility_decision")
# the contractions a polishing or witness re-check evaluates one point at a time
POINTWISE = ("core.apply", "core.form_value", "core.apply_jacobian")
BATCH = ("core.apply_batch", "core.form_batch")


class Recorder:
    """Spans kept in flat arrays: name id, parent index, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        # counters read from results at the span boundaries
        self.counts: Counter = Counter()

    def _name_index(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_index(name)
        clock = time.perf_counter
        open_spans = self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def snapshot(self) -> "Spans":
        """Copy of the spans and counters recorded so far."""
        return Spans(list(self.names), np.array(self.name_id, dtype=np.int64),
                     np.array(self.parent, dtype=np.int64), np.array(self.start),
                     np.array(self.end), Counter(self.counts))

    # -- result hooks --------------------------------------------------------

    def _on_verdict(self, v) -> None:
        c = self.counts
        c["nodes"] += v.nodes
        c[v.status] += 1
        c["witnesses"] += v.witness is not None
        c["depth_max"] = max(c["depth_max"], v.depth)

    def _on_radius(self, enc) -> None:
        self.counts["radius_iterations"] += enc.iterations
        self.counts["radius_unconverged"] += not enc.converged

    def _on_dumps(self, text) -> None:
        # tensor_digest serializes each tensor through the same module
        # global; only a dumps outside a digest writes a report
        if not self._open or self.names[self.name_id[self._open[-1]]] != "tensor_io.digest":
            self.counts["report_bytes"] += len(text)
            self.counts["report_dumps"] += 1

    # -- installation --------------------------------------------------------

    def targets(self):
        """``(owner, attribute, span name, result hook)`` for every wrapped name."""
        from tenclass import classifiers, spectral, subdivision, tensor_io, verify

        out = []
        for mod in (subdivision, spectral, classifiers, verify):
            for fn in CORE_FUNCTIONS:
                if hasattr(mod, fn):
                    out.append((mod, fn, "core." + fn, None))
        for fn, span in ENGINES.items():
            out.append((classifiers, fn, span, self._on_verdict))
        for method in DECISIONS:
            out.append((classifiers.TensorClassifier, method, "classifiers.decision", None))
        out.append((classifiers.TensorClassifier, "subtensor", "classifiers.subtensor", None))
        out.append((classifiers, "classify", "classifiers.classify", None))
        out.append((classifiers, "is_semi_positive", "classifiers.predicate", None))
        out.append((classifiers, "is_copositive", "classifiers.predicate", None))
        # classifiers reaches the radius through the module attribute, verify
        # through its own binding
        out.append((spectral, "spectral_radius_nonneg", "spectral.radius", self._on_radius))
        out.append((verify, "spectral_radius_nonneg", "spectral.radius", self._on_radius))
        out.append((classifiers, "tensor_digest", "tensor_io.digest", None))
        out.append((tensor_io, "canonical_dumps", "tensor_io.dumps", self._on_dumps))
        out.append((tensor_io, "parse_tensor", "tensor_io.parse", None))
        return out

    @contextmanager
    def installed(self):
        """Wrap every target (and each theorem suite) for the duration of the block."""
        from tenclass import verify

        saved = []
        suites = dict(verify.SUITES)
        try:
            for owner, attr, span, hook in self.targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, span, hook))
            for name, (fn, count, description) in suites.items():
                verify.SUITES[name] = (self.wrap(fn, "verify.suite." + name), count, description)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            verify.SUITES.update(suites)


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class Spans:
    names: list
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counts: Counter


def per_layer_metric_units(suite_names) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in print order."""
    units = {}
    for fn in CORE_FUNCTIONS:
        units[f"core.{fn}.calls"] = "count/pass"
        units[f"core.{fn}.us_per_call"] = "us"
    units["core.busy_s"] = "s/pass"
    for kind in ("component", "form", "feasibility"):
        units[f"subdivision.{kind}.calls"] = "count/pass"
        units[f"subdivision.{kind}.busy_s"] = "s/pass"
    units.update({
        "subdivision.nodes": "count/pass",
        "subdivision.pops": "count/pass",
        "subdivision.nodes_per_s": "1/s",
        "subdivision.self_us_per_pop": "us",
        "subdivision.pointwise_share": "share",
        "subdivision.jacobian_calls_per_witness": "ratio",
        "subdivision.holds": "count/pass",
        "subdivision.fails": "count/pass",
        "subdivision.inconclusive": "count/pass",
        "subdivision.depth_max": "levels",
        "classifiers.classify.calls": "count/pass",
        "classifiers.classify.busy_s": "s/pass",
        "classifiers.self_s": "s/pass",
        "classifiers.decision_requests": "count/pass",
        "classifiers.engine_calls": "count/pass",
        "classifiers.cache_hit_ratio": "share",
        "classifiers.subtensor.us_per_call": "us",
        "spectral.radius.calls": "count/pass",
        "spectral.radius.us_per_call": "us",
        "spectral.radius.iterations": "count/pass",
        "spectral.radius.unconverged": "count/pass",
        "tensor_io.dumps.us_per_call": "us",
        "tensor_io.report_bytes": "bytes/pass",
        "tensor_io.digest.us_per_call": "us",
        "tensor_io.parse.us_per_call": "us",
    })
    for name in suite_names:
        units[f"verify.suite.{name}.s"] = "s/pass"
    units["verify.instances_per_s"] = "1/s"
    units["trace.overhead_share"] = "share"
    return units


def layer_metrics(spans: Spans, passes: int, overhead: float, suite_names) -> dict:
    """Per-layer values, counts and busy times as means per traced pass.

    ``None`` marks a metric that does not apply to the workload.  Over a
    single pass the counts are exact and repeat across runs at one seed.
    """
    names = spans.names
    nid = spans.name_id
    parent = spans.parent
    dur = spans.end - spans.start
    has_parent = parent >= 0
    cover = np.zeros(dur.size)
    np.add.at(cover, parent[has_parent], dur[has_parent])
    self_time = dur - cover
    parent_nid = np.full(nid.size, -1)
    parent_nid[has_parent] = nid[parent[has_parent]]

    def ids(prefixes):
        return [i for i, n in enumerate(names) if n.startswith(prefixes)]

    def is_(span_ids, which=nid):
        return np.isin(which, span_ids)

    def one(name):
        return is_([names.index(name)] if name in names else [])

    def per_pass(x):
        return float(x) / passes

    def per_call_us(mask):
        k = int(mask.sum())
        return float(dur[mask].sum()) / k * 1e6 if k else None

    c = spans.counts
    out = {}
    core_ids = ids("core.")
    for fn in CORE_FUNCTIONS:
        m = one("core." + fn)
        out[f"core.{fn}.calls"] = per_pass(m.sum())
        out[f"core.{fn}.us_per_call"] = per_call_us(m)
    out["core.busy_s"] = per_pass(dur[is_(core_ids)].sum())

    engine_ids = ids(tuple(ENGINES.values()))
    in_engine = is_(engine_ids, parent_nid)
    engine = is_(engine_ids)
    for kind in ("component", "form", "feasibility"):
        m = one("subdivision." + kind)
        out[f"subdivision.{kind}.calls"] = per_pass(m.sum())
        out[f"subdivision.{kind}.busy_s"] = per_pass(dur[m].sum())
    engine_s = float(dur[engine].sum())
    pops = int((in_engine & is_(ids(BATCH))).sum())
    jacobian_calls = int((in_engine & one("core.apply_jacobian")).sum())
    out["subdivision.nodes"] = per_pass(c["nodes"])
    out["subdivision.pops"] = per_pass(pops)
    out["subdivision.nodes_per_s"] = c["nodes"] / engine_s if engine_s else None
    out["subdivision.self_us_per_pop"] = (
        float(self_time[engine].sum()) / pops * 1e6 if pops else None)
    out["subdivision.pointwise_share"] = (
        float(dur[in_engine & is_(ids(POINTWISE))].sum()) / engine_s if engine_s else None)
    out["subdivision.jacobian_calls_per_witness"] = (
        jacobian_calls / c["witnesses"] if c["witnesses"] else None)
    out["subdivision.holds"] = per_pass(c["Holds"])
    out["subdivision.fails"] = per_pass(c["Fails"])
    out["subdivision.inconclusive"] = per_pass(c["Inconclusive"])
    out["subdivision.depth_max"] = float(c["depth_max"]) if engine.any() else None

    classify = one("classifiers.classify")
    decisions = int(one("classifiers.decision").sum())
    out["classifiers.classify.calls"] = per_pass(classify.sum())
    out["classifiers.classify.busy_s"] = per_pass(dur[classify].sum()) if classify.any() else None
    out["classifiers.self_s"] = per_pass(self_time[is_(ids("classifiers."))].sum())
    out["classifiers.decision_requests"] = per_pass(decisions)
    out["classifiers.engine_calls"] = per_pass(engine.sum())
    out["classifiers.cache_hit_ratio"] = (
        1.0 - int(engine.sum()) / decisions if decisions else None)
    out["classifiers.subtensor.us_per_call"] = per_call_us(one("classifiers.subtensor"))

    radius = one("spectral.radius")
    out["spectral.radius.calls"] = per_pass(radius.sum())
    out["spectral.radius.us_per_call"] = per_call_us(radius)
    out["spectral.radius.iterations"] = per_pass(c["radius_iterations"])
    out["spectral.radius.unconverged"] = per_pass(c["radius_unconverged"])

    # report dumps only, as in Recorder._on_dumps: not the digest's
    dumps = one("tensor_io.dumps") & ~is_(ids("tensor_io.digest"), parent_nid)
    out["tensor_io.dumps.us_per_call"] = per_call_us(dumps)
    out["tensor_io.report_bytes"] = per_pass(c["report_bytes"]) if dumps.any() else None
    out["tensor_io.digest.us_per_call"] = per_call_us(one("tensor_io.digest"))
    out["tensor_io.parse.us_per_call"] = per_call_us(one("tensor_io.parse"))

    suites = is_(ids("verify.suite."))
    for name in suite_names:
        m = one("verify.suite." + name)
        out[f"verify.suite.{name}.s"] = per_pass(dur[m].sum()) if m.any() else None
    suite_s = float(dur[suites].sum())
    out["verify.instances_per_s"] = int(suites.sum()) / suite_s if suite_s else None
    out["trace.overhead_share"] = overhead
    return out
