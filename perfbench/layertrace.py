"""Layer tracing from outside the program.

The tracer wraps the public functions of `weylforge.jets`, `charts`,
`identities`, `algebra`, `framecalc` and `suite` while it is installed, and
restores them when it is removed.  A wrapper replaces a function under every
name a weylforge module binds it to, so callers that imported it by name
(`suite.curvature_at`, `suite.gate_satisfied`, `charts.mul_coeffs`) see the
wrapper too.  A function the program no longer has is listed in `absent` and
its metrics read 0; the run goes on.

Every wrapped call except `mul_coeffs` records a span (name, parent, start,
end) on a per-thread stack.  A point evaluated on a worker thread has the
running `run_suite` span as its parent.  `mul_coeffs` records no span: each
call adds its time, coefficient pairs and computed bytes to counters, and
its pairs also to the chart stage open on its thread.  Counter and span
updates are made under one lock.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

# Chart stages of `curvature_at`: (attribute of weylforge.charts, stage).
# `covariant_derivative` is split into `nabla_w` and `nabla_riem_ric` by its
# input, see Tracer._stage_of.
CHART_STAGES = (
    ("MetricChart.metric_jets", "metric"),
    ("inverse_metric_jets", "inverse"),
    ("christoffel_jets", "christoffel"),
    ("riemann_jets", "riemann"),
    ("ricci_jets", "ricci"),
    ("weyl_jets", "weyl"),
    ("covariant_derivative", None),
    ("norm_sq_field", "norm_sq"),
    ("duality_cross_field", "duality_cross"),
    ("scalar_jet_laplacian", "scalar_laplacian"),
    ("orthonormal_frame", "frame"),
    ("to_frame", "frame"),
)
STAGES = ("metric", "inverse", "christoffel", "riemann", "ricci", "weyl",
          "nabla_w", "nabla_riem_ric", "norm_sq", "duality_cross",
          "scalar_laplacian", "frame")

# Other spans: (module, attribute, span name).  `charts.curvature_at` is a
# span too, see Tracer._curvature_wrapper.  The chart helpers are children of
# the stage that calls them and get no metric of their own.
LAYER_SPANS = (
    ("suite", "run_suite", "suite.run"),
    ("suite", "_evaluate_point", "suite.point"),
    ("suite", "render_json", "suite.render"),
    ("charts", "epsilon_jets", "charts.epsilon_jets"),
    ("charts", "raise_all_indices", "charts.raise_all_indices"),
    ("identities", "gate_satisfied", "identities.gate"),
    ("identities", "SectorPack.__init__", "identities.sector_pack"),
    ("algebra", "lambda_split", "algebra.lambda_split"),
    ("algebra", "derdzinski_frame", "algebra.derdzinski_frame"),
    ("framecalc", "extract_frame_derivatives", "framecalc.extract"),
)

# Per-layer self times: metric name -> span name.
SELF_TIMES = {
    "identities.gate_s": "identities.gate",
    "identities.eval_s": "identities.eval",
    "identities.sector_pack_s": "identities.sector_pack",
    "algebra.lambda_split_s": "algebra.lambda_split",
    "algebra.derdzinski_frame_s": "algebra.derdzinski_frame",
    "framecalc.extract_s": "framecalc.extract",
}


def hom_count(degree: int) -> int:
    """Monomials of one degree in four variables."""
    return math.comb(degree + 3, 3)


@functools.lru_cache(maxsize=None)
def pairs_per_element(order_a: int, order_b: int, order_out: int) -> int:
    """Coefficient pairs one truncated product multiplies, per element.

    Every monomial of degree da in one factor meets every monomial of degree
    db in the other, for all da <= order_a, db <= order_b, da + db <=
    order_out: the summed lengths of the degree-pair tables `mul_coeffs`
    runs over.
    """
    return sum(hom_count(da) * hom_count(db)
               for da in range(min(order_a, order_out) + 1)
               for db in range(min(order_b, order_out - da) + 1))


class _Frame:
    __slots__ = ("sid", "stage")

    def __init__(self, sid, stage):
        self.sid = sid
        self.stage = stage


class Tracer:
    """Spans and counters of one or more traced iterations."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._patches = []
        self._run_sid = None
        self.absent = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counters (not the installed wrappers)."""
        with self._lock:
            self.spans = []   # (sid, parent sid, name, stage, start, end)
            self.counts = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _current_stage(self):
        stack = self._stack()
        return stack[-1].stage if stack else None

    def _call(self, name, fn, args, kwargs, stage=None):
        stack = self._stack()
        outer = stack[-1].stage if stack else None
        with self._lock:
            sid = next(self._ids)
            parent = stack[-1].sid if stack else self._run_sid
            if name == "suite.run" and not stack:
                self._run_sid = sid
        # a stage nested in another stage counts toward the outer one
        own_stage = stage if outer is None else None
        stack.append(_Frame(sid, outer or stage))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, own_stage, start, end))
                if sid == self._run_sid:
                    self._run_sid = None

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _stage_wrapper(self, stage, fn):
        def wrapper(*args, **kwargs):
            st = stage or self._stage_of(args)
            result = self._call(f"charts.{st}", fn, args, kwargs, stage=st)
            weyl_stack = getattr(self._tls, "weyl_stack", None)
            if st in ("weyl", "nabla_w") and weyl_stack is not None:
                weyl_stack.add(id(result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _stage_of(self, args) -> str:
        """covariant_derivative on the W stack is nabla_w; else nabla_riem_ric.

        The weyl and nabla_w wrappers record the arrays they return for the
        `curvature_at` call running on this thread.
        """
        if id(args[0]) in (getattr(self._tls, "weyl_stack", None) or ()):
            return "nabla_w"
        return "nabla_riem_ric"

    def _curvature_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            saved = getattr(self._tls, "weyl_stack", None)
            self._tls.weyl_stack = set()
            try:
                return self._call("charts.curvature_at", fn, args, kwargs)
            finally:
                self._tls.weyl_stack = saved
        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_wrapper(self, fn):
        def mul_coeffs(a, b, order_a, order_b, order_out):
            start = time.perf_counter()
            out = fn(a, b, order_a, order_b, order_out)
            dt = time.perf_counter() - start
            pairs = (out.size // out.shape[-1]) * pairs_per_element(
                order_a, order_b, order_out)
            nbytes = a.nbytes + b.nbytes + out.nbytes
            stage = self._current_stage()
            with self._lock:
                c = self.counts
                c["jets.mul_calls"] += 1
                c["jets.mul_pairs"] += pairs
                c["jets.mul_s"] += dt
                c["jets.mul_bytes_computed"] += nbytes
                if stage is not None:
                    c[f"charts.{stage}.mul_pairs"] += pairs
            return out
        mul_coeffs.__wrapped__ = fn
        return mul_coeffs

    def _eval_wrapper(self, fn):
        def evaluate(pd):
            return self._call("identities.eval", fn, (pd,), {})
        evaluate.__wrapped__ = fn
        return evaluate

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap the program's layer functions; see the module docstring."""
        mods = {}
        for name in ("jets", "charts", "identities", "algebra", "framecalc",
                     "suite"):
            try:
                mods[name] = importlib.import_module(f"weylforge.{name}")
            except ImportError:
                mods[name] = None
        self._replace(mods, "jets", "mul_coeffs", self._mul_wrapper)
        self._replace(mods, "charts", "curvature_at", self._curvature_wrapper)
        for attr, stage in CHART_STAGES:
            self._replace(mods, "charts", attr,
                          lambda fn, s=stage: self._stage_wrapper(s, fn))
        for mod, attr, name in LAYER_SPANS:
            self._replace(mods, mod, attr,
                          lambda fn, n=name: self._span_wrapper(n, fn))
        registry = getattr(mods["identities"], "REGISTRY", None)
        try:
            for sid, spec in list(registry.items()):
                self._patches.append((registry, sid, spec, "item"))
                registry[sid] = dataclasses.replace(
                    spec, evaluate=self._eval_wrapper(spec.evaluate))
        except (AttributeError, TypeError):
            self.absent.append("identities.REGISTRY[*].evaluate")
        return self

    def _replace(self, mods, mod, attr, make):
        owner = mods[mod]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{mod}.{attr}")
            return
        wrapper = make(original)
        if path:   # a method: patch the class attribute
            self._patches.append((owner, name, original, "attr"))
            setattr(owner, name, wrapper)
            return
        for mname, module in list(sys.modules.items()):
            if mname != "weylforge" and not mname.startswith("weylforge."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, "attr"))
                    setattr(module, key, wrapper)

    def remove(self):
        """Put every wrapped function back."""
        for owner, key, original, kind in reversed(self._patches):
            if kind == "item":
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- summarising -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of everything recorded since the last reset.

        Chart stage times include the stage's kernel calls and helper
        children; the identities/algebra/framecalc times and suite.self_s are
        self times: span time minus the part of it covered by child spans.
        Times are summed over threads.
        """
        with self._lock:
            spans = list(self.spans)
            counts = dict(self.counts)
        children = defaultdict(list)
        for sid, parent, name, stage, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        self_time = defaultdict(float)
        stage_time = defaultdict(float)
        total = defaultdict(float)
        points = []
        for sid, parent, name, stage, start, end in spans:
            covered = _covered(children.get(sid, ()), start, end)
            self_time[name] += (end - start) - covered
            total[name] += end - start
            if stage is not None:
                stage_time[stage] += end - start
            if name == "suite.point":
                points.append(end - start)

        m = {k: counts.get(k, 0.0) for k in
             ("jets.mul_calls", "jets.mul_pairs", "jets.mul_s",
              "jets.mul_bytes_computed")}
        m["jets.mul_ns_per_pair"] = (m["jets.mul_s"] * 1e9
                                     / max(m["jets.mul_pairs"], 1.0))
        m["charts.curvature_at_s"] = total["charts.curvature_at"]
        for st in STAGES:
            m[f"charts.{st}_s"] = stage_time[st]
            m[f"charts.{st}.mul_pairs"] = counts.get(
                f"charts.{st}.mul_pairs", 0.0)
        for metric, name in SELF_TIMES.items():
            m[metric] = self_time[name]
        m["suite.self_s"] = self_time["suite.run"] + self_time["suite.point"]
        m["suite.render_s"] = total["suite.render"]
        m["suite.point_p50_s"] = statistics.median(points) if points else 0.0
        m["suite.point_max_s"] = max(points, default=0.0)
        return m


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
