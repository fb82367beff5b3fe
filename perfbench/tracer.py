"""Spans and exact counters around spraylab's layers, attached from outside.

The tracer changes no file of the library.  While a :meth:`Tracer.active`
block runs, it replaces module functions, methods and cached properties of
spraylab with wrappers, and puts the originals back when the block ends,
so untraced operations run the library exactly as shipped.

Each span records its name, start, end, parent span and the id of the point
being processed.  Spans stay in memory until :meth:`Tracer.write`.  A
span's self time is its duration minus the durations of its direct
children, so the self times of one operation add up to its root span.

Counters are kept per point and are exact: they count calls and the sizes
of their arguments, never time, so two runs over the same points give the
same numbers whether spans are recorded or not.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import resource
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter

SETUP = -1
WARM_UP = -2

# span name -> metric of its mean self time per point
POINT_LAYERS = {
    name: f"{name}_ms" for name in (
        "cli.main", "cli.render", "geometry.frame", "geometry.curvature",
        "geometry.hcov", "measures.bh", "measures.sct", "projective.hat",
        "projective.wo", "verify.check", "jets.mul", "jets.compose",
    )
}
POINT_LAYERS["catalog"] = "catalog.op_ms"
# span name -> metric of its total self time during set-up
SETUP_LAYERS = {"jets.ring_build": "jets.ring_build_ms", "catalog": "catalog.sample_ms"}

COUNTERS = (
    "jets.mul_calls", "jets.mul_terms", "jets.mul_bytes", "jets.compose_calls",
    "jets.deriv_calls", "geometry.hcov_calls", "measures.bh_calls", "measures.bh_dirs",
    "measures.bh_minflt", "verify.checks_run", "verify.checks_failed", "cli.report_bytes",
)

FRAME_PROPS = ("F", "g", "g_values", "ginv", "ylow", "spray_coefficients", "stack")
CURVATURE_PROPS = ("N", "N_values", "Gamma", "Gamma_values", "B", "B_values", "Rik",
                   "Rik_values", "R3", "R4", "Ric", "Rscalar", "T", "T_values")
MEASURE_PROPS = ("lnsigma", "S", "S_hderiv", "S0", "tau", "chi_jets")
HAT_PROPS = ("Ghat", "hat", "hat_measure", "Rhat", "W")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Wraps spraylab's layer boundaries; ``spans=False`` keeps only the counters."""

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self.point = SETUP
        self._count = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []
        self._plan()

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name`` (unchanged when spans are off)."""
        if not self.record_spans:
            return fn
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.point)

        return wrapper

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self._count[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul(self, fn):
        # the dense product rule: every coefficient pair whose output degree
        # is at most out_deg, for every batch entry
        import numpy as np

        def wrapper(ring, a, b, out_deg, *args, **kwargs):
            c = self._count
            batch = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
            pairs = int(ring._pairs_upto[out_deg])
            c["jets.mul_calls"] += 1
            c["jets.mul_terms"] += pairs * batch
            # float64 traffic of gather a, gather b, write and reduce the
            # products, then zero and fill the output
            c["jets.mul_bytes"] += 8 * batch * (4 * pairs + ring.size
                                                + int(ring.size_upto[out_deg]))
            if batch > c["jets.peak_batch"]:
                c["jets.peak_batch"] = batch
            return fn(ring, a, b, out_deg, *args, **kwargs)

        return wrapper

    def _bh(self, fn):
        def wrapper(*args, **kwargs):
            self._count["measures.bh_calls"] += 1
            before = _minflt()
            try:
                return fn(*args, **kwargs)
            finally:
                self._count["measures.bh_minflt"] += _minflt() - before

        return wrapper

    def _nodes(self, fn):
        def wrapper(*args, **kwargs):
            theta, weights = fn(*args, **kwargs)
            self._count["measures.bh_dirs"] += len(weights)
            return theta, weights

        return wrapper

    def _result(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count["verify.checks_run"] += 1
            self._count["verify.checks_failed"] += not result.passed
            return result

        return wrapper

    def _registry(self, checks):
        return tuple(dataclasses.replace(c, fn=self.timed("verify.check", c.fn))
                     for c in checks)

    # -- patch plan ------------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, cached_property):
            new = cached_property(make(raw.func))
            new.__set_name__(owner, attr)
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw, new))

    def _span(self, owner, attrs, name):
        for attr in attrs:
            self._patch(owner, attr, lambda fn: self.timed(name, fn))

    def _plan(self):
        from spraylab import catalog, cli, geometry, jets, measures, projective, verify

        t = self.timed
        self._span(jets.PolyRing, ["__init__"], "jets.ring_build")
        self._patch(jets.PolyRing, "_mul_coeffs", lambda fn: self._mul(t("jets.mul", fn)))
        self._patch(jets, "_compose",
                    lambda fn: self._counted("jets.compose_calls", t("jets.compose", fn)))
        self._patch(jets.Jet, "deriv", lambda fn: self._counted("jets.deriv_calls", fn))

        self._span(geometry.MetricFrame, ("__init__",) + FRAME_PROPS, "geometry.frame")
        self._span(geometry, ["jet_matrix_inverse"], "geometry.frame")
        self._span(geometry.SprayStack, ("__init__",) + CURVATURE_PROPS, "geometry.curvature")
        for attr in ("hcov_values", "hcov_scalar_values"):
            self._patch(geometry.SprayStack, attr,
                        lambda fn: self._counted("geometry.hcov_calls", t("geometry.hcov", fn)))

        self._patch(measures, "bh_density", lambda fn: self._bh(t("measures.bh", fn)))
        self._patch(measures, "sphere_nodes", self._nodes)
        self._span(measures.MeasureStack, MEASURE_PROPS + ("chi_values",), "measures.sct")
        self._span(measures.VolumeForm, ["lnsigma_jet"], "measures.sct")

        self._span(projective.ProjectiveStack, HAT_PROPS + ("weyl_values",), "projective.hat")
        self._span(projective.ProjectiveStack, ["wo_values"], "projective.wo")

        self._patch(verify, "REGISTRY", self._registry)
        self._patch(verify, "_result", self._result)
        self._span(cli, ["_render"], "cli.render")
        self._span(catalog, ["build", "sample"], "catalog")

    # -- use ------------------------------------------------------------------

    @contextmanager
    def active(self, point: int):
        """Install every wrapper and attribute spans and counts to ``point``."""
        self.point = point
        self._count = self.counts.setdefault(point, Counter())
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)

    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds of self time per (point, span name)."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, point in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[tuple[int, str], float] = defaultdict(float)
        for idx, (name, start, end, parent, point) in enumerate(self.spans):
            out[point, name] += end - start - children[idx]
        return out

    def write(self, path):
        """All spans as CSV, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_us", "end_us", "parent", "point"])
            for idx, (name, start, end, parent, point) in enumerate(self.spans):
                out.writerow([idx, name, round((start - origin) * 1e6, 1),
                              round((end - origin) * 1e6, 1), parent, point])
