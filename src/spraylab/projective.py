"""Projective spray and the projectively invariant curvatures.

Subtracting the S-curvature trace from a spray gives a second spray with
vanishing S-curvature and chi; its trace-adjusted Riemann curvature is the
Weyl tensor W^i_k, and horizontal derivatives of its Ricci scalar give the
one-form W^o_k.  Both admit several equivalent expressions, kept here as
separate routes so they can serve as mutual oracles.  W is a projective
invariant of the spray alone, read as the hat stack's ``T`` or as the base
stack's ``weyl`` via chi, which also holds its divergence.  The definition
and viaBase routes of W^o both start from ``SprayStack.wo_terms``, of the
hat and the base stack.

Routes for W^o_k (hat marks the projective spray, n the dimension):

    definition   Rhat_{||k} - (1/2) (Rhat_{.k})_{||m} y^m
    viaBase      R_{|k} - (1/2) R_{.k|m} y^m - chi_{k|m} y^m / (n+1)
                 - W^m_k S_{.m} / (n+1)
    divW         W^m_{k||m} / (n-2),  n >= 3
    divR         Rhat^m_{k||m} / (n-1)

"||" is the horizontal covariant derivative of the hat spray, "|" that of
the base spray; both come from the same SprayStack operators.
``ProjectiveStack.wo_routes`` names the routes of its dimension.

``PointContext`` is the one per-point chain, metric frame -> spray stack
-> measure stack -> projective stack, built lazily.  The CLI's ``eval``,
the identity suite, the theorem records and the Einstein-surface formula
all read their quantities from it.  It computes the ln sigma jet of a
volume form when that form's measure stack is built, and hands it on to
the hat spray (``ctx.proj.hat_measure``), a perturbed spray and a
rescaled volume.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import jets
from .errors import AdmissibilityError, ConfigError
from .expressions import as_field
from .geometry import (
    DEFAULT_DEGREE,
    MetricFrame,
    SprayStack,
    TangentPoint,
    as_spray,
    stack_for,
)
from .jets import Jet
from .measures import MeasureStack, VolumeForm, as_volume

# x-orders of ln sigma that a report reads, whatever the degree of the
# (x, y) ring.  ln sigma enters through S (one x-derivative); the hat
# spray's curvature differentiates S in x once more, and W^o takes a
# horizontal derivative of that curvature.  With one order fewer, W^o runs
# out of exact x-orders and raises DegreeBudgetError.
LNSIGMA_XDEGREE = 3

WO_ROUTES = ("definition", "viaBase", "divW", "divR")


class ProjectiveStack:
    """Hat-spray jets layered over one measure stack.

    Every quantity of the hat spray keeps two fewer exact orders than its
    base-spray counterpart (one for S, one for the y-contraction), which is
    what drives the package-wide default input degree.
    """

    def __init__(self, measure: MeasureStack):
        self.measure = measure
        self.base = measure.stack
        self.point = self.base.point
        self.n = self.base.n
        # divW divides by n - 2
        self.wo_routes = WO_ROUTES if self.n >= 3 else tuple(r for r in WO_ROUTES if r != "divW")

    @cached_property
    def Ghat(self) -> Jet:
        shift = (1.0 / (self.n + 1.0)) * self.measure.S
        return self.base.G - shift * self.base.y_jets

    @cached_property
    def hat(self) -> SprayStack:
        return SprayStack(self.point, self.Ghat)

    @cached_property
    def hat_measure(self) -> MeasureStack:
        return MeasureStack(self.hat, self.measure.lnsigma_x)

    def wo_values(self, route: str = "definition") -> np.ndarray:
        n = self.n
        if route not in self.wo_routes:
            why = "needs dimension >= 3" if route in WO_ROUTES else "is unknown"
            raise ConfigError(f"berwald-weyl route {route!r} {why}; use one of {self.wo_routes}")
        if route == "definition":
            first, half = self.hat.wo_terms
            return first - half
        if route == "viaBase":
            first, half = self.base.wo_terms
            fourth = self.hat.T.value().T @ self.measure.S_v
            frac = 1.0 / (n + 1.0)
            return first - half - frac * self.base.chi_hcov_y - frac * fourth
        if route == "divW":
            cov = self.hat.hcov_values(self.hat.T, contra=1)
            return np.einsum("mkm->k", cov) / (n - 2.0)
        return np.einsum("mkm->k", self.hat.Rik_hcov) / (n - 1.0)

    def flatness_gaps(self, fm: np.ndarray):
        """Gaps of the two BWeyl-flatness conditions for a volume change f.

        ``fm`` holds f_{x^m}.  Returns ``(b, c), (wo, wf, div, wxi)`` with
        b = W^o_k - W^m_k f_m and c = W^m_{k|m} - (n-2) W^m_k Xi_{.m},
        Xi_{.m} = S_{.m}/(n+1) + f_m, followed by the four compared terms.
        """
        wt = self.hat.T.value().T
        wo = self.wo_values("definition")
        wf = wt @ fm
        xi = self.measure.S_v / (self.n + 1.0) + fm
        wxi = (self.n - 2.0) * (wt @ xi)
        div = self.base.weyl_div
        return (wo - wf, div - wxi), (wo, wf, div, wxi)


class PointContext:
    """The lazy chain at one (metric or spray, volume, point).

    frame -> stack -> measure -> proj, each built on first use and shared
    by every quantity read afterwards.  A metric is its own spray, and its
    stack is read off its frame, so F^2 is expanded once per point.
    ``proj_for`` puts another volume form on the same stack, and gives
    ``proj`` for the context's own volume; its ``.measure`` holds S and
    tau.  ``rules`` collects ``(nodes, change)`` of every
    Busemann-Hausdorff rule the context ran.
    """

    def __init__(self, obj, volume, point: TangentPoint,
                 degree: int = DEFAULT_DEGREE):
        self.spray = as_spray(obj)
        self.metric = self.spray.metric
        self.volume = as_volume(volume)
        self.point = point
        self.degree = degree
        self.n = point.dim
        self.rules: list[tuple[int, float | None]] = []

    @cached_property
    def y(self) -> np.ndarray:
        return self.point.y_array()

    @cached_property
    def frame(self) -> MetricFrame:
        return MetricFrame(self.metric, self.point, self.degree)

    @cached_property
    def stack(self) -> SprayStack:
        if self.spray is self.metric:
            return self.frame.stack
        return stack_for(self.spray, self.point, self.degree)

    def proj_for(self, volume) -> ProjectiveStack:
        """The projective stack of this point's spray under ``volume``."""
        volume = as_volume(volume)
        return self.proj if volume == self.volume else ProjectiveStack(self._measure(volume))

    def _measure(self, volume: VolumeForm) -> MeasureStack:
        return MeasureStack(self.stack, volume.lnsigma_jet(self.metric, self.point.x,
                                                           LNSIGMA_XDEGREE, rules=self.rules))

    @cached_property
    def measure(self) -> MeasureStack:
        return self._measure(self.volume)

    @cached_property
    def proj(self) -> ProjectiveStack:
        return ProjectiveStack(self.measure)


def volume_change(f, point: TangentPoint) -> np.ndarray:
    """f_{x^m} of a conformal factor f at ``point``; zeros for no f."""
    field = as_field(f, point.dim)
    return np.zeros(point.dim) if field is None else field.jet(point.x, 2).gradient()


def _reject_non_einstein(metric, point: TangentPoint):
    """Ric must factor as (n-1) K(x) F^2; probe several y at the same x."""
    vals = []
    for t in np.linspace(0.1, math.pi - 0.2, 6):
        probe = TangentPoint(point.x, (math.cos(t), math.sin(t)))
        frame = MetricFrame(metric, probe, degree=4)
        vals.append(frame.stack.Rscalar.value() / frame.fsq.value())
    spread = max(vals) - min(vals)
    scale = max(abs(v) for v in vals) + 1e-12
    if spread > 1e-6 * scale + 1e-9:
        raise AdmissibilityError(
            f"Ricci factor of {metric.name} varies with y at x={point.x}; not Einstein"
        )


def einstein_wo(ctx: PointContext) -> np.ndarray:
    """The closed form F^3 (theta/F)_{.k} of W^o_k on an Einstein surface.

    Applies to 2-dimensional metrics whose Ricci scalar factors as K(x) F^2
    and whose S-curvature under the intrinsic volume form is constant; any
    Riemannian surface qualifies.  theta = K_{x^m} y^m.  In dimension two
    W^o does not depend on the volume form, so ``ctx.proj.wo_values()``
    is the side to compare, whatever the context's volume.
    """
    if ctx.metric is None or ctx.n != 2:
        raise ConfigError("the Einstein surface check needs a 2-dimensional metric")
    _reject_non_einstein(ctx.metric, ctx.point)
    frame, st = ctx.frame, ctx.frame.stack
    sigma = st.Rscalar * jets.reciprocal(frame.fsq)
    theta = (sigma.grad(st.xs) * st.y_jets).einsum("m->")
    ratio = theta * jets.reciprocal(frame.F)
    return frame.F.value() ** 3 * ratio.gradient(st.ys)
