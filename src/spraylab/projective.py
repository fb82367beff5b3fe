"""Projective spray and the projectively invariant curvatures.

Subtracting the S-curvature trace from a spray gives a second spray with
vanishing S-curvature and chi; its trace-adjusted Riemann curvature is the
Weyl tensor W^i_k, and horizontal derivatives of its Ricci scalar give the
one-form W^o_k.  Both admit several equivalent expressions, kept here as
separate routes so they can serve as mutual oracles.

Routes for W^o_k (hat marks the projective spray, n the dimension):

    definition   Rhat_{||k} - (1/2) (Rhat_{.k})_{||m} y^m
    viaBase      R_{|k} - (1/2) R_{.k|m} y^m - chi_{k|m} y^m / (n+1)
                 - W^m_k S_{.m} / (n+1)
    divW         W^m_{k||m} / (n-2),  n >= 3
    divR         Rhat^m_{k||m} / (n-1)

"||" is the horizontal covariant derivative of the hat spray, "|" that of
the base spray; both come from the same SprayStack operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .errors import AdmissibilityError, ConfigError
from .expressions import as_field
from .geometry import (
    DEFAULT_DEGREE,
    MetricFrame,
    Spray,
    SprayStack,
    TangentPoint,
    spray_and_metric,
    stack_for,
)
from .jets import Jet
from .measures import MeasureStack, VolumeForm, measure_stack

WEYL_ROUTES = ("viaChi", "viaHat")
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
        self.ring = self.base.ring

    @cached_property
    def Ghat(self) -> Jet:
        shift = (1.0 / (self.n + 1.0)) * self.measure.S
        return self.base.G - shift * self.base.y_jets

    @cached_property
    def hat(self) -> SprayStack:
        return SprayStack(self.point, self.Ghat)

    @cached_property
    def hat_measure(self) -> MeasureStack:
        return MeasureStack(self.hat, self.measure.volume, self.measure.metric)

    @cached_property
    def Rhat(self) -> Jet:
        return self.hat.Rscalar

    @cached_property
    def W(self) -> Jet:
        """Weyl tensor as jets: the trace-adjusted hat curvature."""
        return self.hat.T

    @cached_property
    def wo_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Rhat_{||k} and (1/2) (Rhat_{.k})_{||m} y^m; W^o by definition is their difference."""
        return self.hat.Rscalar_hcov, 0.5 * (self.hat.Rscalar_vhcov @ self.point.y_array())

    @cached_property
    def base_pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """R_{|k}, R_{.k|m} y^m, chi_{k|m} y^m along the base spray."""
        st = self.base
        y = self.point.y_array()
        chi_cov = st.hcov_values(self.measure.chi_jets, contra=0)
        return st.Rscalar_hcov, st.Rscalar_vhcov @ y, chi_cov @ y

    @cached_property
    def weyl_base(self) -> Jet:
        """Weyl tensor as base-ring jets (trace-adjusted curvature plus chi)."""
        st = self.base
        chi = self.measure.chi_jets
        return st.T + (3.0 / (self.n + 1.0)) * st.y_jets[:, None] * chi[None, :]

    @cached_property
    def weyl_div(self) -> np.ndarray:
        """W^m_{k|m}, the divergence of the Weyl tensor along the base spray."""
        return np.einsum("mkm->k", self.base.hcov_values(self.weyl_base, contra=1))

    def weyl_values(self, route: str = "viaHat") -> np.ndarray:
        if route == "viaHat":
            return self.W.value()
        if route == "viaChi":
            chi = self.measure.chi_values("fromR")
            y = self.point.y_array()
            return self.base.T_values + (3.0 / (self.n + 1.0)) * np.outer(y, chi)
        raise ConfigError(f"unknown weyl route {route!r}; use one of {WEYL_ROUTES}")

    def wo_values(self, route: str = "definition") -> np.ndarray:
        n = self.n
        if route == "definition":
            first, half = self.wo_terms
            return first - half
        if route == "viaBase":
            first, second, third = self.base_pieces
            fourth = self.weyl_values("viaHat").T @ self.measure.S_v
            frac = 1.0 / (n + 1.0)
            return first - 0.5 * second - frac * third - frac * fourth
        if route == "divW":
            if n < 3:
                raise ConfigError("route 'divW' divides by n - 2 and needs dimension >= 3")
            cov = self.hat.hcov_values(self.W, contra=1)
            return np.einsum("mkm->k", cov) / (n - 2.0)
        if route == "divR":
            return np.einsum("mkm->k", self.hat.Rik_hcov) / (n - 1.0)
        raise ConfigError(f"unknown berwald-weyl route {route!r}; use one of {WO_ROUTES}")

    def flatness_gaps(self, fm: np.ndarray):
        """Gaps of the two BWeyl-flatness conditions for a volume change f.

        ``fm`` holds f_{x^m}.  Returns ``(b, c), (wo, wf, div, wxi)`` with
        b = W^o_k - W^m_k f_m and c = W^m_{k|m} - (n-2) W^m_k Xi_{.m},
        Xi_{.m} = S_{.m}/(n+1) + f_m, followed by the four compared terms.
        """
        wt = self.weyl_values("viaHat").T
        wo = self.wo_values("definition")
        wf = wt @ fm
        xi = self.measure.S_v / (self.n + 1.0) + fm
        wxi = (self.n - 2.0) * (wt @ xi)
        return (wo - wf, self.weyl_div - wxi), (wo, wf, self.weyl_div, wxi)


class ProjectiveSpray(Spray):
    """The spray G^i - S y^i/(n+1) for a fixed volume form."""

    def __init__(self, base: Spray, volume: VolumeForm):
        self.base = base
        self.volume = volume
        self.dim = base.dim
        self.name = f"projective({base.name})"
        self.metric = base.metric
        self.default_box = base.default_box

    def coefficients(self, point: TangentPoint, degree: int) -> Jet:
        st = stack_for(self.base, point, degree)
        return ProjectiveStack(MeasureStack(st, self.volume, self.base.metric)).Ghat

    def admissible(self, point: TangentPoint) -> bool:
        return self.base.admissible(point)


# -- result bundles -----------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveEval:
    """Hat-spray quantities of one (spray, volume) pair at one point."""

    Ghat: Jet
    Nhat: np.ndarray
    Gammahat: np.ndarray
    Shat: float
    chihat: np.ndarray
    Rhat_ik: np.ndarray
    Rhat: float
    That: np.ndarray
    W: np.ndarray
    Wo: np.ndarray


@dataclass(frozen=True)
class VolumeChange:
    """A conformal factor f between volume forms, with its contractions."""

    f: object
    f0: float
    fm: np.ndarray
    Xi: float


@dataclass(frozen=True)
class BWeylResidual:
    """Residuals of the two equivalent flatness conditions for one f.

    ``b_residual`` is max |W^o_k - W^m_k f_m| and ``c_residual`` is
    max |W^m_{k|m} - (n-2) W^m_k Xi_{.m}|; the scales are the largest
    magnitudes among the compared terms, for relative thresholds.
    """

    b_residual: float
    c_residual: float
    b_scale: float
    c_scale: float

    def __float__(self) -> float:
        return self.c_residual


@dataclass(frozen=True)
class EinsteinCheck:
    """W^o against the closed form F^3 (theta/F)_{.k} on an Einstein surface."""

    wo: np.ndarray
    predicted: np.ndarray
    residual: float

    def __float__(self) -> float:
        return self.residual


# -- public operations ---------------------------------------------------------


def projective_stack(obj, volume: VolumeForm, point: TangentPoint, degree: int = DEFAULT_DEGREE) -> ProjectiveStack:
    return ProjectiveStack(measure_stack(obj, volume, point, degree))


def projective_spray(obj, volume: VolumeForm) -> ProjectiveSpray:
    return ProjectiveSpray(spray_and_metric(obj)[0], volume)


def weyl(obj, volume: VolumeForm, point: TangentPoint, route: str = "viaHat", degree: int = DEFAULT_DEGREE) -> np.ndarray:
    return projective_stack(obj, volume, point, degree).weyl_values(route)


def berwald_weyl(obj, volume: VolumeForm, point: TangentPoint, route: str = "definition", degree: int = DEFAULT_DEGREE) -> np.ndarray:
    return projective_stack(obj, volume, point, degree).wo_values(route)


def projective_eval(obj, volume: VolumeForm, point: TangentPoint, degree: int = DEFAULT_DEGREE, wo_route: str = "definition") -> ProjectiveEval:
    ps = projective_stack(obj, volume, point, degree)
    hat = ps.hat
    return ProjectiveEval(
        Ghat=ps.Ghat,
        Nhat=hat.N_values,
        Gammahat=hat.Gamma_values,
        Shat=ps.hat_measure.S.value(),
        chihat=ps.hat_measure.chi_values("fromR"),
        Rhat_ik=hat.Rik_values,
        Rhat=ps.Rhat.value(),
        That=ps.W.value(),
        W=ps.weyl_values("viaHat"),
        Wo=ps.wo_values(wo_route),
    )


def _xgradient(field, point: TangentPoint) -> np.ndarray:
    """d f / d x^m for a function of x alone (constants have zero gradient)."""
    ring = jets.ring(point.dim, 2)
    xs = [ring.seed(i, point.x[i]) for i in range(point.dim)]
    value = field(xs)
    if isinstance(value, Jet):
        return np.array(value.gradient(), dtype=float)
    return np.zeros(point.dim)


def volume_change(f, measure: MeasureStack) -> VolumeChange:
    field = as_field(f, measure.n)
    fm = np.zeros(measure.n) if field is None else _xgradient(field, measure.stack.point)
    f0 = float(fm @ measure.stack.point.y_array())
    return VolumeChange(f=field, f0=f0, fm=fm, Xi=measure.S.value() / (measure.n + 1.0) + f0)


def volume_change_wo(obj, volume: VolumeForm, f, point: TangentPoint, degree: int = DEFAULT_DEGREE):
    """W^o under the rescaled volume e^{-(n+1) f} dV, with the transfer gap.

    Returns ``(wo_tilde, residual)`` where the residual is the max-norm
    distance of the recomputed wo_tilde from the predicted W^o_k - W^m_k f_m.
    """
    ps = projective_stack(obj, volume, point, degree)
    change = volume_change(f, ps.measure)
    if change.f is None:
        scaled = ps.measure.volume
    else:
        scaled = VolumeForm.scaled(ps.measure.volume, change.f, sign=-1)
    tilde = ProjectiveStack(MeasureStack(ps.base, scaled, ps.measure.metric))
    wo_tilde = tilde.wo_values("definition")
    predicted = ps.wo_values("definition") - ps.weyl_values("viaHat").T @ change.fm
    return wo_tilde, float(np.max(np.abs(wo_tilde - predicted)))


def bweyl_residual(obj, volume: VolumeForm, f, point: TangentPoint, degree: int = DEFAULT_DEGREE) -> BWeylResidual:
    """Both flatness conditions for the witness f at one point.

    Condition (b) compares W^o with W^m_k f_m; condition (c) compares the
    base-connection divergence W^m_{k|m} with (n-2) W^m_k Xi_{.m} where
    Xi = S/(n+1) + f_0.  Conversion to float yields the (c) residual.
    """
    ps = projective_stack(obj, volume, point, degree)
    if ps.n < 3:
        raise ConfigError("flatness conditions divide by n - 2 and need dimension >= 3")
    (b, c), (wo, wf, div, wxi) = ps.flatness_gaps(volume_change(f, ps.measure).fm)
    return BWeylResidual(
        b_residual=float(np.max(np.abs(b))),
        c_residual=float(np.max(np.abs(c))),
        b_scale=float(max(np.abs(wo).max(), np.abs(wf).max())),
        c_scale=float(max(np.abs(div).max(), np.abs(wxi).max())),
    )


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


def einstein_wo_check(metric, point: TangentPoint, degree: int = DEFAULT_DEGREE, nodes: int = 64) -> EinsteinCheck:
    """Check W^o_k = F^3 (theta/F)_{.k} on a surface with x-only Ricci factor.

    Applies to 2-dimensional metrics whose Ricci scalar factors as K(x) F^2
    and whose S-curvature under the intrinsic volume form is constant; any
    Riemannian surface qualifies.  theta = K_{x^m} y^m.
    """
    if metric.dim != 2:
        raise ConfigError("the Einstein surface check needs a 2-dimensional metric")
    _reject_non_einstein(metric, point)
    volume = VolumeForm.busemann_hausdorff(nodes=nodes)
    frame = MetricFrame(metric, point, degree)
    st = frame.stack
    ps = ProjectiveStack(MeasureStack(st, volume, metric))
    n = metric.dim
    sigma = st.Rscalar * jets.reciprocal(frame.fsq)
    theta = (sigma.grad(st.xs) * st.y_jets).einsum("m->")
    ratio = theta * jets.reciprocal(frame.F)
    predicted = frame.F.value() ** 3 * ratio.gradient()[n:]
    wo = ps.wo_values("definition")
    return EinsteinCheck(wo=wo, predicted=predicted, residual=float(np.max(np.abs(wo - predicted))))
