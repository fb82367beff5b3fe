"""Volume forms and the measure-level curvatures S and tau.

A volume form dV = sigma(x) dx enters every formula only through jets of
ln sigma in the x variables.  The Busemann-Hausdorff density is computed
by spherical quadrature with the base point carried as jet variables, so
its x-derivatives come from differentiating under the integral rather
than from finite differences.  The quadrature is adaptive per point: the
rule doubles from 16 nodes per angle until two successive rules agree,
up to the fixed cap of ``BH_NODES`` per angle.  A rule of ``nodes`` per
angle holds ``nodes * ceil(nodes / 2)^(n - 2)`` directions on S^{n-1}:
``nodes`` on S^1, ``nodes * ceil(nodes / 2)`` on S^2 and
``nodes * ceil(nodes / 2)^2`` on S^3.

A ``VolumeForm`` is a plain value that keeps no jets.  A ``MeasureStack``
takes the ln sigma jet itself, so stacks can share one density;
``projective.PointContext`` computes that jet when its measure is first
read, to the x-degree that reports read, and keeps it for its point.
ln sigma does not depend on y, so its lift into the (x, y) ring is exact
in y to any order and in x to its own degree (``xvalid`` in ``jets``).
chi reads no density and lives on the spray stack;
``MeasureStack.chi_from_S`` is its route through S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import jets
from .errors import AdmissibilityError, ConfigError, JetDomainError, SprayLabError
from .expressions import as_field
from .geometry import FinslerMetric, SprayStack
from .jets import Jet

BH_MAX_DIM = 4
# cap on nodes^(n - 1): 64 nodes per angle in dim 4 and 1,024 in dim 3
# fit, 128 in dim 4 does not.  A rule holds nodes * ceil(nodes / 2)^(n - 2)
# directions, so 64 nodes in dim 4 are 65,536 of them.
BH_MAX_DIRECTIONS = 2**20
# BH quadrature runs its directions in blocks whose largest jet-multiply
# temporary fits in this many bytes (390 directions per block in dim 3 and
# 198 in dim 4 at x-degree 3).  Each block pays a fixed cost in Python and
# in the order steps of sqrt and powr, so wider blocks are cheaper until
# their temporaries stop being reused by the allocator and are faulted in
# afresh.  Measured per warmed `verify --metric randers --volume bh` point
# (10 points in a fresh process; 2-core x86-64, glibc, numpy 2.4; BH ms,
# median minor faults):
#   128 KB: 2.7 ms, 0     192-320 KB: 2.5 ms, 0     384-1024 KB: 2.3 ms, 0
# and per `--metric funk --dim 4` point: 128 KB 206 ms, 256 and 512 KB
# 180 ms, no faults.  A fresh process that computes densities alone faults
# from 192 KB up (352 pages per dim-3 density at 256 KB, 17,460 per dim-4
# one) and is still faster there than at 128 KB (3.0 against 4.2 ms, 209
# against 227 ms), so the budget stays at 256 KB.
_BLOCK_BYTES = 256 * 1024

# the largest BH rule per angle
BH_NODES = 64
# the adaptive BH quadrature starts at this many nodes per angle and
# stops doubling once two rules agree to this fraction of max(1, max|coeff|)
BH_FIRST_NODES = 16
BH_AGREE = 1e-5

VOLUME_KINDS = ("coordinate", "busemann-hausdorff", "explicit")


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@lru_cache(maxsize=8)
def sphere_nodes(n: int, nodes: int):
    """Quadrature nodes and weights for S^{n-1}; weights sum to its area.

    One product rule serves every sphere (Stroud, Approximate
    Calculation of Multiple Integrals, 1971).  S^1 uses the uniform
    trapezoid rule of ``nodes`` points (spectrally accurate for periodic
    integrands).  S^{k-1} takes ``ceil(nodes / 2)`` Gauss nodes in its
    last coordinate t for the weight (1 - t^2)^((k - 3) / 2), Legendre on
    S^2 and Chebyshev of the second kind on S^3, times the rule on
    S^{k-2} scaled by sqrt(1 - t^2).  The ``nodes * ceil(nodes / 2)^(n -
    2)`` directions integrate every polynomial of degree <= nodes - 1
    exactly in every dimension, as the square product of ``nodes`` per
    angle would (Atkinson, J. Austral. Math. Soc. B 23, 1982).  The rules
    are cached, so the arrays returned are read-only.
    """
    theta, weights = _sphere_rule(n, nodes)
    theta.flags.writeable = False
    weights.flags.writeable = False
    return theta, weights


def _check_rule(n: int, nodes: int):
    """Refuse a rule this module cannot build, before anything is allocated."""
    if not 2 <= n <= BH_MAX_DIM:
        raise ConfigError(f"Busemann-Hausdorff quadrature supports dim <= {BH_MAX_DIM}, got {n}")
    if nodes < 8:
        raise ConfigError("sphere quadrature needs at least 8 nodes per angle")
    if nodes ** (n - 1) > BH_MAX_DIRECTIONS:
        # a rule holds nodes * ceil(nodes / 2)^(n - 2) directions, less than
        # the capped nodes^(n - 1)
        raise ConfigError(f"sphere quadrature with {nodes} nodes per angle is refused on "
                          f"S^{n - 1}: {nodes}^{n - 1} exceeds {BH_MAX_DIRECTIONS}")


def _sphere_rule(n: int, nodes: int):
    _check_rule(n, nodes)
    phi = 2.0 * math.pi * np.arange(nodes) / nodes
    theta = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    w = np.full(nodes, 2.0 * math.pi / nodes)
    # m Gauss nodes in t are exact to degree 2m - 1 and the trapezoid in
    # phi to trigonometric degree nodes - 1, so ceil(nodes / 2) nodes in t
    # leave the rule's degree of exactness at nodes - 1
    m = (nodes + 1) // 2
    for k in range(3, n + 1):
        if k == 3:
            t, wt = np.polynomial.legendre.leggauss(m)
        else:  # Gauss-Chebyshev of the second kind, for sqrt(1 - t^2)
            angle = math.pi * np.arange(1, m + 1) / (m + 1)
            t, wt = np.cos(angle), math.pi / (m + 1) * np.sin(angle) ** 2
        s = np.sqrt(1.0 - t**2)
        theta = np.column_stack([(s[:, None, None] * theta).reshape(-1, k - 1),
                                 np.repeat(t, len(w))])
        w = np.outer(wt, w).ravel()
    return theta, w


def _bh_rule(metric: FinslerMetric, x, nodes: int, degree: int) -> Jet:
    """Jet of ln sigma_BH at x from the fixed rule of ``nodes`` per angle.

    sigma_BH(x) = Vol(B^n) / Vol{y : F(x, y) < 1}, with the unit-ball
    volume computed as (1/n) * integral over S^{n-1} of F(x, theta)^{-n}.
    The metric's x-only data is bound once (``fsq_at``); the directions
    are then summed block by block, each block sized by ``_BLOCK_BYTES``,
    so a block pays only for the work that depends on its directions.
    """
    n = metric.dim
    ring = jets.ring(n, degree)
    fsq_of = metric.fsq_at([ring.seed(i, float(x[i])) for i in range(n)])
    theta, weights = sphere_nodes(n, nodes)
    step = max(1, _BLOCK_BYTES // (8 * int(ring._pairs_upto[degree])))
    total = None
    for start in range(0, theta.shape[0], step):
        block = slice(start, start + step)
        fsq = fsq_of([np.ascontiguousarray(theta[block, i]) for i in range(n)])
        if not isinstance(fsq, Jet):
            fsq = ring.const(fsq)  # an F^2 that does not depend on x
        values = np.asarray(fsq.coeffs[..., 0])
        if not np.all(values > 0.0):
            raise AdmissibilityError(
                f"{metric.name}: F^2 <= 0 on some direction at x = {tuple(x)}"
            )
        part = jets.powr(fsq, -0.5 * n).sum_batch(weights[block])
        total = part if total is None else total + part
    volume = (1.0 / n) * total
    volume.assert_finite("Busemann-Hausdorff volume integral")
    return math.log(unit_ball_volume(n)) - jets.log(volume)


def bh_density(metric: FinslerMetric, x, nodes: int = BH_NODES, degree: int = 3,
               rules: list | None = None) -> Jet:
    """Jet of ln sigma_BH at x, in the n-variable x-ring of the given degree.

    ``nodes`` is the largest rule per angle.  The rule starts at
    ``min(16, nodes)`` nodes and doubles, clamped to ``nodes``, until the
    largest coefficient change between two successive rules is at most
    ``BH_AGREE * max(1, max|coeff|)``; the finer rule is returned.  The
    rules converge spectrally (Trefethen & Weideman, SIAM Review 56(3),
    2014), so the returned rule's error is of the order of the square of
    that change.  When ``rules`` is a list, ``(nodes, change)`` of the last
    rule is appended to it; ``change`` is None when only one rule ran.  A
    rule that reaches ``nodes`` with its change still above the stop then
    raises SprayLabError, since its error has no bound.
    """
    _check_rule(metric.dim, nodes)
    used = min(BH_FIRST_NODES, nodes)
    density = _bh_rule(metric, x, used, degree)
    change = limit = None
    while used < nodes:
        used = min(2 * used, nodes)
        finer = _bh_rule(metric, x, used, degree)
        change = float(np.abs(finer.coeffs - density.coeffs).max())
        density = finer
        limit = BH_AGREE * max(1.0, float(np.abs(finer.coeffs).max()))
        if change <= limit:
            break
    if rules is not None:
        rules.append((used, change))
    if change is not None and change > limit:
        raise SprayLabError(f"{metric.name}: the Busemann-Hausdorff density did not converge at "
                            f"x = {tuple(x)}: its {used}-node rule changed ln sigma by "
                            f"{change:.3g}, above the stop {limit:.3g}")
    return density


@dataclass(frozen=True)
class VolumeForm:
    """dV = sigma(x) dx, with sigma given directly or by quadrature.

    ``kind`` is one of ``VOLUME_KINDS``; ``sigma`` is the expression of an
    explicit form.  A BH form's rule is sized per point by ``bh_density``.
    """

    kind: str
    sigma: str | None = None

    def __post_init__(self):
        if self.kind not in VOLUME_KINDS:
            raise ConfigError(f"unknown volume kind {self.kind!r}; use one of {VOLUME_KINDS}")
        if self.kind == "explicit" and self.sigma is None:
            raise ConfigError("explicit volume needs a sigma expression")

    @property
    def uses_quadrature(self) -> bool:
        return self.kind == "busemann-hausdorff"

    def validate(self, n: int):
        """Refuse a form that cannot be built in dimension n, before any point."""
        if self.kind == "explicit":
            as_field(self.sigma, n)
        elif self.kind == "busemann-hausdorff":
            _check_rule(n, BH_NODES)

    def lnsigma_jet(self, metric, x, degree: int, rules: list | None = None) -> Jet:
        """Jet of ln sigma at x in the x-only ring (metric and ``rules`` used for BH)."""
        if self.kind == "coordinate":
            return jets.ring(len(x), degree).const(0.0)
        if self.kind == "explicit":
            try:
                sigma = as_field(self.sigma, len(x)).jet(x, degree)
            except JetDomainError as exc:
                raise AdmissibilityError(f"volume {self.describe()} is not defined at "
                                         f"x = {tuple(x)}: {exc}") from None
            value = sigma.value()
            lnsigma = jets.log(sigma) if value > 0.0 and np.isfinite(sigma.coeffs).all() else None
            # a finite positive sigma can still have derivatives that overflow in ln sigma
            if lnsigma is None or not np.isfinite(lnsigma.coeffs).all():
                why = ("has no finite value" if not math.isfinite(value)
                       else "is not positive" if not value > 0.0
                       else "has no finite jet of ln sigma")
                raise AdmissibilityError(f"volume {self.describe()} {why} at "
                                         f"x = {tuple(x)}: sigma = {value!r}")
            return lnsigma
        if metric is None:
            raise ConfigError("Busemann-Hausdorff volume needs a metric spray")
        return bh_density(metric, x, degree=degree, rules=rules)

    def describe(self) -> str:
        if self.kind == "explicit":
            return f"explicit:{self.sigma}"
        return self.kind


def split_volume(key: str, spec: str) -> tuple[str, str | None]:
    """Kind and sigma of a volume spec: a kind name, ``bh``, or explicit:<expr>.

    ``key`` names the setting the spec came from, for the error message.
    """
    if spec.startswith("explicit:"):
        return "explicit", spec[len("explicit:"):]
    kind = "busemann-hausdorff" if spec == "bh" else spec
    if kind not in ("coordinate", "busemann-hausdorff"):
        raise ConfigError(f"{key} expects coordinate, busemann-hausdorff (or bh) "
                          f"or explicit:<sigma expression>; got {spec!r}")
    return kind, None


def as_volume(spec=None) -> VolumeForm:
    """Coerce a volume description (None, a form, or a spec) to a form."""
    if spec is None:
        return VolumeForm("coordinate")
    if isinstance(spec, VolumeForm):
        return spec
    if not isinstance(spec, str):
        raise ConfigError("volume must be a VolumeForm, a recognized name, or None")
    kind, sigma = split_volume("volume", spec)
    return VolumeForm(kind, sigma)


class MeasureStack:
    """S and tau jets of one spray under one volume form at one point, and chi from S.

    ``lnsigma_x`` is the ln sigma jet in the x ring, of any degree; its
    lift keeps that degree as its exact x-orders.  chi itself depends on
    the spray alone (``SprayStack.chi``).
    """

    def __init__(self, stack: SprayStack, lnsigma_x: Jet):
        self.stack = stack
        self.lnsigma_x = lnsigma_x
        self.n = stack.n
        self.ring = stack.ring

    @cached_property
    def lnsigma(self) -> Jet:
        # S differentiates it once in x beside N, so it needs one order more
        return jets.lift(self.lnsigma_x, self.ring, self.stack.N.valid + 1)

    def rescaled(self, f) -> MeasureStack:
        """The stack of e^{-(n+1) f} dV on the same spray."""
        field = as_field(f, self.n).jet(self.stack.point.x, self.lnsigma_x.ring.degree)
        return MeasureStack(self.stack, self.lnsigma_x - (self.n + 1.0) * field)

    @cached_property
    def S(self) -> Jet:
        st = self.stack
        return st.N.einsum("mm->") - (st.y_jets * self.lnsigma.grad(st.xs)).einsum("m->")

    @cached_property
    def S_v(self) -> np.ndarray:
        """Values of S_{.k}."""
        return self.S.gradient(self.stack.ys)

    @cached_property
    def S0(self) -> Jet:
        """S_{|m} y^m."""
        return (self.stack.hgrad(self.S) * self.stack.y_jets).einsum("m->")

    @cached_property
    def tau(self) -> Jet:
        k = 1.0 / (self.n + 1.0)
        return (k * self.S) ** 2 + k * self.S0

    @cached_property
    def chi_from_S(self) -> np.ndarray:
        """chi_k = (S_{.k|m} y^m - S_{|k}) / 2, which no volume form changes."""
        st = self.stack
        s_vh = st.hcov_values(self.S.grad(st.ys)) @ st.point.y_array()
        return 0.5 * (s_vh - st.hcov_values(self.S))
