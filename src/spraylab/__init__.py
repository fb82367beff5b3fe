"""Pointwise curvature laboratory for sprays and Finsler metrics.

Quantities are computed through truncated multivariate Taylor jets at
individual tangent points, so every derivative is exact to the carried
order and every identity can be checked numerically.
"""

from .catalog import MetricSpec, build, family_names, family_summary, sample
from .errors import (
    AdmissibilityError,
    ConfigError,
    DegreeBudgetError,
    JetDomainError,
    SprayLabError,
)
from .expressions import ScalarField, as_field
from .geometry import (
    DEFAULT_DEGREE,
    FinslerMetric,
    MetricFrame,
    PerturbedSpray,
    Spray,
    SprayStack,
    TangentPoint,
    stack_for,
)
from .measures import MeasureStack, VolumeForm, as_volume, bh_density
from .projective import (
    WO_ROUTES,
    PointContext,
    ProjectiveStack,
    einstein_wo,
    volume_change,
)
from .verify import (
    REGISTRY,
    SuiteReport,
    Tolerances,
    check_names,
    identity_suite,
    theorem_check,
    theorem_names,
    theorem_summary,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ConfigError",
    "DEFAULT_DEGREE",
    "DegreeBudgetError",
    "FinslerMetric",
    "JetDomainError",
    "MeasureStack",
    "MetricFrame",
    "MetricSpec",
    "PerturbedSpray",
    "PointContext",
    "ProjectiveStack",
    "REGISTRY",
    "ScalarField",
    "Spray",
    "SprayLabError",
    "SprayStack",
    "SuiteReport",
    "TangentPoint",
    "Tolerances",
    "VolumeForm",
    "WO_ROUTES",
    "as_field",
    "as_volume",
    "bh_density",
    "build",
    "check_names",
    "einstein_wo",
    "family_names",
    "family_summary",
    "identity_suite",
    "sample",
    "stack_for",
    "theorem_check",
    "theorem_names",
    "theorem_summary",
    "volume_change",
    "__version__",
]
