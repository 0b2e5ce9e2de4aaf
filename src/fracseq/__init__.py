"""Fractional difference operators on sequence spaces.

Coefficient generation, forward/inverse transforms, dual transforms and
norms, transformed matrix windows with operator norms, and windowed
compactness diagnostics with three-valued verdicts.
"""

__version__ = "0.1.0"

from .coefficients import (
    MODE_EXACT,
    MODE_FLOATING,
    CoefficientTable,
    FractionalOrder,
    coefficient_closed_form,
    coefficient_prefix,
)
from .compactness import (
    AlphaHatEstimate,
    CompactnessReport,
    LimitGrid,
    StabilizationPolicy,
    criterion_linf_domain,
    criterion_linf_target,
    estimate_alpha_hat,
    mnc_c,
    mnc_c0,
    mnc_l1,
    sargent_criterion,
    table_criterion,
)
from .errors import CostGuardError, DomainError, SourceError
from .matrix_domain import (
    HatMatrixWindow,
    MatrixSource,
    hat_matrix,
    opnorm_to_l1,
    opnorm_to_linf,
    subset_guard_limit,
)
from .transforms import (
    INF,
    Exponent,
    FiniteSequence,
    TruncationReport,
    beta_dual_transform,
    dual_norm,
    forward_transform,
    inverse_transform,
    lq_norm,
    space_norm,
)

__all__ = [
    "MODE_EXACT",
    "MODE_FLOATING",
    "INF",
    "AlphaHatEstimate",
    "CoefficientTable",
    "CompactnessReport",
    "CostGuardError",
    "DomainError",
    "Exponent",
    "FiniteSequence",
    "FractionalOrder",
    "HatMatrixWindow",
    "LimitGrid",
    "MatrixSource",
    "SourceError",
    "StabilizationPolicy",
    "TruncationReport",
    "beta_dual_transform",
    "coefficient_closed_form",
    "coefficient_prefix",
    "criterion_linf_domain",
    "criterion_linf_target",
    "dual_norm",
    "estimate_alpha_hat",
    "forward_transform",
    "hat_matrix",
    "inverse_transform",
    "lq_norm",
    "mnc_c",
    "mnc_c0",
    "mnc_l1",
    "opnorm_to_l1",
    "opnorm_to_linf",
    "sargent_criterion",
    "space_norm",
    "subset_guard_limit",
    "table_criterion",
]
