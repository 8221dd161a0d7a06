"""Spectral zeta functions, heat kernels and domination checks on n-spheres,
with exact matrix verification of Kato-type semigroup inequalities."""

from .truncation import (
    AccuracyError,
    DEFAULT_POLICY,
    EvalResult,
    TruncationError,
    TruncationPolicy,
)
from .specfun import (
    gegenbauer_ratio,
    gegenbauer_ratio_series,
    hurwitz_via_binomial,
    hurwitz_zeta,
    riemann_zeta,
)
from .spectrum import (
    SphereSpec,
    SpectrumEntry,
    eigenvalue,
    multiplicity,
    multiplicity_product_form,
    shifted_eigenvalue,
    sphere_spec,
    spectrum_slice,
)
from .zeta import (
    ZetaPair,
    closed_form_Z,
    compare_zeta_pair,
    hurwitz_style_Z,
    regularized_zeta,
    spectral_zeta,
)
from .kernels import (
    KernelQuery,
    circle_heat_oracle,
    heat_kernel,
    heat_trace,
    mellin_zeta_kernel,
    zeta_kernel,
)
from .majorize import (
    DominationReport,
    MajorizationReport,
    partial_sum_domination,
    weak_majorizes,
)
from .kato import (
    EntrywiseReport,
    PairingReport,
    Potential,
    SymmetricOperator,
    TraceReport,
    commute_residual,
    complete_laplacian,
    cycle_laplacian,
    duhamel_residual,
    generator_pairing_check,
    is_graph_laplacian,
    kato_pointwise_check,
    positivity_domination_check,
    potential,
    random_graph_laplacian,
    random_state,
    semigroup,
    sign_vector,
    symmetric_operator,
    trace_domination_check,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "DEFAULT_POLICY", "EvalResult", "TruncationError",
    "TruncationPolicy", "gegenbauer_ratio", "gegenbauer_ratio_series",
    "hurwitz_via_binomial", "hurwitz_zeta", "riemann_zeta",
    "SphereSpec", "SpectrumEntry", "eigenvalue", "multiplicity",
    "multiplicity_product_form", "shifted_eigenvalue", "sphere_spec",
    "spectrum_slice", "ZetaPair", "closed_form_Z", "compare_zeta_pair",
    "hurwitz_style_Z", "regularized_zeta", "spectral_zeta", "KernelQuery",
    "circle_heat_oracle", "heat_kernel", "heat_trace", "mellin_zeta_kernel",
    "zeta_kernel", "DominationReport", "MajorizationReport",
    "partial_sum_domination", "weak_majorizes",
    "EntrywiseReport", "PairingReport", "Potential", "SymmetricOperator",
    "TraceReport", "commute_residual", "complete_laplacian",
    "cycle_laplacian", "duhamel_residual", "generator_pairing_check",
    "is_graph_laplacian", "kato_pointwise_check",
    "positivity_domination_check", "potential", "random_graph_laplacian",
    "random_state", "semigroup", "sign_vector", "symmetric_operator",
    "trace_domination_check",
]
