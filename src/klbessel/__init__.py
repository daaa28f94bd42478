"""Modified Bessel functions of imaginary order: evaluation and certification.

The package evaluates K_{i tau}(x) (and nearby complex orders) by several
independent routes, certifies a catalog of printed upper bounds over grids,
controls the large-order oscillatory expansion with an explicit remainder
bound, and checks regularized Kontorovich-Lebedev pairings against closed
targets.

The submodules split by concern:

``quadrature``
    adaptive Gauss-Kronrod integration with an explicit accuracy contract
``special``
    K_0 by quadrature (the tests' independent reference) and an
    overflow-free log sinh; every other special function is scipy's
``kernel``
    the kernel evaluators (contour oracle, key formula, definitional series)
``bounds``
    the bound catalog, grid certification, and representation verifiers
``asymptotic``
    the large-order expansion, its measured and explicit remainders
``summability``
    regularized pairings, Mellin test functions, and their closed forms
``cli``
    the ``klbessel`` command-line front-end, also ``python -m klbessel``;
    import it as ``klbessel.cli``, the package does not load it

The modules return dataclasses, and the CLI writes them out; its CSV and
JSON documents all come from one writer.
"""

from . import asymptotic, bounds, kernel, quadrature, special, summability
from .asymptotic import (
    ExpansionReport,
    expansion_report,
    leading_term,
    phase,
    remainder_bound,
    remainder_explicit,
    remainder_measured,
    stirling_r_gamma,
    stirling_r_integral,
)
from .bounds import (
    BoundCertificate,
    BoundDescriptor,
    all_default_descriptors,
    catalog_ids,
    certify_bound,
    default_grid,
    evaluate_bound,
    kernel_grid_values,
    make_descriptor,
    measure_c,
    olenko_c,
    verify_representation,
)
from .kernel import (
    EvaluationPoint,
    OrderSpec,
    k_complex_order,
    k_itau_defseries,
    k_itau_keyformula,
    k_itau_oracle,
    k_itau_smallx,
    natural_scale,
)
from .quadrature import DEFAULT_CONFIG, AccuracyError, QuadratureConfig
from .summability import (
    DEFAULT_SCHEDULE,
    EntireFunctionSpec,
    PSI_ONE,
    PSI_ZERO,
    SummabilityQuery,
    SummabilityReport,
    closed_cosh,
    closed_sinh,
    cos_spec,
    f_epsilon,
    mellin_pair,
    tau_integral_rhs,
    theorem2_check,
    theorem2_limit,
    theorem3_check,
    theorem3_target,
    theorem3_value,
    type_threshold,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # submodules
    "asymptotic", "bounds", "kernel", "quadrature", "special", "summability",
    # quadrature
    "AccuracyError", "DEFAULT_CONFIG", "QuadratureConfig",
    # kernel
    "EvaluationPoint", "OrderSpec", "natural_scale", "k_itau_oracle",
    "k_complex_order", "k_itau_keyformula", "k_itau_smallx",
    "k_itau_defseries",
    # bounds
    "BoundDescriptor", "BoundCertificate", "catalog_ids", "make_descriptor",
    "all_default_descriptors", "evaluate_bound", "certify_bound",
    "kernel_grid_values", "default_grid", "verify_representation", "olenko_c",
    "measure_c",
    # asymptotic
    "ExpansionReport", "phase", "leading_term", "stirling_r_gamma",
    "stirling_r_integral", "remainder_measured", "remainder_explicit",
    "remainder_bound", "expansion_report",
    # summability
    "DEFAULT_SCHEDULE", "EntireFunctionSpec", "SummabilityQuery",
    "SummabilityReport", "PSI_ONE", "PSI_ZERO", "cos_spec", "type_threshold",
    "f_epsilon", "mellin_pair", "tau_integral_rhs", "closed_cosh",
    "closed_sinh", "theorem2_limit", "theorem2_check", "theorem3_value",
    "theorem3_target", "theorem3_check",
]
