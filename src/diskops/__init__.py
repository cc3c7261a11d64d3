"""Numerical toolkit for weighted Hilbert spaces of analytic functions
on the unit disk: truncated power-series arithmetic, reproducing kernels,
multiplication/composition operator compressions, m-isometry defects,
Blaschke-product expansions, and interpolation positivity tests."""

from .blaschke import BlaschkeProduct, phi_pair, z_times_phi
from .checks import Config, run_suite
from .errors import (
    ConvergenceError,
    DiskOpsError,
    DomainError,
    PreconditionError,
    ShapeError,
    TruncationError,
)
from .operators import (
    composition_matrix,
    composition_monomial_norm,
    composition_norm,
    contractive_composition_norm,
    growth_residuals,
    hilbert_schmidt_bracket,
    isometry_order,
    multiplication_norm,
    norm_estimate,
)
from .pick import (
    PickProblem,
    PsdVerdict,
    corona_kernel_check,
    log_convexity,
    pick_matrix,
    psd_check,
    reciprocal_sign_check,
)
from .report import VerificationReport, emit_reports, reports_ok
from .series import (
    PowerSeries,
    cauchy_product,
    compose,
    derivative,
    evaluate,
    from_coefficients,
    monomial,
    orbit,
    reciprocal,
)
from .spaces import (
    SpaceWeights,
    dirichlet_energy,
    kernel,
    norm_decomposition_s12,
    norm_identity_residuals,
    norms_sq,
    parse_space,
    space_norm,
    sup_bracket,
)

__version__ = "0.1.0"
