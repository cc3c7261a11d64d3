"""Numerical toolkit for weighted Hilbert spaces of analytic functions
on the unit disk: truncated power-series arithmetic, reproducing kernels,
multiplication/composition operator compressions, m-isometry defects,
Blaschke-product expansions, and interpolation positivity tests."""

from .blaschke import BlaschkeProduct, MobiusMap, phi_pair, z_times_phi
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
    ShiftClassification,
    blaschke_isometry_check,
    composition_matrix,
    composition_monomial_norm,
    composition_norm,
    composition_norm_bound_check,
    dirichlet_linearity_check,
    growth_formula_check,
    hilbert_schmidt_norm_sq,
    isometry_defect,
    multiplication_norm,
    norm_estimate,
    shift_isometry_order,
)
from .pick import (
    PickProblem,
    PsdVerdict,
    corona_kernel_check,
    kaluza_check,
    pick_matrix,
    psd_check,
    reciprocal_sign_check,
    scalar_pick_counterexample,
)
from .report import VerificationReport, emit_reports, parse_reports, reports_ok
from .series import (
    DEFAULT_ORDER,
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
    norms_sq,
    norm_relation_check,
    parse_space,
    space_norm,
    sup_norm,
)

__version__ = "0.1.0"
