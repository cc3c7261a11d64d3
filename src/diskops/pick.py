"""Interpolation positivity machinery.

Three layers of tests around the kernels K_w(z) = sum a_n (conj(w) z)^n:

* log-convexity of the coefficient sequence (a_n^2 <= a_{n-1} a_{n+1}),
  a sufficient condition for the complete Pick property when a_0 = 1;
* sign pattern of the Taylor coefficients of 1/K, the exact
  characterization (all coefficients past the constant nonpositive);
* positive semi-definiteness of sampled Pick and corona matrices, a
  necessary condition for bounded interpolation.

The sampled matrix tests are necessary-condition checks only: a finite
grid cannot certify positivity over the whole bidisk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import report as rp
from . import series as ps
from . import spaces as sp
from .errors import DomainError, ShapeError

DEFAULT_PSD_TOL = 1e-10
DEFAULT_SIGN_TOL = 1e-13


@dataclass(frozen=True)
class PickProblem:
    """Interpolation data: distinct nodes in the disk and target values."""

    space: sp.SpaceWeights
    nodes: tuple[complex, ...]
    targets: tuple[complex, ...]

    def __post_init__(self):
        nodes = tuple(complex(x) for x in self.nodes)
        targets = tuple(complex(x) for x in self.targets)
        if len(nodes) != len(targets):
            raise ValueError("nodes and targets must have equal length")
        if len(set(nodes)) != len(nodes):
            raise ValueError("interpolation nodes must be pairwise distinct")
        ps.require_open_disk(nodes, "interpolation nodes")
        if not np.isfinite(targets).all():
            raise DomainError("interpolation targets must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    matrix_scale: float


def log_convexity(space: sp.SpaceWeights, n_max: int) -> tuple[int, float]:
    """The first n in 1..n_max with a_n^2 > a_{n-1} a_{n+1} (-1 when there is none) and the
    least margin a_{n-1} a_{n+1} - a_n^2 over that range.

    Requires a_0 = 1 (hypothesis of the sufficiency criterion).
    """
    if n_max < 1:
        raise ValueError(f"log-convexity needs n_max >= 1, got n_max = {n_max}")
    a = space.kernel_coeffs(n_max + 1)
    if abs(a[0] - 1.0) > 1e-15:
        raise DomainError("log-convexity test requires a_0 = 1")
    lhs = a[1:-1] ** 2
    rhs = a[:-2] * a[2:]
    bad = np.nonzero(lhs > rhs)[0]
    return (int(bad[0] + 1) if bad.size else -1), float(np.min(rhs - lhs))


def reciprocal_kernel_coefficients(space: sp.SpaceWeights, n_max: int) -> np.ndarray:
    """Taylor coefficients c_n of 1/(sum a_n t^n) up to degree n_max."""
    kernel = sp.kernel_coefficient_series(space, n_max)
    return ps.reciprocal(kernel, n_max).coeffs.real.copy()


def first_sign_violation(c: np.ndarray) -> int:
    """The first n >= 1 with c_n > DEFAULT_SIGN_TOL, the tolerance absorbing rounding of exact
    zeros; -1 when there is none."""
    bad = np.nonzero(c[1:] > DEFAULT_SIGN_TOL)[0]
    return int(bad[0] + 1) if bad.size else -1


def reciprocal_sign_check(space: sp.SpaceWeights, n_max: int) -> rp.VerificationReport:
    """Complete-Pick characterization: c_n <= 0 for every n >= 1.

    Reports the first violating index (``first_sign_violation``) and its
    value when the pattern breaks.
    """
    c = reciprocal_kernel_coefficients(space, n_max)
    first_failure = first_sign_violation(c)
    worst = float(c[1:].max()) if n_max >= 1 else 0.0
    computed = [("first_violation_index", first_failure), ("max_coefficient", worst)]
    if first_failure >= 0:
        computed.append(("violation_value", float(c[first_failure])))
    return rp.make_report(
        computed=computed,
        reference=[("first_violation_index", -1, rp.PAPER)],
        tolerance=DEFAULT_SIGN_TOL,
        ok=first_failure < 0,
    )


def pick_matrix(problem: PickProblem) -> np.ndarray:
    """Matrix [(1 - conj(w_i) w_j) K_{node_i}(node_j)] from one kernel call, as assembled:
    Hermitian up to the rounding of the kernel, which ``psd_check`` symmetrizes.  DomainError
    if an entry overflows the float range.
    """
    nodes = np.array(problem.nodes, dtype=np.complex128)
    targets = np.array(problem.targets, dtype=np.complex128)
    kernel = sp.kernel(problem.space, nodes[:, None], nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, once
        out = (1.0 - np.conj(targets)[:, None] * targets) * kernel
    if not np.isfinite(out).all():
        raise DomainError("the Pick matrix overflows the float range")
    return out


def psd_check(matrix: np.ndarray) -> PsdVerdict:
    """Smallest eigenvalue of a Hermitian matrix, symmetrized here alone, against a scaled floor.

    The verdict is positive iff min eig >= -DEFAULT_PSD_TOL * (largest
    diagonal entry); kernel evaluations carry ~1e-12 relative error which the
    eigensolve can amplify, hence the relative floor.  A matrix with a non-finite
    entry gets no verdict: DomainError.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError("PSD check needs a square matrix")
    if not np.isfinite(m).all():
        raise DomainError("PSD check needs a finite matrix")
    deviation = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    scale = float(np.abs(np.diag(m).real).max()) if m.size else 0.0
    if deviation > 1e-8 * max(scale, 1.0):
        raise ShapeError("matrix is not Hermitian within tolerance")
    herm = 0.5 * (m + m.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm)[0]) if m.size else 0.0
    return PsdVerdict(
        is_psd=min_eig >= -DEFAULT_PSD_TOL * max(scale, 0.0),
        min_eigenvalue=min_eig,
        matrix_scale=scale,
    )


def default_corona_grid(radii=(0.18, 0.36, 0.54, 0.72, 0.9), phases: int = 5) -> tuple[complex, ...]:
    """Polar sampling mesh inside the disk for corona-type checks."""
    pts = []
    for k, r in enumerate(radii):
        for j in range(phases):
            # stagger the rings so the grid is not rotation-degenerate
            theta = 2.0 * np.pi * (j + 0.5 * (k % 2)) / phases
            pts.append(complex(r * np.cos(theta), r * np.sin(theta)))
    return tuple(pts)


def corona_kernel_check(space: sp.SpaceWeights, symbols, delta: float, grid=None) -> PsdVerdict:
    """Sampled positivity of [sum_k conj(f_k(w)) f_k(z) - delta^2] K_w(z).

    A necessary sampled test on the given grid, not a proof of positivity
    over the whole bidisk (which no finite computation certifies).
    """
    points = np.array(default_corona_grid() if grid is None else grid, dtype=np.complex128)
    ps.require_open_disk(points, "corona grid points")
    values = np.array([ps.evaluate_many(f, points) for f in symbols])
    out = (values.conj().T @ values - delta**2) * sp.kernel(space, points[:, None], points)
    return psd_check(out)
