"""Finite compressions of multiplication, composition, and shift operators.

Matrices live in the orthonormalized monomial basis e_n = z^n / ||z^n||
of a chosen weighted space, so entry (i, j) of the compression of T is
<T e_j, e_i>.  For a multiplication operator with symbol f this gives the
lower-banded profile

    entry(i, j) = f_{i-j} * sqrt(weight(i) / weight(j)),   j <= i <= j + deg f.

Because the compressions of these column-finite operators are restrictions
to invariant polynomial subspaces, the largest singular value of the
compression is a certified lower bound of the operator norm and is
nondecreasing in the truncation size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from . import report as rp
from . import series as ps
from . import spaces as sp
from .blaschke import BlaschkeProduct
from .errors import ConvergenceError, DomainError, PreconditionError, TruncationError
from .series import PowerSeries


def _composition_columns(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> np.ndarray:
    """The transposed compression of f -> f(phi): row j is phi^j * sqrt(weight / weight(j))."""
    if abs(phi.coeffs[0]) >= 1.0:
        raise DomainError("composition symbol has |constant term| >= 1")
    sqw = np.sqrt(space.weights(n))
    table = ps.orbit(ps.one(), phi, n, n)
    table *= sqw / sqw[:, None]
    return table


def composition_matrix(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> np.ndarray:
    """Dense compression of f -> f(phi); column j holds the expansion of phi^j."""
    return _composition_columns(space, phi, n).T


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def norm_estimate(matvec, rmatvec, n: int) -> float:
    """sigma_max of the n x n operator with products x -> A x and y -> A^H y.

    ARPACK Lanczos on A^H A from the fixed start ones / sqrt(n), so calls repeat
    bitwise, gives ||A v|| for a unit Ritz vector v: a lower bound of sigma_max.
    n <= 2 takes a dense SVD; ARPACK failures raise ConvergenceError.
    """
    if n <= 2:
        a = np.array([matvec(e) for e in np.eye(n)]).reshape(n, n).T
        return float(np.linalg.svd(a, compute_uv=False).max(initial=0.0))
    op = LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec, dtype=np.complex128)
    try:
        s = svds(op, k=1, which="LM", v0=np.ones(n) / math.sqrt(n), return_singular_vectors=False)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ConvergenceError(f"top singular value did not converge at size {n}: {exc}") from exc
    return float(s[0])


def _multiplication_products(space: sp.SpaceWeights, f: PowerSeries, n: int):
    sqw = np.sqrt(space.weights(n))
    fc, d = f.coeffs, f.order

    def matvec(x):
        x = np.asarray(x).ravel()
        return sqw * np.convolve(fc, x / sqw)[: n + 1]

    def rmatvec(y):
        u = sqw * np.asarray(y).ravel()
        return np.convolve(u, np.conj(fc[::-1]))[d : d + n + 1] / sqw

    return matvec, rmatvec


def _composition_products(space: sp.SpaceWeights, phi: PowerSeries, n: int):
    """x -> A x and y -> A^H y for the compression A of C_phi at size n+1, each one BLAS gemv.

    Only the rows of the transposed table up to its last nonzero one enter:
    past it the powers of phi have underflowed to exactly zero, so matvec reads
    x[:k] and rmatvec pads with zeros, and both equal the full products bit for bit.
    """
    at = _composition_columns(space, phi, n)  # at[j, i] = entry(i, j)
    k = int(np.flatnonzero(at.any(axis=1))[-1]) + 1  # row 0 holds phi^0 = 1
    at = at[:k]

    def matvec(x):
        return at.T @ np.asarray(x).ravel()[:k]

    def rmatvec(y):
        out = np.zeros(n + 1, dtype=np.complex128)
        out[:k] = np.conj(at @ np.conj(np.asarray(y).ravel()))
        return out

    return matvec, rmatvec


def multiplication_norm(space: sp.SpaceWeights, f: PowerSeries, n: int) -> float:
    """Compression norm of M_f at size n+1 from banded convolutions; |c| for a constant c."""
    if f.degree() <= 0:
        return float(abs(f.coeffs[0]))
    return norm_estimate(*_multiplication_products(space, f, n), n + 1)


def composition_norm(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> float:
    """Compression norm of C_phi at size n+1 from the power table of phi."""
    return norm_estimate(*_composition_products(space, phi, n), n + 1)


def composition_monomial_norm(space: sp.SpaceWeights, k: int, index_cap: int = 10**10) -> float:
    """Norm of f -> f(z^k) from its diagonal action on the monomial basis.

    The operator maps e_n to sqrt(weight(k n)/weight(n)) e_{k n}, with
    orthogonal images, so its norm is sup_n sqrt(weight(k n)/weight(n)).
    The sup is evaluated over a geometric index grid up to index_cap;
    for polynomial weight sequences the ratio is eventually monotone, so
    the cap controls the (one-sided) accuracy and 1e10 leaves the S12
    value within 1e-8 of the exact limit k.
    """
    if k < 1:
        raise ValueError("monomial exponent must be >= 1")
    idx = np.unique(
        np.concatenate(
            [np.arange(64), np.geomspace(64, index_cap, 512).astype(np.int64)]
        )
    )
    ratios = space.weight(k * idx.astype(np.float64)) / space.weight(idx.astype(np.float64))
    return float(np.sqrt(np.max(ratios)))


def hilbert_schmidt_norm_sq(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> float:
    """Partial Hilbert-Schmidt sum sum_{j<=n} ||phi^j||^2 / weight(j), every power
    truncated at order n: the squared Frobenius norm of the compression."""
    return float(np.sum(np.abs(_composition_columns(space, phi, n)) ** 2))


# ---------------------------------------------------------------------------
# isometry defects
# ---------------------------------------------------------------------------


def _alternating_defect(
    space: sp.SpaceWeights, f: PowerSeries, phi: PowerSeries, m: int, order: int
) -> float:
    """sum_{k=0..m} (-1)^{m-k} C(m,k) ||phi^k f||^2, the m-th difference of the orbit norms."""
    if m < 1:
        raise ValueError("isometry order must be >= 1")
    norms_sq = sp.norms_sq(space.weights(order), ps.orbit(f, phi, m, order))
    return float(np.diff(norms_sq, m)[0])


def isometry_defect(
    space: sp.SpaceWeights, symbol: PowerSeries, m: int, probe: PowerSeries
) -> float:
    """The alternating defect sum_{k=0..m} (-1)^{m-k} C(m,k) ||symbol^k probe||^2.

    The orbit is kept at order probe.order + m deg(symbol), where no product
    is cut, so the norms are exact ambient-space norms up to rounding.
    """
    order = probe.order + m * max(symbol.degree(), 0)
    return _alternating_defect(space, probe, symbol, m, order)


@dataclass(frozen=True)
class ShiftClassification:
    """Outcome of the weighted-shift isometry-order search."""

    order: int | None
    polynomial: tuple[float, ...] | None
    residual: float


def shift_isometry_order(
    weights_sq, m_max: int, fit_tol: float = 1e-8
) -> ShiftClassification:
    """Smallest m such that |w_n|^2 = P(n+1)/P(n) for a degree-(m-1)
    polynomial P, positive on the sampled range.

    The recurrence P(n+1) - |w_n|^2 P(n) = 0 is homogeneous in the
    coefficients of P, so for each candidate degree the best P is the
    smallest right singular vector of the recurrence matrix (assembled in
    a Chebyshev basis over the sample range for conditioning).  Success
    requires every scaled residual below fit_tol and P > 0 on the range;
    the returned coefficients are monomial, normalized to P(0) = 1.
    """
    wsq = np.asarray(weights_sq, dtype=np.float64)
    if wsq.ndim != 1 or len(wsq) < 2:
        raise ValueError("need at least two squared weights")
    if np.any(wsq <= 0):
        raise ValueError("squared weights must be positive")
    n_top = len(wsq)
    ns = np.arange(n_top + 1, dtype=np.float64)
    scaled = ns / n_top * 2.0 - 1.0
    best_residual = np.inf
    for m in range(1, m_max + 1):
        deg = m - 1
        vander = _cheb.chebvander(scaled, deg)
        recurrence = vander[1:, :] - wsq[:, None] * vander[:-1, :]
        if deg == 0:
            coeff = np.array([1.0])
        else:
            _, _, vh = np.linalg.svd(recurrence, full_matrices=False)
            coeff = vh[-1].real if np.linalg.norm(vh[-1].imag) == 0 else vh[-1]
        values = (vander @ coeff).real
        if values[0] < 0:
            values = -values
        if abs(values[0]) < 1e-12 * np.abs(values).max():
            continue
        scaled_resid = np.abs(values[1:] - wsq * values[:-1]) / (
            1.0 + np.abs(values[1:]) + np.abs(wsq * values[:-1])
        )
        residual = float(scaled_resid.max())
        best_residual = min(best_residual, residual)
        if residual < fit_tol and np.all(values > 0):
            normalized = values / values[0]
            mono = _poly.polyfit(ns, normalized, deg)
            return ShiftClassification(m, tuple(float(c) for c in mono), residual)
    return ShiftClassification(None, None, best_residual)


# ---------------------------------------------------------------------------
# identity checks built on finite Blaschke products
# ---------------------------------------------------------------------------


def _blaschke_truncation_guard(
    space: sp.SpaceWeights,
    psi: BlaschkeProduct,
    order: int,
    max_power: int,
    probe_norm: float,
    tol: float,
):
    """Reject orders whose discarded tails could move a residual past tol.

    The coefficient tail of the product series is geometric in the largest
    zero modulus; discarded mass is propagated through the powers with the
    multiplier-algebra bound ||fg|| <= 2 sqrt(2) ||f|| ||g||.
    """
    coeff_tail = psi.tail_bound(order)
    if coeff_tail == 0.0:
        return
    # space norms weight coefficient n by sqrt(weight(n)) ~ polynomially
    n = np.arange(order + 1, order + 2000)
    w = space.weight(n.astype(np.float64))
    r = max(abs(z) for z in psi.zeros) if psi.zeros else 0.0
    d = max(psi.degree, 1)
    tail_norm = float(np.sqrt(np.sum(w * (n ** (d - 1) * r ** (n - d)) ** 2)))
    algebra = 2.0 * math.sqrt(2.0)
    psi_norm = sp.space_norm(space, psi.series(order))
    growth = max(1.0, psi_norm + tail_norm) ** max_power * algebra**max_power
    budget = 4.0 * max_power * growth * max(1.0, probe_norm) ** 2 * tail_norm
    if budget > 0.5 * tol * (1.0 + probe_norm**2):
        raise TruncationError(
            f"truncation order {order} cannot hold psi^{max_power} within tolerance"
        )


def blaschke_power_defect(
    space: sp.SpaceWeights,
    psi: BlaschkeProduct,
    m: int,
    probe: PowerSeries,
    order: int,
) -> float:
    """Alternating sum sum_{k<=m} (-1)^{m-k} C(m,k) ||psi^k f||^2 over the orbit
    of the probe under the product series of psi, every row truncated at ``order``."""
    return _alternating_defect(space, probe, psi.series(order), m, order)


def blaschke_isometry_check(
    space: sp.SpaceWeights,
    psi: BlaschkeProduct,
    probes,
    n: int,
    tol: float = 1e-8,
) -> rp.VerificationReport:
    """Alternating three-step identity for multiplication by a finite
    Blaschke product:

        ||psi^3 f||^2 - 3 ||psi^2 f||^2 + 3 ||psi f||^2 - ||f||^2

    evaluated on each probe; passes iff every |value| < tol (1 + ||f||^2).
    On the S12 scale the value is zero; on other scales the check reports
    whatever residual the norms produce.
    """
    computed = []
    ok = True
    worst = 0.0
    for idx, f in enumerate(probes):
        f_norm = sp.space_norm(space, f)
        _blaschke_truncation_guard(space, psi, n, 3, f_norm, tol)
        value = blaschke_power_defect(space, psi, 3, f, n)
        bound = tol * (1.0 + f_norm**2)
        ok = ok and abs(value) < bound
        worst = max(worst, abs(value))
        computed.append((f"probe_{idx}_defect", value))
    computed.append(("max_defect", worst))
    return rp.make_report(
        computed=computed,
        reference=[("defect", 0.0, rp.PAPER)],
        tolerance=tol,
        ok=ok,
        check_id="blaschke_isometry",
    )


def _power_residual_report(check_id: str, residuals: dict, tol: float, scale: float):
    """One row per power n plus the largest |residual|, which must stay below tol * scale."""
    computed = []
    worst = 0.0
    for n, residual in residuals.items():
        worst = max(worst, abs(residual))
        computed.append((f"power_{n}_residual", residual))
    computed.append(("max_residual", worst))
    return rp.make_report(
        computed=computed,
        reference=[("residual", 0.0, rp.PAPER)],
        tolerance=tol,
        ok=worst < tol * scale,
        check_id=check_id,
    )


def growth_formula_check(
    space: sp.SpaceWeights,
    psi: BlaschkeProduct,
    f: PowerSeries,
    n_max: int,
    tol: float = 1e-8,
    order: int = 512,
) -> rp.VerificationReport:
    """Polynomial-growth formulas for powers of a Blaschke multiplier.

    On the S12 scale, ||psi^n f||^2 is reproduced by the degree-2 binomial
    combination of the first two defect forms.  On the S2 scale the same
    combination needs explicit boundary corrections:

        ||psi^n f||^2 = (n(n-1)/2) ||psi^2 f||^2 - n(n-2) ||psi f||^2
                        + ((n-1)(n-2)/2) (||f||^2 - |f(0)|^2)
                        - (n(n-1)/2) |psi(0)^2 f(0)|^2
                        + n(n-2) |psi(0) f(0)|^2 + |psi(0)^n f(0)|^2.
    """
    if space.kind not in (sp.S2, sp.S12):
        raise ValueError("growth formulas are stated on the S2 and S12 scales")
    f_norm = sp.space_norm(space, f)
    _blaschke_truncation_guard(space, psi, order, n_max, f_norm, tol)
    norms_sq = sp.norms_sq(space.weights(order), ps.orbit(f, psi.series(order), n_max, order))
    psi0 = psi(0.0)
    f0_sq = abs(f.coeffs[0]) ** 2
    residuals = {}
    for n in range(2, n_max + 1):
        if space.kind == sp.S12:
            b1 = norms_sq[1] - norms_sq[0]
            b2 = norms_sq[2] - 2.0 * norms_sq[1] + norms_sq[0]
            predicted = norms_sq[0] + n * b1 + math.comb(n, 2) * b2
        else:
            predicted = (
                n * (n - 1) / 2.0 * norms_sq[2]
                - n * (n - 2) * norms_sq[1]
                + (n - 1) * (n - 2) / 2.0 * (norms_sq[0] - f0_sq)
                - n * (n - 1) / 2.0 * abs(psi0**2) ** 2 * f0_sq
                + n * (n - 2) * abs(psi0) ** 2 * f0_sq
                + abs(psi0**n) ** 2 * f0_sq
            )
        residuals[n] = norms_sq[n] - predicted
    return _power_residual_report("growth_formula", residuals, tol, 1.0 + norms_sq[0])


def dirichlet_linearity_check(
    psi: BlaschkeProduct,
    f: PowerSeries,
    n_max: int,
    tol: float = 1e-8,
    order: int = 512,
) -> rp.VerificationReport:
    """Affine growth of the Dirichlet energy under Blaschke powers:

        D(psi^n f) = D(f) + n [D(psi f) - D(f)].
    """
    d2 = sp.dirichlet()
    _blaschke_truncation_guard(d2, psi, order, n_max, sp.space_norm(d2, f), tol)
    orbit = ps.orbit(f, psi.series(order), n_max, order)
    energies = sp.norms_sq(np.arange(order + 1.0), orbit)
    base, slope = energies[0], energies[1] - energies[0]
    residuals = {n: energies[n] - (base + n * slope) for n in range(n_max + 1)}
    scale = 1.0 + base + abs(slope) * n_max
    return _power_residual_report("dirichlet_linearity", residuals, tol, scale)


def composition_norm_bound_check(
    space: sp.SpaceWeights,
    phi: PowerSeries,
    n: int = 256,
    tol: float = 1e-8,
) -> rp.VerificationReport:
    """Compression norm of C_phi against the multiplier-contraction bound

        ||C_phi||^2 <= (1 + |phi(0)|) / (1 - |phi(0)|),

    valid on spaces with kernel coefficients a_n <= 1 whenever
    ||M_phi|| <= 1.  On the Dirichlet space the kernel value at phi(0)
    is also a lower bound.  Compression norms are lower bounds of the
    true norm, so a non-violation is reported as "consistent" rather
    than "pass"; an upper-bound violation is a hard failure.
    """
    if not space.has_bounded_kernel_coeffs():
        raise PreconditionError(f"{space.label} has kernel coefficients above 1")
    mult_est = multiplication_norm(space, phi, n)
    if mult_est > 1.0 + 1e-12:
        raise PreconditionError(
            f"measured multiplier norm {mult_est:.6g} exceeds 1 at truncation {n}"
        )
    comp_est = composition_norm(space, phi, n)
    phi0 = abs(complex(phi.coeffs[0]))
    upper = (1.0 + phi0) / (1.0 - phi0)
    computed = [
        ("multiplier_norm_estimate", mult_est),
        ("composition_norm_sq_estimate", comp_est**2),
    ]
    reference = [("upper_bound", upper, rp.PAPER)]
    ok = comp_est**2 <= upper + tol
    if space.kind == sp.D2 and phi0 > 0:
        lower = math.log(1.0 / (1.0 - phi0**2)) / phi0**2
        reference.append(("lower_bound", lower, rp.PAPER))
        ok = ok and comp_est**2 >= lower - tol
    return rp.make_report(
        computed=computed,
        reference=reference,
        tolerance=tol,
        ok=ok,
        one_sided=True,
        check_id="composition_norm_bound",
    )
