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

from . import report as rp
from . import series as ps
from . import spaces as sp
from .blaschke import BlaschkeProduct
from .errors import ConvergenceError, PreconditionError, TruncationError
from .series import PowerSeries


# The squared Frobenius mass the C_phi products may leave out: (eps ||A||_F)^2 at most
_CUT_MASS = np.finfo(np.float64).eps ** 2


def _composition_columns(space: sp.SpaceWeights, phi: PowerSeries, n: int, full: bool = False):
    """Rows 0..k of the transposed compression of f -> f(phi) at size n+1 (row j is
    phi^j * sqrt(weight / weight(j))), and a bound of the squared Frobenius mass of rows k+1..n.

    k is fixed before any row is built.  For s = spaces.sup_bound(phi) < 1, ||phi^j||_H2 <= s^j
    bounds the mass of row j by (max w / min w) s^(2j), w = weights(n): k is that Majorant's
    order_for(eps^2) (rho = s^2, or the least normal float if smaller) and the bound its tail
    at k.  When s >= 1 or that k is n or more, k = n and the bound is 0.  Then, whatever s,
    k is capped at n // v for phi of valuation v >= 1: phi^j starts at z^(v j), so the rows
    past it are exactly zero (a zero symbol keeps row 0 alone).  ``full`` (the exact dense
    compression) keeps all n+1 rows.
    """
    ps.require_open_disk(phi.coeffs[0], "composition symbol's constant term")
    w = space.weights(n)
    k, mass = n, 0.0
    if not full and n > 0:
        s = sp.sup_bound(phi)
        if s < 1:
            rows = ps.Majorant(math.log(w.max() / w.min()), 0, max(s * s, np.finfo(np.float64).tiny))
            if rows.tail(n - 1) <= _CUT_MASS:
                k = rows.order_for(_CUT_MASS)
                mass = rows.tail(k)
        nonzero = np.flatnonzero(phi.coeffs[: n + 1])
        v = int(nonzero[0]) if len(nonzero) else n + 1
        if v > 0:
            k = min(k, n // v)
    sqw = np.sqrt(w)
    table = ps.orbit(ps.one(), phi, k, n)
    table *= sqw / sqw[: k + 1, None]
    return table, mass


def composition_matrix(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> np.ndarray:
    """Dense compression of f -> f(phi); column j holds the expansion of phi^j."""
    return _composition_columns(space, phi, n, full=True)[0].T


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


# Golub-Kahan steps before norm_estimate gives up; C_{z^2} at size 1025 stops after 390.
_MAX_STEPS = 500
# Steps between two convergence tests while k is small; each test is one SVD of
# the k x k bidiagonal, about the cost of one step, so later tests come every k/8.
_TEST_EVERY = 4


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> None:
    """Subtract from w, in place, its projection on the orthonormal rows of basis."""
    w -= np.conj(basis @ np.conj(w)) @ basis


def norm_estimate(matvec, rmatvec, n: int) -> float:
    """sigma_max of the n x n operator with products x -> A x and y -> A^H y.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer. Anal.
    B 2, 1965) from the fixed start v_1 = ones / sqrt(n), so calls repeat
    bitwise, with both bases fully reorthogonalized.  After k steps
    A V_k = U_k B_k and A^H U_k = V_k B_k^H + beta_k v_{k+1} e_k^T for the upper
    bidiagonal B_k, so the top singular triple (sigma, x, y) of B_k has residual
    beta_k |x_k|, and the iteration stops once that is at most eps sigma.  A
    beta_k or alpha_{k+1} of at most n eps times the largest alpha or beta so
    far is a breakdown: span V_k is then invariant under A^H A, or A V_{k+1}
    lies in span U_k, and the Ritz pair comes from B_k, or from the k x (k+1)
    block [B_k, beta_k e_k], exactly.  The result is
    ||A v|| for the unit Ritz vector v = V y: a lower bound of sigma_max.
    n <= 2 takes a dense SVD; no convergence within min(n, _MAX_STEPS) steps
    raises ConvergenceError.
    """
    if n <= 2:
        a = np.array([matvec(e) for e in np.eye(n)]).reshape(n, n).T
        return float(np.linalg.svd(a, compute_uv=False).max(initial=0.0))
    eps = np.finfo(np.float64).eps
    cap = min(n, _MAX_STEPS)
    vs = np.zeros((cap + 1, n), dtype=np.complex128)  # rows v_1 .. v_{k+1}
    us = np.zeros((cap, n), dtype=np.complex128)  # rows u_1 .. u_k
    b = np.zeros((cap, cap + 1))  # B_k, with beta_k at (k, k+1)
    vs[0] = 1.0 / math.sqrt(n)
    u = np.asarray(matvec(vs[0]), dtype=np.complex128).ravel()
    scale, k, next_test, ritz = 0.0, 0, _TEST_EVERY, None
    while True:
        _orthogonalize(u, us[:k])
        alpha = float(np.linalg.norm(u))
        scale = max(scale, alpha)
        if alpha <= n * eps * scale:
            block = b[:k, : k + 1]
            break
        b[k, k] = alpha
        us[k] = u / alpha
        w = np.asarray(rmatvec(us[k]), dtype=np.complex128).ravel() - alpha * vs[k]
        _orthogonalize(w, vs[: k + 1])
        beta = float(np.linalg.norm(w))
        scale = max(scale, beta)
        k += 1
        block = b[:k, :k]
        if k == n or beta <= n * eps * scale:
            break
        b[k - 1, k] = beta
        vs[k] = w / beta
        if k >= next_test or k == cap:
            next_test = k + max(_TEST_EVERY, k // 8)
            x, s, yh = np.linalg.svd(block)
            if beta * abs(x[-1, 0]) <= eps * s[0]:
                ritz = yh[0]
                break
            if k == cap:
                raise ConvergenceError(f"top singular value did not converge at size {n}")
        u = np.asarray(matvec(vs[k]), dtype=np.complex128).ravel() - beta * us[k - 1]
    if block.size == 0:  # A v_1 = 0 exactly
        return 0.0
    if ritz is None:
        ritz = np.linalg.svd(block)[2][0]
    v = np.conj(ritz) @ vs[: block.shape[1]]
    return float(np.linalg.norm(matvec(v / np.linalg.norm(v))))


def _multiplication_products(space: sp.SpaceWeights, f: PowerSeries, n: int):
    """A x = sqrt(w) (f * x / sqrt(w)); A^H y is conj(f) * u read backwards, u = sqrt(w) y."""
    sqw = np.sqrt(space.weights(n))
    times_f = ps._multiplier(f, n)
    times_conj_f = ps._multiplier(PowerSeries(np.conj(f.coeffs)), n)

    def matvec(x):
        return sqw * times_f(np.asarray(x).ravel() / sqw)

    def rmatvec(y):
        return times_conj_f((sqw * np.asarray(y).ravel())[::-1])[::-1] / sqw

    return matvec, rmatvec


def _composition_products(space: sp.SpaceWeights, phi: PowerSeries, n: int):
    """x -> A x and y -> A^H y for the compression A of C_phi at size n+1, each one BLAS gemv.

    Only rows 0..k of the transposed table are built (``_composition_columns``), so
    matvec reads x[:k+1] and rmatvec pads with zeros: the products are those of A with
    columns k+1..n set to zero, a column subset whose norm estimate stays a lower bound
    of ||C_phi||, within eps ||A||_F of the full compression's.  For sup|phi| >= 1 only
    the columns that are exactly zero (phi^j past order n, for phi(0) = 0) are cut.
    """
    at, _ = _composition_columns(space, phi, n)  # at[j, i] = entry(i, j)
    k = len(at)

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
    truncated at order n: the squared Frobenius norm of the compression.  The rows that
    ``_composition_columns`` builds are summed and the bound of the rest added, so up to
    rounding the value lies in [full sum, full sum + eps^2]; for sup|phi| >= 1 every row
    that is not exactly zero is summed."""
    table, mass = _composition_columns(space, phi, n)
    return float(np.sum(np.abs(table) ** 2)) + mass


# ---------------------------------------------------------------------------
# isometry defects
# ---------------------------------------------------------------------------


def isometry_defect(
    space: sp.SpaceWeights, symbol: PowerSeries, m: int, probe: PowerSeries
) -> float:
    """The alternating defect sum_{k=0..m} (-1)^{m-k} C(m,k) ||symbol^k probe||^2.

    The orbit is kept at order probe.order + m deg(symbol), where no product
    is cut, so the norms are exact ambient-space norms up to rounding.
    """
    if m < 1:
        raise ValueError("isometry order must be >= 1")
    order = probe.order + m * max(symbol.degree(), 0)
    norms_sq = sp.norms_sq(space.weights(order), ps.orbit(probe, symbol, m, order))
    return float(np.diff(norms_sq, m)[0])


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


def _blaschke_orbit_norms(
    space: sp.SpaceWeights, psi: BlaschkeProduct, f: PowerSeries, count: int, order: int,
    tol: float, weights: np.ndarray | None = None,
) -> np.ndarray:
    """sum_n weights[n] |(f psi^k)_n|^2 for k = 0..count (weights default to space.weights),
    psi's product series built once and every row cut at ``order``.  psi's tail majorant,
    carried through the powers by the multiplier-algebra bound ||fg|| <= 2 sqrt(2) ||f|| ||g||,
    fixes the order the discarded tails need to move no value past tol: TruncationError
    naming it if ``order`` is below."""
    series = psi.series(order)
    tail_norm = psi.tail_norm(space, order)  # 0 when psi is c z^d and order >= d
    probe_norm = sp.space_norm(space, f)
    growth = (2.0 * math.sqrt(2.0) * max(1.0, sp.space_norm(space, series) + tail_norm)) ** count
    scale = 4.0 * count * growth * max(1.0, probe_norm) ** 2  # 0 when no power is taken
    needed = psi.order_for(0.5 * tol * (1.0 + probe_norm**2) / scale, space) if scale else 0
    if needed > order:
        raise TruncationError(f"psi^{count} within {tol:g}", needed)
    weights = space.weights(order) if weights is None else weights
    return sp.norms_sq(weights, ps.orbit(f, series, count, order))


def blaschke_power_defect(
    space: sp.SpaceWeights,
    psi: BlaschkeProduct,
    m: int,
    probe: PowerSeries,
    order: int,
    tol: float = 1e-8,
) -> float:
    """Alternating sum sum_{k<=m} (-1)^{m-k} C(m,k) ||psi^k f||^2 over the orbit
    of the probe under the product series of psi, every row truncated at ``order``;
    TruncationError if that order cannot hold the value within tol."""
    if m < 1:
        raise ValueError("isometry order must be >= 1")
    return float(np.diff(_blaschke_orbit_norms(space, psi, probe, m, order, tol), m)[0])


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
        norms_sq = _blaschke_orbit_norms(space, psi, f, 3, n, tol)
        value = float(np.diff(norms_sq, 3)[0])
        ok = ok and abs(value) < tol * (1.0 + norms_sq[0])
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
    norms_sq = _blaschke_orbit_norms(space, psi, f, n_max, order, tol)
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
    energies = _blaschke_orbit_norms(
        sp.dirichlet(), psi, f, n_max, order, tol, weights=np.arange(order + 1.0)
    )
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
    if space.kind == sp.A2:  # a_n <= 1 on every other kind
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
