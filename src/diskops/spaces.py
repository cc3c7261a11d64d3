"""Weighted Hardy-type spaces on the unit disk.

Each space is described by its monomial norm sequence
``weight(n) = ||z^n||^2``.  Supported kinds:

====== =============================================
H2     1
A2     1/(n+1)
D2     n+1
S2     1 for n=0, n^2 for n>=1
S12    (n+1)(n+2)/2
S22    1+n^2
Dalpha (1+n)^alpha for finite alpha >= 0
Km     (n+1)(n+2)...(n+m+1)/(m+1)!
====== =============================================

The reproducing kernel of every such space is K_w(z) = sum a_n (conj(w) z)^n
with a_n = 1/weight(n).  ``kernel(space, w, z, terms=None)`` is the one
evaluator; it broadcasts over arrays of points.  Closed forms exist for H2,
A2, D2 and S12; the S12 one is

    K_w(z) = (2/t^2) [t + (t-1) ln(1/(1-t))],   t = conj(w) z,

with K_w(z) = 1 at t = 0.  Near the removable singularity (|t| < 1e-3)
the S12 and D2 closed forms lose roughly six digits to cancellation in
the small denominator, so evaluation switches to a 16-term direct sum
there.  The principal branch of the logarithm is used throughout; it is
continuous on the whole domain because |t| < 1 implies Re(1-t) > 0.
The other kinds sum the series by Horner's rule through the fewest terms
whose tail, by a_n <= n+1 and the closed-form ``series.Majorant``, is at most
1e-12 at the largest |t|; ``terms=N`` gives the partial sum through degree N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import report as rp
from . import series as ps
from .errors import DomainError, TruncationError
from .series import PowerSeries

H2 = "H2"
A2 = "A2"
D2 = "D2"
S2 = "S2"
S12 = "S12"
S22 = "S22"
DALPHA = "Dalpha"
KM = "Km"

_CLOSED_FORM_KINDS = (H2, A2, D2, S12)
# below this |conj(w) z| the log-based closed forms switch to a short sum
_SMALL_T = 1e-3
_SMALL_T_TERMS = 16
_SERIES_TAIL = 1e-12  # the series path's tail bound
_SERIES_MAX_TERMS = 200_000


@dataclass(frozen=True)
class SpaceWeights:
    """A named weight sequence weight(n) = ||z^n||^2 > 0."""

    kind: str
    alpha: float = 0.0
    m: int = 0

    def __post_init__(self):
        if self.kind not in (H2, A2, D2, S2, S12, S22, DALPHA, KM):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == DALPHA and not 0 <= self.alpha < math.inf:
            raise ValueError("Dalpha requires a finite alpha >= 0")
        if self.kind == KM and self.m < 1:
            raise ValueError("Km requires a positive integer m")

    @property
    def label(self) -> str:
        if self.kind == DALPHA:
            return f"Dalpha:{self.alpha:g}"
        if self.kind == KM:
            return f"Km:{self.m}"
        return self.kind

    def weight(self, n):
        """||z^n||^2, vectorized over integer arrays; DomainError if one overflows."""
        n = np.asarray(n, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow is raised below, once
            if self.kind == H2:
                w = np.ones_like(n)
            elif self.kind == A2:
                w = 1.0 / (n + 1)
            elif self.kind == D2:
                w = n + 1
            elif self.kind == S2:
                w = np.where(n == 0, 1.0, n * n)
            elif self.kind == S12:
                w = (n + 1) * (n + 2) / 2.0
            elif self.kind == S22:
                w = 1.0 + n * n
            elif self.kind == DALPHA:
                w = (1.0 + n) ** self.alpha
            else:  # KM: (n+1)...(n+m+1), at least (m+1)!, so a finite product divides below
                w = np.ones_like(n)
                for i in range(1, self.m + 2):
                    w = w * (n + i)
        if not np.isfinite(w).all():
            raise DomainError(f"{self.label} weights overflow the float range")
        if self.kind == KM:
            w /= math.factorial(self.m + 1)
        return w if w.ndim else float(w)

    @property
    def weight_exponent(self) -> float:
        """An s with weight(n) <= (n+1)^s for every n >= 0 (for Km each (n+i)/i is <= n+1)."""
        return {H2: 0.0, A2: 0.0, D2: 1.0, DALPHA: self.alpha, KM: self.m + 1.0}.get(self.kind, 2.0)

    def weights(self, n_max: int) -> np.ndarray:
        return self.weight(np.arange(n_max + 1))

    def kernel_coeffs(self, n_max: int) -> np.ndarray:
        """a_n = 1/weight(n) for n = 0..n_max."""
        return 1.0 / self.weights(n_max)

    def has_closed_form_kernel(self) -> bool:
        return self.kind in _CLOSED_FORM_KINDS


def hardy() -> SpaceWeights:
    return SpaceWeights(H2)


def bergman() -> SpaceWeights:
    return SpaceWeights(A2)


def dirichlet() -> SpaceWeights:
    return SpaceWeights(D2)


def s2() -> SpaceWeights:
    return SpaceWeights(S2)


def s12() -> SpaceWeights:
    return SpaceWeights(S12)


def s22() -> SpaceWeights:
    return SpaceWeights(S22)


def dalpha(alpha: float) -> SpaceWeights:
    return SpaceWeights(DALPHA, alpha=float(alpha))


def km(m: int) -> SpaceWeights:
    return SpaceWeights(KM, m=int(m))


def parse_space(name: str) -> SpaceWeights:
    """Space from its CLI name: H2, A2, D2, S2, S12, S22, Dalpha:2.0, Km:3.

    S32 is accepted as an alias for Dalpha:2.
    """
    base, _, arg = name.partition(":")
    if base == DALPHA:
        return dalpha(float(arg))
    if base == KM:
        return km(int(arg))
    if arg:
        raise ValueError(f"space {base!r} takes no parameter")
    if base == "S32":
        return dalpha(2.0)
    return SpaceWeights(base)


# ---------------------------------------------------------------------------
# norms, inner products, energies
# ---------------------------------------------------------------------------


def norms_sq(weights: np.ndarray, rows) -> np.ndarray:
    """sum_n weights[n] |rows[..., n]|^2 for every row of coefficients.

    With ``space.weights(order)`` these are squared space norms; with weights
    n, Dirichlet energies.
    """
    return np.abs(rows) ** 2 @ weights


def space_norm_sq(space: SpaceWeights, f: PowerSeries) -> float:
    """sum weight(n) |f_n|^2 over the stored coefficients."""
    return float(norms_sq(space.weights(f.order), f.coeffs))


def space_norm(space: SpaceWeights, f: PowerSeries) -> float:
    """sqrt(sum weight(n) |f_n|^2) over the stored coefficients."""
    return float(np.sqrt(space_norm_sq(space, f)))


def inner_product(space: SpaceWeights, f: PowerSeries, g: PowerSeries) -> complex:
    """sum weight(n) f_n conj(g_n)."""
    n = min(f.order, g.order)
    w = space.weights(n)
    return complex(np.sum(w * f.coeffs[: n + 1] * np.conj(g.coeffs[: n + 1])))


def norm_decomposition_s12(f: PowerSeries) -> tuple[float, float, float]:
    """The three summands ||f||_{H2}^2, ||f'||_{A2}^2, ||f'||_{H2}^2.

    Their combination with factors (1, 3/2, 1/2) equals the squared S12
    norm: the weights satisfy (n+1)(n+2)/2 = 1 + (3/2) n + (1/2) n^2.
    """
    mags = np.abs(f.coeffs) ** 2
    n = np.arange(f.order + 1)
    hardy_sq = float(mags.sum())
    bergman_deriv_sq = float((n * mags).sum())
    hardy_deriv_sq = float((n * n * mags).sum())
    return hardy_sq, bergman_deriv_sq, hardy_deriv_sq


def dirichlet_energy(f: PowerSeries) -> float:
    """D(f) = ||f'||_{A2}^2 = sum_{n>=1} n |f_n|^2."""
    return float(norms_sq(np.arange(f.order + 1.0), f.coeffs))


def norm_relation_check(f: PowerSeries, tol: float = 1e-10) -> rp.VerificationReport:
    """Both cross-space norm identities evaluated on one function.

    (a)  2 ||f||_{S12}^2 = ||f||_{S2}^2 + 2 ||f||_{H2}^2 + 3 D(f) - |f(0)|^2
    (b)  ||f||_{S22}^2   = ||f||_{S2}^2 + ||f||_{H2}^2 - |f(0)|^2

    Passes iff both residuals are below tol * (1 + ||f||_{S12}^2).
    """
    s12_sq = space_norm(s12(), f) ** 2
    s2_sq = space_norm(s2(), f) ** 2
    s22_sq = space_norm(s22(), f) ** 2
    h2_sq = space_norm(hardy(), f) ** 2
    f0_sq = abs(f.coeffs[0]) ** 2
    d = dirichlet_energy(f)
    lhs_a = 2.0 * s12_sq
    rhs_a = s2_sq + 2.0 * h2_sq + 3.0 * d - f0_sq
    rhs_b = s2_sq + h2_sq - f0_sq
    bound = tol * (1.0 + s12_sq)
    return rp.make_report(
        computed=[
            ("twice_s12_sq", lhs_a),
            ("s12_identity_rhs", rhs_a),
            ("s22_sq", s22_sq),
            ("s22_identity_rhs", rhs_b),
        ],
        reference=[
            ("s12_identity_residual", 0.0, rp.PAPER),
            ("s22_identity_residual", 0.0, rp.PAPER),
        ],
        tolerance=bound,
        ok=abs(lhs_a - rhs_a) < bound and abs(s22_sq - rhs_b) < bound,
        check_id="norm_relations",
    )


# ---------------------------------------------------------------------------
# reproducing kernels
# ---------------------------------------------------------------------------


def _closed_form(space: SpaceWeights, t: np.ndarray) -> np.ndarray:
    if space.kind == H2:
        return 1.0 / (1.0 - t)
    if space.kind == A2:
        return 1.0 / (1.0 - t) ** 2
    small = np.abs(t) < _SMALL_T
    ts = np.where(small, 0.5, t)  # keeps the log form off its removable singularity
    log_term = -np.log1p(-ts)  # principal ln(1/(1-t))
    if space.kind == D2:
        closed = log_term / ts
    else:
        closed = 2.0 / ts**2 * (ts + (ts - 1.0) * log_term)
    short = ps.evaluate_many(kernel_coefficient_series(space, _SMALL_T_TERMS - 1), t)
    return np.where(small, short, closed)


def kernel(space: SpaceWeights, w, z, terms: int | None = None):
    """K_w(z) = sum a_n (conj(w) z)^n, broadcast over the arrays w and z.

    ``terms=None`` takes the closed form where the space has one and
    otherwise a partial sum long enough for the tail bound at the largest
    |conj(w) z| (TruncationError past 200,000 terms); ``terms=N`` is the
    partial sum through degree N.  Returns a complex for scalar input.
    """
    w, z = np.asarray(w, np.complex128), np.asarray(z, np.complex128)
    if not (np.isfinite(w).all() and np.isfinite(z).all()):
        raise DomainError("kernel points must be finite")
    wb, zb = np.broadcast_arrays(w, z)
    t = np.conj(wb).ravel() * zb.ravel()  # contiguous, so a scalar call runs the array arithmetic
    ps.require_open_disk(t, "kernel argument conj(w) z")
    if terms is None and space.has_closed_form_kernel():
        out = _closed_form(space, t)
    else:
        if terms is None:
            # a_n <= n+1, so the tail past degree N is at most sum_{n>N+1} n r^(n-1)
            r = float(np.abs(t).max(initial=0.0))
            terms = ps.Majorant(-math.log(r), 1, r).order_for(_SERIES_TAIL) - 1 if r else 0
            if terms >= _SERIES_MAX_TERMS:
                raise TruncationError(f"kernel series at |conj(w) z| = {r:.6g} needs {terms + 1} "
                                      f"terms, more than {_SERIES_MAX_TERMS}")
        out = ps.evaluate_many(kernel_coefficient_series(space, terms), t)
    return complex(out[0]) if wb.ndim == 0 else out.reshape(wb.shape)


def kernel_coefficient_series(space: SpaceWeights, order: int) -> PowerSeries:
    """The series sum a_n z^n.

    For S12 this is the pointwise-bound extremizer: its sup norm is
    attained at z = 1 and its S12 norm squared telescopes to 2.
    """
    return PowerSeries(space.kernel_coeffs(order).astype(np.complex128))


# ---------------------------------------------------------------------------
# boundary sup norm
# ---------------------------------------------------------------------------


def sup_norm(f: PowerSeries, samples: int = 4096) -> float:
    """max |f| over equispaced boundary points (maximum modulus principle).

    An approximation from below with O(d^2/samples) relative error for a
    degree-d polynomial; the sample count grows automatically when the
    stored order exceeds it.
    """
    m = samples
    while m < 2 * (f.order + 1):
        m *= 2
    values = np.fft.fft(f.coeffs, n=m)
    return float(np.abs(values).max())


def sup_bound(f: PowerSeries) -> float:
    """Upper bound of sup |f| on the circle for the polynomial f of degree d: by Bernstein's
    inequality |f'| <= d sup|f|, and every point lies within pi/M of one of M equispaced
    samples, sup|f| <= max_j |f(zeta_j)| / (1 - pi d / M).  M doubles from 4096 while
    M <= 4 d; the sampled maximum is raised by 4 ulps of sum |f_n| per FFT level for rounding."""
    c = ps.truncate(f, max(f.degree(), 0))
    d, m = c.order, 4096
    while m <= 4 * d:
        m *= 2
    rounding = 4 * m.bit_length() * np.finfo(np.float64).eps * np.abs(c.coeffs).sum()
    return (sup_norm(c, m) + rounding) / (1.0 - math.pi * d / m)
