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
The other kinds sum the series with ``series.evaluate_many``, a blocked
Horner rule (block sums of b = ceil(sqrt(m)) terms from one matrix product,
then Horner in t^b), through the fewest terms whose tail, by a_n <= n+1 and
the closed-form ``series.Majorant``, is at most 1e-12 at the largest |t|
(``series_terms``, which any caller can ask for another tail);
``terms=N`` gives the partial sum through degree N.  ``kernel_norm_sq`` sums the
squared norm of sum a_n z^n in blocks of 2^16 terms, holding no array of all terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
_BLOCK = 1 << 16  # terms per block of kernel_norm_sq
_WEIGHTS_CACHED = 256  # weight vectors SpaceWeights.weights keeps, least recently used out
_SAMPLES = 4096  # sup_bracket's sample count, doubled for degrees of 1024 and more


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
        if self.kind == KM and self.m >= 170:  # weight(0) needs (m+1)!, above float max
            raise DomainError(f"{self.label} weights overflow the float range")

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
        poly = self.weight_polynomial
        with np.errstate(over="ignore"):  # an overflow is raised below, once
            if poly is not None:  # H2, D2, S12, S22, Km:1, Dalpha:0/1/2
                a0, a1, a2 = poly
                w = a0 + n * (a1 + a2 * n)
            elif self.kind == A2:
                w = 1.0 / (n + 1)
            elif self.kind == S2:
                w = np.where(n == 0, 1.0, n * n)
            elif self.kind == DALPHA:
                w = (1.0 + n) ** self.alpha
            else:  # KM: (n+1)...(n+m+1) / (m+1)!; an inf product stays inf through the division
                w = np.ones_like(n)
                for i in range(1, self.m + 2):
                    w = w * (n + i)
                w /= math.factorial(self.m + 1)
        if not np.isfinite(w).all():
            raise DomainError(f"{self.label} weights overflow the float range")
        return w if w.ndim else float(w)

    @property
    def weight_exponent(self) -> float:
        """An s with weight(n) <= (n+1)^s for every n >= 0 (for Km each (n+i)/i is <= n+1)."""
        return {H2: 0.0, A2: 0.0, D2: 1.0, DALPHA: self.alpha, KM: self.m + 1.0}.get(self.kind, 2.0)

    @property
    def weight_polynomial(self) -> tuple[float, float, float] | None:
        """(a0, a1, a2) with weight(n) = a0 + a1 n + a2 n^2 for every n >= 0, or None where the
        weight is no such polynomial (A2, S2, Km from m = 2, Dalpha but for alpha 0, 1, 2)."""
        if self.kind == DALPHA:
            return {0.0: (1.0, 0.0, 0.0), 1.0: (1.0, 1.0, 0.0), 2.0: (1.0, 2.0, 1.0)}.get(self.alpha)
        if self.kind == KM:
            return (1.0, 1.5, 0.5) if self.m == 1 else None
        return {H2: (1.0, 0.0, 0.0), D2: (1.0, 1.0, 0.0), S12: (1.0, 1.5, 0.5),
                S22: (1.0, 0.0, 1.0)}.get(self.kind)

    @functools.lru_cache(maxsize=_WEIGHTS_CACHED)
    def weights(self, n_max: int) -> np.ndarray:
        """weight(n) for n = 0..n_max, read-only and cached per (space, n_max): the norms of
        short polynomials ask for the same few vectors many times over."""
        w = self.weight(np.arange(n_max + 1))
        w.setflags(write=False)
        return w

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
    base, sep, arg = name.partition(":")
    if base in (DALPHA, KM) and not arg:
        parameter, example = ("alpha", "Dalpha:1.5") if base == DALPHA else ("m", "Km:3")
        raise ValueError(f"space {base} needs its parameter {parameter}, as in {example}")
    if base == DALPHA:
        return dalpha(float(arg))
    if base == KM:
        return km(int(arg))
    if sep:
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


def _scaled_sums(weights: np.ndarray, rows: np.ndarray, lengths=None):
    """(sums, e): sum_n weights[n] |m[i, n]|^2 for each row of a 2-d coefficient array at its
    own unit scale m = rows 2^-e of ``series.frexp``, so that no square over- or underflows,
    over its first ``lengths[i]`` entries (all of them if no lengths are given).  Each sum is
    one (1 x L)(L x 1) product of a stacked matmul, which rounds as the 1-d dot of a single
    row does; a gemv rows @ w, or zeros padded past a row, rounds by position instead, so the
    rows of each length are summed as one batch."""
    groups = ({rows.shape[1]: slice(None)} if lengths is None
              else {n: lengths == n for n in set(lengths.tolist())})
    sums, e = np.empty(len(rows)), np.empty(len(rows), dtype=int)
    for n, at in groups.items():
        m, e[at] = ps.frexp(rows[at, :n])
        sums[at] = np.matmul((np.abs(m) ** 2)[:, None, :], weights[:n, None])[:, 0, 0]
    return sums, e


def space_norm_sq(space: SpaceWeights, f: PowerSeries) -> float:
    """sum weight(n) |f_n|^2 over the stored coefficients, from ``_scaled_sums``."""
    sums, e = _scaled_sums(space.weights(f.order), f.coeffs[None])
    return float(ps.ldexp_norm(sums, 2 * e)[0])


def space_norms(space: SpaceWeights, rows: np.ndarray, lengths=None) -> np.ndarray:
    """sqrt(sum weight(n) |rows[i, n]|^2) for each row of a 2-d coefficient array, over its
    first ``lengths[i]`` entries (all of them if no lengths are given), from ``_scaled_sums``.
    DomainError past the float range."""
    sums, e = _scaled_sums(space.weights(rows.shape[1] - 1), rows, lengths)
    return ps.ldexp_norm(np.sqrt(sums), e)


def space_norm(space: SpaceWeights, f: PowerSeries) -> float:
    """sqrt(sum weight(n) |f_n|^2) over the stored coefficients: ``space_norms`` of one row."""
    return float(space_norms(space, f.coeffs[None])[0])


def kernel_norm_sq(space: SpaceWeights, order: int) -> float:
    """||kernel_coefficient_series(space, order)||^2 = sum_{n<=order} weight(n) a_n^2, summed
    over blocks of _BLOCK terms, so that no array of all order + 1 terms is held."""
    total = 0.0
    for start in range(0, order + 1, _BLOCK):
        w = space.weight(np.arange(start, min(start + _BLOCK, order + 1)))
        total += float(norms_sq(w, 1.0 / w))
    return total


def inner_product(space: SpaceWeights, f: PowerSeries, g: PowerSeries) -> complex:
    """sum weight(n) f_n conj(g_n), summed with f and g at the unit scale of ``series.frexp``
    so that no product over- or underflows.  DomainError past the float range."""
    n = min(f.order, g.order)
    (a, e), (b, k) = ps.frexp(f.coeffs[: n + 1]), ps.frexp(g.coeffs[: n + 1])
    total = np.sum(space.weights(n) * a * np.conj(b))
    return complex(*ps.ldexp_norm(np.array([total.real, total.imag]), e + k))


def norm_decomposition_s12(f: PowerSeries) -> tuple[float, float, float]:
    """The three summands ||f||_{H2}^2, ||f'||_{A2}^2, ||f'||_{H2}^2.

    Their combination with factors (1, 3/2, 1/2) equals the squared S12
    norm: the weights satisfy (n+1)(n+2)/2 = 1 + (3/2) n + (1/2) n^2.  Each is
    summed at the unit scale of ``series.frexp``; DomainError past the float range.
    """
    m, e = ps.frexp(f.coeffs)
    mags = np.abs(m) ** 2
    n = np.arange(f.order + 1)
    sums = [terms.sum() for terms in (mags, n * mags, n * n * mags)]
    return tuple(ps.ldexp_norm(np.array(sums), 2 * e).tolist())


def dirichlet_energy(f: PowerSeries) -> float:
    """D(f) = ||f'||_{A2}^2 = sum_{n>=1} n |f_n|^2, from ``_scaled_sums``."""
    sums, e = _scaled_sums(np.arange(f.order + 1.0), f.coeffs[None])
    return float(ps.ldexp_norm(sums, 2 * e)[0])


def norm_identity_residuals(f: PowerSeries) -> tuple[float, float, float]:
    """The residuals of both cross-space norm identities on one function, and their scale
    1 + ||f||_{S12}^2:

    (a)  2 ||f||_{S12}^2 = ||f||_{S2}^2 + 2 ||f||_{H2}^2 + 3 D(f) - |f(0)|^2
    (b)  ||f||_{S22}^2   = ||f||_{S2}^2 + ||f||_{H2}^2 - |f(0)|^2
    DomainError when a squared norm is past the float range.
    """
    s12_sq = space_norm_sq(s12(), f)
    s2_sq = space_norm_sq(s2(), f)
    s22_sq = space_norm_sq(s22(), f)
    h2_sq = space_norm_sq(hardy(), f)
    f0_sq = abs(f.coeffs[0]) ** 2
    rhs_a = s2_sq + 2.0 * h2_sq + 3.0 * dirichlet_energy(f) - f0_sq
    rhs_b = s2_sq + h2_sq - f0_sq
    return abs(2.0 * s12_sq - rhs_a), abs(s22_sq - rhs_b), 1.0 + s12_sq


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
            terms = series_terms(float(np.abs(t).max(initial=0.0)), _SERIES_TAIL) - 1
        out = ps.evaluate_many(kernel_coefficient_series(space, terms), t)
    return complex(out[0]) if wb.ndim == 0 else out.reshape(wb.shape)


def series_terms(r: float, tol: float) -> int:
    """The fewest terms sum_{n<count} a_n t^n of a kernel whose tail is within tol at every
    |t| <= r: a_n <= n+1 on every kind, so the tail past degree N is at most
    sum_{n>N+1} n r^(n-1), a ``series.Majorant``.  TruncationError past 200,000 terms."""
    try:
        count = ps.Majorant(-math.log(r), 1, r).order_for(tol) if r else 1
    except TruncationError:  # no order up to the majorant's cap, itself past the limit
        count = math.inf
    if count > _SERIES_MAX_TERMS:
        needs = count if count < math.inf else f"more than {ps._MAJORANT_CAP}"
        raise TruncationError(f"kernel series at |conj(w) z| = {r!r} needs {needs} "
                              f"terms; the limit is {_SERIES_MAX_TERMS}")
    return count


def kernel_coefficient_series(space: SpaceWeights, order: int) -> PowerSeries:
    """The series sum a_n z^n.

    For S12 this is the pointwise-bound extremizer: its sup norm is
    attained at z = 1 and its S12 norm squared telescopes to 2.  For the
    norm alone, ``kernel_norm_sq`` sums it in blocks without this array.
    """
    return PowerSeries(space.kernel_coeffs(order).astype(np.complex128))


# ---------------------------------------------------------------------------
# boundary sup norm
# ---------------------------------------------------------------------------


def _sample_count(d):
    """``sup_bracket``'s sample count M at degree d, elementwise over an array of degrees:
    4096 doubled while M <= 4 d, that is the least power of two past 4 d, at least 4096."""
    return np.maximum(_SAMPLES, np.ldexp(1.0, np.frexp(4.0 * np.asarray(d))[1]))


def _ldexp_toward(x: float, e: int, toward: float) -> float:
    """x 2^e rounded toward ``toward`` (-inf or inf): ldexp rounds to nearest in the subnormal
    range, and scaling back up by 2^-e is exact, so it shows which way; past the float range
    this is inf, or the largest float when rounded down."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        y = math.copysign(math.inf, x)
    if (math.ldexp(y, -e) > x) if toward < 0 else (math.ldexp(y, -e) < x):
        y = math.nextafter(y, toward)
    return y


def sup_bracket(f: PowerSeries) -> tuple[float, float]:
    """(lo, hi) with lo <= sup |f| <= hi on the unit circle, for the polynomial f of degree d.

    It takes M equispaced samples, M = 4096 doubled while M <= 4 d, of the coefficients at
    the unit scale of ``series.frexp``, so no sample over- or underflows, and scales the two
    sides back by that power of two, exactly in the normal range, lo rounded down and hi up
    past it (lo is the largest float, hi inf, past the float range).  A sample is a value of
    f, within rounding = 4 ulps of sum |f_n| per FFT level, 4 eps bit_length(M) sum |f_n|, so
    lo = peak - rounding.  By Bernstein's inequality |f'| <= d sup|f|, and every point lies
    within pi/M of a sample, so hi = (peak + rounding) / (1 - pi d / M), the sampling bound
    of Ehlich and Zeller (Math. Z. 86, 1964) in Bernstein's form.  A constant (d <= 0) in the
    normal range gives (|f_0|, |f_0|).
    """
    d = max(f.degree(), 0)
    c, e = ps.frexp(f.coeffs[: d + 1])
    if d == 0:
        lo = hi = float(abs(c[0]))
    else:
        m = int(_sample_count(d))
        peak = float(np.abs(np.fft.fft(c, n=m)).max())
        rounding = float(4 * m.bit_length() * np.finfo(np.float64).eps * np.abs(c).sum())
        lo, hi = peak - rounding, (peak + rounding) / (1.0 - math.pi * d / m)
    return _ldexp_toward(lo, e, -math.inf), _ldexp_toward(hi, e, math.inf)


def sup_bounds(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds of ``sup_bracket``'s (lo, hi) for each row f of a 2-d array of W
    coefficients whose largest part is a normal float, with no sample taken:
    lo <= sum |f_n| (1 + (W + 3) eps), and hi <= that times (1 + (8 L + 4) eps) / (1 - pi d / M)
    at the degree d, sample count M and L = bit_length(M) that ``sup_bracket`` takes for f.

    With u = eps / 2: the peak lies within the rounding 4 eps L sum |f_n| of a value of f, so
    of sum |f_n|; lo subtracts that rounding and hi adds it.  With the roundings of the moduli
    (2 u each), the sums and the sides, lo <= sum |f_n| (1 + 4 u) and
    hi <= sum |f_n| (1 + 8 eps L + 6 u) / (1 - pi d / M) to first order.  The computed sum of
    W moduli is at least sum |f_n| (1 - (W + 1) u), each factor rounds once more, and the
    denominator is ``sup_bracket``'s, bit for bit, so dividing by it keeps the order.
    """
    d = np.where(rows != 0, np.arange(rows.shape[1]), 0).max(axis=1)
    m = _sample_count(d)
    eps = np.finfo(np.float64).eps
    lo = np.abs(rows).sum(axis=1) * (1.0 + (rows.shape[1] + 3) * eps)
    return lo, lo * (1.0 + (8 * np.frexp(m)[1] + 4) * eps) / (1.0 - np.pi * d / m)
