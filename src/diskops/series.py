"""Truncated complex power series.

A function analytic on the unit disk is represented by the first N+1
Taylor coefficients at the origin::

    f(z) = f_0 + f_1 z + f_2 z^2 + ... + f_N z^N

``PowerSeries`` stores the coefficient array (complex double precision,
index = degree) and is immutable after construction.  All operations are
pure functions that return new series.  Truncation is silent and by
contract: every operation that can grow the degree takes an explicit
output order, and coefficients above it are discarded.

Every order the package fixes a priori comes from ``Majorant``, one
closed-form tail certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, TruncationError

# Shorter symbols (monomials, low degrees) use the exact direct convolution;
# at this length it costs what an FFT product does, at order 256 and 1024.
_FFT_MIN_TAPS = 128
# The largest order, and the longest explicit sum, that a Majorant certifies.
_MAJORANT_CAP = 1 << 18


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated Taylor expansion; ``coeffs[n]`` is the degree-n coefficient."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, ndmin=1)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.isfinite(c.view(np.float64)).all():
            raise DomainError("non-finite coefficient")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def degree(self) -> int:
        """Largest index with a nonzero coefficient (-1 for the zero series)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and np.array_equal(self.coeffs, other.coeffs)


@dataclass(frozen=True)
class Majorant:
    """term(n) = exp(log_c) n^p rho^n, n >= 1, p >= 0, 0 < rho < 1 (log_c: r^-d cannot overflow).
    ``tail(order)`` bounds sum_{n>order} term(n): q(n) = term(n+1)/term(n) <= e^(p/n) rho, so
    from n1 = max(order+1, ceil(2p/ln(1/rho))) on q is below sqrt(rho) and falls, and the terms
    sum to at most term(n1)/(1 - q(n1)); those before n1 are summed (inf past 2^18 of them).
    ``order_for(tol)`` is the least order with tail <= tol: it solves term(n) / (1 - q(n)) = tol
    for a start, gallops up from it to a bracket and bisects inside, about 3 tail calls where a
    bisection over [-1, 2^18] takes 19; TruncationError past 2^18, or for tol below the least
    normal float, where the terms it sums would underflow."""

    log_c: float
    p: float
    rho: float

    def tail(self, order: int) -> float:
        log_rho = math.log(self.rho)
        n1 = max(order + 1, math.ceil(2.0 * self.p / -log_rho))
        if n1 - order > _MAJORANT_CAP:
            return math.inf
        n = np.arange(order + 1, n1 + 1, dtype=np.float64)
        # a term, their sum or the closing bound past the float range bounds the tail by inf
        with np.errstate(over="ignore"):
            terms = np.exp(self.log_c + self.p * np.log(n) + n * log_rho)
            closing = terms[-1] / (1.0 - (1.0 + 1.0 / n1) ** self.p * self.rho)
            return float(terms[:-1].sum() + closing)

    def order_for(self, tol: float) -> int:
        if not (tol >= np.finfo(np.float64).tiny and self.tail(_MAJORANT_CAP) <= tol):
            raise TruncationError(f"no order up to {_MAJORANT_CAP} holds the tail within {tol:g}")
        # From n1 on, tail(n - 1) = term(n) / (1 - q(n)), q(n) = (1 + 1/n)^p rho <= sqrt(rho).  A
        # few fixed-point steps of that = tol, from the peak of n^p rho^n at p / ln(1/rho), near
        # its root from below (an inf tol stays on that floor); from the order n - 1 a gallop up
        # ends at a bracket tail(hi) <= tol < tail(lo)
        decay = -math.log(self.rho)
        least = max(self.p / decay, 1.0)
        n = least
        for _ in range(3):
            q = min((1.0 + 1.0 / n) ** self.p * self.rho, math.sqrt(self.rho))
            budget = math.log(tol) + math.log1p(-q)
            n = min(max((self.log_c + self.p * math.log(n) - budget) / decay, least), _MAJORANT_CAP)
        guess = math.ceil(n) - 1
        if self.tail(guess) > tol:
            lo, hi, step = guess, guess + 1, 1
            while self.tail(hi) > tol:
                lo, hi, step = hi, min(hi + 2 * step, _MAJORANT_CAP), 2 * step
        elif n > least and (guess == 0 or self.tail(guess - 1) > tol):
            return guess
        else:  # a start on the floor, or one that rounding put past the order: tail(-1) = inf
            lo, hi = -1, guess
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if self.tail(mid) <= tol else (mid, hi)
        return hi


def from_coefficients(coeffs: Iterable[complex]) -> PowerSeries:
    return PowerSeries(np.asarray(list(coeffs), dtype=np.complex128))


def zero(order: int = 0) -> PowerSeries:
    return PowerSeries(np.zeros(order + 1, dtype=np.complex128))


def one(order: int = 0) -> PowerSeries:
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = 1.0
    return PowerSeries(c)


def monomial(k: int, order: int | None = None) -> PowerSeries:
    """The series z**k, stored at the given order (default k)."""
    order = k if order is None else order
    if order < k:
        raise ValueError("order too small to hold the monomial")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[k] = 1.0
    return PowerSeries(c)


def scale(f: PowerSeries, factor: complex) -> PowerSeries:
    return PowerSeries(f.coeffs * factor)


def frexp(x: np.ndarray):
    """(m, e) with x = m 2^e for a float or complex array x, exact but for parts of m below the
    normal range, and the largest |real or imaginary part| of m in [1/2, 1) (e = 0 for x = 0).
    A 2-d x is scaled row by row, e holding one exponent per row; for a 1-d x, e is an int."""
    parts = x.view(np.float64)
    e = np.frexp(np.abs(parts).max(axis=-1))[1]
    return np.ldexp(parts, -e[..., None]).view(x.dtype), (e if x.ndim > 1 else int(e))


def ldexp_norm(norm, e):
    """norm 2^e, undoing the scale ``frexp`` set, elementwise for arrays of norms and exponents
    (a float for a scalar norm); DomainError where a finite norm leaves the float range."""
    try:
        with np.errstate(over="raise"):  # an infinite norm stays inf, and raises nothing
            out = np.ldexp(norm, e)
    except FloatingPointError:
        raise DomainError("the norm overflows the float range") from None
    return out if np.ndim(out) else float(out)


def convolve(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Coefficients 0..order of the product of the coefficient arrays a and b, the one direct
    product: coefficient k is sum_{j<=k} a_j b_{k-j}, and the result is not padded, so it has
    min(order + 1, len(a) + len(b) - 1) entries.  Not an FFT: FFT rounding spreads about
    eps ||a|| ||b|| over every coefficient, swamping the decaying tails that Blaschke
    series and their certified tail bounds rely on."""
    return np.convolve(a, b)[: order + 1]


def cauchy_product(a: PowerSeries, b: PowerSeries, order: int) -> PowerSeries:
    """Product series truncated at ``order``: ``convolve``, zero-padded to ``order``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    product = convolve(a.coeffs, b.coeffs, order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[: len(product)] = product
    return PowerSeries(c)


def derivative(f: PowerSeries) -> PowerSeries:
    """Termwise derivative; the order drops by one (constants map to [0])."""
    if f.order == 0:
        return zero(0)
    n = np.arange(1, f.order + 1)
    return PowerSeries(n * f.coeffs[1:])


def multiplier(phi: PowerSeries, order: int):
    """x -> first order+1 coefficients of x * b, len(x) <= order+1, for b = phi cut after
    its degree: ``convolve`` for short b, unpadded, else an FFT product.  An FFT shorter than
    order + len(b) would wrap the top term onto index 0."""
    b = phi.coeffs[: min(max(phi.degree(), 0), order) + 1]
    if len(b) < _FFT_MIN_TAPS:
        return lambda x: convolve(x, b, order)
    size = 1 << (order + len(b) - 1).bit_length()
    fb = np.fft.fft(b, size)
    return lambda x: np.fft.ifft(np.fft.fft(x, size) * fb)[: order + 1]


def orbit(f: PowerSeries, phi: PowerSeries, count: int, order: int) -> np.ndarray:
    """(count+1) x (order+1) array whose row k holds f * phi^k truncated at ``order``.

    Row 0 is f cut at ``order``; each row is the previous one times phi through
    ``multiplier`` at the length that returns (deg phi longer, or order + 1 from an FFT),
    zero past it, so a walk of one power at a time builds the same bits.  The loop
    stops at the first row that underflows to exactly zero: a product by phi
    maps zero to zero on the direct and on the FFT path, so every later row is
    zero too.  A row that is not finite stays so under a product by phi, so the
    last row shows whether some row overflowed (phi is then no self-map of the
    disk); that raises DomainError naming the first such row.
    """
    if order < 0 or count < 0:
        raise ValueError("order and count must be >= 0")
    times_phi = multiplier(phi, order)
    table = np.zeros((count + 1, order + 1), dtype=np.complex128)
    row = f.coeffs[: order + 1]
    table[0, : len(row)] = row
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, once
        for k in range(1, count + 1):
            row = times_phi(row)
            table[k, : len(row)] = row
            if not row.any():
                break
    if not np.isfinite(table[-1]).all():
        k = int(np.argmin(np.isfinite(table).all(axis=1)))
        raise DomainError(f"f * phi^{k} overflows at order {order}: phi is no self-map")
    return table


def compose(f: PowerSeries, phi: PowerSeries, order: int) -> PowerSeries:
    """Truncated Taylor expansion of f(phi(z)), every product truncated at ``order``:
    f's coefficients times the power table ``orbit(one(), phi, f.order, order)``, one
    matrix product.  Rounding stays a few ulps of sum_k |f_k| times the largest
    coefficient of the powers of phi.

    Requires |phi(0)| < 1 strictly: for a symbol that is not a disk self-map near
    the origin the composed series need not converge, so such symbols are rejected
    rather than handled by limits; one whose powers overflow raises the DomainError
    of ``orbit``, and a product past the float range that of ``PowerSeries``.
    """
    require_open_disk(phi.coeffs[0], "composition symbol's constant term")
    with np.errstate(over="ignore", invalid="ignore"):
        return PowerSeries(f.coeffs @ orbit(one(), phi, f.order, order))


def reciprocal(f: PowerSeries, order: int) -> PowerSeries:
    """Multiplicative inverse series g with (f*g)(z) = 1 + O(z^{order+1}).

    Standard recurrence: g_0 = 1/f_0 and
    g_k = -(1/f_0) * sum_{j=1..k} f_j g_{k-j}.
    """
    f0 = complex(f.coeffs[0])
    if f0 == 0:
        raise DomainError("reciprocal of a series with zero constant term")
    if order < 0:
        raise ValueError("order must be >= 0")
    a = np.zeros(order + 1, dtype=np.complex128)
    m = min(order, f.order) + 1
    a[:m] = f.coeffs[:m]
    g = np.zeros(order + 1, dtype=np.complex128)
    g[0] = 1.0 / f0
    for k in range(1, order + 1):
        g[k] = -(a[1 : k + 1] @ g[k - 1 :: -1]) / f0
    return PowerSeries(g)


def evaluate(f: PowerSeries, z: complex) -> complex:
    """The truncated series at one point: ``evaluate_many`` at a 0-d array.

    Documented accuracy region is |z| <= 1; nothing stops evaluation
    outside it, but the truncation tail is then unbounded.
    """
    return complex(evaluate_many(f, z))


def evaluate_many(f: PowerSeries, z) -> np.ndarray:
    """The truncated series at every point of z, in an array of z's shape.

    Baby-step/giant-step Horner (Paterson & Stockmeyer 1973): for the m
    coefficients and b = ceil(sqrt(m)), the powers z^0..z^(b-1) form one
    (b, points) array, a stacked matrix product gives the block sums
    sum_i f_{qb+i} z^i, and Horner in z^b runs over the ceil(m/b) blocks:
    about 2 sqrt(m) array steps in place of m.  The product makes one BLAS
    matrix-vector call per point, so a point's value does not depend on the
    batch it comes in (one gemm over all points rounds by position).  At
    z = 0 the result is f_0 exactly.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.ravel()
    m = len(f.coeffs)
    b = math.isqrt(m - 1) + 1  # ceil(sqrt(m)), exactly
    baby = np.empty((b, flat.size), dtype=np.complex128)
    baby[0] = 1.0
    for i in range(1, b):
        np.multiply(baby[i - 1], flat, out=baby[i])
    padded = np.zeros(-(-m // b) * b, dtype=np.complex128)
    padded[:m] = f.coeffs
    blocks = (padded.reshape(-1, b) @ baby.T[:, :, None])[:, :, 0].T
    giant = baby[-1] * flat
    acc = np.zeros_like(flat)  # contiguous, so every product takes one numpy loop
    for block in blocks[::-1]:
        acc = acc * giant + block
    return acc.reshape(z.shape)


def require_open_disk(x, what: str) -> None:
    """DomainError "<what> must lie in the open disk" unless every |x| < 1 (nan and inf fail)."""
    if not (np.abs(np.asarray(x, dtype=np.complex128)) < 1.0).all():
        raise DomainError(f"{what} must lie in the open disk")

