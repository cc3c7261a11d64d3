"""Truncated complex power series.

A function analytic on the unit disk is represented by the first N+1
Taylor coefficients at the origin::

    f(z) = f_0 + f_1 z + f_2 z^2 + ... + f_N z^N

``PowerSeries`` stores the coefficient array (complex double precision,
index = degree) and is immutable after construction.  All operations are
pure functions that return new series.  Truncation is silent and by
contract: every operation that can grow the degree takes an explicit
output order, and coefficients above it are discarded.

The default working order used throughout the package is
``DEFAULT_ORDER`` = 256, chosen so that kernel sums and banded operator
compressions reach truncation errors below 1e-10 for arguments of
modulus <= 0.9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_ORDER = 256

# Shorter symbols (monomials, low degrees) use the exact direct convolution;
# at this length it costs what an FFT product does, at order 256 and 1024.
_FFT_MIN_TAPS = 128


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated Taylor expansion; ``coeffs[n]`` is the degree-n coefficient."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128)).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(c.view(np.float64))):
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

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return add(self, other)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return add(self, scale(other, -1.0))

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and np.array_equal(self.coeffs, other.coeffs)


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


def truncate(f: PowerSeries, order: int) -> PowerSeries:
    """Resize to the given order, padding with zeros or dropping the tail."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = np.zeros(order + 1, dtype=np.complex128)
    m = min(order, f.order) + 1
    c[:m] = f.coeffs[:m]
    return PowerSeries(c)


def add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    order = max(a.order, b.order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[: a.order + 1] += a.coeffs
    c[: b.order + 1] += b.coeffs
    return PowerSeries(c)


def scale(f: PowerSeries, factor: complex) -> PowerSeries:
    return PowerSeries(f.coeffs * factor)


def cauchy_product(a: PowerSeries, b: PowerSeries, order: int) -> PowerSeries:
    """Product series truncated at ``order``.

    Coefficient k of the result is sum_{j<=k} a_j b_{k-j}; degrees above
    ``order`` are silently discarded.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    full = np.convolve(a.coeffs, b.coeffs)
    c = np.zeros(order + 1, dtype=np.complex128)
    m = min(order + 1, len(full))
    c[:m] = full[:m]
    return PowerSeries(c)


def derivative(f: PowerSeries) -> PowerSeries:
    """Termwise derivative; the order drops by one (constants map to [0])."""
    if f.order == 0:
        return zero(0)
    n = np.arange(1, f.order + 1)
    return PowerSeries(n * f.coeffs[1:])


def _multiplier(phi: PowerSeries, order: int):
    """x -> first order+1 coefficients of x * b, len(x) = order+1, for b = phi cut after
    its degree.  An FFT shorter than order + len(b) would wrap the top term onto index 0."""
    b = phi.coeffs[: min(max(phi.degree(), 0), order) + 1]
    if len(b) < _FFT_MIN_TAPS:
        return lambda x: np.convolve(x, b)[: order + 1]
    size = 1 << (order + len(b) - 1).bit_length()
    fb = np.fft.fft(b, size)
    return lambda x: np.fft.ifft(np.fft.fft(x, size) * fb)[: order + 1]


def orbit(f: PowerSeries, phi: PowerSeries, count: int, order: int) -> np.ndarray:
    """(count+1) x (order+1) array whose row k holds f * phi^k truncated at ``order``.

    Each row is the previous one times phi through ``_multiplier``.  The loop
    stops at the first row that underflows to exactly zero: a product by phi
    maps zero to zero on the direct and on the FFT path, so every later row is
    zero too.  A row that is not finite stays so under a product by phi, so the
    last row shows whether some row overflowed (phi is then no self-map of the
    disk); that raises DomainError naming the first such row.
    """
    if order < 0 or count < 0:
        raise ValueError("order and count must be >= 0")
    times_phi = _multiplier(phi, order)
    table = np.zeros((count + 1, order + 1), dtype=np.complex128)
    table[0] = truncate(f, order).coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, once
        for k in range(1, count + 1):
            table[k] = times_phi(table[k - 1])
            if not table[k].any():
                break
    if not np.isfinite(table[-1]).all():
        k = int(np.argmin(np.isfinite(table).all(axis=1)))
        raise DomainError(f"f * phi^{k} overflows at order {order}: phi is no self-map")
    return table


def compose(f: PowerSeries, phi: PowerSeries, order: int) -> PowerSeries:
    """Truncated Taylor expansion of f(phi(z)), every product truncated at ``order``.

    Baby-step/giant-step (Paterson & Stockmeyer 1973; Brent & Kung 1978, Alg. 2.1):
    for the m coefficients of f and b = ceil(sqrt(m)), ``orbit`` gives phi^0..phi^b,
    one matrix product gives the block sums sum_i f_{qb+i} phi^i, and Horner in
    phi^b runs over the ceil(m/b) blocks: about 2 sqrt(m) products where Horner in
    phi takes m.  Rounding stays a few ulps of sum_k |f_k| times the largest
    coefficient of the powers of phi.

    Requires |phi(0)| < 1 strictly: for a symbol that is not a disk self-map near
    the origin the composed series need not converge, so such symbols are rejected
    rather than handled by limits; one whose powers overflow raises DomainError.
    """
    if abs(phi.coeffs[0]) >= 1.0:
        raise DomainError("composition symbol has |constant term| >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    m = len(f.coeffs)
    b = math.isqrt(m - 1) + 1  # ceil(sqrt(m)), exactly
    baby = orbit(one(), phi, b, order)
    padded = np.zeros(-(-m // b) * b, dtype=np.complex128)
    padded[:m] = f.coeffs
    times_giant = _multiplier(PowerSeries(baby[b]), order)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, once
        blocks = padded.reshape(-1, b) @ baby[:b]
        acc = blocks[-1]
        for block in blocks[-2::-1]:
            acc = times_giant(acc) + block
    if not np.isfinite(acc).all():
        raise DomainError(f"f(phi) overflows at order {order}: phi is no self-map")
    return PowerSeries(acc)


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
    """Horner evaluation of the truncated series.

    Documented accuracy region is |z| <= 1; nothing stops evaluation
    outside it, but the truncation tail is then unbounded.
    """
    acc = 0j
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


def evaluate_many(f: PowerSeries, z: np.ndarray) -> np.ndarray:
    """Vectorized Horner evaluation at an array of points."""
    acc = np.zeros_like(z, dtype=np.complex128)
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return acc


def to_pairs(f: PowerSeries) -> list[list[float]]:
    """JSON form: array of [re, im] pairs, index = degree."""
    return [[float(c.real), float(c.imag)] for c in f.coeffs]


def complex_pairs(pairs, what: str = "series") -> list[complex]:
    """[re, im] pairs as complex numbers; ValueError naming the first entry that is not one."""
    for p in pairs if isinstance(pairs, (list, tuple)) else [pairs]:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and all(isinstance(x, (int, float)) for x in p)):
            raise ValueError(f"{what} entry {p!r} is not a pair of two numbers")
    return [complex(re, im) for re, im in pairs]


def from_pairs(pairs: Sequence[Sequence[float]]) -> PowerSeries:
    """Inverse of to_pairs; ValueError unless pairs is a list of [re, im] number pairs."""
    return from_coefficients(complex_pairs(pairs))


def json_field(d, key: str):
    """d[key] of a decoded JSON object; ValueError naming the key when it is missing."""
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"expected a JSON object with the key {key!r}")
    return d[key]
