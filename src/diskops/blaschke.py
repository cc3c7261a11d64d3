"""Disk automorphisms, finite Blaschke products, and circle quadrature.

The building block is the involution phi_a(z) = (a - z)/(1 - conj(a) z),
whose Taylor expansion is

    phi_a(z) = a - (1 - |a|^2) sum_{n>=1} conj(a)^{n-1} z^n.

A finite Blaschke product is a unimodular constant times a product of
such factors; it is inner, with |psi| = 1 on the boundary circle.  phi_a
itself is the product ``BlaschkeProduct(1.0, (a,))``.

Circle integrals use the composite trapezoidal rule on equispaced nodes,
which is spectrally accurate for the smooth periodic integrands that
appear here (Poisson kernels and their products).  Each moment family is
read from one density or expansion per parameter: the Poisson moments
k = 0..k_max are the first bins of one FFT of one product of kernels (the
same trapezoid sums), the phi_a' moments come from one coefficient
expansion, and the adjoint oracle's inner products from one coefficient
array.  Those two brute-force sums stop by default at the order whose
certified tail is eps/4, past which a longer sum moves no value beyond
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import series as ps
from . import spaces
from .errors import DomainError
from .series import PowerSeries

DEFAULT_QUAD_NODES = 4096


@dataclass(frozen=True)
class BlaschkeProduct:
    """unimodular * product of phi_{zero} factors over the listed zeros."""

    unimodular: complex = 1.0 + 0j
    zeros: tuple[complex, ...] = ()

    def __post_init__(self):
        a = complex(self.unimodular)
        if not abs(abs(a) - 1.0) <= 1e-12:
            raise DomainError("leading constant must be unimodular")
        zs = tuple(complex(z) for z in self.zeros)
        ps.require_open_disk(zs, "Blaschke zeros")
        object.__setattr__(self, "unimodular", a)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        out = self.unimodular * np.ones_like(np.asarray(z, dtype=np.complex128))
        for alpha in self.zeros:
            out = out * (alpha - z) / (1.0 - np.conj(alpha) * z)
        return out if np.ndim(z) else complex(out)

    def series(self, order: int) -> PowerSeries:
        """Truncated Taylor expansion; tail is O(max|zero|^order).  The factors' coefficients are
        the closed form of phi_a, and the product folds them from the first factor on.  The last
        16 are kept, keyed on the bits of the constant and zeros (equality takes -0.0 for 0.0)."""
        return _product_series(np.array((self.unimodular, *self.zeros)).tobytes(), order)

    def _tail_majorant(self, space: spaces.SpaceWeights | None = None) -> ps.Majorant | None:
        """Each factor has |coefficient_n| <= r^(n-1), r the largest zero modulus, so the majorant
        of |psi_n| is n^(d-1) r^(n-d); with weight(n) <= (n+1)^s, weight(n) |psi_n|^2 is at most
        (n+1)^(2(d-1)+s) r^(2(n+1)) r^(-2(d+1)), the term n+1 of the space's majorant, r^2 raised
        to the least normal float.  None for r = 0, where psi is a unimodular times z^d."""
        d, r = self.degree, max((abs(z) for z in self.zeros), default=0.0)
        if r == 0.0:
            return None
        if space is None:
            return ps.Majorant(-d * np.log(r), d - 1, r)
        rho = max(r * r, np.finfo(np.float64).tiny)
        return ps.Majorant(-2 * (d + 1) * np.log(r), 2 * (d - 1) + space.weight_exponent, rho)

    def tail_bound(self, order: int) -> float:
        """Bound on sum_{n>order} |psi_n|."""
        majorant = self._tail_majorant()
        return float(order < self.degree) if majorant is None else majorant.tail(order)

    def tail_norm(self, space: spaces.SpaceWeights, order: int) -> float:
        """Bound on sqrt(sum_{n>order} (n+1)^s |psi_n|^2), s = ``space.weight_exponent``, so on
        the space norm of the series past ``order``; it grows with the number of zeros."""
        majorant = self._tail_majorant(space)
        if majorant is None:
            return float(order < self.degree) * (self.degree + 1.0) ** (0.5 * space.weight_exponent)
        return float(np.sqrt(majorant.tail(order + 1)))

    def order_for(self, tol: float, space: spaces.SpaceWeights | None = None) -> int:
        """The smallest order with tail_bound(order) <= tol, or tail_norm(space, order) <= tol
        when a space is given; TruncationError where ``series.Majorant.order_for`` refuses."""
        majorant = self._tail_majorant(space)
        if majorant is None:
            at_zero = self.tail_bound(0) if space is None else self.tail_norm(space, 0)
            return 0 if at_zero <= tol else self.degree
        return majorant.order_for(tol) if space is None else max(majorant.order_for(tol * tol) - 1, 0)


@lru_cache(maxsize=16)
def _product_series(key: bytes, order: int) -> PowerSeries:
    """``BlaschkeProduct.series`` of the product whose constant and zeros have these bytes."""
    unimodular, *zeros = (complex(a) for a in np.frombuffer(key, dtype=np.complex128))
    n = np.arange(order)
    factors = [np.concatenate([[a], -(1.0 - abs(a) ** 2) * np.conj(a) ** n]) for a in zeros]
    out = factors[0] if factors else ps.one(order).coeffs
    for c in factors[1:]:
        out = ps.convolve(out, c, order)
    return PowerSeries(out * unimodular)


def z_times_phi(alpha: complex) -> BlaschkeProduct:
    """The degree-2 product z * phi_alpha (note z = -phi_0)."""
    return BlaschkeProduct(-1.0, (0j, complex(alpha)))


def phi_pair(alpha: complex) -> BlaschkeProduct:
    """The degree-2 product phi_alpha * phi_{-alpha}."""
    alpha = complex(alpha)
    return BlaschkeProduct(1.0, (alpha, -alpha))


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def circle_nodes(nodes: int) -> np.ndarray:
    """Equispaced boundary points exp(2 pi i j / nodes)."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    return np.exp(1j * theta)


def poisson_kernel(alpha: complex, zeta) -> float | np.ndarray:
    """P_alpha(zeta) = (1 - |alpha|^2) / |zeta - alpha|^2 on |zeta| = 1."""
    alpha = complex(alpha)
    ps.require_open_disk(alpha, "Poisson parameter")
    zeta_arr = np.asarray(zeta, dtype=np.complex128)
    if np.any(np.abs(np.abs(zeta_arr) - 1.0) > 1e-9):
        raise DomainError("Poisson kernel evaluated off the unit circle")
    out = (1.0 - abs(alpha) ** 2) / np.abs(zeta_arr - alpha) ** 2
    return out if np.ndim(zeta) else float(out)


def _check_index(k) -> None:
    """ValueError unless the moment index k is an int >= 0."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"moment index must be an int >= 0, got {k!r}")


def check_node_count(nodes: int) -> None:
    """ValueError unless the quadrature node count is a power of two >= 256."""
    if nodes < 256 or nodes & (nodes - 1):
        raise ValueError(f"quadrature node count must be a power of two >= 256, got {nodes}")


def poisson_product_moment(alphas, k_max: int, nodes: int = DEFAULT_QUAD_NODES) -> np.ndarray:
    """Quadrature values of the moments k = 0..k_max of the Poisson kernel product

        (1/2 pi) integral prod_a P_a(zeta) conj(zeta)^k |dzeta|,

    from one density over the zeros ``alphas``.  ``(a,)`` gives conj(a)^k exactly (harmonic
    extension of conj(zeta)^k); ``(a, -a)`` gives the two-sided moment b(k).  The trapezoid
    sums (1/nodes) sum_j density_j conj(zeta_j)^k are the bins 0..k_max of one FFT of the
    density; ValueError unless k_max < nodes, past which the bins alias.
    """
    _check_index(k_max)
    check_node_count(nodes)
    if k_max >= nodes:
        raise ValueError(f"k_max must be below the node count, got {k_max} for {nodes} nodes")
    density = np.prod([poisson_kernel(a, circle_nodes(nodes)) for a in alphas], axis=0)
    return np.fft.fft(density)[: k_max + 1] / nodes


def poisson_product_moment_closed(alpha: complex, k: int) -> complex:
    """Closed form: b(2l) = ((1-|a|^2)/(1+|a|^2)) conj(a)^{2l}, b(odd) = 0."""
    _check_index(k)
    alpha = complex(alpha)
    if k % 2:
        return 0j
    ratio = (1.0 - abs(alpha) ** 2) / (1.0 + abs(alpha) ** 2)
    return complex(ratio * np.conj(alpha) ** k)


# ---------------------------------------------------------------------------
# derivative moments and the adjoint-symbol expansions
# ---------------------------------------------------------------------------


def phi_prime_moment(alpha: complex, k: int) -> complex:
    """Closed form of the Hardy inner product <phi_a', z^k phi_a'>:

        ((1 + |a|^2)/(1 - |a|^2)) conj(a)^k + k conj(a)^k.
    """
    _check_index(k)
    alpha = complex(alpha)
    ps.require_open_disk(alpha, "parameter")
    ak = np.conj(alpha) ** k
    return complex((1.0 + abs(alpha) ** 2) / (1.0 - abs(alpha) ** 2) * ak + k * ak)


def phi_prime_moment_series(alpha: complex, k_max: int, order: int | None = None) -> np.ndarray:
    """Brute-force companion for k = 0..k_max: the same inner products summed from one
    coefficient expansion of phi_a', c_n = (|a|^2 - 1)(n+1) conj(a)^n, through the terms
    n <= order.  Term n of moment k has modulus (1-rho)^2 (n+1)(n+k+1) rho^n |a|^k, rho = |a|^2,
    at most 4 (1-rho)^2 n^2 rho^n times the closed form's |a|^k ((1+rho)/(1-rho) + k), as
    (n+1)(n+k+1) <= 2 (k+2) n^2 for n >= 1 and k + 2 <= 2 ((1+rho)/(1-rho) + k).  The default
    order is the least whose majorant tail is eps/4 of that (32 at |a| = 0.5, 65 at 0.7), past
    which a longer sum moves no moment beyond rounding."""
    _check_index(k_max)
    alpha = complex(alpha)
    ps.require_open_disk(alpha, "parameter")
    rho = abs(alpha) ** 2
    if order is None:
        tail = ps.Majorant(math.log(4.0 * (1.0 - rho) ** 2), 2, max(rho, np.finfo(np.float64).tiny))
        order = tail.order_for(np.finfo(np.float64).eps / 4)
    n = np.arange(order + k_max + 1)
    c = (rho - 1.0) * (n + 1) * np.conj(alpha) ** n  # phi_a'(z) = sum c_n z^n
    head = np.conj(c[: order + 1])
    return np.array([np.sum(c[k : k + order + 1] * head) for k in range(k_max + 1)])


VARIANT_Z_PHI = "z_phi"
VARIANT_PHI_PAIR = "phi_pair"


def adjoint_symbol_expansion(variant: str, alpha: complex, k_max: int) -> PowerSeries:
    """Coefficients of (M_psi)* psi in the S2 monomial expansion.

    The function (M_psi)* psi expands as sum_k <psi, z^k psi>_{S2} z^k / w(k)
    with w(k) = k^2 for k >= 1 and w(0) = 1.  Closed forms of the inner
    products for the two degree-2 families:

    z_phi     (psi = z phi_a):
        k = 0:  3 + (1+|a|^2)/(1-|a|^2)
        k >= 1: (2k+2) conj(a)^k + ((1+|a|^2)/(1-|a|^2)) conj(a)^k

    phi_pair  (psi = phi_a phi_{-a}):
        k = 0:  |a|^4 + 2 (1+|a|^2)/(1-|a|^2) + 2 (1-|a|^2)/(1+|a|^2)
        k = 2l: 2 ((1+|a|^2)/(1-|a|^2)) conj(a)^{2l} + 8 l conj(a)^{2l}
                + 2 ((1-|a|^2)/(1+|a|^2)) conj(a)^{2l}
        k odd:  0

    The two-sided Poisson moment enters every nonzero coefficient of the
    second family with weight 2 (once per cross term of the product rule),
    matching the constant term and the brute-force oracle.
    """
    _check_index(k_max)
    alpha = complex(alpha)
    ps.require_open_disk(alpha, "parameter")
    rho = abs(alpha) ** 2
    plus = (1.0 + rho) / (1.0 - rho)
    minus = (1.0 - rho) / (1.0 + rho)
    c = np.zeros(k_max + 1, dtype=np.complex128)
    if variant == VARIANT_Z_PHI:
        c[0] = 3.0 + plus
        for k in range(1, k_max + 1):
            ak = np.conj(alpha) ** k
            c[k] = ((2 * k + 2) * ak + plus * ak) / k**2
    elif variant == VARIANT_PHI_PAIR:
        c[0] = rho**2 + 2.0 * plus + 2.0 * minus
        for l in range(1, k_max // 2 + 1):
            a2l = np.conj(alpha) ** (2 * l)
            c[2 * l] = (2.0 * plus * a2l + 8.0 * l * a2l + 2.0 * minus * a2l) / (4 * l**2)
    else:
        raise ValueError(f"unknown adjoint variant {variant!r}")
    return PowerSeries(c)


def adjoint_symbol_series_oracle(psi: BlaschkeProduct, k_max: int,
                                 order: int | None = None) -> PowerSeries:
    """Brute-force expansion coefficients <psi, z^k psi>_{S2} / w(k) of any finite Blaschke
    product, computed from its series truncated at ``order``; independent of the closed forms.
    Every inner product sum_{n=k..order} w(n) psi_n conj(psi_{n-k}) is read from one array of
    the coefficients at the unit scale of ``series.frexp``.  The default order is the least
    with ``psi.tail_norm(s2, order)`` <= eps/4: by Cauchy-Schwarz the dropped terms are at most
    that times ||z^k psi||_{S2}, and ||psi||_{S2} >= ||psi'||_{H2} >= deg psi (|psi'| has mean
    deg psi on the circle), so a longer series moves no coefficient beyond rounding."""
    _check_index(k_max)
    space = spaces.s2()
    if order is None:
        order = psi.order_for(np.finfo(np.float64).eps / 4, space)
    c, e = ps.frexp(psi.series(order).coeffs)
    # row k of the window holds conj(psi_{n-k}) at n = 0..order, zero for n < k
    padded = np.concatenate([np.zeros(k_max, dtype=np.complex128), np.conj(c)])
    shifted = np.lib.stride_tricks.sliding_window_view(padded, order + 1)[::-1]
    totals = np.sum(space.weights(order) * c * shifted, axis=1)
    ips = ps.ldexp_norm(np.stack([totals.real, totals.imag]), 2 * e)
    k = np.arange(k_max + 1.0)
    out = np.empty(k_max + 1, dtype=np.complex128)
    out.real, out.imag = ips / np.maximum(k * k, 1.0)  # real divisions, as complex / int rounds
    return PowerSeries(out)


def adjoint_distinctness_gap(alpha: complex) -> float:
    """|(M_psi)* psi (0) - (M_psi)* psi (alpha)| for psi = z phi_alpha.

    The gap being nonzero is what obstructs reducibility for these
    degree-2 symbols.
    """
    alpha = complex(alpha)
    ps.require_open_disk(alpha, "parameter")
    if alpha == 0:
        raise DomainError("distinctness gap is defined for alpha != 0")
    # term k of the expansion at alpha is at most (4 + (1+|a|^2)/(1-|a|^2)) |a|^(2k)
    rho = abs(alpha) ** 2
    k_max = ps.Majorant(np.log(4.0 + (1.0 + rho) / (1.0 - rho)), 0, rho).order_for(1e-16)
    expansion = adjoint_symbol_expansion(VARIANT_Z_PHI, alpha, k_max)
    return abs(complex(expansion.coeffs[0]) - expansion(alpha))
