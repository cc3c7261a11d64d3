"""Finite compressions of multiplication, composition, and shift operators.

Matrices live in the orthonormalized monomial basis e_n = z^n / ||z^n||
of a chosen weighted space, so entry (i, j) of the compression of T is
<T e_j, e_i>.  For a multiplication operator with symbol f this gives the
lower-banded profile

    entry(i, j) = f_{i-j} * sqrt(weight(i) / weight(j)),   j <= i <= j + deg f.

Because the compressions of these column-finite operators are restrictions to invariant
polynomial subspaces, the largest singular value of the compression is a certified lower
bound of the operator norm and is nondecreasing in the truncation size: one SVD of a block
with at most _BASIS_ROWS rows or columns, Golub-Kahan (``norm_estimate``) past it.  Every
alternating defect of M_psi, the shift psi = z included, is ``blaschke_power_defect``'s.
"""

from __future__ import annotations

import math

import numpy as np

from . import series as ps
from . import spaces as sp
from .blaschke import BlaschkeProduct
from .errors import ConvergenceError, DomainError, PreconditionError, TruncationError
from .series import PowerSeries


# The squared Frobenius mass the C_phi products may leave out: (eps ||A||_F)^2 at most
_CUT_MASS = np.finfo(np.float64).eps ** 2


def _self_map_sup(phi: PowerSeries) -> float:
    """The hi of ``spaces.sup_bracket(phi)`` = (lo, hi), the one self-map gate of C_phi:
    DomainError unless |phi(0)| < 1, and when lo > 1: then some |phi(zeta)| > 1 on the
    circle, so phi maps points of the disk outside it."""
    ps.require_open_disk(phi.coeffs[0], "composition symbol's constant term")
    lo, hi = sp.sup_bracket(phi)
    if lo > 1.0:
        raise DomainError(f"composition symbol has sup |phi| >= {lo:.6g} > 1: "
                          "phi is no self-map of the disk")
    return hi


def _composition_cut(space: sp.SpaceWeights, phi: PowerSeries, n: int, full: bool = False):
    """(k, c, mass): the rows 0..k and columns 0..c of the transposed compression of
    f -> f(phi) at size n+1 that are built (row j is phi^j * sqrt(weight / weight(j))), and a
    bound of the squared Frobenius mass of rows k+1..n, at most _CUT_MASS.

    The hi of ``spaces.sup_bracket(phi)``, past the self-map gate ``_self_map_sup``, fixes k
    before any row is built.  For s = hi (1 + 4 eps) < 1, the computed ||phi^j||_H2 <= s^j
    (4 eps cover the rounding of each product; a constant, whose bracket is exact, has no other
    slack) bounds the mass of row j by (max w / min w) s^(2j), w = weights(n): k is that
    Majorant's order_for(_CUT_MASS) (rho = s^2, or the least normal float if smaller) and the
    bound its tail at k.  When s >= 1 or that k is n or more, k = n and the bound is 0.  Then,
    whatever s, k is capped at n // v for phi of valuation v >= 1: phi^j starts at z^(v j), so
    the rows past it are exactly zero (a zero symbol keeps row 0 alone).  For phi of degree d,
    row j has degree at most j d, so c = min(n, k d): past it the direct convolution leaves
    exact zeros and the FFT product (long symbols) the rounding of exact zeros, a few eps of
    the row.  ``full`` (the exact dense compression) keeps all n+1 rows and columns.
    """
    hi = _self_map_sup(phi)
    k, c, mass = n, n, 0.0
    if not full and n > 0:
        w = space.weights(n)
        s = hi * (1 + 4 * np.finfo(np.float64).eps)
        if s < 1:
            rows = ps.Majorant(math.log(w.max() / w.min()), 0, max(s * s, np.finfo(np.float64).tiny))
            if rows.tail(n - 1) <= _CUT_MASS:
                k = rows.order_for(_CUT_MASS)
                mass = rows.tail(k)
        nonzero = np.flatnonzero(phi.coeffs[: n + 1])
        v = int(nonzero[0]) if len(nonzero) else n + 1
        if v > 0:
            k = min(k, n // v)
        c = min(n, k * max(phi.degree(), 0))
    return k, c, mass


def _composition_columns(space: sp.SpaceWeights, phi: PowerSeries, n: int, full: bool = False):
    """The rows 0..k, columns 0..c of the transposed compression of f -> f(phi) at size n+1
    that ``_composition_cut`` sizes, as one ``series.orbit`` of phi's powers scaled in place
    (every C_phi table)."""
    k, c, _ = _composition_cut(space, phi, n, full)
    sqw = np.sqrt(space.weights(n))
    table = ps.orbit(ps.one(), phi, k, c)
    table *= sqw[: c + 1] / sqw[: k + 1, None]
    return table


def composition_matrix(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> np.ndarray:
    """Dense compression of f -> f(phi); column j holds the expansion of phi^j."""
    return _composition_columns(space, phi, n, full=True).T


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


# Golub-Kahan steps before norm_estimate gives up; C_{z^2} on S12 at size 1025 stops after 358.
_MAX_STEPS = 500
# Steps before the first convergence test, and from the first to the second; each test
# is one SVD of the k x k bidiagonal, about the cost of one step.
_TEST_EVERY = 4
# Rows the two Krylov bases start with; they double when the steps need more.  A block of
# M_f or C_phi with at most this many rows or columns takes a dense SVD instead.
_BASIS_ROWS = 32


def _top_singular_values(blocks: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix of a stack from one stacked SVD, 0 for an empty one: the one
    dense SVD.  A stacked SVD takes each matrix as a single one does, bit for bit."""
    return np.linalg.svd(blocks, compute_uv=False).max(axis=-1, initial=0.0)


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> None:
    """Subtract from w, in place, its projection on the orthonormal rows of basis."""
    w -= np.conj(basis @ np.conj(w)) @ basis


def _bidiagonal(alphas: list, betas: list) -> np.ndarray:
    """The len(alphas) x (len(betas) + 1) upper bidiagonal with these two diagonals."""
    b = np.diag(betas, 1)[: len(alphas)]
    np.fill_diagonal(b, alphas)
    return b


def norm_estimate(matvec, rmatvec, m: int, n: int) -> float:
    """sigma_max of the m x n operator with products x -> A x and y -> A^H y.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer. Anal.
    B 2, 1965) from the fixed start v_1 = ones / sqrt(n), so calls repeat
    bitwise, with both bases fully reorthogonalized.  After k steps
    A V_k = U_k B_k and A^H U_k = V_k B_k^H + beta_k v_{k+1} e_k^T for the upper
    bidiagonal B_k, so the top singular triple (sigma, x, y) of B_k has residual
    beta_k |x_k|, and the iteration stops once that is at most eps sigma.  A
    beta_k or alpha_{k+1} of at most max(m, n) eps times the largest alpha or beta
    so far is a breakdown, as is k = n (V_k spans C^n) or k = m (U_k spans C^m):
    span V_k is then invariant under A^H A, or A V_{k+1} lies in span U_k, and the
    Ritz pair comes from B_k, or from the k x (k+1) block [B_k, beta_k e_k],
    exactly.  The result is
    ||A v|| for the unit Ritz vector v = V y: a lower bound of sigma_max.

    matvec takes 1-d complex arrays of length n and returns length m, rmatvec the
    reverse, each call a new array, which the iteration updates in place.  The bases
    start with _BASIS_ROWS rows and double when the steps need more, so storage
    follows the steps taken.  Each test of the stop rule is one SVD of B_k.  The first
    comes after _TEST_EVERY steps, the second max(_TEST_EVERY, k // 8) after it; each
    later one where log(residual / (eps sigma)), fitted linearly in k through the last
    two failed tests, reaches 0, at least 1 and at most 2 max(_TEST_EVERY, k // 8)
    steps ahead.  No convergence within _MAX_STEPS steps raises ConvergenceError: so
    ``diskops opnorm H2 mult`` from truncation 1024 on, and ``opnorm S12 comp`` on z^2 at
    2048, exit 2, where one dense SVD of the block takes 0.65 s and 0.9 s (2-vCPU VM, one
    BLAS thread); ROADMAP item 3 owns the fix.
    """
    eps = np.finfo(np.float64).eps
    floor = max(m, n) * eps
    cap = min(m, n, _MAX_STEPS)
    rows = _BASIS_ROWS
    vs = np.empty((rows + 1, n), dtype=np.complex128)  # rows v_1 .. v_{k+1}
    us = np.empty((rows, m), dtype=np.complex128)  # rows u_1 .. u_k
    alphas, betas = [], []  # the diagonal of B_k, and beta_1 .. beta_k above it
    vs[0] = 1.0 / math.sqrt(n)
    u = matvec(vs[0])
    scale, k, next_test, last_test, ritz = 0.0, 0, _TEST_EVERY, None, None
    while True:
        _orthogonalize(u, us[:k])
        alpha = _norm(u)
        scale = max(scale, alpha)
        if alpha <= floor * scale:
            break
        if k == rows:  # the rows past k are scratch, so np.resize may fill them with copies
            rows = min(2 * rows, cap)
            us = np.resize(us, (rows, m))  # one basis at a time, so one old copy is held
            vs = np.resize(vs, (rows + 1, n))
        alphas.append(alpha)
        np.divide(u, alpha, out=us[k])
        w = rmatvec(us[k])
        w -= alpha * vs[k]
        _orthogonalize(w, vs[: k + 1])
        beta = _norm(w)
        scale = max(scale, beta)
        k += 1
        if k == n or beta <= floor * scale:
            break
        betas.append(beta)
        np.divide(w, beta, out=vs[k])
        if k == m:  # U_k spans C^m, so alpha_{k+1} = 0
            break
        if k >= next_test or k == _MAX_STEPS:
            x, s, yh = np.linalg.svd(_bidiagonal(alphas, betas[:-1]))
            residual = beta * abs(x[-1, 0])
            if residual <= eps * s[0]:
                ritz = yh[0]
                break
            if k == _MAX_STEPS:
                raise ConvergenceError(f"top singular value did not converge at size {m} x {n}")
            gap, step = math.log(residual / (eps * s[0])), max(_TEST_EVERY, k // 8)
            if last_test:  # where the log-linear fit through the last two tests reaches 0
                k0, gap0 = last_test
                fit = math.ceil(gap * (k - k0) / (gap0 - gap)) if gap < gap0 else math.inf
                step = min(max(fit, 1), 2 * step)
            next_test, last_test = k + step, (k, gap)
        u = matvec(vs[k])
        u -= beta * us[k - 1]
    if ritz is None:
        block = _bidiagonal(alphas, betas)
        if block.size == 0:  # A v_1 = 0 exactly
            return 0.0
        ritz = np.linalg.svd(block)[2][0]
    v = np.conj(ritz) @ vs[: len(ritz)]
    return _norm(matvec(v / _norm(v)))


def _multiplication_blocks(space: sp.SpaceWeights, rows: np.ndarray, n: int) -> np.ndarray:
    """The (n+1) x (n+1) compressions of M_f for the rows f of a 2-d coefficient array, stacked
    as one banded array: entry (i, j) is sqrt(w_i) (f_{i-j} / sqrt(w_j)) for j <= i, the two
    products ``_multiplication_products`` takes, so each equals the columns those build, entry
    for entry."""
    sqw = np.sqrt(space.weights(n))
    k = np.arange(n + 1)
    c = np.zeros((len(rows), n + 1), dtype=np.complex128)
    c[:, : min(n + 1, rows.shape[1])] = rows[:, : n + 1]
    return sqw[:, None] * (np.tril(c[:, k[:, None] - k]) * (1.0 / sqw))


def _multiplication_products(space: sp.SpaceWeights, f: PowerSeries, n: int):
    """A x = sqrt(w) (f * x / sqrt(w)); A^H y is conj(f) * u read backwards, u = sqrt(w) y."""
    sqw = np.sqrt(space.weights(n))
    inv_sqw = 1.0 / sqw
    times_f = ps.multiplier(f, n)
    times_conj_f = ps.multiplier(PowerSeries(np.conj(f.coeffs)), n)

    def matvec(x):
        return sqw * times_f(x * inv_sqw)

    def rmatvec(y):
        return times_conj_f((sqw * y)[::-1])[::-1] * inv_sqw

    return matvec, rmatvec


# Bytes of blocks per stacked SVD of multiplication_norms.  Every batch array stays under
# glibc's 128 KiB mmap threshold, these with their temporaries at half of it: freeing a larger
# array raises the threshold for good, so later arrays stay on the heap and peak RSS rises.
# Unchunked sample batches added 6.9 MB to a verify run, 32-symbol SVD chunks with a 1000-row
# draw 0.4 MB; with every batch array under 128 KiB, peak RSS fell 0.4 MB.
_BATCH_BYTES = 1 << 16


def multiplication_norms(space: sp.SpaceWeights, rows: np.ndarray, n: int) -> np.ndarray:
    """Compression norm of M_f at size n+1 for each row f of a 2-d coefficient array: up to
    _BASIS_ROWS rows ``_top_singular_values`` of its ``_multiplication_blocks`` block, stacked
    _BATCH_BYTES at a time, else from banded convolutions; |c| for a constant c.  Each row
    runs scaled to unit size by ``series.frexp``, so no inner product over- or underflows.
    DomainError past the float range."""
    m, e = ps.frexp(rows)
    values = np.empty(len(rows))
    constant = ~(rows[:, 1:] != 0).any(axis=1)
    varying = np.flatnonzero(~constant)
    if n + 1 <= _BASIS_ROWS:
        step = max(1, _BATCH_BYTES // (16 * (n + 1) ** 2))
        for at in np.split(varying, range(step, len(varying), step)):
            values[at] = _top_singular_values(_multiplication_blocks(space, m[at], n))
    else:
        for i in varying:
            products = _multiplication_products(space, PowerSeries(m[i]), n)
            values[i] = norm_estimate(*products, n + 1, n + 1)
    values[varying] = ps.ldexp_norm(values[varying], e[varying])
    for i in np.flatnonzero(constant):  # a scalar abs: np.abs of an array can differ by an ulp
        values[i] = abs(rows[i, 0])
    return values


def multiplication_norm(space: sp.SpaceWeights, f: PowerSeries, n: int) -> float:
    """Compression norm of M_f at size n+1: ``multiplication_norms`` of one row."""
    return float(multiplication_norms(space, f.coeffs[None], n)[0])


def composition_norm(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> float:
    """Compression norm of C_phi at size n+1 from the block A, rows 0..c and columns 0..k, of
    the compression that ``_composition_columns`` builds.  Zero rows and columns leave singular
    values alone, so A has those of the compression with columns k+1..n set to zero (rows past
    c are zero in the others, or a few eps on the FFT path): a lower bound of ||C_phi||, within
    eps ||A||_F of the full compression's; for sup|phi| >= 1 only exactly zero columns are cut.
    ``_top_singular_values`` of A, or of A^H where that has fewer columns, when either side is
    at most _BASIS_ROWS long; else ``norm_estimate`` with x -> A x and y -> A^H y, one gemv
    each."""
    at = _composition_columns(space, phi, n)  # at = A^T
    if min(at.shape) <= _BASIS_ROWS:
        a = at.T if at.shape[0] <= at.shape[1] else np.conj(at)
        return float(_top_singular_values(a[None])[0])
    return norm_estimate(lambda x: at.T @ x, lambda y: np.conj(at @ np.conj(y)), *at.shape[::-1])


def composition_monomial_norm(space: sp.SpaceWeights, k: int) -> float:
    """Norm of f -> f(z^k): k^(s/2), s = ``space.weight_exponent``.

    The operator maps e_n to sqrt(weight(k n)/weight(n)) e_{k n}, with orthogonal images, so
    its norm is sup_n sqrt(weight(k n)/weight(n)).  Factor by factor, weight(k n) <= k^s weight(n):
    1 + k n <= k (1 + n), k n + i <= k (n + i), 1 + (k n)^2 <= k^2 (1 + n^2), and A2's
    1 / (k n + 1) <= 1 / (n + 1).  The sup is attained at n = 0 when s = 0 (on S2 at every
    n >= 1) and approached as n grows otherwise.
    """
    if k < 1:
        raise ValueError("monomial exponent must be >= 1")
    return k ** (0.5 * space.weight_exponent)


def _series_values(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_i coeffs[r, i] x^i for each row r of a 2-d real array, at each point of x, as a
    (rows, len(x)) array: baby-step/giant-step Horner as in ``series.evaluate_many``, with the
    powers x^0..x^(b-1), b = isqrt(k) + 1 for k + 1 coefficients, held _BATCH_BYTES of them at a
    time, one matrix product per block of b coefficients and Horner in x^b over the
    B = ceil((k + 1) / b) <= b blocks.  A term takes at most 2b - 1 roundings to its block sum
    (its coefficient's one, b - 2 in x^i, one product, b - 1 sums) and b + 1 per level of
    Horner above it: fewer than (b + 1)(B + 1) <= 2k + 8 in all, so where the coefficients
    and the points are >= 0 each value is within gamma_(2k+8) of itself, relatively (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1)."""
    k = coeffs.shape[1] - 1
    b = math.isqrt(k) + 1
    blocks = np.zeros((len(coeffs), -(-(k + 1) // b) * b))
    blocks[:, : k + 1] = coeffs
    blocks = blocks.reshape(len(coeffs), -1, b)
    out = np.empty((len(coeffs), len(x)))
    step = max(1, (2 * _BATCH_BYTES - 1) // (8 * b))
    for at in range(0, len(x), step):
        t = x[at : at + step]
        powers = np.empty((b, len(t)))
        powers[0] = 1.0
        for i in range(1, b):
            np.multiply(powers[i - 1], t, out=powers[i])
        giant = powers[-1] * t
        acc = out[:, at : at + step]
        np.matmul(blocks[:, -1], powers, out=acc)
        for q in range(blocks.shape[1] - 2, -1, -1):
            acc *= giant
            acc += blocks[:, q] @ powers
    return out


def hilbert_schmidt_bracket(space: sp.SpaceWeights, phi: PowerSeries) -> tuple[float, float]:
    """(lo, hi) with lo <= ||C_phi||_HS^2 = sum_j ||phi^j||^2 / weight(j) <= hi, for a space whose
    weight is a polynomial a0 + a1 n + a2 n^2 (``weight_polynomial``: H2, D2, S12, S22, Km:1,
    Dalpha:0, 1, 2), by exact quadrature on the unit circle; no truncation enters.
    PreconditionError for every other space, and the DomainError of the self-map gate
    ``_self_map_sup`` (|phi(0)| >= 1, or a lower side of sup |phi| above 1).

    On the circle ||g||^2 = a0 int |g|^2 + a1 int Re(conj(g) zeta g') + a2 int |g'|^2 dm for a
    polynomial g.  With g = phi^j, x = |phi|^2, r = Re(conj(phi) zeta phi') and p = |phi'|^2,
    the terms j <= K sum to the mean over the circle of S0(x) + S1(x) r + S2(x) p, where
    S0 = sum_{j<=K} a0 x^j / w(j), S1 = sum_{1<=j<=K} a1 j x^(j-1) / w(j) and
    S2 = sum_{1<=j<=K} a2 j^2 x^(j-1) / w(j) have coefficients >= 0.  For phi of degree d that
    integrand is a trigonometric polynomial of degree <= K d, so the trapezoid rule on
    N = 2^L > K d nodes (and N > d) gives it exactly (Trefethen and Weideman, SIAM Review 56,
    2014): the values of phi and zeta phi' at the nodes are one FFT of two rows, the S_i come
    from ``_series_values``, and the mean sums the rows, then the column, of the R x C array of
    the values (R C = N), divided by N exactly.

    Tail.  With s = the hi of sup_bracket(phi) >= sup |phi|, |phi'| <= d s by Bernstein's
    inequality, so term j is at most (a0 + a1 j d + a2 j^2 d^2) s^(2j) / w(j) <= d^e s^(2j),
    e the degree of the weight polynomial (s^(2j) for a constant phi): K is the order_for(eps/4)
    of that ``series.Majorant``, and hi adds its tail at K.  For s >= 1, or no K up to the
    majorant's cap, the bracket is (1, inf): the term j = 0 is 1 exactly.

    Rounding radius, u = eps / 2.  (i) Each computed node value of phi is within
    delta = 4 eps (L + 2) sum |phi_n| of the true one (sup_bracket's 4 eps per FFT level, one
    level more for the products n phi_n), each of zeta phi' within d delta; both lie within
    rho = (1 + eta) s and d rho, eta = delta / s.  (ii) Term j is a sum of monomials of degree 2j
    in phi, conj(phi), zeta phi' and its conjugate, whose coefficient moduli sum, at moduli
    (s, d s), to G_j(s, d s) = h_j s^(2j), h_j = (a0 + a1 j d + a2 j^2 d^2) / w(j): the
    integrand at a node where zeta phi' is d phi.  Moving every factor by a fraction eta of its
    bound moves term j by at most ((1 + eta)^(2j) - 1) G_j(s, d s) <= 2 j eta G_j(rho, d rho):
    in all 2 eta H, with G = sum_{j<=K} G_j(rho, d rho) and H = sum_{j<=K} j G_j(rho, d rho).
    (iii) At a node, x and p take two roundings each and r 2 u |phi| |phi'|, so x^j moves by
    gamma_2j (2 u H in all), ``_series_values`` adds gamma_(2K+8) and the products and the sum
    of the three 5 roundings: gamma_(2K+13) G; the sums add gamma_(R+C-2) of the sum.
    So |value - sum_{j<=K}| <= 2 (eta + u) H + gamma_(2K+11+R+C) G.  The radius doubles the
    first-order part of that, with G and H as computed: the other half covers their rounding
    and that of rho (relative, so of second order), the second-order parts of the gammas, the
    two roundings of lo and hi (at most 2 u (value + tail) <= 3 u G, as value <= G and G >= 1),
    and underflow (absolute, a few 2^-1074 G).  The sides are value - radius and
    value + radius + tail.
    """
    weight = space.weight_polynomial
    if weight is None:
        raise PreconditionError(f"{space.label} weights are no polynomial of degree <= 2 in n")
    s = _self_map_sup(phi)
    if s >= 1.0:
        return 1.0, math.inf
    eps = float(np.finfo(np.float64).eps)
    d = max(phi.degree(), 0)
    e = 2 if weight[2] else 1 if weight[1] else 0
    terms = ps.Majorant(e * math.log(max(d, 1)), 0, max(s * s, np.finfo(np.float64).tiny))
    try:
        k = terms.order_for(eps / 4)
    except TruncationError:
        return 1.0, math.inf
    j = np.arange(k + 1.0)
    per_term = np.array(weight)[:, None] * j ** np.arange(3)[:, None] / space.weights(k)
    coeffs = np.zeros((3, k + 1))  # S0, S1 and S2 in powers of x: a_i j^i / w(j) at x^(j-min(i,1))
    coeffs[0], coeffs[1:, :k] = per_term[0], per_term[1:, 1:]
    n = 1 << (max(k, 1) * d).bit_length()
    c = phi.coeffs[: d + 1]
    values, slopes = np.fft.fft([c, np.arange(d + 1) * c], n)
    x = values.real**2 + values.imag**2
    r = values.real * slopes.real + values.imag * slopes.imag
    p = slopes.real**2 + slopes.imag**2
    sums = _series_values(coeffs, x)
    integrand = (sums[0] + sums[1] * r + sums[2] * p).reshape(-1, 1 << (n.bit_length() - 1) // 2)
    value = float(integrand.sum(axis=1).sum()) / n
    eta = 4 * eps * (n.bit_length() + 1) * float(np.abs(c).sum()) / s if s else 0.0
    aligned = np.array([1.0, d, d * d]) @ per_term * ((1.0 + eta) * s) ** (2 * j)  # G_j(rho, d rho)
    big, high = float(aligned.sum()), float(j @ aligned)
    radius = 2 * (2 * eta + eps) * high + (2 * k + 11 + sum(integrand.shape)) * eps * big
    return value - radius, value + radius + terms.tail(k)


# ---------------------------------------------------------------------------
# isometry defects
# ---------------------------------------------------------------------------


# An m-th difference counts as 0 when it is at most this fraction of sum_k C(m,k) |x_{n+k}|:
# far above its rounding floor, a few eps of that sum
_VANISHING = 1e-12


def isometry_order(norms, m_max: int) -> tuple[int | None, float]:
    """Smallest m <= m_max whose m-th forward differences of the sequence all vanish.

    For x_k = ||T^k f||^2, T is an m-isometry on f iff k -> x_k is a polynomial of degree
    below m, that is iff every Delta^m x_n is 0 (Agler & Stankus, Integral Equations
    Operator Theory 21, 1995).  Delta^m x_n vanishes when it is exactly 0 or at most
    _VANISHING sum_k C(m,k) |x_{n+k}|.  Returns m and the largest scaled |Delta^m x_n|, or
    None and the least such residual over m = 1..m_max.  The sequence is scaled by a power
    of two, exactly, so no difference overflows.  ValueError unless it has m_max + 1 finite
    entries or more."""
    x = np.asarray(norms, dtype=np.float64)
    if m_max < 1 or x.ndim != 1 or len(x) <= m_max or not np.isfinite(x).all():
        raise ValueError(f"isometry_order needs m_max >= 1 and m_max + 1 finite norms, got {m_max}")
    diff = ps.frexp(x)[0]
    scale, best = np.abs(diff), math.inf
    for m in range(1, m_max + 1):
        diff, scale = np.diff(diff), scale[1:] + scale[:-1]
        residual = float(np.max(np.abs(diff) / np.where(diff == 0, 1.0, scale)))
        if residual <= _VANISHING:
            return m, residual
        best = min(best, residual)
    return None, best


# ---------------------------------------------------------------------------
# identities built on finite Blaschke products
# ---------------------------------------------------------------------------


def _blaschke_orbit_norms(
    space: sp.SpaceWeights, psi: BlaschkeProduct, f: PowerSeries, count: int, order: int,
    tol: float, weights: np.ndarray | None = None, coeff_sum: int = 0,
) -> np.ndarray:
    """sum_n weights[n] |(f psi^k)_n|^2 for k = 0..count (weights at most space.weights, the
    default) on the orbit of f under psi's series cut at ``order`` or at its rounding cut below
    it (see the end): TruncationError naming the
    least order that holds every value built from them within tol (1 + ||f||^2) if ``order`` is
    below it, or giving the reason of ``BlaschkeProduct.order_for`` if that finds none.
    Coefficient n of a product reads only those <= n of its factors, so row k is exact up to
    rounding and its norm low by t_k^2 alone, the squared norm of f psi^k past ``order``.  psi^m,
    m = count (psi's zeros each repeated m times), has a tail majorant above that of every
    psi^k, k <= m, on the (n+1)^s-weighted tail, s = ``space.weight_exponent``; as
    weight(i+j) <= (i+1)^s (j+1)^s, Minkowski over the terms f_j z^j gives
    t_k <= sum_j |f_j| (j+1)^(s/2) times tail_norm(psi^m, order - deg f).  A value built from
    the norms weighs them by the sum |c_k| of its coefficients, ``coeff_sum``, which the guard
    raises to at least m 2^m (2^m is that of Delta^m).  So the least N with
    W t^2 <= tol (1 + ||f||^2) / 2, W = max(m 2^m, coeff_sum), is named, half of tol left to
    rounding.  W is applied as a float in [1/2, 1) and an ldexp, so no power of two overflows.
    A budget of psi^m's squared tail, W t^2 over size^2, below the least normal float is refused,
    named as a power of two, before psi^m's m deg(psi) zeros are listed; psi = c z^d, with no
    tail past degree m d, still meets it exactly, and at an order of deg f + m d or more, the
    most the guard names for it, skips it: no row loses a term.  The orbit is built at the
    rounding cut, the order the same bound names for eps/4 in place of tol (at least the order
    named, at most ``order``): there every value built is within eps/8 (1 + ||f||^2) of the one
    at ``order``, so a longer orbit moves none beyond rounding.  Where the majorant names no
    such order, and for psi = c z^d, it is built at ``order``.  DomainError for a norm past the
    float range."""
    needed = 0  # no power taken, f = 0, or psi = c z^d at an order that holds psi^m f
    cut = order
    degree = max(f.degree(), 0)
    if count and (any(psi.zeros) or order < degree + count * psi.degree):
        coeffs = np.abs(f.coeffs[: degree + 1])
        size = float(coeffs @ np.arange(1.0, len(coeffs) + 1) ** (0.5 * space.weight_exponent))
        if size:
            coeff_sum = max(count << count, coeff_sum)
            shift = coeff_sum.bit_length()
            scale = 1.0 + sp.space_norm_sq(space, f)
            # log2 of budget / size^2, the bound of psi^m's squared tail, which may underflow
            exponent = math.log2(tol) - 1 + math.log2(scale) - math.log2(coeff_sum) - 2 * math.log2(size)
            if exponent < np.finfo(np.float64).minexp and any(psi.zeros):
                raise TruncationError(f"psi^{count} within {tol:g}: the tail budget 2^{exponent:.1f} "
                                      "is below the float range")
            power = BlaschkeProduct(1.0, psi.zeros * count)

            def holding(t):  # the least N with W t_k^2 <= t (1 + ||f||^2) / 2 for every k
                budget = math.ldexp(0.5 * t * scale / (coeff_sum / (1 << shift)), -shift)
                return degree + power.order_for(math.sqrt(budget) / size, space)

            try:
                needed = holding(tol)
            except TruncationError as exc:
                raise TruncationError(f"psi^{count} within {tol:g}: {exc}") from exc
            if any(psi.zeros):
                try:
                    cut = max(needed, holding(np.finfo(np.float64).eps / 4))
                except TruncationError:  # eps/4 is past the majorant's reach
                    pass
    if needed > order:
        raise TruncationError(f"psi^{count} within {tol:g}", needed)
    cut = min(cut, order)
    weights = (space.weights(order) if weights is None else weights)[: cut + 1]
    with np.errstate(over="ignore"):  # a norm past the float range is refused below
        norms = sp.norms_sq(weights, ps.orbit(f, psi.series(cut), count, cut))
    if not np.isfinite(norms).all():
        raise DomainError("the norm overflows the float range")
    return norms


def blaschke_power_defect(
    space: sp.SpaceWeights,
    psi: BlaschkeProduct,
    m: int,
    probe: PowerSeries,
    order: int,
    tol: float,
) -> float:
    """Alternating sum sum_{k<=m} (-1)^{m-k} C(m,k) ||psi^k f||^2 over the orbit
    of the probe under the product series of psi, every row truncated at ``order``, or at the
    orbit's rounding cut below it, past which a longer orbit moves no value beyond rounding;
    TruncationError if that order cannot hold the value within tol."""
    if m < 1:
        raise ValueError("isometry order must be >= 1")
    return float(np.diff(_blaschke_orbit_norms(space, psi, probe, m, order, tol), m)[0])


def growth_residuals(
    space: sp.SpaceWeights, psi: BlaschkeProduct, f: PowerSeries, m: int, n_max: int, tol: float,
    order: int = 512, weights: np.ndarray | None = None,
) -> tuple[dict[int, float], float]:
    """x_n - sum_{j<m} C(n,j) Delta^j x_0 for n = m-1..n_max, x the ``_blaschke_orbit_norms`` of
    f under psi (TruncationError as there; built at ``order`` or at the rounding cut below it,
    ``weights`` read that far), and their scale 1 + ||f||^2, within tol times which
    the orbit guard holds them.  The residual at n is x_n - sum_i L_i(n) x_i over the Lagrange
    basis of the nodes 0..m-1, so it weighs the norms by 1 + sum_i |L_i(n)|, which grows with
    n past m - 1 (2n for m = 2, 2 (n-1)^2 for m = 3); for n >= m,
    |L_i(n)| = C(n, i) C(n-i-1, m-1-i).  The guard takes that weight at n_max; ValueError
    unless n_max >= m.

    M_psi is an m-isometry on f iff n -> x_n = ||psi^n f||^2 is a polynomial of degree below m,
    its Newton series through x_0..x_{m-1} (Agler & Stankus, Integral Equations Operator Theory
    21, 1995).  A Blaschke psi gives m = 3 on S12, m = 2 for the Dirichlet energy (weights n;
    Richter, Trans. AMS 328, 1991) and m = 3 for the S2 seminorm ||f||^2 - |f(0)|^2 (weights
    n^2): the S2 norm adds the geometric |psi(0)^n f(0)|^2.
    """
    if m < 1:
        raise ValueError("isometry order must be >= 1")
    if n_max < m:  # the residual at n = m - 1 is 0 by construction, and tests nothing
        raise ValueError(f"growth_residuals needs n_max >= m, got n_max {n_max} for m {m}")
    lagrange = sum(math.comb(n_max, i) * math.comb(n_max - i - 1, m - 1 - i) for i in range(m))
    x = _blaschke_orbit_norms(space, psi, f, n_max, order, tol, weights, 1 + lagrange)
    newton = [np.diff(x, j)[0] for j in range(m)]
    residuals = {n: x[n] - sum(math.comb(n, j) * d for j, d in enumerate(newton))
                 for n in range(m - 1, n_max + 1)}
    return residuals, 1.0 + sp.space_norm_sq(space, f)


def contractive_composition_norm(space: sp.SpaceWeights, phi: PowerSeries, n: int) -> float:
    """Compression norm of C_phi at size n+1, a lower bound of ||C_phi||, once the
    multiplier-contraction bound ||C_phi||^2 <= (1 + |phi(0)|) / (1 - |phi(0)|) can apply: it
    needs kernel coefficients a_n <= 1 and ||M_phi|| <= 1, else PreconditionError.

    On S12 the algebra constant gives ||M_phi|| <= 2 sqrt(2) ||phi||_{S12}, which admits phi
    when at most 1, with no compression built.  For phi of order d, ``spaces.space_norm`` sums
    d+1 weighted squares (exact weights; each |phi_j| within an ulp, its square and the product
    by w_j a rounding each, the sum d more: relative error gamma_{d+4}, Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1) and takes a square root (half that, plus a
    rounding); the rounded 2 sqrt(2), the two products and the rounded 1 + radius add four:
    (d + 14) u / 2 to first order, u = eps / 2.  The radius (d + 9) eps is over twice that.
    Where the certificate does not decide, a measured multiplier norm above 1 + 1e-12 refutes
    the precondition; the measurement is a lower bound, so it can only refute.
    """
    if space.kind == sp.A2:  # a_n <= 1 on every other kind
        raise PreconditionError(f"{space.label} has kernel coefficients above 1")
    radius = (phi.order + 9) * np.finfo(np.float64).eps
    if not (space.kind == sp.S12
            and 2.0 * math.sqrt(2.0) * sp.space_norm(space, phi) * (1.0 + radius) <= 1.0):
        mult_est = multiplication_norm(space, phi, n)
        if mult_est > 1.0 + 1e-12:
            raise PreconditionError(
                f"measured multiplier norm {mult_est:.6g} exceeds 1 at truncation {n}"
            )
    return composition_norm(space, phi, n)
