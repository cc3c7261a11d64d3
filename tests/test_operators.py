import cmath
import math
import re
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from diskops import blaschke as bl
from diskops import checks
from diskops import operators as op
from diskops import report as rp
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import (
    ConvergenceError,
    DomainError,
    PreconditionError,
    TruncationError,
)

S12 = sp.s12()
SQRT2 = math.sqrt(2.0)


def random_poly(rng, max_degree=12, min_degree=0):
    deg = int(rng.integers(min_degree, max_degree + 1))
    return ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


shift_z = bl.BlaschkeProduct(-1.0, (0j,))  # the symbol z as a Blaschke product


def upper_bound_symbols():
    """The ten seed-0 symbols of comp_upper_bound_random, scaled to 2 sqrt(2) ||f||_{S12} = 0.99."""
    rng = checks._rng(checks.Config(seed=0), "comp_upper_bound_random")
    symbols = [checks._random_polynomial(rng, max_degree=8) for _ in range(10)]
    return [ps.scale(f, 0.99 / (2 * math.sqrt(2)) / sp.space_norm(S12, f)) for f in symbols]


def multiplication_matrix(space, f, n):
    """Dense compression of M_f on the first n+1 basis vectors, entry by entry: the
    reference that the banded products and the norm estimator are checked against."""
    sqw = np.sqrt(space.weights(n))
    entries = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for k in range(min(f.order, n) + 1):
        i = np.arange(k, n + 1)
        # real ratio first: complex-by-real division costs an extra ulp
        entries[i, i - k] = f.coeffs[k] * (sqw[i] / sqw[i - k])
    return entries


def multiplication_columns(space, f, n):
    """The compression of M_f as the banded product applied to the identity columns."""
    matvec, _ = op._multiplication_products(space, f, n)
    return np.column_stack([matvec(e) for e in np.eye(n + 1)])


def composition_products(space, phi, n):
    """(matvec, rmatvec, m, n): x -> A x and y -> A^H y, as ``composition_norm`` forms them, for
    the m x n block A of the compression of C_phi at size n+1 whose transpose
    ``_composition_columns`` builds."""
    at = op._composition_columns(space, phi, n)
    return (lambda x: at.T @ x), (lambda y: np.conj(at @ np.conj(y))), *at.shape[::-1]


class TestMultiplicationMatrix:
    def test_identity_symbol(self):
        # M_1 is the identity; x -> sqw * (x * (1 / sqw)) rounds each 1 to within an ulp
        a = multiplication_columns(S12, ps.one(), 16)
        assert np.array_equal(a, np.diag(np.diag(a)))
        assert np.max(np.abs(np.diag(a) - 1.0)) <= np.finfo(float).eps

    def test_shift_weights(self):
        # subdiagonal entries sqrt((n+3)/(n+1)) in the orthonormal basis
        a = multiplication_columns(S12, ps.monomial(1), 12)
        n = np.arange(12.0)
        assert np.allclose(np.diag(a, -1), np.sqrt((n + 3) / (n + 1)), rtol=1e-15)

    def test_band_profile(self):
        rng = np.random.default_rng(0)
        f = random_poly(rng, max_degree=5, min_degree=5)
        a = multiplication_columns(S12, f, 20)
        assert np.allclose(a, multiplication_matrix(S12, f, 20), rtol=1e-15, atol=0)
        i, j = np.nonzero(a)
        assert np.all(i >= j) and np.all(i - j <= 5)

    def test_adjoint_consistency(self):
        # the products the norm estimator runs on: A x and A^H y agree with
        # the dense compression, and <A x, y> = <x, A^H y>
        # (for C_phi, the block of the dense compression that its products act on)
        rng = np.random.default_rng(1)
        f = random_poly(rng)
        phi = ps.scale(random_poly(rng, max_degree=6), 0.1)
        matvec, rmatvec, m, n = composition_products(S12, phi, 40)
        cases = [
            (multiplication_matrix(S12, f, 40), op._multiplication_products(S12, f, 40)),
            (op.composition_matrix(S12, phi, 40)[:m, :n], (matvec, rmatvec)),
        ]
        for t, (matvec, rmatvec) in cases:
            x = rng.normal(size=t.shape[1]) + 1j * rng.normal(size=t.shape[1])
            y = rng.normal(size=t.shape[0]) + 1j * rng.normal(size=t.shape[0])
            lhs = np.vdot(y, matvec(x))
            assert abs(lhs - np.vdot(y, t @ x)) < 1e-12 * (1 + abs(lhs))
            assert abs(lhs - np.vdot(t.conj().T @ y, x)) < 1e-12 * (1 + abs(lhs))
            assert abs(lhs - np.vdot(rmatvec(y), x)) < 1e-12 * (1 + abs(lhs))


class TestOperatorNorm:
    def test_identity(self):
        assert op.multiplication_norm(S12, ps.one(), 8) == 1.0

    def test_monomial_multiplier_norms(self):
        for k in range(11):
            est = op.multiplication_norm(S12, ps.monomial(k), 64)
            want = math.sqrt((k + 1) * (k + 2) / 2.0)
            assert abs(est - want) < 1e-10

    def test_one_plus_z_exceeds_sqrt_4_5(self):
        est = op.multiplication_norm(S12, ps.from_coefficients([1, 1]), 512)
        assert est > math.sqrt(4.5)

    def test_matfree_matches_dense(self):
        rng = np.random.default_rng(2)
        f = random_poly(rng)
        dense = np.linalg.svd(multiplication_matrix(S12, f, 500), compute_uv=False)[0]
        matfree = op.multiplication_norm(S12, f, 500)
        assert abs(dense - matfree) < 1e-9 * dense

    def test_monotone_in_truncation(self):
        f = ps.from_coefficients([1, 1])
        values = [op.multiplication_norm(S12, f, n) for n in (32, 64, 128, 256)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_norm_sandwich(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            f = random_poly(rng)
            est = op.multiplication_norm(S12, f, 256)
            norm = sp.space_norm(S12, f)
            assert max(sp.sup_bracket(f)[1], norm) <= est <= 2 * math.sqrt(2) * norm + 1e-12

    def test_strict_sup_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_poly(rng, min_degree=1)
            est = op.multiplication_norm(S12, f, 512)
            assert est > sp.sup_bracket(f)[1]


_WITNESS_CHECKS = ("mult_one_plus_z_norm", "mult_norm_sandwich", "mult_strict_sup_gap")


def _witness_sizes(monkeypatch, cfg, scale=1.0):
    """Run the three witness checks at cfg, each M_f norm multiplied by ``scale``: their
    reports and, one list per check, each symbol's list of the n its M_f norms were taken at,
    in order.  Every norm, batched or single, goes through ``multiplication_norms``."""
    norms, sizes = op.multiplication_norms, []

    def recorded(space, rows, n):
        for row in rows:
            sizes[-1].setdefault(np.trim_zeros(row, "b").tobytes(), []).append(n)
        return scale * norms(space, rows, n)

    monkeypatch.setattr(op, "multiplication_norms", recorded)
    reports = []
    for fn in checks.suite_checks("constants"):
        if fn.check_id in _WITNESS_CHECKS:
            sizes.append({})
            reports.append(fn(cfg))
    return reports, [list(symbols.values()) for symbols in sizes]


class TestWitnessSizes:
    # the truncation reaches no check: each witness doubles from 16 up to checks._WITNESS_CAP
    @pytest.mark.parametrize("truncation, seed", [(16, 0), (256, 0), (256, 3)])
    def test_every_witness_closes_at_16(self, monkeypatch, truncation, seed):
        reports, sizes = _witness_sizes(monkeypatch, checks.Config(truncation=truncation,
                                                                   seed=seed))
        assert [len(s) for s in sizes] == [1, 200, 20]
        assert all(symbol == [16] for s in sizes for symbol in s)
        for report in reports:
            assert report.status == rp.PASS
            assert report.computed[-1] == rp.LabeledValue("witness_size", 16)

    def test_a_witness_that_never_closes_stops_at_the_cap(self, monkeypatch):
        # every norm read as 0: no witness closes, so each symbol doubles 16, 32, 64 and
        # stops at the cap, here 100, which its report names; no compression exceeds it, and
        # the truncation, 16, moves nothing
        monkeypatch.setattr(checks, "_WITNESS_CAP", 100)
        reports, sizes = _witness_sizes(monkeypatch, checks.Config(truncation=16), scale=0.0)
        assert sizes == [[[16, 32, 64, 100]] * count for count in (1, 200, 20)]
        for report in reports:
            assert report.status == rp.FAIL
            assert report.computed[-1] == rp.LabeledValue("witness_size", 100)

    def test_a_doubling_witness_is_the_single_symbol_norm(self, monkeypatch):
        # no floor closes, so every symbol doubles 16, 32, 64, 100 under a cap of 100; past 32
        # rows the norms run on banded convolutions, and each equals the norm of the symbol cut
        # to its degree
        monkeypatch.setattr(checks, "_WITNESS_CAP", 100)
        rows, lengths = checks._random_rows(np.random.default_rng(5), 20)
        norms, sizes = checks._witness_norms(rows, lengths, np.full(20, np.inf), np.greater)
        assert sizes.tolist() == [100] * 20
        assert norms.tolist() == [op.multiplication_norm(S12, ps.PowerSeries(row[:n]), 100)
                                  for row, n in zip(rows, lengths)]


def single_row_norm(f):
    """||f||_{S12} as one 1-d dot at f's unit scale, the norm of the retired sweeps."""
    e = math.frexp(np.abs(f.coeffs.view(np.float64)).max())[1]
    m = np.ldexp(f.coeffs.view(np.float64), -e).view(np.complex128)
    return math.ldexp(math.sqrt(np.abs(m) ** 2 @ S12.weights(f.order)), e)


def single_block_norm(f, n):
    """||P_n M_f P_n|| on S12 for n + 1 <= 32 as one SVD of one banded block at f's unit scale,
    |f_0| for a constant: the first witness of the retired sandwich sweep."""
    if f.degree() <= 0:
        return float(abs(f.coeffs[0]))
    e = math.frexp(np.abs(f.coeffs.view(np.float64)).max())[1]
    unit = ps.PowerSeries(np.ldexp(f.coeffs.view(np.float64), -e).view(np.complex128))
    sqw, k = np.sqrt(S12.weights(n)), np.arange(n + 1)
    c = np.zeros(n + 1, dtype=np.complex128)
    c[: min(n, unit.order) + 1] = unit.coeffs[: n + 1]
    block = sqw[:, None] * (np.tril(c[k[:, None] - k]) * (1.0 / sqw))
    return math.ldexp(float(np.linalg.svd(block, compute_uv=False).max(initial=0.0)), e)


def retired_sweeps(cfg):
    """The computed values of pointwise_bound_sqrt2, algebra_product_bound and
    mult_norm_sandwich as the retired loops took them, every symbol drawn, normed and sampled
    on its own: the reference that the pruned and batched sweeps must equal bit for bit."""
    rng = checks._rng(cfg, "pointwise_bound_sqrt2")
    worst = 0.0
    for _ in range(500):
        f = random_poly(rng)
        worst = max(worst, sp.sup_bracket(f)[0] / single_row_norm(f))
    values = {"pointwise_bound_sqrt2": [worst]}
    rng = checks._rng(cfg, "algebra_product_bound")
    worst = 0.0
    for _ in range(500):
        f, g = random_poly(rng), random_poly(rng)
        prod = ps.PowerSeries(np.convolve(f.coeffs, g.coeffs))  # the whole product
        worst = max(worst, single_row_norm(prod) / (single_row_norm(f) * single_row_norm(g)))
    values["algebra_product_bound"] = [worst]
    rng = checks._rng(cfg, "mult_norm_sandwich")
    lower, upper, size = np.inf, np.inf, 0
    for _ in range(200):
        f = random_poly(rng)
        norm = single_row_norm(f)
        floor = max(sp.sup_bracket(f)[1], norm)
        est, n = single_block_norm(f, 16), 16
        while not (est - floor >= -1e-12 or n == checks._WITNESS_CAP):
            n = min(2 * n, checks._WITNESS_CAP)
            est = op.multiplication_norm(S12, f, n)
        lower, upper = min(lower, est - floor), min(upper, 2.0 * SQRT2 * norm - est)
        size = max(size, n)
    values["mult_norm_sandwich"] = [lower, upper, size]
    return values


_SWEEPS = ("pointwise_bound_sqrt2", "algebra_product_bound", "mult_norm_sandwich")


def swept_values(cfg, check_ids=_SWEEPS):
    """The computed values the registered checks report, by id."""
    return {fn.check_id: [v.value for v in fn(cfg).computed]
            for fn in checks.suite_checks("constants") if fn.check_id in check_ids}


class TestSampledSweeps:
    @pytest.mark.parametrize("seed", range(10))
    def test_pruned_and_batched_sweeps_are_the_retired_loops(self, seed):
        cfg = checks.Config(seed=seed)
        assert swept_values(cfg) == retired_sweeps(cfg)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(10, 2**32 - 1))
    def test_pruned_pointwise_sweep_is_the_full_one(self, seed):
        # pointwise_bound_sqrt2 samples only symbols whose triangle bound sum |f_n| can beat the
        # worst ratio, mult_norm_sandwich only those whose bound on hi exceeds ||f||
        cfg = checks.Config(seed=seed)
        check_ids = ("pointwise_bound_sqrt2", "mult_norm_sandwich")
        want = retired_sweeps(cfg)
        assert swept_values(cfg, check_ids) == {check_id: want[check_id] for check_id in check_ids}

    def test_stacked_svd_is_the_single_one(self):
        # 4000 symbols drawn as the checks draw them, constants included: the batched first
        # witness equals one SVD per symbol, and multiplication_norm, bit for bit
        rows, lengths = checks._random_rows(np.random.default_rng(11), 4000)
        batched = op.multiplication_norms(S12, rows, 16)
        for row, n, norm in zip(rows, lengths, batched):
            f = ps.PowerSeries(row[:n])
            assert norm == single_block_norm(f, 16) == op.multiplication_norm(S12, f, 16)

    @pytest.mark.parametrize("check_id", _SWEEPS)
    def test_sweeps_trace_at_most_512_kib(self, check_id):
        # every batch array stays under glibc's 128 KiB mmap threshold (operators._BATCH_BYTES);
        # the one-symbol loops traced 119, 5 and 119 KiB
        (fn,) = [fn for fn in checks.suite_checks("constants") if fn.check_id == check_id]
        fn(checks.Config())
        tracemalloc.start()
        try:
            fn(checks.Config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024


def dense_norm(a):
    return np.linalg.svd(a, compute_uv=False)[0]


def counted(matvec, rmatvec, *shape):
    """The two products and the shape, if given, and a function that returns how often the
    products ran."""
    calls = []

    def counted_matvec(x):
        calls.append(1)
        return matvec(x)

    def counted_rmatvec(y):
        calls.append(1)
        return rmatvec(y)

    return (counted_matvec, counted_rmatvec, *shape), lambda: len(calls)


class TestNormEstimate:
    @pytest.mark.parametrize("n", [16, 64, 256, 384, 500])
    def test_multiplication_matches_dense_svd(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            f = random_poly(rng, min_degree=1)
            dense = dense_norm(multiplication_matrix(S12, f, n))
            est = op.multiplication_norm(S12, f, n)
            assert abs(est - dense) <= 1e-13 * dense
            assert est <= dense * (1 + 1e-15)  # ||A v|| for a unit v

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_composition_matches_dense_svd(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            phi = random_poly(rng, max_degree=6, min_degree=1)
            phi = ps.scale(phi, 0.3 / sp.space_norm(S12, phi))
            dense = dense_norm(op.composition_matrix(S12, phi, n))
            est = op.composition_norm(S12, phi, n)
            assert abs(est - dense) <= 1e-13 * dense
            assert est <= dense * (1 + 1e-15)

    def test_composition_certified_cut_is_exact(self):
        # sup|0.1 + 0.05z| = 0.15 certifies that columns past k* hold at most eps^2 of the
        # squared Frobenius mass, and phi^j has degree j, so rows past k* are exactly zero in
        # the others: the products are those of the top-left 23 x 23 block of the 513 x 513 A
        phi, n = ps.from_coefficients([0.1, 0.05]), 512
        a = op.composition_matrix(S12, phi, n)
        matvec, rmatvec, rows, cols = composition_products(S12, phi, n)
        assert (rows, cols) == (23, 23)
        dense = dense_norm(a)
        assert abs(op.composition_norm(S12, phi, n) - dense) <= 1e-13 * dense
        columns = np.column_stack([matvec(e) for e in np.eye(cols)])
        assert np.array_equal(columns, a[:rows, :cols])
        assert not a[rows:, :cols].any()
        adjoint = np.column_stack([rmatvec(e) for e in np.eye(rows)])
        assert np.array_equal(adjoint, a.conj().T[:cols, :rows])

    def test_constant_symbols_are_exact(self):
        # the identity is TestOperatorNorm.test_identity
        assert op.multiplication_norm(S12, ps.zero(4), 8) == 0.0
        assert op.multiplication_norm(S12, ps.from_coefficients([0.6 - 0.8j]), 8) == 1.0

    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("n", [8, 256])
    def test_scales_by_powers_of_two_exactly(self, k, n):
        # the norm runs on f scaled to unit size, so 2^k f neither overflows nor underflows
        # its inner products, and its norm is 2^k times that of f, bit for bit
        f = ps.from_coefficients([1.0, 1.0, 0.3 - 0.2j])
        scaled = ps.PowerSeries(f.coeffs * 2.0**k)
        assert op.multiplication_norm(S12, scaled, n) == 2.0**k * op.multiplication_norm(S12, f, n)

    def test_norm_past_the_float_range(self):
        with pytest.raises(DomainError, match="the norm overflows the float range"):
            op.multiplication_norm(S12, ps.from_coefficients([1e308, 1e308]), 8)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_sizes(self, n):
        f = ps.from_coefficients([0.5, 1.0 - 0.25j, 0.75j])
        dense = dense_norm(multiplication_matrix(S12, f, n))
        assert abs(op.multiplication_norm(S12, f, n) - dense) <= 1e-13 * dense
        phi = ps.from_coefficients([0.25, 0.5j])
        dense = dense_norm(op.composition_matrix(S12, phi, n))
        assert abs(op.composition_norm(S12, phi, n) - dense) <= 1e-13 * dense

    def test_repeated_calls_are_bitwise_equal(self):
        f = ps.from_coefficients([0.3, -0.7j, 0.2 + 0.1j, 0.05])
        phi = ps.scale(f, 0.5)
        assert op.multiplication_norm(S12, f, 200) == op.multiplication_norm(S12, f, 200)
        assert op.composition_norm(S12, phi, 200) == op.composition_norm(S12, phi, 200)

    def test_no_convergence_is_an_error(self, monkeypatch):
        # two Golub-Kahan steps cannot resolve the clustered top of these weighted shifts
        monkeypatch.setattr(op, "_MAX_STEPS", 2)
        with pytest.raises(ConvergenceError, match="did not converge at size 65"):
            op.multiplication_norm(S12, ps.from_coefficients([1, 1]), 64)
        # a check whose estimate stops there reports the error: C_{z^3} at size 129 runs on
        # its 127 x 43 block, past the dense cut
        (fn,) = [
            fn for fn in checks.suite_checks("composition") if fn.check_id == "comp_monomial_norms"
        ]
        monkeypatch.setattr(checks, "_REGISTRY", {**checks._REGISTRY, "composition": [fn]})
        (report,) = checks.run_suite("composition", checks.Config())
        assert report.status == rp.ERROR
        assert report.computed[0].label.startswith("ConvergenceError")

    @pytest.mark.parametrize("m, n", [(1, 40), (40, 1), (2, 2), (64, 17), (17, 64), (80, 40),
                                      (40, 80), (33, 70)])
    def test_rectangular_operators(self, m, n):
        # m x n: matvec maps C^n to C^m, rmatvec back; the start vector lives in C^n
        rng = np.random.default_rng(m * 100 + n)
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        sigma = dense_norm(a)
        est = op.norm_estimate(lambda x: a @ x, lambda y: a.conj().T @ y, m, n)
        assert sigma * (1 - 1e-13) <= est <= sigma * (1 + 1e-15)

    @pytest.mark.parametrize("m, n", [(70, 33), (33, 70), (40, 80)])
    def test_breakdown_at_full_span(self, m, n):
        # singular values spread over [1, 1.001]: no Ritz value resolves before V_k spans C^n
        # (k == n, the tall case) or U_k spans C^m (k == m), after min(m, n) products with
        # A^H and one more with A than that, and the Ritz pair comes from B_k exactly
        rng = np.random.default_rng(m * 100 + n)
        k = min(m, n)
        q1 = np.linalg.qr(rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))[0]
        q2 = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))[0]
        a = (q1 * (1 + 1e-3 * rng.uniform(size=k))) @ q2.conj().T
        (matvec, _), count_a = counted(lambda x: a @ x, None)
        (rmatvec, _), count_ah = counted(lambda y: a.conj().T @ y, None)
        sigma = dense_norm(a)
        assert abs(op.norm_estimate(matvec, rmatvec, m, n) - sigma) <= 1e-13 * sigma
        assert (count_a(), count_ah()) == (k + 1, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, op._BASIS_ROWS), st.integers(3, 120), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_dense_branch_matches_svd(self, small, large, wide, seed):
        # sizes that multiplication_norm and composition_norm hand to a dense SVD: Golub-Kahan
        # resolves them too
        m, n = (small, large) if wide else (large, small)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        sigma = dense_norm(a)
        est = op.norm_estimate(lambda x: a @ x, lambda y: a.conj().T @ y, m, n)
        assert abs(est - sigma) <= 1e-13 * sigma

    @pytest.mark.parametrize("m, n", [(32, 70), (70, 32)])
    def test_dense_cut(self, m, n):
        # at _BASIS_ROWS rows or columns Golub-Kahan runs to full span, k = min(m, n) steps:
        # k + 1 products with A and k with A^H, as test_breakdown_at_full_span counts at 33
        rng = np.random.default_rng(m + n)
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        (matvec, _), count_a = counted(lambda x: a @ x, None)
        (rmatvec, _), count_ah = counted(lambda y: a.conj().T @ y, None)
        sigma = dense_norm(a)
        assert abs(op.norm_estimate(matvec, rmatvec, m, n) - sigma) <= 1e-13 * sigma
        k = min(m, n)
        assert (count_a(), count_ah()) == (k + 1, k)

    @pytest.mark.parametrize("space", [S12, sp.hardy(), sp.dirichlet(), sp.bergman(), sp.km(2),
                                       sp.dalpha(1.5)], ids=lambda s: s.label)
    def test_multiplication_block_is_the_column_build(self, space):
        # the banded array takes, entry for entry, the two products that the banded
        # convolutions take on the identity columns: equal at every dense size, for symbols
        # of every degree up to 40, longer than the block included
        rng = np.random.default_rng(len(space.label))
        for degree in range(41):
            f = ps.PowerSeries(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))
            for n in range(op._BASIS_ROWS):
                block = op._multiplication_blocks(space, f.coeffs[None], n)[0]
                assert np.array_equal(block, multiplication_columns(space, f, n))

    @pytest.mark.parametrize("space", [S12, sp.hardy(), sp.km(2)], ids=lambda s: s.label)
    def test_dense_multiplication_norm_is_the_dense_branch(self, space):
        # up to _BASIS_ROWS rows the norm is one SVD of the compression that the banded
        # products build column by column, bit for bit
        rng = np.random.default_rng(7)
        for degree in (1, 5, 12, 40):
            f = ps.PowerSeries(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))
            m, e = ps.frexp(f.coeffs)
            for n in range(op._BASIS_ROWS):
                columns = multiplication_columns(space, ps.PowerSeries(m), n)
                dense = ps.ldexp_norm(float(op._top_singular_values(columns[None])[0]), e)
                assert op.multiplication_norm(space, f, n) == dense

    @pytest.mark.parametrize("coeffs, n, shape", [
        ([0.5], 64, (1, 58)),  # A^H has fewer columns
        ([0.3 - 0.2j], 20, (1, 21)),
        ([0.02, 0, 0.05], 256, (31, 16)),  # A has fewer columns
        ([0.05, 0.1j, 0.02], 64, (39, 20)),
        ([0.2, 0.4j, 0.1], 16, (17, 17)),
    ])
    def test_dense_composition_norm_is_the_dense_branch(self, coeffs, n, shape):
        # the norm is one SVD of the certified block of the dense compression, of A or of A^H
        # where that has fewer columns, bit for bit
        phi = ps.from_coefficients(coeffs)
        k, c, _ = op._composition_cut(S12, phi, n)
        assert (c + 1, k + 1) == shape
        block = op.composition_matrix(S12, phi, n)[: c + 1, : k + 1]
        dense = float(op._top_singular_values((block if k <= c else block.conj().T)[None])[0])
        assert op.composition_norm(S12, phi, n) == dense

    def test_top_singular_values_are_single_matrix_svds(self):
        # the one dense SVD, stacked, is one SVD of each matrix alone, the retired _dense_norm,
        # bit for bit: on tall, wide and square blocks, on the transposed and conjugated views
        # that composition_norm passes, and on its dense blocks
        def single(a):
            return float(np.linalg.svd(a, compute_uv=False).max(initial=0.0))

        rng = np.random.default_rng(5)
        for shape in ((1, 1), (1, 58), (31, 16), (17, 17), (32, 32), (5, 40)):
            stack = rng.standard_normal((6, *shape)) + 1j * rng.standard_normal((6, *shape))
            for blocks in (stack, stack.transpose(0, 2, 1), np.conj(stack.transpose(0, 2, 1))):
                want = [single(a) for a in blocks]
                assert op._top_singular_values(blocks).tolist() == want
                assert [float(op._top_singular_values(a[None])[0]) for a in blocks] == want
        for coeffs, n in (([0.5], 64), ([0.02, 0, 0.05], 256), ([0.2, 0.4j, 0.1], 16)):
            phi = ps.from_coefficients(coeffs)
            k, c, _ = op._composition_cut(S12, phi, n)
            block = op.composition_matrix(S12, phi, n)[: c + 1, : k + 1]
            assert op.composition_norm(S12, phi, n) == single(block if k <= c else block.conj().T)

    def test_zero_operator(self):
        def zeros(x):
            return np.zeros(64, dtype=np.complex128)

        assert op.norm_estimate(zeros, zeros, 64, 64) == 0.0

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("c", [0.5, 0.3 - 0.6j])
    def test_constant_composition_symbol(self, n, c):
        # f -> f(c) has rank one: alpha_2 breaks down after one step
        phi = ps.from_coefficients([c])
        dense = dense_norm(op.composition_matrix(S12, phi, n))
        assert abs(op.composition_norm(S12, phi, n) - dense) <= 1e-13 * dense

    def test_cube_composition_closes_at_its_rank(self):
        # C_{z^3} sends e_j to a multiple of e_{3j}, so its compression at size 129 has
        # rank 43 with distinct singular values, all in the 127 x 43 block of columns
        # j <= 42 and rows up to 126: V_43 spans C^43 after 43 steps, and 43 products with
        # A^H and 43 + 1 with A are all it may spend
        phi, n = ps.monomial(3), 128
        dense = dense_norm(op.composition_matrix(S12, phi, n))
        products, count = counted(*composition_products(S12, phi, n))
        assert products[2:] == (127, 43)
        assert abs(op.norm_estimate(*products) - dense) <= 1e-13 * dense
        assert count() == 2 * 43 + 1

    def test_stop_reads_the_left_singular_vector(self):
        # C_{z/2} is diagonal with singular values 2^-j.  The residual of the top Ritz
        # triple is beta_k |x_k| for the left vector x of B_k; the right vector's last
        # entry is sigma x_k / alpha_k, 127 times larger at k = 8, and would stop later.
        # The products are those of the diagonal 58 x 58 block, 2^-j for j <= 57
        phi, n = ps.from_coefficients([0, 0.5]), 64
        products, count = counted(*composition_products(S12, phi, n))
        assert products[2:] == (58, 58)
        assert op.norm_estimate(*products) == 1.0
        assert count() == 2 * 8 + 1

    @pytest.mark.parametrize("n", [64, 300])
    @pytest.mark.parametrize("gap", np.geomspace(1e-15, 1e-6, 10))
    def test_clustered_top_of_a_diagonal(self, n, gap):
        # singular values 2 and 2 - gap over a rest <= 1: the residual rule resolves the
        # pair at every gap, where a rule with the Ritz gap in it stops 1e-10 low
        rng = np.random.default_rng(n)
        s = rng.uniform(0, 1, n)
        s[rng.choice(n, 2, replace=False)] = 2.0, 2.0 - gap
        d = s * np.exp(2j * np.pi * rng.uniform(size=n))
        est = op.norm_estimate(lambda x: d * x, lambda y: np.conj(d) * y, n, n)
        assert abs(est - 2) <= 1e-13 * 2

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("space", [sp.hardy(), sp.bergman(), sp.dirichlet(), S12],
                             ids=lambda s: s.label)
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_symbols_in_powers_of_z_p(self, p, space, n):
        # M_f and C_phi for f = g(z^p) split into p residue classes mod p; the start
        # vector has to meet the one that holds the top singular vector
        rng = np.random.default_rng(p)
        g = ps.PowerSeries(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
        f = ps.compose(g, ps.monomial(p), 4 * p)
        dense = dense_norm(multiplication_matrix(space, f, n))
        assert abs(op.multiplication_norm(space, f, n) - dense) <= 1e-13 * dense
        phi = ps.scale(f, 0.5 / sp.sup_bracket(f)[0])
        dense = dense_norm(op.composition_matrix(space, phi, n))
        assert abs(op.composition_norm(space, phi, n) - dense) <= 1e-13 * dense

    def test_storage_follows_the_steps_taken(self):
        # the Krylov bases grow with the steps, not with the size: the 27 steps at size
        # 4097 need two bases of 64 rows, where (cap + 1) x n rows took 68 MB
        f = ps.from_coefficients([0.3, -0.5j, 0, 0.2])
        op.multiplication_norm(S12, f, 64)
        tracemalloc.start()
        try:
            op.multiplication_norm(S12, f, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_bases_grow_one_at_a_time(self):
        # the first symbol of comp_upper_bound_random at seed 0 takes 54 steps at size 8193, so
        # both bases double from 32 rows to 64; growing them in one statement held the old and
        # the new copies of both (a traced peak of 24.8 MiB, 20.8 MiB one at a time)
        f = upper_bound_symbols()[0]
        op.multiplication_norm(S12, f, 64)
        tracemalloc.start()
        try:
            op.multiplication_norm(S12, f, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20

    def test_composition_storage_follows_the_block(self):
        # the GKL vectors and bases span the certified block of C_phi, at most 197 rows and 48
        # columns for the symbols of comp_upper_bound_random at seed 0 and size 8193; padding
        # both sides to 8193 entries traced 8.85 MiB
        symbols = upper_bound_symbols()
        op.composition_norm(S12, symbols[0], 8192)
        tracemalloc.start()
        try:
            for f in symbols:
                op.composition_norm(S12, f, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def symbol_of_sup(target, seed=7):
    f = ps.PowerSeries(np.random.default_rng(seed).uniform(-1, 1, 7) + 0.5j)
    return ps.scale(f, target / sp.sup_bracket(f)[0])


def columns_and_mass(space, phi, n, full=False):
    """The C_phi table that ``_composition_columns`` builds, and the bound of the squared mass
    of the rows it leaves out, which ``_composition_cut`` gives."""
    mass = op._composition_cut(space, phi, n, full)[2]
    return op._composition_columns(space, phi, n, full), mass


def hilbert_schmidt_walk(space, phi, n):
    """The oracle of ``hilbert_schmidt_bracket``: the partial sum sum_{j<=n} ||phi^j||^2 /
    weight(j), every power truncated at order n, the squared Frobenius norm of the compression.
    The powers 0..k, columns 0..c = min(n, k deg phi), are walked one at a time through
    ``series.multiplier``, bit for bit the rows of ``series.orbit``.  Row j has squared norm at
    most (max w / min w) s^(2j), w = weights(n), s = hi (1 + 4 eps) of ``sup_bracket(phi)``, so
    for s < 1 k is the order_for(eps/4) of that Majorant, and its tail is added: up to rounding
    the value lies in [full sum, full sum + eps/4].  For s >= 1 every row is walked."""
    eps = np.finfo(np.float64).eps
    w = space.weights(n)
    s = sp.sup_bracket(phi)[1] * (1 + 4 * eps)
    k, mass = n, 0.0
    if s < 1:
        rows = ps.Majorant(math.log(w.max() / w.min()), 0, max(s * s, np.finfo(np.float64).tiny))
        if rows.tail(n - 1) <= eps / 4:
            k = rows.order_for(eps / 4)
            mass = rows.tail(k)
    c = min(n, k * max(phi.degree(), 0))
    times_phi, row, terms = ps.multiplier(phi, c), ps.one().coeffs, np.empty(k + 1)
    for j in range(k + 1):
        if j:
            row = times_phi(row)
        terms[j] = sp.norms_sq(w[: len(row)], row)
    return mass + float(np.sum(terms / w[: k + 1]))


CUT_SYMBOLS = [symbol_of_sup(0.3), symbol_of_sup(0.8), symbol_of_sup(0.95),
               ps.from_coefficients([0.5]), ps.from_coefficients([0.3 - 0.9j]), ps.zero()]
CUT_SPACES = [sp.hardy(), sp.bergman(), sp.dirichlet(), S12, sp.km(2), sp.dalpha(1.5)]


class TestCompositionRowCut:
    """Rows 0..k* of the C_phi table, fixed by the upper side of sup_bracket(phi) before any row
    is built, and columns 0..k* deg(phi), past which those rows are zero (within a few eps on
    the FFT path)."""

    @pytest.mark.parametrize("space", CUT_SPACES, ids=lambda s: s.label)
    def test_cut_is_a_certified_prefix_of_the_full_table(self, space):
        n = 1024
        for phi in CUT_SYMBOLS:
            full, none = columns_and_mass(space, phi, n, full=True)
            cut, mass = columns_and_mass(space, phi, n)
            k, c = cut.shape[0] - 1, cut.shape[1] - 1
            assert none == 0.0 and full.shape == (n + 1, n + 1)
            assert c == min(n, k * max(phi.degree(), 0))
            assert np.array_equal(cut, full[: k + 1, : c + 1])  # bit for bit
            assert not full[: k + 1, c + 1 :].any()
            assert float(np.sum(np.abs(full[k + 1 :]) ** 2)) <= mass <= np.finfo(float).eps ** 2
            assert k < n or mass == 0.0
            if phi.degree() < 0:
                assert k == 0

    def test_fft_symbols_keep_every_column(self):
        # a symbol of 138 taps takes FFT products, which round across every coefficient, so
        # past k* deg(phi) the full table holds rounding of exact zeros, not zeros: the cut
        # keeps every column above that rounding, here 4 rows and 412 of the 513 columns
        n = 512
        low = 1e-5 * symbol_of_sup(0.3).coeffs
        phi = ps.PowerSeries(np.concatenate([low, np.zeros(130), [1e-6]]))
        cut = op._composition_columns(S12, phi, n)
        full = op._composition_columns(S12, phi, n, full=True)
        k, d = len(cut) - 1, phi.degree()
        assert d == 137 and cut.shape == (4, 3 * d + 1)
        scale = 4 * np.finfo(float).eps * np.abs(full[: k + 1]).max(axis=1, keepdims=True)
        assert np.all(np.abs(full[: k + 1, 3 * d + 1 :]) <= scale)  # the columns cut
        assert np.all(np.abs(cut - full[: k + 1, : 3 * d + 1]) <= scale)  # the columns kept
        assert np.array_equal(cut[:2], full[:2, : 3 * d + 1])  # 1 and phi: same FFT input and size

    def test_every_nonzero_row_where_the_sup_bound_reaches_one(self):
        # phi^j starts at z^(v j), so only the rows j <= n // v can be nonzero
        n = 96
        for phi, rows in ((ps.monomial(1), n + 1), (ps.monomial(3), n // 3 + 1),
                          (ps.from_coefficients([0.5, 0.5]), n + 1),
                          (ps.from_coefficients([0, 0, 0.5, 0.5]), n // 2 + 1)):
            table, mass = columns_and_mass(S12, phi, n)
            full = op.composition_matrix(S12, phi, n).T
            assert len(table) == rows and mass == 0.0
            assert np.array_equal(table, full[:rows])
            assert not full[rows:].any()

    @staticmethod
    def blocked_columns(space, phi, n, full):
        """The retired blocked build: rows in blocks of at most 2^16 entries, each ``orbit``
        call restarting from the last row of the block before."""
        k, c, mass = op._composition_cut(space, phi, n, full)
        sqw = np.sqrt(space.weights(n))
        table = np.empty((k + 1, c + 1), dtype=np.complex128)
        step = max(1, (1 << 16) // (c + 1) - 1)  # rows per block; each orbit holds one more
        last = ps.one()
        for start in range(0, k + 1, step):
            stop = min(start + step, k + 1)
            lead = 1 if start else 0  # every call but the first starts with the row before
            rows = ps.orbit(last, phi, stop - start - 1 + lead, c)[lead:]
            last = ps.PowerSeries(rows[-1])
            rows *= sqw[: c + 1] / sqw[start:stop, None]
            table[start:stop] = rows
        return table, mass

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("space, phi", [(S12, ps.monomial(1)), (sp.km(2), symbol_of_sup(0.95)),
                                            (sp.dirichlet(), symbol_of_sup(0.8))],
                             ids=["S12-z", "Km:2-0.95", "D2-0.8"])
    def test_one_orbit_equals_the_blocked_build(self, space, phi, full):
        # at n = 1024 every table has 1025 columns, so a block holds 62 rows and each table
        # here spans several blocks: the one orbit gives the same bits
        n = 1024
        table, mass = columns_and_mass(space, phi, n, full)
        blocked, blocked_mass = self.blocked_columns(space, phi, n, full)
        assert table.shape[1] == n + 1 and len(table) > 2 * 62
        assert np.array_equal(table, blocked) and mass == blocked_mass

    @pytest.mark.parametrize("space", CUT_SPACES, ids=lambda s: s.label)
    def test_hilbert_schmidt_never_below_the_full_sum(self, space):
        n = 512
        for phi in CUT_SYMBOLS:
            full = float(np.sum(np.abs(op.composition_matrix(space, phi, n)) ** 2))
            value = hilbert_schmidt_walk(space, phi, n)  # the oracle against the dense table
            assert value >= full - 4 * np.spacing(full)
            assert value <= full + 4 * np.spacing(full)


class TestCompositionMatrix:
    def test_identity_symbol(self):
        assert np.array_equal(op.composition_matrix(S12, ps.monomial(1), 32), np.eye(33))

    def test_half_z_is_diagonal(self):
        a = op.composition_matrix(S12, ps.from_coefficients([0, 0.5]), 16)
        assert np.allclose(a, np.diag(0.5 ** np.arange(17.0)), atol=1e-15)

    def test_monomial_block_structure(self):
        a = op.composition_matrix(S12, ps.monomial(3), 30)
        w = S12.weights(30)
        for j in range(11):
            expected = math.sqrt(w[3 * j] / w[j])
            assert abs(a[3 * j, j] - expected) < 1e-14
        est = op.composition_norm(S12, ps.monomial(3), 30)
        best = max(math.sqrt(w[3 * j] / w[j]) for j in range(11))
        assert abs(est - best) < 1e-12

    def test_rejects_bad_symbol(self):
        with pytest.raises(DomainError):
            op.composition_matrix(S12, ps.from_coefficients([1.0, 0.1]), 8)

    @pytest.mark.parametrize("space", [S12, sp.hardy()], ids=lambda s: s.label)
    def test_refuses_a_symbol_that_is_no_self_map(self, space):
        # |0.5 + 0.6z| = 1.1 at z = 1, so phi maps points of the disk outside it, though
        # |phi(0)| < 1 and its powers stay finite at order 1024
        phi = ps.from_coefficients([0.5, 0.6])
        for build in (op.composition_norm, op.composition_matrix,
                      lambda space, phi, n: op.hilbert_schmidt_bracket(space, phi)):
            with pytest.raises(DomainError, match=r"sup \|phi\| >= 1.1 > 1"):
                build(space, phi, 1024)
        for phi in (ps.monomial(1), ps.from_coefficients([0.5, 0.5])):  # sup |phi| = 1 exactly
            assert op.composition_norm(space, phi, 64) >= 1.0

    @pytest.mark.parametrize("build", [
        op.composition_norm, op.composition_matrix,
        lambda space, phi, n: op.hilbert_schmidt_bracket(space, phi),
    ], ids=["composition_norm", "composition_matrix", "hilbert_schmidt_bracket"])
    def test_one_gate_refuses_what_is_no_self_map(self, build):
        # 1.1 z peaks at 1.1 on the circle, above 1 by more than its rounding; 1 + 0.5 z has
        # phi(0) = 1, on the circle.  Each builder refuses both with the self-map gate's line
        with pytest.raises(DomainError, match=r"^composition symbol has sup \|phi\| >= 1.1 > 1: "
                                              r"phi is no self-map of the disk$"):
            build(S12, ps.from_coefficients([0.0, 1.1]), 64)
        with pytest.raises(DomainError, match="^composition symbol's constant term must lie in "
                                              "the open disk$"):
            build(S12, ps.from_coefficients([1.0, 0.5]), 64)

    def test_monomial_norm_limit(self):
        for k in range(1, 9):
            value = op.composition_monomial_norm(S12, k)
            assert abs(value - k) < 1e-8
            assert value == k  # the limit of sqrt(weight(k n) / weight(n)), in closed form


_ALL_KINDS = st.one_of(
    st.sampled_from([sp.hardy(), sp.parse_space("A2"), sp.dirichlet(), sp.s2(), S12,
                     sp.parse_space("S22")]),
    st.floats(0.0, 6.0).map(sp.dalpha),
    st.integers(1, 5).map(sp.km),
)


@settings(max_examples=40, deadline=None)
@given(_ALL_KINDS, st.integers(1, 50))
def test_dilation_norm_is_the_sampled_sup(space, k):
    # sup_n sqrt(weight(k n) / weight(n)) over n <= 10^6 never exceeds the closed form beyond
    # the rounding of the weights (at most 7 factors), and comes within 2.1e-5 of it at
    # n = 10^6: k n + i >= k (n + i) (1 - i / n), and the factors i = 1..6 of Km:5 sum to 21
    closed = op.composition_monomial_norm(space, k)
    n = np.arange(1_000_001.0)
    sampled = math.sqrt(np.max(space.weight(k * n) / space.weight(n)))
    target(sampled / closed, label="sampled sup / closed form")
    assert closed * (1 - 2.1e-5) <= sampled <= closed * (1 + 32 * np.finfo(np.float64).eps)


def cowen_norm(s, t):
    """||C_phi|| on H2 for phi = s z + t with |s| + |t| <= 1, from the closed form
    ||C_phi||^2 = 2 / (1 + |s|^2 - |t|^2 + sqrt((1 - |s|^2 + |t|^2)^2 - 4 |t|^2)) (Cowen,
    Integral Equations Operator Theory 11, 1988), in 40 digits."""
    with mpmath.workdps(40):
        s2, t2 = abs(mpmath.mpc(s)) ** 2, abs(mpmath.mpc(t)) ** 2
        return float(mpmath.sqrt(2 / (1 + s2 - t2 + mpmath.sqrt((1 - s2 + t2) ** 2 - 4 * t2))))


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 0.9), st.floats(0, 1), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_affine_composition_norm_on_h2_is_cowens(size, split, arg_s, arg_t):
    # phi = s z + t with |s| + |t| = size <= 0.9: the compression at n = 256 lies in
    # [C (1 - 1e-13), C (1 + 1e-14)] for Cowen's C = ||C_phi|| >= 1.  The rule for n: phi^j
    # has degree j and H2 norm at most 0.9^j, so the columns past n = 256 hold a squared mass
    # below 0.81^257 / 0.19, about 2e-23, far under the 1e-13 allowed; a sup nearer 1 needs a
    # larger n.  Near sup 0.9 the block is 257 wide, so Golub-Kahan runs, and a conj dropped
    # from its products fails this
    s, t = size * split * cmath.exp(1j * arg_s), size * (1 - split) * cmath.exp(1j * arg_t)
    exact = cowen_norm(s, t)
    got = op.composition_norm(sp.hardy(), ps.from_coefficients([t, s]), 256)
    target(abs(got / exact - 1.0), label="relative gap to Cowen's norm")
    assert exact * (1 - 1e-13) <= got <= exact * (1 + 1e-14)


_ORACLE_SPACES = st.sampled_from([S12, sp.dirichlet(), sp.hardy(), sp.km(2)])


@settings(max_examples=100, deadline=None)
@given(_ORACLE_SPACES, st.floats(0, 0.9), st.floats(0, 2 * math.pi))
def test_constant_composition_norm_is_the_kernel_norm(space, r, arg):
    # C_c f = f(c) 1 and weight(0) = 1, so ||C_c||^2 = K(c, c) = sum_j |c|^(2j) / weight(j).  The
    # oracle is that sum in 40 digits through j = 256: the terms past it add at most
    # 0.81^257 / 0.19 < 2e-23 relative.  spaces.kernel is not the oracle: its S12 closed form
    # errs by up to 1e-10 just above |t| = 1e-3, and its series path (Km:2) stops at an
    # absolute tail of 1e-12
    c = r * cmath.exp(1j * arg)
    got = op.composition_norm(space, ps.from_coefficients([c]), 256) ** 2
    with mpmath.workdps(40):
        t = abs(mpmath.mpc(c)) ** 2
        exact = float(mpmath.fsum(t**j / mpmath.mpf(space.weight(j)) for j in range(257)))
    target(abs(got / exact - 1.0), label="relative gap to K(c, c)")
    assert abs(got - exact) <= 1e-13 * exact


@settings(max_examples=64, deadline=None)
@given(_ORACLE_SPACES, st.integers(1, 8), st.sampled_from([64, 256]))
def test_monomial_composition_norm_is_the_largest_column_norm(space, k, n):
    # C_{z^k} maps e_j to sqrt(weight(k j) / weight(j)) e_{k j}: orthogonal columns, so the
    # compression's norm is the largest of these over j <= n / k
    j = np.arange(n // k + 1)
    exact = math.sqrt(np.max(space.weight(k * j) / space.weight(j)))
    got = op.composition_norm(space, ps.monomial(k), n)
    assert abs(got - exact) <= 4 * np.finfo(np.float64).eps * exact


def hilbert_schmidt_symbols():
    """The ten seed-0 symbols of comp_hilbert_schmidt_bound, scaled to sup |phi| = 0.8."""
    rng = checks._rng(checks.Config(seed=0), "comp_hilbert_schmidt_bound")
    symbols = []
    for _ in range(10):
        f = checks._random_polynomial(rng, max_degree=8, min_degree=1)
        symbols.append(ps.scale(f, 0.8 / sp.sup_bracket(f)[0]))
    return symbols


class TestHilbertSchmidt:
    def test_zero_symbol(self):
        # the term j = 0 alone: the bracket holds 1 within its rounding radius, the walk is 1
        zero = ps.from_coefficients([0.0])
        lo, hi = op.hilbert_schmidt_bracket(S12, zero)
        assert lo <= 1.0 <= hi and hi - lo < 1e-14
        assert hilbert_schmidt_walk(S12, zero, 64) == 1.0

    def test_quadrature_takes_the_fewest_exact_nodes(self, monkeypatch):
        # the ten symbols of comp_hilbert_schmidt_bound: the series are cut at the order K of the
        # eps/4 tail majorant d^2 s^(2j) on S12, and the integrand, of degree at most K d, is
        # taken at the least power of two of nodes above K d; no truncation enters
        series_values, seen = op._series_values, []

        def counted(coeffs, x):
            seen.append((coeffs.shape, len(x)))
            return series_values(coeffs, x)

        monkeypatch.setattr(op, "_series_values", counted)
        for phi in hilbert_schmidt_symbols():
            seen.clear()
            op.hilbert_schmidt_bracket(S12, phi)
            d, s = phi.degree(), sp.sup_bracket(phi)[1]
            k = ps.Majorant(2 * math.log(d), 0, s * s).order_for(np.finfo(float).eps / 4)
            (((rows, terms), nodes),) = seen
            assert (rows, terms) == (3, k + 1) and k <= 100
            assert k * d < nodes <= 2 * k * d and nodes & (nodes - 1) == 0

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_power_table_rows_are_the_walks_rows(self, n):
        # 40 symbols of degree 1..8 at sup 0.8: row j of the C_phi power table is the walk's
        # phi^j from [1], bit for bit, and zero past its length
        rng = np.random.default_rng(n)
        for _ in range(40):
            phi = random_poly(rng, max_degree=8, min_degree=1)
            phi = ps.scale(phi, 0.8 / sp.sup_bracket(phi)[0])
            k, c, _ = op._composition_cut(S12, phi, n)
            table = ps.orbit(ps.one(), phi, k, c)
            times_phi, row = ps.multiplier(phi, c), ps.one().coeffs
            for j in range(k + 1):
                assert np.array_equal(table[j, : len(row)], row), (j, phi.coeffs)
                assert not table[j, len(row):].any(), (j, phi.coeffs)
                row = times_phi(row)

    def test_blocks_hold_no_table(self):
        # the symbols of comp_hilbert_schmidt_bound at seed 0: the walk's sum over the whole
        # table at size 8193 traced 8.2 MiB, one power at a time 0.25; the bracket, whose
        # arrays are each under 128 KiB, traces 0.2 MiB
        symbols = hilbert_schmidt_symbols()
        op.hilbert_schmidt_bracket(S12, symbols[0])
        tracemalloc.start()
        try:
            for f in symbols:
                op.hilbert_schmidt_bracket(S12, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    def test_overflowing_power_is_refused_without_warning(self, monkeypatch):
        # a sup bracket of (1, 1) keeps every row of 2z at n = 1100, and 2^1024 overflows:
        # composition_norm refuses it with the one line of series.orbit, and the bracket, which
        # builds no power, is (1, inf)
        monkeypatch.setattr(sp, "sup_bracket", lambda f: (1.0, 1.0))
        phi = ps.from_coefficients([0, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"^f \* phi\^1024 overflows at order 1100: "
                                                  r"phi is no self-map$"):
                op.composition_norm(S12, phi, 1100)
            assert op.hilbert_schmidt_bracket(S12, phi) == (1.0, math.inf)

    def test_half_z_geometric(self):
        # ||(z/2)^n||^2 / ||z^n||^2 = 4^-n, so the sum telescopes to 4/3
        lo, hi = op.hilbert_schmidt_bracket(S12, ps.from_coefficients([0, 0.5]))
        assert lo <= 4.0 / 3.0 <= hi and hi - lo < 1e-13
        value = hilbert_schmidt_walk(S12, ps.from_coefficients([0, 0.5]), 200)
        oracle = sum(0.25**n for n in range(201))
        assert abs(value - oracle) < 1e-13
        assert abs(value - 4.0 / 3.0) < 1e-13

    def test_bound_for_small_sup(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_poly(rng, max_degree=8, min_degree=1)
            f = ps.scale(f, 0.8 / sp.sup_bracket(f)[0])
            hi = op.hilbert_schmidt_bracket(S12, f)[1]
            bound = 1.0 + 2.0 * sp.space_norm_sq(S12, f) / (1.0 - sp.sup_bracket(f)[0] ** 2)
            assert hi <= bound

    @pytest.mark.parametrize("space", [sp.bergman(), sp.s2(), sp.km(2), sp.dalpha(1.5)],
                             ids=lambda s: s.label)
    def test_refuses_weights_of_no_quadratic(self, space):
        # A2's 1/(n+1), S2's 1, 1, 4, 9, ..., Km:2's cubic and Dalpha:1.5 are no polynomial of
        # degree <= 2 in n, so the circle formula does not apply
        with pytest.raises(PreconditionError, match=f"^{re.escape(space.label)} weights"):
            op.hilbert_schmidt_bracket(space, ps.from_coefficients([0, 0.5]))

    def test_a_sup_at_one_gives_no_upper_side(self):
        # z and (1 + z) / 2 touch the circle, and the tail of 1 - 1e-7 needs more than 2^18
        # terms: only the term j = 0, 1 exactly, is certified
        for coeffs in ([0, 1], [0.5, 0.5], [1 - 1e-7]):
            assert op.hilbert_schmidt_bracket(S12, ps.from_coefficients(coeffs)) == (1.0, math.inf)


_BRACKET_SPACES = [sp.hardy(), sp.dirichlet(), S12, sp.s22(), sp.km(1)]


@pytest.mark.parametrize("space", _BRACKET_SPACES, ids=lambda s: s.label)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=9),
       st.floats(0.0, 0.95))
def test_hilbert_schmidt_bracket_holds_the_walk(space, parts, sup):
    # the walk at T = 8192 holds every power that reaches the sum whole (k d < 8192 here) and
    # lies in [full sum, full sum + eps/4] up to its rounding; constants and zero included
    f = ps.from_coefficients([complex(x, y) for x, y in parts])
    peak = sp.sup_bracket(f)[0]
    assume(peak == 0 or peak >= 1e-3)
    phi = ps.scale(f, sup / peak) if peak else f
    lo, hi = op.hilbert_schmidt_bracket(space, phi)
    walk = hilbert_schmidt_walk(space, phi, 8192)
    target((hi - lo) / walk, label="relative bracket width")
    assert lo <= walk and walk - np.finfo(float).eps / 4 <= hi


def monomial_hilbert_schmidt(space, b, p):
    """||C_phi||_HS^2 = sum_j |b|^(2j) weight(p j) / weight(j) for phi = b z^p, in 40 digits:
    the terms fall by |b|^2 <= 0.9025 with a factor below (p j + 1)^2, and the sum stops where
    one is below 1e-45 of it."""
    with mpmath.workdps(40):
        x, total, j = abs(mpmath.mpc(b)) ** 2, mpmath.mpf(0), 0
        while True:
            term = x**j * mpmath.mpf(space.weight(p * j)) / mpmath.mpf(space.weight(j))
            total += term
            if j > 8 and term < mpmath.mpf(10) ** -45 * total:
                return total
            j += 1


@pytest.mark.parametrize("space", _BRACKET_SPACES, ids=lambda s: s.label)
@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 0.95), st.floats(0, 2 * math.pi), st.integers(1, 8))
def test_hilbert_schmidt_bracket_holds_the_monomial_sum(space, r, arg, p):
    b = r * cmath.exp(1j * arg)
    lo, hi = op.hilbert_schmidt_bracket(space, ps.from_coefficients([0] * p + [b]))
    exact = monomial_hilbert_schmidt(space, b, p)
    target(float((hi - lo) / exact), label="relative bracket width")
    assert lo <= exact <= hi


@pytest.mark.parametrize("space", _BRACKET_SPACES, ids=lambda s: s.label)
@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 0.95), st.floats(0, 2 * math.pi), st.integers(1, 8), st.floats(0.1, 0.9))
def test_hilbert_schmidt_bracket_holds_at_a_lower_cut(space, r, arg, p, cut):
    # the series cut at a fraction of the eps/4 order: the partial sum, still exact on its
    # nodes, falls short by far more than the rounding radius, and the tail majorant's bound
    # makes up the rest on the upper side
    b = r * cmath.exp(1j * arg)
    order_for = ps.Majorant.order_for
    with mock.patch.object(ps.Majorant, "order_for",
                           lambda self, tol: int(cut * order_for(self, tol))):
        lo, hi = op.hilbert_schmidt_bracket(space, ps.from_coefficients([0] * p + [b]))
    exact = monomial_hilbert_schmidt(space, b, p)
    target(float((hi - lo) / exact), label="relative bracket width")
    assert lo <= exact <= hi


@pytest.mark.parametrize("space", [S12, sp.dirichlet(), sp.hardy(), sp.bergman(), sp.km(2)],
                         ids=lambda s: s.label)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=2, max_size=9),
       st.floats(0.05, 0.95), st.sampled_from([64, 256]))
def test_hilbert_schmidt_lies_above_the_full_sum_by_at_most_its_cut(space, parts, sup, n):
    # the oracle walk stops where its rest is at most eps/4 and adds that bound: it lies in
    # [full sum, full sum + eps/4] up to rounding.  The full table is summed exactly, as the
    # rounding of np.sum over its (n+1)^2 entries alone reaches 5 spacings on S12
    f = ps.from_coefficients([complex(x, y) for x, y in parts])
    assume(f.degree() >= 1 and sp.sup_bracket(f)[0] >= 1e-3)
    phi = ps.scale(f, sup / sp.sup_bracket(f)[0])
    full = math.fsum((np.abs(op.composition_matrix(space, phi, n)) ** 2).ravel())
    value = hilbert_schmidt_walk(space, phi, n)
    spacing = np.spacing(full)
    target(abs(value - full) / spacing, label="|sum - full sum| in spacings")
    assert full - 4 * spacing <= value <= full + np.finfo(float).eps / 4 + 4 * spacing


class TestIsometryDefect:
    """blaschke_power_defect on the shift, psi = z: its orbit is cut at deg f + m, where no
    product is cut, so the defects are exact ambient-space norms up to rounding."""

    @staticmethod
    def defect(space, m, probe):
        return op.blaschke_power_defect(space, shift_z, m, probe)

    def test_s12_shift_is_3_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            assert abs(self.defect(S12, 3, random_poly(rng))) < 1e-12

    def test_s12_shift_beta2_at_one(self):
        # ||z^2||^2 - 2 ||z||^2 + 1 = 6 - 6 + 1
        assert self.defect(S12, 2, ps.one()) == 1.0

    def test_hardy_shift_isometric(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            assert abs(self.defect(sp.hardy(), 1, random_poly(rng))) < 1e-13

    def test_km_shifts(self):
        rng = np.random.default_rng(8)
        for m in (1, 2, 3):
            space = sp.km(m)
            for _ in range(5):
                probe = random_poly(rng, max_degree=8)
                probe = ps.scale(probe, 1.0 / sp.space_norm(space, probe))
                assert abs(self.defect(space, m + 2, probe)) < 1e-12
            assert self.defect(space, m + 1, ps.one()) == 1.0

    @pytest.mark.parametrize("space", [S12, sp.hardy(), sp.dirichlet(), sp.s2(), sp.bergman(),
                                       sp.km(1), sp.km(2), sp.km(3), sp.dalpha(1.5)],
                             ids=lambda s: s.label)
    def test_shift_defect_is_the_whole_orbit_difference(self, space):
        # the shift's defect, bit for bit, is the m-th difference of the norms of the orbit
        # of f under z kept whole at order f.order + m
        rng = np.random.default_rng(len(space.label))
        for m in range(1, 6):
            for _ in range(10):
                f = random_poly(rng)
                order = f.order + m
                norms = sp.norms_sq(space.weights(order), ps.orbit(f, ps.monomial(1), m, order))
                assert self.defect(space, m, f) == np.diff(norms, m)[0]

    def test_rejects_order_below_one(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="isometry order"):
                op.blaschke_power_defect(S12, shift_z, m, ps.one())


def newton_coefficients(norms, order):
    """Delta^j x_0 for j < order: P(n) = sum_j C(n,j) Delta^j x_0 on the sampled range."""
    return [np.diff(norms, j)[0] for j in range(order)]


class TestShiftClassification:
    """isometry_order on the M_z orbit norms of 1, ||z^n||^2 = weight(n)."""

    def test_s12_weights(self):
        w = S12.weights(63)
        order, residual = op.isometry_order(w, 6)
        assert order == 3
        assert np.max(np.abs(np.array(newton_coefficients(w, 3)) - [1.0, 2.0, 1.0])) < 1e-8
        assert residual < 1e-10

    def test_constant_weights(self):
        w = sp.hardy().weights(47)
        order, _ = op.isometry_order(w, 4)
        assert order == 1
        assert abs(newton_coefficients(w, 1)[0] - 1.0) < 1e-12

    def test_s2_weights_unclassifiable(self):
        order, residual = op.isometry_order(sp.s2().weights(63), 6)
        assert order is None
        assert residual > 1e-8

    def test_km_weights(self):
        for m in (1, 2, 3):
            w = sp.km(m).weights(63)
            order, _ = op.isometry_order(w, m + 3)
            assert order == m + 2
            target = [math.comb(m + 1, j) for j in range(m + 2)]  # C(n+m+1, m+1) in Newton form
            assert np.max(np.abs(np.array(newton_coefficients(w, m + 2)) - target)) < 1e-8

    def test_cubic_perturbation_is_not_order_3(self):
        # S12 weights + 1e-6 n^3: Delta^3 = 6e-6, about 1.6e-7 of its scale at n = 0
        n = np.arange(64.0)
        order, _ = op.isometry_order(S12.weights(63) + 1e-6 * n**3, 6)
        assert order == 4

    def test_exact_zero_difference_vanishes_at_zero_scale(self):
        assert op.isometry_order(np.zeros(5), 3) == (1, 0.0)
        # Delta x_0 = 0 over a zero window; the best residual is |Delta^3 x_0| / 5
        assert op.isometry_order([0.0, 0.0, 1.0, 2.0], 3) == (None, 0.2)

    def test_huge_norms_do_not_overflow(self):
        assert op.isometry_order([1e308, -1e308, 1e308, -1e308], 3) == (None, 1.0)
        assert op.isometry_order([1e308] * 4, 3) == (1, 0.0)

    @pytest.mark.parametrize(
        "norms,m_max",
        [([1.0, -2.0], 3), ([1.0, np.nan, 2.0], 1), ([1.0, np.inf, 2.0], 1),
         ([[1.0, 2.0], [3.0, 4.0]], 1), ([1.0, 2.0], 0)],
        ids=["short", "nan", "inf", "two_dimensional", "m_max_zero"],
    )
    def test_rejects_nonfinite_or_short(self, norms, m_max):
        with pytest.raises(ValueError, match="isometry_order needs"):
            op.isometry_order(norms, m_max)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=6), st.integers(0, 20))
    def test_newton_polynomial_has_order_degree_plus_one(self, coefficients, extra):
        # P(n) = sum_j c_j C(n,j), c_j > 0, is a polynomial of degree d = len(c) - 1 whose
        # Delta^j P(0) = c_j: exact integers here, so the order is d + 1 and c comes back
        norms = [float(sum(c * math.comb(n, j) for j, c in enumerate(coefficients)))
                 for n in range(7 + extra)]
        order, _ = op.isometry_order(norms, 6)
        assert order == len(coefficients)
        assert newton_coefficients(norms, order) == coefficients


class TestMultiplierIsometryGrid:
    """M_psi for finite Blaschke products psi is an m-isometry with the m of its space:
    H2 1, D2 2, S12 3, Km:2 4; on S2 and A2, and for the non-inner (1+z)/2 anywhere,
    no m up to 6 qualifies.  Orbit norms ||psi^k f||^2, k = 0..8, at order 2048, where
    the series of psi (zeros of modulus <= 0.5) lose nothing above rounding."""

    probe = ps.from_coefficients([0.2, -0.7j, 0.4, 0.1])
    symbols = [
        bl.BlaschkeProduct(-1.0, (0j,)),
        bl.z_times_phi(0.5),
        bl.phi_pair(0.3 + 0.2j),
        bl.BlaschkeProduct(1.0, (0.5, -0.3j, -0.2 + 0.4j)),
    ]

    def order(self, space, symbol):
        norms = sp.norms_sq(space.weights(2048), ps.orbit(self.probe, symbol, 8, 2048))
        return op.isometry_order(norms, 6)[0]

    @pytest.mark.parametrize(
        "space,expected",
        [(sp.hardy(), 1), (sp.dirichlet(), 2), (S12, 3), (sp.km(2), 4),
         (sp.s2(), None), (sp.bergman(), None)],
        ids=["H2", "D2", "S12", "Km2", "S2", "A2"],
    )
    def test_finite_blaschke_products(self, space, expected):
        assert [self.order(space, psi.series(2048)) for psi in self.symbols] == [expected] * 4
        assert self.order(space, ps.from_coefficients([0.5, 0.5])) is None


class TestBlaschkeIdentities:
    def test_shift_symbol_weight_arithmetic(self):
        # ||z^3||^2 - 3||z^2||^2 + 3||z||^2 - 1 = 10 - 18 + 9 - 1
        value = op.blaschke_power_defect(S12, shift_z, 3, ps.one())
        assert value == 0.0
        w = S12.weights(3)
        assert (w[3], w[2], w[1]) == (10.0, 6.0, 3.0)

    @staticmethod
    def three_step_identity_holds(psi, probes):
        return all(
            abs(op.blaschke_power_defect(S12, psi, 3, f))
            < 1e-8 * (1 + sp.space_norm_sq(S12, f))
            for f in probes
        )

    def test_z_phi04_probes(self):
        probes = [ps.one(), ps.from_coefficients([1, 1])]
        assert self.three_step_identity_holds(bl.z_times_phi(0.4), probes)

    def test_phi_pair_probes(self):
        assert self.three_step_identity_holds(bl.phi_pair(0.5), [ps.one(), ps.monomial(1)])

    def test_s2_scale_correction(self):
        # for symbols vanishing at 0 the identity on the S2 scale misses
        # by exactly -|f(0)|^2
        value = op.blaschke_power_defect(sp.s2(), bl.z_times_phi(0.4), 3, ps.one())
        assert abs(value + 1.0) < 1e-8

    def test_truncation_guard(self):
        psi = bl.BlaschkeProduct(1.0, (0.95, -0.95, 0.95j))
        # the tail majorant of psi^3, the nine zeros, cuts the orbit at 1737 (a much longer
        # orbit's tails allow 654, see test_orbit_guard_orders), where the identity holds, as
        # it does on that longer orbit
        cut, value = _cut(lambda: op.blaschke_power_defect(S12, psi, 3, ps.one()))
        assert cut == 1737 and abs(value) < 1e-8
        length = 4 * cut + 64
        longer = sp.norms_sq(S12.weights(length), ps.orbit(ps.one(), psi.series(length), 3, length))
        assert abs(np.diff(longer, 3)[0]) < 1e-8


_GUARD_SPACES = [sp.hardy(), sp.dirichlet(), sp.s2(), S12, sp.km(2), sp.dalpha(1.5)]


def _cut(build):
    """(order, value) of build(), which makes one ``BlaschkeProduct.series`` call: the order of
    that call, the orbit's cut, and what build returns."""
    series = bl.BlaschkeProduct.series
    with mock.patch.object(bl.BlaschkeProduct, "series", autospec=True, side_effect=series) as spy:
        value = build()
    ((_, cut),) = [c.args for c in spy.call_args_list]
    return cut, value


def _orbit_cut(space, psi, f, m):
    """The order at which the orbit of f under psi, k <= m, is built."""
    return _cut(lambda: op._blaschke_orbit_norms(space, psi, f, m))[0]


def _longer_tails(space, psi, f, m, cut):
    """max_k sum_{N < n <= L} weight(n) |(f psi^k)_n|^2 for every N <= L, from a much longer
    orbit, ``series.orbit`` at L = 4 cut + 64, where psi^m's majorant is about the fourth
    power of its value at the cut."""
    length = 4 * cut + 64
    squares = np.abs(ps.orbit(f, psi.series(length), m, length)) ** 2 * space.weights(length)
    past = np.cumsum(squares[:, :0:-1], axis=1)[:, ::-1]  # past[k, N] sums n = N+1 .. L
    return np.append(past.max(axis=0), 0.0)


def _cut_budget(space, f, weight):
    """eps/8 (1 + ||f||^2) / W: what the tails t_k^2 of f psi^k may reach at the cut."""
    return np.finfo(np.float64).eps / 8 * (1.0 + sp.space_norm_sq(space, f)) / weight


@pytest.mark.parametrize("space", _GUARD_SPACES, ids=lambda s: s.label)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi)), min_size=1,
                max_size=3),
       st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=4),
       st.integers(1, 6))
def test_orbit_guard_is_sound(space, zeros, probe, m):
    # with no coeff_sum the cut weighs ||f psi^k||^2, k <= m, by m 2^m, so past it the tails
    # of a much longer orbit must hold m 2^m max_k t_k^2 within eps/8 (1 + ||f||^2)
    psi = bl.BlaschkeProduct(1.0, tuple(r * cmath.exp(1j * t) for r, t in zeros))
    f = ps.from_coefficients(probe)
    cut = _orbit_cut(space, psi, f, m)
    margin = _longer_tails(space, psi, f, m, cut)[cut] / _cut_budget(space, f, m << m)
    target(margin, label="longer orbit's tail / budget at the cut")
    assert margin <= 1.0


@pytest.mark.parametrize("space,seminorm", [(S12, False), (sp.dirichlet(), False),
                                            (sp.hardy(), False), (sp.km(2), False),
                                            (sp.s2(), True)],
                         ids=["S12", "D2", "H2", "Km:2", "S2_seminorm"])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)), min_size=1,
                max_size=3),
       st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=9),
       st.integers(1, 4))
def test_orbit_norms_at_the_rounding_cut_are_those_of_the_whole_order(space, seminorm, zeros,
                                                                     probe, m):
    # The rows lose only their coefficients past the cut, whose squared norms t_k^2 it holds
    # to W t_k^2 <= eps/8 (1 + ||f||^2), W = m 2^m: so each exact norm is that close to the
    # one at the whole order.  Each computed norm is a sum of N + 1 nonnegative terms
    # w(n) |y_n|^2, within (N + 4) u of its value (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., 3.1; u = eps / 2, 3 u for the squared modulus); that radius at
    # N = order and at N = cut also covers the rows' own product roundings, a few eps of a row
    # spread over its coefficients (7 eps x_k was the largest gap in 300 random cases, against
    # about 2,000 eps x_k here).
    order, eps = 4096, np.finfo(np.float64).eps
    psi = bl.BlaschkeProduct(1.0, tuple(r * cmath.exp(1j * t) for r, t in zeros))
    f = ps.from_coefficients(probe)
    weights = _seminorm if seminorm else None
    cut, norms = _cut(lambda: op._blaschke_orbit_norms(space, psi, f, m, weights))
    assume(cut <= order)
    whole = sp.norms_sq((weights or space.weight)(np.arange(order + 1.0)),
                        ps.orbit(f, psi.series(order), m, order))
    tail = eps / 8 * (1.0 + sp.space_norm_sq(space, f)) / (m << m)
    radius = tail + (order + cut + 8) * eps / 2 * np.maximum(norms, whole)
    margin = float(np.max(np.abs(norms - whole) / radius))
    target(margin, label="|cut - whole| / radius")
    assert margin <= 1.0


@pytest.mark.parametrize(
    "space,psi,f,m,cut",
    [(S12, bl.z_times_phi(0.3), ps.from_coefficients([1, 1]), 6, 74),
     (S12, bl.phi_pair(0.5), ps.monomial(1), 6, 129),
     (sp.dirichlet(), bl.BlaschkeProduct(1.0, (0.6,)), ps.one(), 5, 86),
     (S12, bl.BlaschkeProduct(1.0, (0.9, -0.5)), ps.one(), 3, 568),
     (S12, bl.BlaschkeProduct(1.0, (0.99, -0.5)), ps.one(), 3, 7556),
     (sp.hardy(), bl.BlaschkeProduct(1.0, (0.99, -0.5)), ps.one(), 3, 6600),
     (S12, bl.BlaschkeProduct(1.0, (0.95, -0.95, 0.95j)), ps.one(), 3, 1737)],
    ids=["S12_z_phi03", "S12_phi_pair05", "D2_phi06", "S12_09_05", "S12_099_05", "H2_099_05",
         "S12_three_095"],
)
def test_orbit_guard_orders(space, psi, f, m, cut):
    # the cut is sound and within 4 times the least order a much longer orbit's tails allow
    # (the largest ratio, 2.66, is S12 with zeros 0.95, -0.95 and 0.95i: least 654)
    assert _orbit_cut(space, psi, f, m) == cut
    tails = _longer_tails(space, psi, f, m, cut)
    budget = _cut_budget(space, f, m << m)
    least = int(np.argmax(tails <= budget))
    assert tails[cut] <= budget and cut <= 4 * least


@pytest.mark.parametrize("space", _GUARD_SPACES + [sp.bergman()], ids=lambda s: s.label)
def test_orbit_guard_of_a_monomial_symbol_decides_every_order_as_before(space):
    # psi = c z^p has no tail: psi^m f has degree deg f + m p, the cut, so a much longer orbit
    # holds only zeros past it and the same bits up to it, and the norms are that orbit's
    probes = [ps.one(), ps.monomial(1), ps.from_coefficients([1, 1]), ps.zero(),
              ps.from_coefficients([1e-9, 0, 2e-9j]), ps.from_coefficients([0.3, -2, 0.5j, 1])]
    for psi in (shift_z, bl.BlaschkeProduct(1j, (0j, 0j)), bl.BlaschkeProduct(-1.0, (0j,) * 3)):
        for f in probes:
            for m in (1, 2, 3, 6):
                top = max(f.degree(), 0) + m * psi.degree
                cut, norms = _cut(lambda: op._blaschke_orbit_norms(space, psi, f, m))
                assert cut == top
                length = 4 * top + 64
                longer = ps.orbit(f, psi.series(length), m, length)
                assert not longer[:, top + 1 :].any()
                assert np.array_equal(ps.orbit(f, psi.series(top), m, top), longer[:, : top + 1])
                assert np.array_equal(norms, sp.norms_sq(space.weights(top), longer[:, : top + 1]))


@pytest.mark.parametrize("psi", [shift_z, bl.phi_pair(0.5)], ids=["z", "phi_pair05"])
@pytest.mark.parametrize("scale", [1e200, 5e153], ids=["f", "psi_cubed_f"])
def test_orbit_norms_past_the_float_range_are_refused(psi, scale):
    # ||f||^2 overflows at 1e200 (1 + z), and at 5e153 (1 + z) only ||psi^3 f||^2 on S12 does:
    # each is refused in one line, with no RuntimeWarning, whether psi has a tail or not
    f = ps.from_coefficients([scale, scale])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="^the norm overflows the float range$"):
            op.blaschke_power_defect(S12, psi, 3, f)


def test_growth_guard_takes_the_lagrange_weight():
    # with 8 nodes, the residual at n = 11 weighs the norms by 1 + sum_i |L_i(11)| = 23,298,
    # above the 11 * 2^11 = 22,528 that cuts psi^11's orbit at 90 for the zero 0.41: the cut
    # is one order more, and a much longer orbit's tails there hold the budget with that weight
    space, psi, f = sp.dirichlet(), bl.BlaschkeProduct(1.0, (0.41,)), ps.one()
    assert _orbit_cut(space, psi, f, 11) == 90
    assert _cut(lambda: op.growth_residuals(space, psi, f, 8, 11))[0] == 91
    assert _longer_tails(space, psi, f, 11, 91)[91] <= _cut_budget(space, f, 23298)
    # three nodes weigh them by 2 (n - 1)^2 <= n 2^n: the cut stays that of the m 2^m weight
    assert _cut(lambda: op.growth_residuals(space, psi, f, 3, 11))[0] == 90


@pytest.mark.parametrize("space", [sp.hardy(), S12], ids=lambda s: s.label)
@pytest.mark.parametrize("m", [1000, 100_000])
def test_orbit_guard_refuses_an_underflowing_budget_before_psi_m(monkeypatch, space, m):
    # m 2^m takes the budget below the least normal float, where it used to print as 0; the
    # refusal names it as a power of two before psi^m's m deg(psi) zeros are listed
    monkeypatch.setattr(op, "BlaschkeProduct", None)  # psi^m is built through this name
    psi = bl.BlaschkeProduct(1.0, (0.5, 0.3j))
    with pytest.raises(TruncationError, match=rf"^psi\^{m}: the tail budget "
                                              r"2\^-\d+\.\d is below the float range$"):
        op._blaschke_orbit_norms(space, psi, ps.one(), m)


def _residuals_within(residuals_and_scale, tol):
    residuals, scale = residuals_and_scale
    return max(map(abs, residuals.values())) < tol * scale


def _seminorm(n):
    """Weights n^2 of the index array n: the S2 seminorm ||f||^2 - |f(0)|^2."""
    return n**2


def _energy(n):
    """Weights n of the index array n: the Dirichlet energy sum_n n |f_n|^2."""
    return n


class TestGrowthFormulas:
    def test_monomial_powers_on_s2(self):
        result = op.growth_residuals(sp.s2(), shift_z, ps.one(), 3, 6, _seminorm)
        assert list(result[0]) == [2, 3, 4, 5, 6]
        assert _residuals_within(result, 1e-12)
        for n in range(1, 7):
            assert sp.space_norm_sq(sp.s2(), ps.monomial(n)) == float(n * n)

    @pytest.mark.parametrize("space", [sp.s2(), S12])
    def test_blaschke_cases(self, space):
        weights = _seminorm if space.kind == sp.S2 else None
        for psi in (shift_z, bl.z_times_phi(0.3)):
            for f in (ps.one(), ps.from_coefficients([1, 1])):
                result = op.growth_residuals(space, psi, f, 3, 6, weights)
                assert _residuals_within(result, 1e-8), (space.label, psi, f.coeffs)

    def test_phi_pair_on_s12(self):
        psi = bl.phi_pair(0.5)
        result = op.growth_residuals(S12, psi, ps.monomial(1), 3, 6)
        assert _residuals_within(result, 1e-8)

    def test_direct_power_oracle(self):
        # independent check of one S2 case: build psi^4 f without the helper
        psi = bl.z_times_phi(0.3)
        f = ps.one()
        series = psi.series(400)
        u = f
        for _ in range(4):
            u = ps.cauchy_product(u, series, 400)
        lhs = sp.space_norm_sq(sp.s2(), u)
        two = ps.cauchy_product(ps.cauchy_product(f, series, 400), series, 400)
        one_ = ps.cauchy_product(f, series, 400)
        n = 4
        rhs = (
            n * (n - 1) / 2 * sp.space_norm_sq(sp.s2(), two)
            - n * (n - 2) * sp.space_norm_sq(sp.s2(), one_)
            + (n - 1) * (n - 2) / 2 * (sp.space_norm_sq(sp.s2(), f) - 1.0)
        )
        assert abs(lhs - rhs) < 1e-8

    def test_hardy_isometry(self):
        # M_psi is an isometry on H2: ||psi^n f||^2 is constant, so m = 1 leaves n = 0..n_max
        psi = bl.BlaschkeProduct(1.0, (0.5, -0.3j))
        result = op.growth_residuals(sp.hardy(), psi, ps.from_coefficients([1, 2]), 1, 4)
        assert list(result[0]) == [0, 1, 2, 3, 4]
        assert result[1] == 6.0  # 1 + ||1 + 2z||^2
        assert _residuals_within(result, 1e-8)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            op.growth_residuals(sp.hardy(), shift_z, ps.one(), 0, 4)

    @pytest.mark.parametrize("m,n_max", [(3, 0), (3, 1), (3, 2), (2, 1), (1, 0)])
    def test_rejects_n_max_below_m(self, m, n_max):
        # n_max = m - 1 leaves only the residual at the last node, 0 by construction
        with pytest.raises(ValueError, match=f"^growth_residuals needs n_max >= m, got n_max "
                                             f"{n_max} for m {m}$"):
            op.growth_residuals(S12, bl.BlaschkeProduct(1.0, (0.5,)), ps.one(), m, n_max)


class TestDirichletLinearity:
    def test_shift_monomials(self):
        result = op.growth_residuals(sp.dirichlet(), shift_z, ps.one(), 2, 5, _energy)
        assert list(result[0]) == [1, 2, 3, 4, 5]
        assert _residuals_within(result, 1e-8)

    @pytest.mark.parametrize(
        "psi,f,n_max",
        [
            (bl.BlaschkeProduct(1.0, (0.6,)), ps.one(), 5),
            (bl.z_times_phi(0.2), ps.from_coefficients([1, 0, 1]), 4),
        ],
    )
    def test_blaschke_cases(self, psi, f, n_max):
        result = op.growth_residuals(sp.dirichlet(), psi, f, 2, n_max, _energy)
        assert _residuals_within(result, 1e-8)


# (space, m, weights or None): M_psi is an m-isometry for every finite Blaschke psi
_GROWTH_CASES = [
    (S12, 3, None),
    (sp.dirichlet(), 2, _energy),
    (sp.hardy(), 1, None),
    (sp.km(2), 4, None),
    (sp.parse_space("S22"), 3, None),
    (sp.s2(), 3, _seminorm),
]


def _old_s2_residuals(psi, f, n_max=6):
    """||psi^n f||^2_{S2} minus the six-term S2 growth formula with its boundary corrections,
    n = 2..n_max, on the full S2 norms x_0..x_{n_max}, and max x."""
    x = op._blaschke_orbit_norms(sp.s2(), psi, f, n_max)
    p0, f0 = abs(psi(0.0)) ** 2, abs(f.coeffs[0]) ** 2
    residuals = {
        n: x[n] - (n * (n - 1) / 2 * x[2] - n * (n - 2) * x[1] + (n - 1) * (n - 2) / 2 * (x[0] - f0)
                   - n * (n - 1) / 2 * p0**2 * f0 + n * (n - 2) * p0 * f0 + p0**n * f0)
        for n in range(2, n_max + 1)
    }
    return residuals, x.max()


@pytest.mark.parametrize("space,m,weights", _GROWTH_CASES,
                         ids=["S12", "D2", "H2", "Km:2", "S22", "S2_seminorm"])
@settings(max_examples=20, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=0.7), min_size=1, max_size=3),
       st.floats(0.0, 2 * math.pi),
       st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=4))
def test_growth_residuals_vanish_at_the_isometry_order(space, m, weights, zeros, phase, probe):
    psi = bl.BlaschkeProduct(cmath.exp(1j * phase), tuple(zeros))
    f = ps.from_coefficients(probe)
    residuals, scale = op.growth_residuals(space, psi, f, m, 6, weights)
    assert list(residuals) == list(range(m - 1, 7))
    assert max(map(abs, residuals.values())) <= 1e-8 * scale
    if m > 1:  # one order lower, the witness f = 1 leaves a residual above its scale
        below, scale_one = op.growth_residuals(space, psi, ps.one(), m - 1, 6, weights)
        assert max(map(abs, below.values())) > scale_one
    if space.kind == sp.S2 and abs(psi(0.0)) > 1e-3 and abs(f.coeffs[0]) > 1e-3:
        # the same quadratic, so the two agree to rounding: each weighs the norms by less
        # than 64 at n <= 6 (12 eps max x was the largest gap over 2,000 random cases)
        old, largest = _old_s2_residuals(psi, f)
        eps = np.finfo(np.float64).eps
        assert all(abs(old[n] - residuals[n]) <= 128 * eps * largest for n in old)


class TestCompositionBounds:
    # ||C_phi||^2 <= (1 + |phi(0)|) / (1 - |phi(0)|) once ||M_phi|| <= 1

    @staticmethod
    def counted_gate(monkeypatch):
        """The list of truncations that multiplication_norm runs at from here on."""
        calls, measure = [], op.multiplication_norm

        def counting(space, f, n):
            calls.append(n)
            return measure(space, f, n)

        monkeypatch.setattr(op, "multiplication_norm", counting)
        return calls

    def test_zero_symbol(self, monkeypatch):
        calls = self.counted_gate(monkeypatch)
        comp = op.contractive_composition_norm(S12, ps.from_coefficients([0.0]), n=64)
        assert abs(comp**2 - 1.0) < 1e-12
        assert calls == []  # ||0||_{S12} = 0 certifies ||M_0|| <= 1

    def test_d2_constant_half(self):
        comp = op.contractive_composition_norm(sp.dirichlet(), ps.from_coefficients([0.5]), n=256)
        lower = math.log(1.0 / 0.75) / 0.25
        assert abs(comp**2 - lower) < 1e-10
        assert comp**2 <= 3.0

    def test_certified_symbols_take_no_multiplier_norm(self, monkeypatch):
        # 2 sqrt(2) ||f||_{S12} = 0.99 proves ||M_f|| <= 1
        calls = self.counted_gate(monkeypatch)
        for f in upper_bound_symbols():
            assert op.contractive_composition_norm(S12, f, n=256) == op.composition_norm(S12, f, 256)
        assert calls == []

    def test_half_z_on_s12(self, monkeypatch):
        # 2 sqrt(2) ||z/2||_{S12} = sqrt(6) > 1 decides nothing; ||M_{z/2}|| = sqrt(3)/2 admits it
        calls = self.counted_gate(monkeypatch)
        comp = op.contractive_composition_norm(S12, ps.from_coefficients([0, 0.5]), n=128)
        assert calls == [128]
        assert comp**2 <= 1.0 + 1e-8

    def test_precondition_large_multiplier(self):
        with pytest.raises(PreconditionError, match="measured multiplier norm .* exceeds 1"):
            op.contractive_composition_norm(S12, ps.from_coefficients([0, 3.0]), n=64)

    def test_precondition_space(self):
        with pytest.raises(PreconditionError, match="A2 has kernel coefficients above 1"):
            op.contractive_composition_norm(sp.bergman(), ps.from_coefficients([0, 0.5]), n=64)
