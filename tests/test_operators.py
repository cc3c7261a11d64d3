import math

import numpy as np
import pytest

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


def random_poly(rng, max_degree=12, min_degree=0):
    deg = int(rng.integers(min_degree, max_degree + 1))
    return ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


shift_z = bl.BlaschkeProduct(-1.0, (0j,))  # the symbol z as a Blaschke product


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


class TestMultiplicationMatrix:
    def test_identity_symbol(self):
        # M_1 is the identity; x -> sqw * (x / sqw) rounds twice, so each 1 is within an ulp
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
        rng = np.random.default_rng(1)
        f = random_poly(rng)
        phi = ps.scale(random_poly(rng, max_degree=6), 0.1)
        cases = [
            (multiplication_matrix(S12, f, 40), op._multiplication_products(S12, f, 40)),
            (op.composition_matrix(S12, phi, 40), op._composition_products(S12, phi, 40)),
        ]
        for t, (matvec, rmatvec) in cases:
            x = rng.normal(size=41) + 1j * rng.normal(size=41)
            y = rng.normal(size=41) + 1j * rng.normal(size=41)
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
            assert max(sp.sup_norm(f), norm) <= est <= 2 * math.sqrt(2) * norm + 1e-12

    def test_strict_sup_gap(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_poly(rng, min_degree=1)
            est = op.multiplication_norm(S12, f, 512)
            assert est > sp.sup_norm(f)


def dense_norm(a):
    return np.linalg.svd(a, compute_uv=False)[0]


def counted(matvec, rmatvec):
    """The two products, and a function that returns how often they ran."""
    calls = []

    def counted_matvec(x):
        calls.append(1)
        return matvec(x)

    def counted_rmatvec(y):
        calls.append(1)
        return rmatvec(y)

    return (counted_matvec, counted_rmatvec), lambda: len(calls)


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
        # sup|0.1 + 0.05z| = 0.15 certifies that rows past k* hold at most eps^2 of the
        # squared Frobenius mass: the products are A with columns k*+1..n set to zero
        phi, n = ps.from_coefficients([0.1, 0.05]), 512
        a = op.composition_matrix(S12, phi, n)
        k = len(op._composition_columns(S12, phi, n)[0]) - 1
        assert 0 < k < n
        dense = dense_norm(a)
        assert abs(op.composition_norm(S12, phi, n) - dense) <= 1e-13 * dense
        matvec, rmatvec = op._composition_products(S12, phi, n)
        eye = np.eye(n + 1)
        columns = np.column_stack([matvec(e) for e in eye])
        assert np.array_equal(columns[:, : k + 1], a[:, : k + 1])
        assert not columns[:, k + 1 :].any()
        rows = np.column_stack([rmatvec(e) for e in eye])
        assert np.array_equal(rows[: k + 1], a.conj().T[: k + 1])
        assert not rows[k + 1 :].any()

    def test_constant_symbols_are_exact(self):
        # the identity is TestOperatorNorm.test_identity
        assert op.multiplication_norm(S12, ps.zero(4), 8) == 0.0
        assert op.multiplication_norm(S12, ps.from_coefficients([0.6 - 0.8j]), 8) == 1.0

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
        (fn,) = [
            fn for fn in checks.suite_checks("constants") if fn.check_id == "mult_monomial_norms"
        ]
        monkeypatch.setattr(checks, "_REGISTRY", {**checks._REGISTRY, "constants": [fn]})
        (report,) = checks.run_suite("constants", checks.Config())
        assert report.status == rp.ERROR
        assert report.computed[0].label.startswith("ConvergenceError")

    def test_zero_operator(self):
        def zeros(x):
            return np.zeros(64, dtype=np.complex128)

        assert op.norm_estimate(zeros, zeros, 64) == 0.0

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("c", [0.5, 0.3 - 0.6j])
    def test_constant_composition_symbol(self, n, c):
        # f -> f(c) has rank one: alpha_2 breaks down after one step
        phi = ps.from_coefficients([c])
        dense = dense_norm(op.composition_matrix(S12, phi, n))
        assert abs(op.composition_norm(S12, phi, n) - dense) <= 1e-13 * dense

    def test_cube_composition_closes_at_its_rank(self):
        # C_{z^3} sends e_j to a multiple of e_{3j}, so its compression at size 129 has
        # rank 43 with distinct singular values: alpha_44 breaks down after 43 steps, and
        # 43 products with A^H and 44 + 1 with A are all it may spend
        phi, n = ps.monomial(3), 128
        dense = dense_norm(op.composition_matrix(S12, phi, n))
        products, count = counted(*op._composition_products(S12, phi, n))
        assert abs(op.norm_estimate(*products, n + 1) - dense) <= 1e-13 * dense
        assert count() == 2 * 43 + 2

    def test_stop_reads_the_left_singular_vector(self):
        # C_{z/2} is diagonal with singular values 2^-j.  The residual of the top Ritz
        # triple is beta_k |x_k| for the left vector x of B_k; the right vector's last
        # entry is sigma x_k / alpha_k, 127 times larger at k = 8, and would stop later
        phi, n = ps.from_coefficients([0, 0.5]), 64
        products, count = counted(*op._composition_products(S12, phi, n))
        assert op.norm_estimate(*products, n + 1) == 1.0
        assert count() == 2 * 8 + 1


def symbol_of_sup(target, seed=7):
    f = ps.PowerSeries(np.random.default_rng(seed).uniform(-1, 1, 7) + 0.5j)
    return ps.scale(f, target / sp.sup_norm(f))


CUT_SYMBOLS = [symbol_of_sup(0.3), symbol_of_sup(0.8), symbol_of_sup(0.95),
               ps.from_coefficients([0.5]), ps.from_coefficients([0.3 - 0.9j]), ps.zero()]
CUT_SPACES = [sp.hardy(), sp.bergman(), sp.dirichlet(), S12, sp.km(2), sp.dalpha(1.5)]


class TestCompositionRowCut:
    """Rows 0..k* of the C_phi table, fixed by sup_bound(phi) before any row is built."""

    @pytest.mark.parametrize("space", CUT_SPACES, ids=lambda s: s.label)
    def test_cut_is_a_certified_prefix_of_the_full_table(self, space):
        n = 1024
        for phi in CUT_SYMBOLS:
            full, none = op._composition_columns(space, phi, n, full=True)
            cut, mass = op._composition_columns(space, phi, n)
            k = len(cut) - 1
            assert none == 0.0 and len(full) == n + 1
            assert np.array_equal(cut, full[: k + 1])  # bit for bit
            assert float(np.sum(np.abs(full[k + 1 :]) ** 2)) <= mass <= np.finfo(float).eps ** 2
            assert k < n or mass == 0.0
            if phi.degree() < 0:
                assert k == 0

    def test_every_nonzero_row_where_the_sup_bound_reaches_one(self):
        # phi^j starts at z^(v j), so only the rows j <= n // v can be nonzero
        n = 96
        for phi, rows in ((ps.monomial(1), n + 1), (ps.monomial(3), n // 3 + 1),
                          (ps.from_coefficients([0.5, 0.5]), n + 1),
                          (ps.from_coefficients([0, 0, 0.5, 0.5]), n // 2 + 1)):
            table, mass = op._composition_columns(S12, phi, n)
            full = op.composition_matrix(S12, phi, n).T
            assert len(table) == rows and mass == 0.0
            assert np.array_equal(table, full[:rows])
            assert not full[rows:].any()

    @pytest.mark.parametrize("space", CUT_SPACES, ids=lambda s: s.label)
    def test_hilbert_schmidt_never_below_the_full_sum(self, space):
        n = 512
        for phi in CUT_SYMBOLS:
            full = float(np.sum(np.abs(op.composition_matrix(space, phi, n)) ** 2))
            value = op.hilbert_schmidt_norm_sq(space, phi, n)
            assert value >= full - 4 * np.spacing(full)
            assert value <= full + 4 * np.spacing(full)


class TestCompositionMatrix:
    def test_identity_symbol(self):
        a = op.composition_matrix(S12, ps.monomial(1), 24)
        assert np.allclose(a, np.eye(25), atol=1e-15)

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

    def test_monomial_norm_limit(self):
        for k in range(1, 9):
            value = op.composition_monomial_norm(S12, k)
            assert abs(value - k) < 1e-8
            assert value <= k  # certified lower bound approaching the limit


class TestHilbertSchmidt:
    def test_zero_symbol(self):
        assert op.hilbert_schmidt_norm_sq(S12, ps.from_coefficients([0.0]), 64) == 1.0

    def test_half_z_geometric(self):
        # ||(z/2)^n||^2 / ||z^n||^2 = 4^-n, so the sum telescopes to 4/3
        value = op.hilbert_schmidt_norm_sq(S12, ps.from_coefficients([0, 0.5]), 200)
        oracle = sum(0.25**n for n in range(201))
        assert abs(value - oracle) < 1e-13
        assert abs(value - 4.0 / 3.0) < 1e-13

    def test_bound_for_small_sup(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_poly(rng, max_degree=8, min_degree=1)
            f = ps.scale(f, 0.8 / sp.sup_norm(f))
            value = op.hilbert_schmidt_norm_sq(S12, f, 256)
            bound = 1.0 + 2.0 * sp.space_norm_sq(S12, f) / (1.0 - sp.sup_norm(f) ** 2)
            assert value <= bound


class TestIsometryDefect:
    z = ps.monomial(1)

    def test_s12_shift_is_3_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            assert abs(op.isometry_defect(S12, self.z, 3, random_poly(rng))) < 1e-12

    def test_s12_shift_beta2_at_one(self):
        # ||z^2||^2 - 2 ||z||^2 + 1 = 6 - 6 + 1
        assert op.isometry_defect(S12, self.z, 2, ps.one()) == 1.0

    def test_hardy_shift_isometric(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            assert abs(op.isometry_defect(sp.hardy(), self.z, 1, random_poly(rng))) < 1e-13

    def test_km_shifts(self):
        rng = np.random.default_rng(8)
        for m in (1, 2, 3):
            space = sp.km(m)
            for _ in range(5):
                probe = random_poly(rng, max_degree=8)
                probe = ps.scale(probe, 1.0 / sp.space_norm(space, probe))
                assert abs(op.isometry_defect(space, self.z, m + 2, probe)) < 1e-12
            assert op.isometry_defect(space, self.z, m + 1, ps.one()) == 1.0

    @pytest.mark.parametrize("symbol", [[1, 1], [1, -0.5, 0.25j]], ids=["1+z", "degree2"])
    def test_symbol_beyond_z_matches_binomial_sum(self, symbol):
        # m = 3 on S12: every power kept whole, summed term by term
        symbol = ps.from_coefficients(symbol)
        rng = np.random.default_rng(9)
        for _ in range(5):
            probe = random_poly(rng, max_degree=6)
            order = probe.order + 3 * symbol.degree()
            current, oracle = ps.truncate(probe, order), 0.0
            for k in range(4):
                oracle += (-1) ** (3 - k) * math.comb(3, k) * sp.space_norm_sq(S12, current)
                current = ps.cauchy_product(current, symbol, order)
            value = op.isometry_defect(S12, symbol, 3, probe)
            assert abs(value - oracle) <= 1e-12 * (1 + abs(oracle))
            assert abs(oracle) > 1.0  # M_(1+z) is no 3-isometry, so the check is not 0 = 0

    def test_rejects_order_below_one(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="isometry order"):
                op.isometry_defect(S12, self.z, m, ps.one())
            with pytest.raises(ValueError, match="isometry order"):
                op.blaschke_power_defect(S12, shift_z, m, ps.one(), 32)


class TestShiftClassification:
    def test_s12_weights(self):
        n = np.arange(64.0)
        result = op.shift_isometry_order((n + 3) / (n + 1), 6)
        assert result.order == 3
        assert np.max(np.abs(np.array(result.polynomial) - [1.0, 1.5, 0.5])) < 1e-8
        assert result.residual < 1e-10

    def test_constant_weights(self):
        result = op.shift_isometry_order(np.ones(48), 4)
        assert result.order == 1
        assert abs(result.polynomial[0] - 1.0) < 1e-12

    def test_s2_weights_unclassifiable(self):
        wsq = np.ones(64)
        n = np.arange(1.0, 64.0)
        wsq[1:] = (n + 1) ** 2 / n**2
        result = op.shift_isometry_order(wsq, 6)
        assert result.order is None
        assert result.residual > 1e-8

    def test_km_weights(self):
        from numpy.polynomial import polynomial as npoly

        n = np.arange(64.0)
        for m in (1, 2, 3):
            result = op.shift_isometry_order((n + m + 2) / (n + 1), m + 3)
            assert result.order == m + 2
            target = npoly.polyfromroots([-i for i in range(1, m + 2)]).real
            target /= target[0]
            assert np.max(np.abs(np.array(result.polynomial) - target)) < 1e-8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            op.shift_isometry_order([1.0, -2.0], 3)


class TestBlaschkeIdentities:
    def test_shift_symbol_weight_arithmetic(self):
        # ||z^3||^2 - 3||z^2||^2 + 3||z||^2 - 1 = 10 - 18 + 9 - 1
        value = op.blaschke_power_defect(S12, shift_z, 3, ps.one(), 32)
        assert value == 0.0
        w = S12.weights(3)
        assert (w[3], w[2], w[1]) == (10.0, 6.0, 3.0)

    def test_z_phi04_probes(self):
        report = op.blaschke_isometry_check(
            S12, bl.z_times_phi(0.4), [ps.one(), ps.from_coefficients([1, 1])], 1024
        )
        assert report.status == rp.PASS

    def test_phi_pair_probes(self):
        report = op.blaschke_isometry_check(
            S12, bl.phi_pair(0.5), [ps.one(), ps.monomial(1)], 1024
        )
        assert report.status == rp.PASS

    def test_s2_scale_correction(self):
        # for symbols vanishing at 0 the identity on the S2 scale misses
        # by exactly -|f(0)|^2
        value = op.blaschke_power_defect(sp.s2(), bl.z_times_phi(0.4), 3, ps.one(), 1024)
        assert abs(value + 1.0) < 1e-8

    def test_truncation_guard(self):
        psi = bl.BlaschkeProduct(1.0, (0.95, -0.95, 0.95j))
        with pytest.raises(TruncationError):
            op.blaschke_isometry_check(S12, psi, [ps.one()], 48)
        with pytest.raises(TruncationError, match="needs truncation >= 1587$") as info:
            op.blaschke_power_defect(S12, psi, 3, ps.one(), 48)
        assert info.value.needed == 1587
        op.blaschke_power_defect(S12, psi, 3, ps.one(), 1587)  # the order named holds it


class TestGrowthFormulas:
    def test_monomial_powers_on_s2(self):
        report = op.growth_formula_check(sp.s2(), shift_z, ps.one(), 6, tol=1e-12, order=64)
        assert report.status == rp.PASS
        for n in range(1, 7):
            assert sp.space_norm_sq(sp.s2(), ps.monomial(n)) == float(n * n)

    @pytest.mark.parametrize("space", [sp.s2(), S12])
    def test_blaschke_cases(self, space):
        for psi in (shift_z, bl.z_times_phi(0.3)):
            for f in (ps.one(), ps.from_coefficients([1, 1])):
                report = op.growth_formula_check(space, psi, f, 6, tol=1e-8, order=512)
                assert report.status == rp.PASS, (space.label, psi, f.coeffs)

    def test_phi_pair_on_s12(self):
        report = op.growth_formula_check(S12, bl.phi_pair(0.5), ps.monomial(1), 6, order=512)
        assert report.status == rp.PASS

    def test_direct_power_oracle(self):
        # independent check of one S2 case: build psi^4 f without the helper
        psi = bl.z_times_phi(0.3)
        f = ps.one()
        series = psi.series(400)
        u = ps.truncate(f, 400)
        for _ in range(4):
            u = ps.cauchy_product(u, series, 400)
        lhs = sp.space_norm_sq(sp.s2(), u)
        two = ps.cauchy_product(ps.cauchy_product(ps.truncate(f, 400), series, 400), series, 400)
        one_ = ps.cauchy_product(ps.truncate(f, 400), series, 400)
        n = 4
        rhs = (
            n * (n - 1) / 2 * sp.space_norm_sq(sp.s2(), two)
            - n * (n - 2) * sp.space_norm_sq(sp.s2(), one_)
            + (n - 1) * (n - 2) / 2 * (sp.space_norm_sq(sp.s2(), f) - 1.0)
        )
        assert abs(lhs - rhs) < 1e-8

    def test_rejects_other_spaces(self):
        with pytest.raises(ValueError):
            op.growth_formula_check(sp.hardy(), shift_z, ps.one(), 4)


class TestDirichletLinearity:
    def test_shift_monomials(self):
        report = op.dirichlet_linearity_check(shift_z, ps.one(), 5, order=64)
        assert report.status == rp.PASS

    @pytest.mark.parametrize(
        "psi,f,n_max",
        [
            (bl.BlaschkeProduct(1.0, (0.6,)), ps.one(), 5),
            (bl.z_times_phi(0.2), ps.from_coefficients([1, 0, 1]), 4),
        ],
    )
    def test_blaschke_cases(self, psi, f, n_max):
        report = op.dirichlet_linearity_check(psi, f, n_max, order=512)
        assert report.status == rp.PASS


class TestCompositionBounds:
    def test_zero_symbol(self):
        report = op.composition_norm_bound_check(S12, ps.from_coefficients([0.0]), n=64)
        assert report.status == rp.CONSISTENT
        est_sq = report.value("composition_norm_sq_estimate")
        assert abs(est_sq - 1.0) < 1e-12

    def test_d2_constant_half(self):
        report = op.composition_norm_bound_check(
            sp.dirichlet(), ps.from_coefficients([0.5]), n=256
        )
        assert report.status == rp.CONSISTENT
        est_sq = report.value("composition_norm_sq_estimate")
        lower = math.log(1.0 / 0.75) / 0.25
        assert abs(est_sq.real - lower) < 1e-10
        assert est_sq.real <= 3.0

    def test_half_z_on_s12(self):
        report = op.composition_norm_bound_check(S12, ps.from_coefficients([0, 0.5]), n=128)
        assert report.status == rp.CONSISTENT

    def test_precondition_large_multiplier(self):
        with pytest.raises(PreconditionError):
            op.composition_norm_bound_check(S12, ps.from_coefficients([0, 3.0]), n=64)

    def test_precondition_space(self):
        with pytest.raises(PreconditionError):
            op.composition_norm_bound_check(sp.bergman(), ps.from_coefficients([0, 0.5]), n=64)
