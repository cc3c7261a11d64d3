import math

import numpy as np
import pytest

from diskops import checks, cli
from diskops import pick as pk
from diskops import report as rp
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import DomainError, ShapeError


class TestKaluza:
    def test_s12_passes_strictly(self):
        first, margin = pk.log_convexity(sp.s12(), 10_000)
        assert first == -1
        assert margin > 0.0

    def test_hardy_passes_with_equality(self):
        first, margin = pk.log_convexity(sp.hardy(), 500)
        assert first == -1
        assert margin == 0.0

    def test_s2_fails_at_one(self):
        # a_1^2 = 1 while a_0 a_2 = 1/4
        first, _ = pk.log_convexity(sp.s2(), 50)
        assert first == 1

    def test_km_passes(self):
        for m in (1, 2, 3):
            assert pk.log_convexity(sp.km(m), 2000)[0] == -1

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_an_empty_range(self, n_max):
        with pytest.raises(ValueError, match=f"n_max = {n_max}$"):
            pk.log_convexity(sp.s12(), n_max)


class TestReciprocalSign:
    def test_s12_all_nonpositive(self):
        report = pk.reciprocal_sign_check(sp.s12(), 2000)
        assert report.status == rp.PASS

    def test_s2_violation(self):
        c = pk.reciprocal_kernel_coefficients(sp.s2(), 8)
        assert abs(c[0] - 1.0) < 1e-12
        assert abs(c[1] + 1.0) < 1e-12
        assert abs(c[2] - 0.75) < 1e-12
        report = pk.reciprocal_sign_check(sp.s2(), 8)
        assert report.status == rp.FAIL
        first = {v.label: v.value for v in report.computed}["first_violation_index"]
        assert first.real == 2

    def test_s22_violation(self):
        c = pk.reciprocal_kernel_coefficients(sp.s22(), 8)
        assert abs(c[1] + 0.5) < 1e-12
        assert abs(c[2] - 0.05) < 1e-12
        report = pk.reciprocal_sign_check(sp.s22(), 8)
        assert report.status == rp.FAIL
        first = {v.label: v.value for v in report.computed}["first_violation_index"]
        assert first.real == 2

    @pytest.mark.parametrize(
        "c, first",
        [
            ([1.0, -0.5, pk.DEFAULT_SIGN_TOL], -1),  # the rule is strictly above the tolerance
            ([1.0, -0.5, np.nextafter(pk.DEFAULT_SIGN_TOL, 1.0)], 2),
            ([1.0], -1),
        ],
    )
    def test_first_sign_violation(self, c, first):
        c = np.array(c)
        reference = next((n for n in range(1, len(c)) if c[n] > pk.DEFAULT_SIGN_TOL), -1)
        assert pk.first_sign_violation(c) == reference == first

    def test_hardy_exact_zeros_within_tolerance(self):
        assert pk.reciprocal_sign_check(sp.hardy(), 100).status == rp.PASS

    def test_kaluza_implies_sign_pattern(self):
        # sufficiency direction on every space that passes log-convexity
        for space in (sp.s12(), sp.hardy(), sp.bergman(), sp.dirichlet(), sp.km(2),
                      sp.dalpha(1.3)):
            if pk.log_convexity(space, 400)[0] == -1:
                assert pk.reciprocal_sign_check(space, 400).status == rp.PASS


class TestPickMatrix:
    def test_single_node(self):
        problem = pk.PickProblem(sp.s12(), (0.4,), (0.0,))
        m = pk.pick_matrix(problem)
        assert m.shape == (1, 1) and m[0, 0].real > 0

    def test_counterexample_corner(self):
        problem = pk.PickProblem(sp.s2(), (0.0, 0.5), (0.0, math.sqrt(0.1)))
        m = pk.pick_matrix(problem)
        assert abs(m[0, 0] - 1.0) < 1e-12
        assert abs(m[0, 1] - 1.0) < 1e-12
        assert abs(m[1, 1] - 1.1409) < 5e-4
        assert pk.psd_check(m).is_psd

    def test_gram_positivity(self):
        rng = np.random.default_rng(1)
        for space in (sp.s12(), sp.hardy(), sp.s2()):
            nodes = tuple(
                rng.uniform(0.05, 0.85) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                for _ in range(7)
            )
            problem = pk.PickProblem(space, nodes, (0.0,) * 7)
            verdict = pk.psd_check(pk.pick_matrix(problem))
            assert verdict.is_psd

    def test_zero_targets_scale_at_least_one(self):
        # each diagonal entry is K(z, z) >= a_0 = 1, so is_psd agrees with a floor on
        # min eig / max(scale, 1)
        rng = np.random.default_rng(4)
        for space in (sp.s12(), sp.hardy(), sp.dirichlet(), sp.s2()):
            nodes = tuple(
                rng.uniform(0.05, 0.85) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                for _ in range(8)
            )
            verdict = pk.psd_check(pk.pick_matrix(pk.PickProblem(space, nodes, (0.0,) * 8)))
            assert verdict.matrix_scale >= 1.0
            floor = verdict.min_eigenvalue / max(verdict.matrix_scale, 1.0) >= -pk.DEFAULT_PSD_TOL
            assert verdict.is_psd == floor

    def test_unimodular_target_scaling_invariance(self):
        rng = np.random.default_rng(2)
        nodes = (0.1, 0.4j, -0.3)
        targets = tuple(rng.uniform(-0.4, 0.4, 3) + 1j * rng.uniform(-0.4, 0.4, 3))
        base = pk.pick_matrix(pk.PickProblem(sp.s12(), nodes, targets))
        phase = np.exp(0.77j)
        rotated = pk.pick_matrix(
            pk.PickProblem(sp.s12(), nodes, tuple(phase * t for t in targets))
        )
        assert np.max(np.abs(base - rotated)) < 1e-15

    def test_closed_and_series_modes_agree(self):
        problem = pk.PickProblem(sp.s12(), (0.2, 0.5j), (0.1, 0.2))
        closed = pk.pick_matrix(problem)
        nodes, targets = np.array(problem.nodes), np.array(problem.targets)
        kernel = sp.kernel(problem.space, nodes[:, None], nodes, terms=200)
        series = (1.0 - np.conj(targets)[:, None] * targets) * kernel
        assert np.max(np.abs(closed - series)) < 1e-11

    @pytest.mark.parametrize("seed", range(10))
    def test_verdict_is_that_of_the_retired_symmetrized_matrix(self, seed):
        # pick_matrix returns the matrix as assembled and psd_check symmetrizes it; the retired
        # pick_matrix symmetrized it first, exactly Hermitian, so psd_check gave it back: the
        # verdict, least eigenvalue and scale are the same, bit for bit
        def retired(problem):
            m = pk.pick_matrix(problem)
            return 0.5 * (m + m.conj().T)

        rng = np.random.default_rng(seed)
        for space in (sp.s12(), sp.hardy(), sp.dirichlet(), sp.s2(), sp.s22(), sp.km(2),
                      sp.dalpha(1.5)):
            count = int(rng.integers(1, 13))
            nodes = rng.uniform(0.0, 0.95, count) * np.exp(2j * np.pi * rng.uniform(size=count))
            targets = rng.uniform(-0.7, 0.7, count) + 1j * rng.uniform(-0.7, 0.7, count)
            problem = pk.PickProblem(space, tuple(nodes), tuple(targets))
            assert pk.psd_check(pk.pick_matrix(problem)) == pk.psd_check(retired(problem))

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            pk.PickProblem(sp.s12(), (0.3, 0.3), (0.0, 0.0))

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            pk.PickProblem(sp.s12(), (1.5,), (0.0,))


class TestPsdCheck:
    def test_identity(self):
        verdict = pk.psd_check(np.eye(4))
        assert verdict.is_psd and verdict.min_eigenvalue == 1.0

    def test_indefinite_diagonal(self):
        verdict = pk.psd_check(np.diag([1.0, -0.1]))
        assert not verdict.is_psd

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            pk.psd_check(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            pk.psd_check(m)

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        herm = a + a.conj().T
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        before = pk.psd_check(herm)
        after = pk.psd_check(q @ herm @ q.conj().T)
        assert before.is_psd == after.is_psd
        assert abs(before.min_eigenvalue - after.min_eigenvalue) < 1e-10


class TestScalarPickCounterexample:
    def test_values(self):
        (check,) = [fn for fn in checks.suite_checks("pick") if fn.check_id == "scalar_pick_gap"]
        report = check(checks.Config())
        assert report.status == rp.PASS
        values = {v.label: v.value.real for v in report.computed}
        assert abs(values["pick_condition_value"] - 1.1409) < 5e-4
        assert abs(values["attainable_target_sq"] - 0.0706) < 5e-4
        assert values["pick_condition_value"] > 1.0
        assert values["attainable_target_sq"] < 0.1
        # with Hardy weights the same sum is the geometric 1/3 >= 0.1
        assert abs(values["hardy_attainable_sq"] - 1.0 / 3.0) < 1e-10


class TestCorona:
    def test_constant_symbol_delta_one(self):
        verdict = pk.corona_kernel_check(sp.s12(), [ps.one()], 1.0)
        assert verdict.is_psd
        assert abs(verdict.min_eigenvalue) < 1e-12

    def test_constant_symbol_inflated_delta(self):
        verdict = pk.corona_kernel_check(sp.s12(), [ps.one()], 1.1)
        assert not verdict.is_psd

    def test_partition_pair_grids(self):
        symbols = [ps.monomial(1), ps.from_coefficients([1, -1])]
        small = pk.corona_kernel_check(
            sp.s12(), symbols, 0.1, grid=pk.default_corona_grid(radii=(0.3, 0.7), phases=4)
        )
        doubled = pk.corona_kernel_check(
            sp.s12(), symbols, 0.1,
            grid=pk.default_corona_grid(radii=(0.2, 0.45, 0.7, 0.85), phases=4),
        )
        assert small.is_psd and doubled.is_psd

    def test_grid_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            pk.corona_kernel_check(sp.s12(), [ps.one()], 0.5, grid=[0.5, 1.5])

    def test_problem_json(self):
        problem = cli._read_pick_problem(
            {"space": "S2", "nodes": [[0, 0], [0.5, 0]], "targets": [[0, 0], [0.3, 0]]}
        )
        assert problem.space.kind == sp.S2
        assert problem.nodes == (0j, 0.5 + 0j)
