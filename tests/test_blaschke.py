import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskops import blaschke as bl
from diskops import checks
from diskops import report as rp
from diskops import series as ps
from diskops.errors import DomainError


class TestMobiusMap:
    def test_swaps_zero_and_alpha(self):
        phi = bl.MobiusMap(0.4 + 0.1j)
        assert abs(phi(phi.alpha)) < 1e-15
        assert abs(phi(0.0) - phi.alpha) < 1e-15

    def test_series_coefficients(self):
        # (a - z) * geometric series in conj(a) z
        alpha = 0.5
        geom = ps.PowerSeries(alpha ** np.arange(12).astype(complex))
        oracle = ps.cauchy_product(ps.from_coefficients([alpha, -1.0]), geom, 11)
        mine = bl.MobiusMap(alpha).series(11)
        assert np.max(np.abs(mine.coeffs - oracle.coeffs)) < 1e-15

    def test_series_evaluates_to_map(self):
        phi = bl.MobiusMap(0.3 - 0.2j)
        series = phi.series(128)
        for z in (0.5, -0.4 + 0.3j, 0.7j):
            assert abs(series(z) - phi(z)) < 1e-12

    def test_rejects_modulus_one(self):
        with pytest.raises(DomainError):
            bl.MobiusMap(1.0)

    def test_derivative_series_formula(self):
        alpha = 0.3 + 0.1j
        closed = bl.MobiusMap(alpha).derivative_series(10)
        walked = ps.derivative(bl.MobiusMap(alpha).series(11))
        assert np.max(np.abs(closed.coeffs[:10] - walked.coeffs[:10])) < 1e-14

    # the error is 7.5e-6 at truncation 32 (a fail before the order was derived)
    # and 2.5e-9 at 54, under the bound 1.7 * 0.7^54 = 7.3e-9
    @pytest.mark.parametrize("truncation,status", [(32, rp.ERROR), (54, rp.PASS)])
    def test_involution_check_needs_truncation_54(self, monkeypatch, truncation, status):
        (fn,) = [fn for fn in checks.suite_checks("blaschke") if fn.check_id == "mobius_involution"]
        monkeypatch.setattr(checks, "_REGISTRY", {**checks._REGISTRY, "blaschke": [fn]})
        (report,) = checks.run_suite("blaschke", checks.Config(truncation=truncation))
        assert report.status == status
        if status == rp.ERROR:
            assert report.computed[0].label.endswith("needs truncation >= 54")


class TestBlaschkeProduct:
    def test_shift_product(self):
        psi = bl.BlaschkeProduct(-1.0, (0j,))
        assert psi.series(3) == ps.monomial(1, order=3)

    def test_boundary_modulus(self):
        rng = np.random.default_rng(0)
        zeta = bl.circle_nodes(256)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            zeros = rng.uniform(0, 0.8, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
            psi = bl.BlaschkeProduct(np.exp(1j * rng.uniform(0, 2 * np.pi)), tuple(zeros))
            assert np.max(np.abs(np.abs(psi(zeta)) - 1.0)) < 1e-10

    def test_series_tail_bound(self):
        psi = bl.z_times_phi(0.5)
        series = psi.series(64)
        wide = psi.series(256)
        assert np.max(np.abs(series.coeffs - wide.coeffs[:65])) == 0.0
        tail_mass = float(np.sum(np.abs(wide.coeffs[65:])))
        assert tail_mass <= psi.tail_bound(64)

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(DomainError):
            bl.BlaschkeProduct(1.0, (1.2,))
        with pytest.raises(DomainError):
            bl.BlaschkeProduct(0.5, (0.2,))

    def test_json_round_trip(self):
        psi = bl.z_times_phi(0.4 + 0.2j)
        assert bl.BlaschkeProduct.from_dict(psi.to_dict()) == psi

    def test_involution_composition(self):
        for alpha in (0.3, 0.5 + 0.2j, 0.7):
            phi = bl.MobiusMap(alpha).series(256)
            composed = ps.compose(phi, phi, 256)
            target = ps.monomial(1, order=256)
            assert np.max(np.abs(composed.coeffs - target.coeffs)) < 1e-8


class TestPoisson:
    def test_at_origin(self):
        zeta = bl.circle_nodes(256)
        assert np.allclose(bl.poisson_kernel(0.0, zeta), 1.0, rtol=1e-15)

    def test_mean_value(self):
        zeta = bl.circle_nodes(4096)
        assert abs(bl.circle_mean(bl.poisson_kernel(0.3 + 0.2j, zeta)) - 1.0) < 1e-12

    def test_moments_match_power(self):
        alpha = 0.3 + 0.2j
        for k in range(6):
            quad = bl.poisson_moment(alpha, k, 4096)
            assert abs(quad - np.conj(alpha) ** k) < 1e-10

    def test_rejects_off_circle(self):
        with pytest.raises(DomainError):
            bl.poisson_kernel(0.3, 0.5)

    def test_product_moment_values(self):
        assert abs(bl.poisson_product_moment(0.5, 0, 1024) - 0.6) < 1e-12
        quad = bl.poisson_product_moment(0.4j, 2, 1024)
        closed = (1.0 - 0.16) / (1.0 + 0.16) * np.conj(0.4j) ** 2
        assert abs(quad - closed) < 1e-10

    def test_product_moment_sweep(self):
        for radius in (0.1, 0.3, 0.5, 0.7):
            for phase in (0.0, np.pi / 4, np.pi / 2):
                alpha = radius * np.exp(1j * phase)
                for k in range(9):
                    quad = bl.poisson_product_moment(alpha, k, 4096)
                    closed = bl.poisson_product_moment_closed(alpha, k)
                    if k % 2:
                        assert abs(quad) < 1e-12
                    else:
                        assert abs(quad - closed) < 1e-10

    def test_node_count_contract(self):
        with pytest.raises(ValueError):
            bl.poisson_product_moment(0.3, 0, 100)
        with pytest.raises(ValueError):
            bl.poisson_product_moment(0.3, 0, 300)


class TestPhiPrimeMoments:
    def test_alpha_zero(self):
        assert bl.phi_prime_moment(0.0, 0) == 1.0

    def test_half_k0(self):
        assert abs(bl.phi_prime_moment(0.5, 0) - 1.25 / 0.75) < 1e-15

    def test_closed_vs_series_sweep(self):
        for radius in (0.1, 0.3, 0.5, 0.7):
            for phase in (0.0, np.pi / 4, np.pi / 2):
                alpha = radius * np.exp(1j * phase)
                for k in (0, 1, 3, 8):
                    closed = bl.phi_prime_moment(alpha, k)
                    series = bl.phi_prime_moment_series(alpha, k, 2000)
                    assert abs(closed - series) / abs(closed) < 1e-9

    def test_specific_complex_case(self):
        alpha = 0.3 + 0.1j
        closed = bl.phi_prime_moment(alpha, 3)
        series = bl.phi_prime_moment_series(alpha, 3, 2000)
        assert abs(closed - series) / abs(closed) < 1e-9


class TestAdjointExpansions:
    def test_z_phi_alpha_zero(self):
        c = bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, 0.0, 8).coeffs
        assert c[0] == 4.0
        assert np.max(np.abs(c[1:])) == 0.0

    def test_z_phi_half_leading_terms(self):
        c = bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, 0.5, 8).coeffs
        plus = 1.25 / 0.75
        assert abs(c[0] - (3.0 + plus)) < 1e-14
        assert abs(c[1] - (4.0 * 0.5 + plus * 0.5)) < 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 0.3 + 0.1j, -0.45j])
    def test_z_phi_matches_oracle(self, alpha):
        closed = bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, alpha, 16)
        oracle = bl.adjoint_symbol_series_oracle(bl.VARIANT_Z_PHI, alpha, 16, order=400)
        scale = np.maximum(np.abs(oracle.coeffs), 1e-3)
        assert np.max(np.abs(closed.coeffs - oracle.coeffs) / scale) < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 0.4j, 0.2 + 0.3j])
    def test_phi_pair_matches_oracle(self, alpha):
        closed = bl.adjoint_symbol_expansion(bl.VARIANT_PHI_PAIR, alpha, 16)
        oracle = bl.adjoint_symbol_series_oracle(bl.VARIANT_PHI_PAIR, alpha, 16, order=400)
        scale = np.maximum(np.abs(oracle.coeffs), 1e-3)
        assert np.max(np.abs(closed.coeffs - oracle.coeffs) / scale) < 1e-8

    def test_phi_pair_odd_coefficients_vanish(self):
        closed = bl.adjoint_symbol_expansion(bl.VARIANT_PHI_PAIR, 0.5, 15)
        assert np.max(np.abs(closed.coeffs[1::2])) == 0.0
        oracle = bl.adjoint_symbol_series_oracle(bl.VARIANT_PHI_PAIR, 0.5, 15, order=400)
        assert np.max(np.abs(oracle.coeffs[1::2])) < 1e-12


class TestAdjointDistinctness:
    def test_half_gap_exceeds_tenth(self):
        report = bl.adjoint_distinctness_check(0.5, tol=0.1)
        assert report.status == rp.PASS
        gap = report.value("gap")
        assert gap.real > 0.1

    def test_small_alpha_nonzero(self):
        report = bl.adjoint_distinctness_check(0.1, tol=1e-6)
        assert report.status == rp.PASS

    def test_gap_vanishes_continuously(self):
        gaps = []
        for alpha in (0.2, 0.1, 0.05, 0.025):
            report = bl.adjoint_distinctness_check(alpha, tol=0.0)
            gaps.append(report.value("gap").real)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            bl.adjoint_distinctness_check(0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.7), st.floats(0, 2 * math.pi))
def test_involution_property(radius, phase):
    alpha = radius * math.cos(phase) + 1j * radius * math.sin(phase)
    phi = bl.MobiusMap(alpha).series(192)
    composed = ps.compose(phi, phi, 192)
    target = ps.monomial(1, order=192)
    assert np.max(np.abs(composed.coeffs - target.coeffs)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 0.8), st.floats(0.0, 0.8), st.floats(0, 2 * math.pi))
def test_inner_series_modulus(r1, r2, phase):
    psi = bl.BlaschkeProduct(np.exp(1j * phase), (r1, -r2 * np.exp(1j * phase)))
    order = 256
    series = psi.series(order)
    zeta = bl.circle_nodes(256)
    values = ps.evaluate_many(series, zeta)
    tail = psi.tail_bound(order)
    assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-8 + 2 * tail
