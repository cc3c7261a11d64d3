import cmath
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskops import report as rp
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import DomainError, TruncationError

SQRT2 = math.sqrt(2.0)


def random_poly(rng, max_degree=12):
    deg = int(rng.integers(0, max_degree + 1))
    return ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


class TestWeights:
    @pytest.mark.parametrize(
        "space,expected",
        [
            (sp.hardy(), [1, 1, 1, 1]),
            (sp.bergman(), [1, 0.5, 1 / 3, 0.25]),
            (sp.dirichlet(), [1, 2, 3, 4]),
            (sp.s2(), [1, 1, 4, 9]),
            (sp.s12(), [1, 3, 6, 10]),
            (sp.s22(), [1, 2, 5, 10]),
            (sp.dalpha(2.0), [1, 4, 9, 16]),
            (sp.km(2), [1, 4, 10, 20]),
        ],
    )
    def test_first_values(self, space, expected):
        assert np.allclose(space.weights(3), expected, rtol=1e-15)

    def test_km1_matches_s12(self):
        assert np.allclose(sp.km(1).weights(20), sp.s12().weights(20), rtol=1e-15)

    def test_kernel_coeffs_reciprocal_to_one_ulp(self):
        for space in (sp.s12(), sp.km(3), sp.dalpha(1.7), sp.s2()):
            w = space.weights(200)
            a = space.kernel_coeffs(200)
            assert np.max(np.abs(a * w - 1.0)) <= np.finfo(float).eps

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, -1.0])
    def test_dalpha_rejects_alpha_outside_finite_nonnegative(self, alpha):
        with pytest.raises(ValueError, match="finite alpha >= 0"):
            sp.dalpha(alpha)

    @pytest.mark.parametrize("space", [sp.dalpha(1e308), sp.dalpha(110.0), sp.km(200)])
    @pytest.mark.filterwarnings("error")  # the overflow raises once, with no numpy warning
    def test_overflowing_weight_is_a_domain_error(self, space):
        with pytest.raises(DomainError, match="weights overflow the float range"):
            space.weights(1024)

    def test_parse_space(self):
        assert sp.parse_space("S12").kind == sp.S12
        assert sp.parse_space("Dalpha:2.0").alpha == 2.0
        assert sp.parse_space("Km:3").m == 3
        with pytest.raises(ValueError):
            sp.parse_space("H2:1")


class TestNorms:
    def test_norm_of_constant(self):
        assert sp.space_norm(sp.s12(), ps.one()) == 1.0

    def test_monomial_norms_s12(self):
        for k in range(12):
            want = math.sqrt((k + 1) * (k + 2) / 2.0)
            assert abs(sp.space_norm(sp.s12(), ps.monomial(k)) - want) < 1e-15 * want

    def test_extremal_norm_is_sqrt2(self):
        extremal = sp.kernel_coefficient_series(sp.s12(), 1_000_000)
        assert abs(sp.space_norm(sp.s12(), extremal) - SQRT2) < 1e-6

    def test_decomposition_basics(self):
        assert sp.norm_decomposition_s12(ps.one()) == (1.0, 0.0, 0.0)
        assert sp.norm_decomposition_s12(ps.monomial(1)) == (1.0, 1.0, 1.0)

    def test_decomposition_matches_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = random_poly(rng, max_degree=10)
            h, b, hd = sp.norm_decomposition_s12(f)
            total = h + 1.5 * b + 0.5 * hd
            # oracle: the coefficient formula evaluated directly
            n = np.arange(f.order + 1)
            direct = float(((n + 1) * (n + 2) / 2.0) @ np.abs(f.coeffs) ** 2)
            assert abs(total - direct) < 1e-12 * direct

    def test_dirichlet_energy(self):
        assert sp.dirichlet_energy(ps.one()) == 0.0
        for n in range(1, 9):
            # || d/dz z^n ||_{A2}^2 = n^2 / n
            assert sp.dirichlet_energy(ps.monomial(n)) == float(n)

    def test_norm_relations(self):
        rng = np.random.default_rng(4)
        assert sp.norm_relation_check(ps.one()).status == rp.PASS
        assert sp.norm_relation_check(ps.monomial(1)).status == rp.PASS
        for _ in range(20):
            assert sp.norm_relation_check(random_poly(rng)).status == rp.PASS

    def test_norm_relation_values_for_z(self):
        f = ps.monomial(1)
        assert 2 * sp.space_norm_sq(sp.s12(), f) == 6.0
        rhs = (
            sp.space_norm_sq(sp.s2(), f)
            + 2 * sp.space_norm_sq(sp.hardy(), f)
            + 3 * sp.dirichlet_energy(f)
        )
        assert rhs == 6.0


class TestKernels:
    def test_series_at_zero(self):
        for space in (sp.s12(), sp.s2(), sp.km(2)):
            assert sp.kernel(space, 0.0, 0.5, terms=50) == 1.0

    def test_s12_at_zero_argument(self):
        assert sp.kernel(sp.s12(), 0.0, 0.9) == 1.0

    def test_h2_geometric(self):
        t = 0.37
        series = sp.kernel(sp.hardy(), t, 1.0, terms=400)
        assert abs(series - 1.0 / (1.0 - t)) < 1e-12

    def test_d2_closed_form_value(self):
        # sum t^n/(n+1) at t = 0.5 is 2 ln 2
        closed = sp.kernel(sp.dirichlet(), 0.5, 1.0)
        assert abs(closed - 2.0 * math.log(2.0)) < 1e-14
        series = sum(0.5**n / (n + 1) for n in range(200))
        assert abs(closed - series) < 1e-14

    def test_s12_closed_vs_series_raw_sum(self):
        # oracle: plain python accumulation, no shared code path
        w, z = 0.9, 0.9
        t = w * z
        oracle = sum(2.0 / ((n + 1) * (n + 2)) * t**n for n in range(10_000))
        closed = sp.kernel(sp.s12(), w, z)
        assert abs(closed - oracle) / abs(oracle) < 1e-9

    def test_closed_vs_series_grid(self):
        rng = np.random.default_rng(5)
        for space in (sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s12()):
            for _ in range(40):
                w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                closed = sp.kernel(space, w, z)
                series = sp.kernel(space, w, z, terms=10_000)
                assert abs(closed - series) / abs(closed) < 1e-9

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(6)
        for space in (sp.s12(), sp.s2(), sp.km(2)):
            for _ in range(25):
                w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                kwz = sp.kernel(space, w, z)
                kzw = sp.kernel(space, z, w)
                assert abs(kwz - np.conj(kzw)) < 1e-12 * (1 + abs(kwz))

    def test_reproducing_property(self):
        rng = np.random.default_rng(7)
        for space in (sp.s12(), sp.dirichlet(), sp.s22(), sp.km(3)):
            for _ in range(20):
                f = random_poly(rng)
                w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                kernel_coeffs = space.kernel_coeffs(f.order) * np.conj(w) ** np.arange(
                    f.order + 1
                )
                ip = sp.inner_product(space, f, ps.PowerSeries(kernel_coeffs))
                assert abs(ip - f(w)) < 1e-10 * (1 + abs(f(w)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sp.kernel(sp.s12(), 1.0, 1.0)
        with pytest.raises(DomainError):
            sp.kernel(sp.s12(), 1.2, 1.0, terms=10)

    def test_auto_matches_series_for_s2(self):
        value = sp.kernel(sp.s2(), 0.5, 0.5)
        direct = 1.0 + sum(0.25**n / n**2 for n in range(1, 300))
        assert abs(value - direct) < 1e-12

    def test_series_fails_fast_near_the_boundary(self):
        start = time.perf_counter()
        with pytest.raises(TruncationError, match=r"needs \d+ terms") as info:
            sp.kernel(sp.s2(), 0.9999, 0.9999)
        assert time.perf_counter() - start < 1.0
        # the count named comes from the closed-form majorant of a_n |t|^n <= (n+1) r^n: its
        # exact tail past that many terms is within 1e-12, and two terms fewer would be too
        count = int(re.search(r"needs (\d+) terms", str(info.value)).group(1))
        r = 0.9999**2

        def tail(m):
            return r**m * ((m + 1) * (1 - r) + r) / (1 - r) ** 2

        assert count > 200_000
        assert tail(count) <= 1e-12 < tail(count - 3)


KERNEL_SPACES = (sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s12(), sp.s2(), sp.s22(), sp.km(2),
                 sp.dalpha(1.5))
DISK_POINTS = st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_SPACES), st.lists(DISK_POINTS, min_size=1, max_size=8),
       st.lists(DISK_POINTS, min_size=1, max_size=8), st.sampled_from([None, 40]),
       st.floats(2e-4, 5e-3), st.floats(0.0, 2 * math.pi))
def test_kernel_array_calls(space, ws, zs, terms, small_r, small_phase):
    ws, zs = np.array(ws), np.array(zs)
    matrix = sp.kernel(space, ws[:, None], zs, terms=terms)
    scalars = np.array([[sp.kernel(space, w, z, terms=terms) for z in zs] for w in ws])
    if terms is None and not space.has_closed_form_kernel():
        # the array call sums the terms its largest |conj(w) z| needs, so at least as many
        assert np.all(np.abs(matrix - scalars) <= 2e-12 * (1 + np.abs(scalars)))
    else:
        # bitwise at these sizes; past 16,384 entries numpy computes temporaries
        # in place, where complex products round without FMA
        assert np.array_equal(matrix.view(float), scalars.view(float))
    transposed = sp.kernel(space, zs[:, None], ws, terms=terms)
    assert np.all(np.abs(matrix - np.conj(transposed.T)) < 1e-12 * (1 + np.abs(matrix)))
    if space.has_closed_form_kernel():
        t = np.append(ws[:, None] * zs, cmath.rect(small_r, small_phase))
        closed = sp.kernel(space, 1.0, t)
        series = sp.kernel(space, 1.0, t, terms=10_000)
        error = np.abs(closed - series) / np.abs(series)
        # below the 1e-3 switch the short sum is exact to rounding; above it
        # the log form keeps its documented cancellation loss
        assert np.all(error < np.where(np.abs(t) < 1e-3, 1e-13, 1e-9))


class TestSupNorm:
    def test_positive_coefficients_peak_at_one(self):
        f = ps.from_coefficients([1, 2, 1])
        assert abs(sp.sup_norm(f) - 4.0) < 1e-12

    def test_monomial(self):
        assert abs(sp.sup_norm(ps.monomial(7)) - 1.0) < 1e-12

    def test_pointwise_bound_sharpness(self):
        extremal = sp.kernel_coefficient_series(sp.s12(), 10_000)
        ratio = sp.sup_norm(extremal) / sp.space_norm(sp.s12(), extremal)
        assert ratio > SQRT2 - 1e-3
        assert ratio <= SQRT2 + 1e-12

    def test_upper_bound_between_samples(self):
        # |1 + e^(-i pi/M) z| peaks at 2 midway between two of the M samples, where the
        # samples read 2 cos(pi / 2M) at most; Bernstein's factor must cover that gap
        m, d = 4096, 1  # the sample count sup_bound starts from
        f = ps.from_coefficients([1, cmath.exp(-1j * math.pi / m)])
        sampled, bound = sp.sup_norm(f, m), sp.sup_bound(f)
        assert sampled < 2.0 <= bound
        assert bound / sampled <= 1.0 / (1.0 - math.pi * d / m) + 1e-12

    @pytest.mark.parametrize("coeffs", [[0.0], [0.3 - 0.4j], [0.25, 0.5j], [1, 2, 1], [0, 0, 0, 1]])
    def test_upper_bound_brackets_a_sampled_peak(self, coeffs):
        # constants and monomials are flat on the circle; 1 + 2z + z^2 peaks at the sample z = 1
        f = ps.from_coefficients(coeffs)
        peak = float(sum(abs(c) for c in coeffs))
        assert peak <= sp.sup_bound(f) <= peak / (1.0 - math.pi * f.degree() / 4096) + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=1, max_size=13),
       st.lists(st.floats(-1, 1), min_size=1, max_size=13))
def test_pointwise_and_algebra_bounds(re, im):
    n = min(len(re), len(im))
    f = ps.PowerSeries(np.array(re[:n]) + 1j * np.array(im[:n]))
    norm = sp.space_norm(sp.s12(), f)
    if norm == 0.0:
        return
    assert sp.sup_norm(f) <= SQRT2 * norm + 1e-12
    product = ps.cauchy_product(f, f, 2 * f.order)
    assert sp.space_norm(sp.s12(), product) < 2.0 * SQRT2 * norm * norm + 1e-12


def test_s32_alias_parses_to_dalpha_two():
    space = sp.parse_space("S32")
    assert space.kind == sp.DALPHA and space.alpha == 2.0
    assert np.allclose(space.weights(5), (1.0 + np.arange(6)) ** 2)
