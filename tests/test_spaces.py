import cmath
import functools
import math
import re
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from diskops import checks
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import DomainError, TruncationError

SQRT2 = math.sqrt(2.0)


# ||z^n||^2 of every kind with a weight_polynomial, written out as products
_PRODUCT_FORMS = {
    "H2": lambda n: np.ones_like(n),
    "D2": lambda n: n + 1,
    "S12": lambda n: (n + 1) * (n + 2) / 2.0,
    "S22": lambda n: 1.0 + n * n,
    "Km:1": lambda n: (n + 1) * (n + 2) / 2.0,
    "Dalpha:0": lambda n: (1.0 + n) ** 0.0,
    "Dalpha:1": lambda n: (1.0 + n) ** 1.0,
    "Dalpha:2": lambda n: (1.0 + n) ** 2.0,
}


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

    @pytest.mark.parametrize(
        "space",
        [sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s2(), sp.s12(), sp.s22(), sp.dalpha(1.5),
         sp.km(3)],
        ids=lambda s: s.label,
    )
    def test_cached_weights_are_read_only_and_bitwise(self, space):
        for n in (0, 7, 1024):
            w = space.weights(n)
            assert w is space.weights(n)
            assert w.tobytes() == space.weight(np.arange(n + 1)).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 2.0

    def test_km1_matches_s12(self):
        assert np.allclose(sp.km(1).weights(20), sp.s12().weights(20), rtol=1e-15)

    @pytest.mark.parametrize("name", ["H2", "A2", "D2", "S2", "S12", "S22", "Dalpha:0",
                                      "Dalpha:1", "Dalpha:1.5", "Dalpha:2", "Km:1", "Km:2"])
    def test_weight_polynomial_is_the_weight(self, name):
        # every weight that is a0 + a1 n + a2 n^2 names its coefficients, and weight reads it as
        # a0 + n (a1 + a2 n): below 2^20 every product and sum is an integer or a half under
        # 2^53, so it is the product form below bit for bit; A2, S2 (1 at n = 0 and 1),
        # Dalpha:1.5 and Km:2 (cubic) name none
        space = sp.parse_space(name)
        poly = space.weight_polynomial
        assert (poly is None) == (name not in _PRODUCT_FORMS)
        if poly:
            n = np.arange(2.0**20)
            assert np.array_equal(space.weight(n), _PRODUCT_FORMS[name](n))
            assert np.array_equal(space.weight(n), poly[0] + poly[1] * n + poly[2] * n * n)

    def test_kernel_coeffs_reciprocal_to_one_ulp(self):
        for space in (sp.s12(), sp.km(3), sp.dalpha(1.7), sp.s2()):
            w = space.weights(200)
            a = space.kernel_coeffs(200)
            assert np.max(np.abs(a * w - 1.0)) <= np.finfo(float).eps

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, -1.0])
    def test_dalpha_rejects_alpha_outside_finite_nonnegative(self, alpha):
        with pytest.raises(ValueError, match="finite alpha >= 0"):
            sp.dalpha(alpha)

    @pytest.mark.parametrize("space", [sp.dalpha(1e308), sp.dalpha(110.0), sp.km(169)])
    @pytest.mark.filterwarnings("error")  # the overflow raises once, with no numpy warning
    def test_overflowing_weight_is_a_domain_error(self, space):
        with pytest.raises(DomainError, match="weights overflow the float range"):
            space.weights(1024)

    @pytest.mark.parametrize("m", [170, 200, 10**9])
    def test_km_past_170_is_refused_at_construction(self, m):
        # (m+1)! overflows for m >= 170, so every weight does: no loop over m+1 factors runs
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"Km:{m} weights overflow the float range"):
            sp.km(m)
        assert time.perf_counter() - start < 0.5
        assert abs(sp.km(169).weights(0)[0] - 1.0) < 1e-13  # 170! is still finite
        assert np.array_equal(sp.km(2).weights(3), [1, 4, 10, 20])

    def test_parse_space(self):
        assert sp.parse_space("S12").kind == sp.S12
        assert sp.parse_space("Dalpha:2.0").alpha == 2.0
        assert sp.parse_space("Km:3").m == 3
        # a colon takes a parameter, and Dalpha and Km need one, named in one line
        for name, message in [("H2:1", "takes no parameter"), ("H2:", "takes no parameter"),
                              ("S12:", "takes no parameter"), ("S32:", "takes no parameter"),
                              ("Dalpha", "needs its parameter alpha, as in Dalpha:1.5"),
                              ("Dalpha:", "needs its parameter alpha, as in Dalpha:1.5"),
                              ("Km", "needs its parameter m, as in Km:3"),
                              ("Km:", "needs its parameter m, as in Km:3")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                sp.parse_space(name)


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

    @pytest.mark.parametrize("k", [600, -600])
    @pytest.mark.parametrize("name", ["H2", "S12", "D2"])
    def test_scales_by_powers_of_two_exactly(self, name, k):
        # the sum runs at unit scale, so the squares of 2^k f neither overflow nor underflow;
        # at unit scale the norm is the square root of the unscaled sum, bit for bit
        space = sp.parse_space(name)
        f = ps.from_coefficients([1.0, 1.0, 0.3 - 0.2j, -0.7j])
        norm = sp.space_norm(space, f)
        assert norm == math.sqrt(sp.space_norm_sq(space, f))
        assert sp.space_norm(space, ps.PowerSeries(f.coeffs * 2.0**k)) == 2.0**k * norm
        ip = sp.inner_product(space, f, f)
        assert sp.inner_product(space, ps.PowerSeries(f.coeffs * 2.0**k), f) == 2.0**k * ip

    @pytest.mark.parametrize("length", [*range(1, 26), 257, 1025])
    def test_batched_norms_are_the_single_row_dot(self, length):
        # each row of a batch rounds as the 1-d dot of that row alone at its own unit scale,
        # the norm space_norm took before it became a batch of one, bit for bit; a gemv
        # rows @ w rounds by position and misses this on hundreds of rows
        rng = np.random.default_rng(length)
        count = 200 if length < 100 else 20
        shape = (count, length)
        scales = 2.0 ** rng.integers(-600, 600, (count, 1))
        rows = scales * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
        w = sp.s12().weights(length - 1)
        single = []
        for row in rows:
            e = math.frexp(np.abs(row.view(np.float64)).max())[1]
            m = np.ldexp(row.view(np.float64), -e).view(np.complex128)
            single.append(math.ldexp(math.sqrt(np.abs(m) ** 2 @ w), e))
        assert sp.space_norms(sp.s12(), rows).tolist() == single
        assert [sp.space_norm(sp.s12(), ps.PowerSeries(row)) for row in rows] == single

    @pytest.mark.parametrize("length", [*range(1, 26), 257, 1025])
    def test_squared_norms_are_the_retired_single_row_dot(self, length):
        # space_norm_sq, dirichlet_energy and each row of a _scaled_sums batch equal the retired
        # _scaled_sum_sq, one 1-d dot at the row's unit scale and one scalar ldexp_norm, bit
        # for bit, and past the float range raise its DomainError; a gemv rows @ w rounds by
        # position and misses this
        def retired(weights, f):
            m, e = ps.frexp(f.coeffs)
            return ps.ldexp_norm(float(np.abs(m) ** 2 @ weights), 2 * e)

        def outcome(squared, *args):
            try:
                return squared(*args)
            except DomainError as exc:
                return str(exc)

        rng = np.random.default_rng(length)
        count = 100 if length < 100 else 10
        shape = (count, length)
        rows = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        refused = 0
        for scale in (2.0**-600, 2.0**-300, 1.0, 2.0**300, 2.0**600):
            for space in (sp.s12(), sp.hardy(), sp.km(2)):
                w = space.weights(length - 1)
                want = [outcome(retired, w, ps.PowerSeries(row)) for row in scale * rows]
                got = [outcome(sp.space_norm_sq, space, ps.PowerSeries(row)) for row in scale * rows]
                assert got == want
                refused += want.count("the norm overflows the float range")
                sums, e = sp._scaled_sums(w, scale * rows)
                assert [outcome(ps.ldexp_norm, x, 2 * k) for x, k in zip(sums, e)] == want
            w = np.arange(float(length))
            want = [outcome(retired, w, ps.PowerSeries(row)) for row in scale * rows]
            assert [outcome(sp.dirichlet_energy, ps.PowerSeries(row)) for row in scale * rows] == want
        assert refused == 3 * count  # every row at 2^600, in each space

    def test_rows_of_many_lengths_are_each_its_own_dot(self):
        # zero-padded rows given their lengths: each norm is space_norm of the row cut to its
        # length, whose sum of squares a padded dot can round otherwise
        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 26, 400)
        rows = np.zeros((400, 25), dtype=np.complex128)
        for row, n in zip(rows, lengths):
            row[:n] = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        want = [sp.space_norm(sp.s12(), ps.PowerSeries(row[:n])) for row, n in zip(rows, lengths)]
        assert sp.space_norms(sp.s12(), rows, lengths).tolist() == want

    def test_norm_past_the_float_range(self):
        with pytest.raises(DomainError, match="the norm overflows the float range"):
            sp.space_norm(sp.s12(), ps.from_coefficients([1e308, 1e308]))
        # the squared norms of 1e200 (1 + z) are past the float range, and those of
        # 1e-200 (1 + z) below it, where both norms are not: a DomainError or 0, never the
        # inf of unscaled squares, or the nan of 0 * inf at the zero Dirichlet weight
        huge, tiny = ps.from_coefficients([1e200, 1e200]), ps.from_coefficients([1e-200, 1e-200])
        assert sp.space_norm(sp.s12(), huge) > 1e200 and sp.space_norm(sp.s12(), tiny) > 1e-200
        for squared in (lambda f: sp.space_norm_sq(sp.s12(), f), sp.dirichlet_energy,
                        lambda f: max(sp.norm_decomposition_s12(f))):
            with pytest.raises(DomainError, match="overflows the float range"):
                squared(huge)
            assert squared(tiny) == 0.0
        with pytest.raises(DomainError, match="overflows the float range"):
            sp.norm_identity_residuals(huge)
        # <f, g> runs at the scale of each: weight times 1e308 would overflow before 1e-300
        big, small = ps.from_coefficients([1e308, 1e308]), ps.from_coefficients([1e-300, 1e-300])
        assert sp.inner_product(sp.s12(), big, small) == pytest.approx(4e8, rel=1e-15)
        with pytest.raises(DomainError, match="overflows the float range"):
            sp.inner_product(sp.s12(), huge, huge)

    @pytest.mark.parametrize("order", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    @pytest.mark.parametrize("name", ["H2", "D2", "S12", "S2", "Km:2"])
    def test_kernel_norm_sq_matches_the_whole_series(self, name, order):
        # block edges at multiples of 2^16: only the order of summation differs
        space = sp.parse_space(name)
        whole = sp.space_norm(space, sp.kernel_coefficient_series(space, order)) ** 2
        assert abs(sp.kernel_norm_sq(space, order) - whole) <= 1e-13 * whole

    def test_kernel_norm_sq_telescopes(self):
        # sum 2/((n+1)(n+2)) over n <= N is 2 - 2/(N+2); on H2 every term is exactly 1
        n = 1_000_000
        want = 2.0 - 2.0 / (n + 2)
        assert abs(sp.kernel_norm_sq(sp.s12(), n) - want) <= 4 * math.ulp(want)
        assert sp.kernel_norm_sq(sp.hardy(), n) == n + 1

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
        for f in [ps.one(), ps.monomial(1)] + [random_poly(rng) for _ in range(20)]:
            residual_a, residual_b, scale = sp.norm_identity_residuals(f)
            assert max(residual_a, residual_b) < 1e-10 * scale

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
        for space in (sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s12(), sp.s2(), sp.s22(),
                      sp.km(2)):
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


@pytest.mark.parametrize("space", [sp.s12(), sp.hardy(), sp.bergman(), sp.dirichlet()],
                         ids=lambda s: s.label)
def test_kernel_grid_at_its_cut_is_the_retired_10000_terms_within_rounding(space):
    # The grid of kernel_closed_vs_series_*: the series through ``series_terms`` for eps/4 of
    # the least |closed| against the 10,001 terms it replaced.  Their partial sums differ by
    # the tail between the two counts, at most that eps/4.  ``evaluate_many`` builds t^n from
    # about n complex products, 2.83 u each (u = eps / 2), and rounds each block sum and
    # Horner step, about b + 4 q + 2 times (b = ceil(sqrt(m)), q = ceil(m / b), for m terms),
    # so each value lies within u (3 sum n a_n r^n + (b + 4 q + 2) sum a_n r^n) of its partial
    # sum, r the largest |t| (a_n r^n bounds every term); b + 4 q + 2 <= 5 sqrt(m) + 7.  The
    # radius adds that eps/4 and both evaluations' roundings.
    eps = np.finfo(np.float64).eps
    ws = checks._disk_grid(20, 0.9, 0.0)[:, None]
    zs = checks._disk_grid(20, 0.9, 0.17)
    closed = sp.kernel(space, ws, zs)
    r = float(np.abs(ws * zs).max())
    count = sp.series_terms(r, eps / 4 * float(np.abs(closed).min()))
    assert 200 < count < 250
    cut = sp.kernel(space, ws, zs, terms=count - 1)
    retired = sp.kernel(space, ws, zs, terms=10_000)
    n = np.arange(10_001.0)
    terms = space.kernel_coeffs(10_000) * r**n
    blocks = 5 * (math.sqrt(count) + math.sqrt(10_001)) + 14
    rounding = eps / 2 * (6 * (n @ terms) + blocks * terms.sum())
    assert np.max(np.abs(cut - retired)) <= eps / 4 * np.abs(closed).min() + rounding


def test_series_terms_is_the_least_count_within_tol():
    # the count's majorant tail sum_{n > count} n r^(n-1) bounds the kernel tail past
    # degree count - 1, and is within tol there but not one term earlier
    for r, tol in ((0.81, 1e-16), (0.5, 1e-12), (0.9, 1e-3)):
        count = sp.series_terms(r, tol)
        n = np.arange(1, 20_000.0)
        tail = np.cumsum((n * r ** (n - 1))[::-1])[::-1]  # tail[j] sums n >= j + 1
        assert tail[count] <= tol < tail[count - 1]
    assert sp.series_terms(0.0, 1e-12) == 1


KERNEL_SPACES = (sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s12(), sp.s2(), sp.s22(), sp.km(2),
                 sp.dalpha(1.5))
DISK_POINTS = st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_SPACES), st.lists(DISK_POINTS, min_size=1, max_size=8),
       st.lists(DISK_POINTS, min_size=1, max_size=8), st.sampled_from([None, 40]),
       st.floats(2e-4, 5e-3), st.floats(0.0, 2 * math.pi))
# just below and just above the short-sum switch at |t| = 1e-3, on both log forms
@example(sp.s12(), [0.5], [0.5], None, 9e-4, 0.4)
@example(sp.s12(), [0.5], [0.5], None, 1.1e-3, 0.4)
@example(sp.dirichlet(), [0.5], [0.5], None, 9e-4, 0.0)
@example(sp.dirichlet(), [0.5], [0.5], None, 1.1e-3, 0.0)
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
        lo, hi = sp.sup_bracket(f)
        assert abs(lo - 4.0) < 1e-12 and lo <= 4.0 <= hi

    def test_monomial(self):
        lo, hi = sp.sup_bracket(ps.monomial(7))
        assert abs(lo - 1.0) < 1e-12 and lo <= 1.0 <= hi

    def test_pointwise_bound_sharpness(self):
        # at degree 10^4 the upper side is 1.9 times the lower one, so only lo shows the ratio
        extremal = sp.kernel_coefficient_series(sp.s12(), 10_000)
        ratio = sp.sup_bracket(extremal)[0] / sp.space_norm(sp.s12(), extremal)
        assert ratio > SQRT2 - 1e-3
        assert ratio <= SQRT2 + 1e-12

    @pytest.mark.parametrize("c", [0.5, 0.3 - 0.9j, 0.0])
    def test_upper_bound_of_a_constant_is_exact(self, c):
        assert sp.sup_bracket(ps.from_coefficients([c, 0, 0])) == (abs(c), abs(c))

    def test_upper_bound_between_samples(self):
        # |1 + e^(-i pi/M) z| peaks at 2 midway between two of the M samples, where the
        # samples read 2 cos(pi / 2M) at most; Bernstein's factor must cover that gap
        m, d = 4096, 1  # the sample count of sup_bracket at degree 1
        f = ps.from_coefficients([1, cmath.exp(-1j * math.pi / m)])
        lo, hi = sp.sup_bracket(f)
        assert lo < 2.0 <= hi
        assert hi / lo <= 1.0 / (1.0 - math.pi * d / m) + 1e-12

    @pytest.mark.parametrize("coeffs", [[0.0], [0.3 - 0.4j], [0.25, 0.5j], [1, 2, 1], [0, 0, 0, 1]])
    def test_upper_bound_brackets_a_sampled_peak(self, coeffs):
        # constants and monomials are flat on the circle; 1 + 2z + z^2 peaks at the sample z = 1
        f = ps.from_coefficients(coeffs)
        peak = float(sum(abs(c) for c in coeffs))
        lo, hi = sp.sup_bracket(f)
        assert peak - 1e-12 <= lo <= peak <= hi <= peak / (1.0 - math.pi * f.degree() / 4096) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1500), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
def test_sup_bracket_brackets_a_finer_grid(degree, seed, scale):
    # the degrees pass 1024, where the sample count doubles to 8192
    rng = np.random.default_rng(seed)
    coeffs = scale * (rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))
    coeffs[-1] = scale  # degree exactly d
    f = ps.PowerSeries(coeffs)
    lo, hi = sp.sup_bracket(f)
    if degree == 0:
        assert lo == hi == abs(coeffs[0])  # a constant is exact
        return
    m = 4096  # the sample count of sup_bracket: doubled while at most 4 d
    while m <= 4 * degree:
        m *= 2
    fine = 4 * m  # a grid that holds the bracket's samples, and 3 more between each two
    peak = float(np.abs(np.fft.fft(coeffs, n=fine)).max())
    rounding = 4 * fine.bit_length() * np.finfo(float).eps * np.abs(coeffs).sum()
    assert lo <= peak + rounding
    assert hi >= peak - rounding
    # the bracket is as tight as its construction: not vacuous
    bracket_rounding = 4 * m.bit_length() * np.finfo(float).eps * np.abs(coeffs).sum()
    assert hi / lo <= (1 + 2 * bracket_rounding / lo) / (1 - math.pi * degree / m) * (1 + 1e-14)


@functools.cache
def _roots_of_unity(m: int = 4096) -> list:
    """exp(-2 pi i k / m) for k < m, to 30 digits."""
    with mpmath.workdps(30):
        return [mpmath.expjpi(mpmath.mpf(-2 * k) / m) for k in range(m)]


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_samples_lie_within_the_rounding(degree, seed):
    # the FFT's 4096 samples, at the unit scale sup_bracket takes them, against 30-digit values:
    # the largest error over eps sum |f_n| stays within the rounding radius 4 bit_length(4096)
    # = 52; target() reports it.  The degrees reach three times past the 13 coefficients the
    # checks sample
    rng = np.random.default_rng(seed)
    c = ps.frexp(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))[0]
    assert sp._sample_count(degree) == 4096
    samples = np.fft.fft(c, n=4096)
    roots = _roots_of_unity()
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(x.real, x.imag) for x in c]
        error = max(
            abs(mpmath.mpc(sample.real, sample.imag)
                - mpmath.fsum(a * roots[n * k % 4096] for n, a in enumerate(coeffs)))
            for k, sample in enumerate(samples))
    ratio = float(error) / (np.finfo(float).eps * np.abs(c).sum())
    target(ratio)
    assert ratio <= 4 * (4096).bit_length()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 41), st.integers(1025, 1501)), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(-600, 600))
def test_sup_bounds_hold_the_bracket(n, seed, aligned, k):
    # n coefficients, degree 0 to 40 or 1024 to 1500 (8192 samples), a fifth of them zero, the
    # rest of moduli in [2^-900, 2^600]: sup_bracket's sides never pass the triangle bounds the
    # sweeps prune by.  A zero last coefficient lowers the degree, and with it the sample
    # count; aligned phases put the sup at sum |f_n|, where only the 1 / (1 - pi d / M) factor
    # covers hi
    rng = np.random.default_rng(seed)
    moduli = np.where(rng.random(n) < 0.2, 0.0, np.exp2(rng.uniform(-300, 0, n)))
    phases = rng.uniform(0, 2 * math.pi, 1 if aligned else n)
    row = np.ldexp(moduli, k) * np.exp(1j * phases)
    lo, hi = sp.sup_bracket(ps.PowerSeries(row))
    (lo_bound,), (hi_bound,) = sp.sup_bounds(row[None, :])
    assert lo <= lo_bound and hi <= hi_bound


class TestSupBracketAtTheEndsOfTheFloatRange:
    @pytest.mark.parametrize("coeffs", [[1e-320, 1e-320], [5e-324, 5e-324j],
                                        [0.0, 7e-322, -3e-321j],
                                        [1e-310, -2e-310j, 3e-311, 0, 1e-309]])
    def test_subnormal_coefficients(self, coeffs):
        # the same polynomial times 2^1000 is in the normal range, where the scaling is exact:
        # the subnormal bracket holds its bracket scaled back, within one subnormal step
        # (1e-320 + 1e-320 z gave lo = 2.0005e-320 > 2e-320, its rounding radius 0)
        f = ps.from_coefficients(coeffs)
        lo, hi = sp.sup_bracket(f)
        big_lo, big_hi = (Fraction(x) / 2**1000 for x in sp.sup_bracket(ps.scale(f, 2.0**1000)))
        step = Fraction(5e-324)
        assert big_lo - step < Fraction(lo) <= big_lo
        assert big_hi <= Fraction(hi) < big_hi + step

    def test_subnormal_pair_peaks_at_one(self):
        lo, hi = sp.sup_bracket(ps.from_coefficients([1e-320, 1e-320]))
        assert lo < 2e-320 < hi

    @pytest.mark.parametrize("coeffs", [[0, 1e308, 1e308], [1.5e308 + 1.5e308j],
                                        [1e308] * 20])
    def test_past_the_float_range(self, coeffs):
        # sup |f| is past the largest float: lo is that float and hi inf, with no warning
        # (0 + 1e308 z + 1e308 z^2 gave (nan, inf) and two RuntimeWarnings)
        assert sp.sup_bracket(ps.from_coefficients(coeffs)) == (sys.float_info.max, math.inf)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=1, max_size=13),
       st.lists(st.floats(-1, 1), min_size=1, max_size=13))
def test_pointwise_and_algebra_bounds(re, im):
    n = min(len(re), len(im))
    f = ps.PowerSeries(np.array(re[:n]) + 1j * np.array(im[:n]))
    norm = sp.space_norm(sp.s12(), f)
    if norm == 0.0:
        return
    assert sp.sup_bracket(f)[1] <= SQRT2 * norm + 1e-12
    product = ps.cauchy_product(f, f, 2 * f.order)
    assert sp.space_norm(sp.s12(), product) < 2.0 * SQRT2 * norm * norm + 1e-12


def test_s32_alias_parses_to_dalpha_two():
    space = sp.parse_space("S32")
    assert space.kind == sp.DALPHA and space.alpha == 2.0
    assert np.allclose(space.weights(5), (1.0 + np.arange(6)) ** 2)
