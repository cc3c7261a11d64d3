import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskops import blaschke as bl
from diskops import cli
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import DomainError, TruncationError


def _phi(alpha):
    """phi_a as the degree-1 Blaschke product."""
    return bl.BlaschkeProduct(1.0, (alpha,))


class TestMobiusMap:
    def test_swaps_zero_and_alpha(self):
        alpha = 0.4 + 0.1j
        phi = _phi(alpha)
        assert abs(phi(alpha)) < 1e-15
        assert abs(phi(0.0) - alpha) < 1e-15

    def test_series_coefficients(self):
        for alpha in (0.5, 0.3 - 0.2j, -0.6j, 0j):
            series = _phi(alpha).series(11).coeffs
            # bitwise the closed form a, -(1 - |a|^2) conj(a)^(n-1)
            tail = -(1.0 - abs(alpha) ** 2) * np.conj(alpha) ** np.arange(11)
            assert np.array_equal(series, np.concatenate([[alpha], tail]))
            # and, to rounding, (a - z) times the geometric series in conj(a) z
            geom = ps.PowerSeries(np.conj(alpha) ** np.arange(12))
            oracle = ps.cauchy_product(ps.from_coefficients([alpha, -1.0]), geom, 11)
            assert np.max(np.abs(series - oracle.coeffs)) < 1e-15

    def test_series_evaluates_to_map(self):
        phi = _phi(0.3 - 0.2j)
        series = phi.series(128)
        for z in (0.5, -0.4 + 0.3j, 0.7j):
            assert abs(series(z) - phi(z)) < 1e-12

    def test_rejects_modulus_one(self):
        with pytest.raises(DomainError):
            _phi(1.0)

    def test_derivative_series_formula(self):
        # phi_a' = (|a|^2 - 1) sum (n+1) conj(a)^n z^n, the closed form of phi_prime_moment_series
        alpha = 0.3 + 0.1j
        n = np.arange(11)
        closed = (abs(alpha) ** 2 - 1.0) * (n + 1) * np.conj(alpha) ** n
        walked = ps.derivative(_phi(alpha).series(11))
        assert np.max(np.abs(closed[:10] - walked.coeffs[:10])) < 1e-14
        series_sum = bl.phi_prime_moment_series(alpha, 3, order=400)[3]
        assert abs(series_sum - bl.phi_prime_moment(alpha, 3)) < 1e-12

    def test_involution_composes_at_its_certified_order(self):
        # every power of phi_a is bounded by 1 on the disk, so its coefficients are too (Cauchy):
        # cutting the outer series after z^N moves a kept coefficient of phi_a(phi_a) by at most
        # the tail sum_{j>N} (1-|a|^2) |a|^(j-1) of phi_a's coefficients.  At the N for eps/4,
        # 107 for |a| = 0.7, each of the four compositions is z to rounding alone
        alphas = (0.3, 0.5 + 0.2j, 0.7, -0.6j)
        tails = [ps.Majorant(math.log(1 / a - a), 0, a) for a in np.abs(alphas)]
        order = max(t.order_for(np.finfo(np.float64).eps / 4) for t in tails)
        assert order == 107
        target = ps.monomial(1, order=order).coeffs
        for alpha in alphas:
            phi = _phi(alpha).series(order)
            assert np.max(np.abs(ps.compose(phi, phi, order).coeffs - target)) < 1e-15

    @pytest.mark.parametrize("truncation", [16, 32, 53, 54, 107, 256, 8192])
    def test_involution_check_passes_at_every_truncation(self, truncation):
        # the outer series at its certified order 107 bounds the error of every kept coefficient
        # by its tail, eps/4, however long the kept series is: phi_a(phi_a) cut at any truncation,
        # those below 54, the order for 1e-8, included, is z to rounding alone
        target = ps.monomial(1, order=truncation).coeffs
        for alpha in (0.3, 0.5 + 0.2j, 0.7, -0.6j):
            outer, inner = _phi(alpha).series(107), _phi(alpha).series(truncation)
            assert np.max(np.abs(ps.compose(outer, inner, truncation).coeffs - target)) < 1e-15


_FOLDED = [bl.z_times_phi(0.5), bl.phi_pair(0.7), bl.BlaschkeProduct(1.0, (0.0, 0.0, 0.0)),
           bl.BlaschkeProduct(1.0, (0.3 + 0.4j, -0.6, 0.8j)),
           bl.BlaschkeProduct(np.exp(0.7j), (0.9, -0.5j, 0.2 + 0.1j, 0.0))]
_FOLDED_IDS = ["z_phi05", "phi_pair07", "z_cubed", "three_zeros", "four_zeros_rotated"]


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

    @pytest.mark.parametrize(
        "psi",
        [bl.z_times_phi(0.5), bl.phi_pair(0.7), bl.BlaschkeProduct(1.0, (0.3 + 0.4j,)),
         bl.BlaschkeProduct(1.0, (0.0, 0.0, 0.0)), bl.BlaschkeProduct(1.0, ())],
        ids=["z_phi05", "phi_pair07", "one_zero", "z_cubed", "constant"],
    )
    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-14])
    def test_order_for_is_the_smallest_order_within_tol(self, psi, tol):
        order = psi.order_for(tol)
        assert psi.tail_bound(order) <= tol
        assert order == 0 or psi.tail_bound(order - 1) > tol

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_tail_bound_covers_the_whole_tail(self, r, d):
        # the majorant n^(d-1) r^(n-d) of |psi_n| summed term by term from n = 101 to 10^7;
        # at d = 1 bound and sum are one geometric series, so 1e-12 leaves room for rounding
        psi = bl.BlaschkeProduct(1.0, (r,) * d)
        brute = 0.0
        for start in range(101, 10**7 + 1, 10**6):
            n = np.arange(start, min(start + 10**6, 10**7 + 1), dtype=np.float64)
            brute += float(np.sum(np.exp((d - 1) * np.log(n) + (n - d) * math.log(r))))
        bound = psi.tail_bound(100)
        assert (1 - 1e-12) * brute <= bound <= 2 * brute

    def test_order_for_refuses_a_tail_past_2_to_the_18(self):
        # one zero at 0.9999 needs r^N / (1 - r) <= 1e-8, so N is about 276,300
        psi = bl.BlaschkeProduct(1.0, (0.9999,))
        with pytest.raises(TruncationError):
            psi.order_for(1e-8)
        assert psi.tail_bound(1 << 18) > 1e-8

    @pytest.mark.parametrize("space", [sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s2(), sp.s12(),
                                       sp.s22(), sp.dalpha(1.5), sp.km(3)], ids=lambda s: s.label)
    @pytest.mark.parametrize("psi", [bl.z_times_phi(0.5), bl.phi_pair(0.7),
                                     bl.BlaschkeProduct(1.0, (0.3 + 0.4j, -0.6, 0.8j))],
                             ids=["z_phi05", "phi_pair07", "three_zeros"])
    def test_tail_norm_bounds_the_discarded_norm(self, psi, space):
        wide = psi.series(2048)
        for order in (16, 64, 256):
            tail = ps.PowerSeries(np.where(np.arange(2049) > order, wide.coeffs, 0))
            assert sp.space_norm(space, tail) <= psi.tail_norm(space, order)
        needed = psi.order_for(1e-6, space)
        assert psi.tail_norm(space, needed) <= 1e-6 < psi.tail_norm(space, needed - 1)

    @pytest.mark.parametrize("space", [sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s2(), sp.s12(),
                                       sp.km(2)], ids=lambda s: s.label)
    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_tail_norm_grows_with_the_number_of_zeros(self, space, r):
        # the Blaschke orbit's cut bounds the tail of every psi^k, k <= m, by that of psi^m;
        # on A2 the z^d case once gave sqrt(weight(d)), which falls with d
        for order in (0, 3, 40):
            norms = [bl.BlaschkeProduct(1.0, (r,) * d).tail_norm(space, order) for d in range(1, 8)]
            assert norms == sorted(norms)

    def test_order_for_at_the_ends_of_the_float_range(self):
        # the squared budget (1e-160)^2 rounds to the subnormal 9.99989e-321, a range where the
        # majorant's terms lose their digits; z^3 has no tail past its degree, so it gets one
        with pytest.raises(TruncationError, match="holds the tail within 9.99989e-321"):
            bl.phi_pair(0.5).order_for(1e-160, sp.s12())
        assert bl.BlaschkeProduct(1.0, (0.0,) * 3).order_for(0.0, sp.s12()) == 3
        # r^2 = 1e-400 underflows to 0, whose log was a ValueError; a tol of 1e200, whose square
        # overflows, was an OverflowError
        tiny_zero = bl.BlaschkeProduct(1.0, (1e-200,))
        assert tiny_zero.order_for(1e-8, sp.s12()) == 1 and tiny_zero.tail_norm(sp.s12(), 1) < 1e-60
        assert bl.phi_pair(0.5).order_for(1e200, sp.s12()) == 0

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(DomainError):
            bl.BlaschkeProduct(1.0, (1.2,))
        with pytest.raises(DomainError):
            bl.BlaschkeProduct(0.5, (0.2,))

    def test_json_round_trip(self):
        psi = bl.z_times_phi(0.4 + 0.2j)
        parsed = cli._read_blaschke({"a": [-1.0, 0.0], "zeros": [[0, 0], [0.4, 0.2]]})
        assert parsed == psi

    @pytest.mark.parametrize("psi", _FOLDED, ids=_FOLDED_IDS)
    @pytest.mark.parametrize("order", [0, 1, 17, 256])
    def test_series_is_the_left_fold_from_one(self, psi, order):
        # the series folds the factors from the first one on; the product from the series 1
        # that it replaced gives the same values
        fold = ps.one(order)
        for alpha in psi.zeros:
            fold = ps.cauchy_product(fold, _phi(alpha).series(order), order)
        assert np.array_equal(psi.series(order).coeffs, ps.scale(fold, psi.unimodular).coeffs)

    @pytest.mark.parametrize("psi", _FOLDED + [bl.BlaschkeProduct(-1j, ())],
                             ids=_FOLDED_IDS + ["constant"])
    @pytest.mark.parametrize("order", [0, 1, 17, 256])
    def test_series_is_the_retired_fold_of_power_series(self, psi, order):
        # the factor arrays fold through series.convolve; the retired fold, one cauchy_product
        # with a PowerSeries per factor, gives the same bytes, the signs of zero parts included
        n = np.arange(order)
        factors = [ps.PowerSeries(np.concatenate([[a], -(1.0 - abs(a) ** 2) * np.conj(a) ** n]))
                   for a in psi.zeros]
        fold = factors[0] if factors else ps.one(order)
        for factor in factors[1:]:
            fold = ps.cauchy_product(fold, factor, order)
        assert psi.series(order).coeffs.tobytes() == ps.scale(fold, psi.unimodular).coeffs.tobytes()

    @pytest.mark.parametrize("unimodular, zero", [(1.0, 0j), (-1.0, 0j), (complex(1, -0.0), 0.5),
                                                  (complex(-1, -0.0), 0j), (1j, 0j)])
    def test_cached_series_keeps_the_signed_zeros_of_its_own_product(self, unimodular, zero):
        # products whose zeros differ only in the sign of a zero part are equal, but their
        # series differ in the signs of zero parts: each gets its own from the cache
        order, signed = 6, complex(-zero.real if zero.real == 0 else zero.real, -zero.imag)
        a, b = (bl.BlaschkeProduct(unimodular, (z,)) for z in (complex(zero), signed))
        assert a == b
        bl._product_series.cache_clear()
        fresh = b.series(order).coeffs.view(np.float64)
        bl._product_series.cache_clear()
        cached = a.series(order).coeffs.view(np.float64)
        assert a.series(order) is a.series(order)  # built once
        assert np.signbit(cached).tolist() != np.signbit(fresh).tolist()
        again = b.series(order).coeffs.view(np.float64)
        assert np.array_equal(again, fresh) and np.signbit(again).tolist() == np.signbit(fresh).tolist()

    def test_constant_series(self):
        assert np.array_equal(bl.BlaschkeProduct(-1j, ()).series(5).coeffs,
                              [-1j, 0, 0, 0, 0, 0])

    def test_involution_composition(self):
        for alpha in (0.3, 0.5 + 0.2j, 0.7):
            phi = _phi(alpha).series(256)
            composed = ps.compose(phi, phi, 256)
            target = ps.monomial(1, order=256)
            assert np.max(np.abs(composed.coeffs - target.coeffs)) < 1e-8


# the sweep of the moment checks, and the 0.3 + 0.2j of the mean-value and moment tests
_MOMENT_PARAMETERS = [r * np.exp(1j * t) for r in (0.1, 0.3, 0.5, 0.7)
                      for t in (0.0, np.pi / 4, np.pi / 2)] + [0.3 + 0.2j]


class TestPoisson:
    def test_at_origin(self):
        zeta = bl.circle_nodes(256)
        assert np.max(np.abs(bl.poisson_kernel(0.0, zeta) - 1.0)) < 1e-15
        assert bl.poisson_kernel(0.0, 1.0) == 1.0

    def test_mean_value(self):
        zeta = bl.circle_nodes(4096)
        assert abs(np.mean(bl.poisson_kernel(0.3 + 0.2j, zeta)) - 1.0) < 1e-12

    def test_moments_match_power(self):
        alpha = 0.3 + 0.2j
        for k, quad in enumerate(bl.poisson_product_moment((alpha,), 5, 4096)):
            assert abs(quad - np.conj(alpha) ** k) < 1e-10

    def test_rejects_off_circle(self):
        with pytest.raises(DomainError):
            bl.poisson_kernel(0.3, 0.5)

    def test_product_moment_values(self):
        assert abs(bl.poisson_product_moment((0.5, -0.5), 0, 1024)[0] - 0.6) < 1e-12
        quad = bl.poisson_product_moment((0.4j, -0.4j), 2, 1024)[2]
        closed = (1.0 - 0.16) / (1.0 + 0.16) * np.conj(0.4j) ** 2
        assert abs(quad - closed) < 1e-10

    def test_product_moment_sweep(self):
        for radius in (0.1, 0.3, 0.5, 0.7):
            for phase in (0.0, np.pi / 4, np.pi / 2):
                alpha = radius * np.exp(1j * phase)
                for k, quad in enumerate(bl.poisson_product_moment((alpha, -alpha), 8, 4096)):
                    closed = bl.poisson_product_moment_closed(alpha, k)
                    if k % 2:
                        assert abs(quad) < 1e-12
                    else:
                        assert abs(quad - closed) < 1e-10

    def test_node_count_contract(self):
        with pytest.raises(ValueError):
            bl.poisson_product_moment((0.3, -0.3), 0, 100)
        with pytest.raises(ValueError):
            bl.poisson_product_moment((0.3, -0.3), 0, 300)
        # no nodes would give nan, and 3 nodes alias conj(zeta) onto zeta^2
        for nodes in (0, 3):
            with pytest.raises(ValueError, match="node count"):
                bl.poisson_product_moment((0.3,), 1, nodes)

    def test_moment_index_must_stay_below_the_node_count(self):
        # the FFT has nodes bins: a slice past them would return fewer than k_max + 1 moments
        assert len(bl.poisson_product_moment((0.3,), 255, 256)) == 256
        for k_max in (256, 1000):
            with pytest.raises(ValueError, match=f"got {k_max} for 256"):
                bl.poisson_product_moment((0.3, -0.3), k_max, 256)

    @pytest.mark.parametrize("nodes", [256, 1024, 4096])
    def test_one_density_is_the_per_k_arithmetic(self, nodes):
        # The moments are one FFT of the density; the per-k quadratures it replaced stay as the
        # oracle, no longer bitwise but within rounding.  zeta_j is within 8 eps of
        # exp(2 pi i j / N): the angle rounds within 4 pi u (u = eps / 2) and exp within 2 u.
        # So conj(zeta_j)^k, at most k products deep, is within (8 k + 4) eps of its root's
        # power, and the mean, a pairwise sum, adds L u, L = bit_length(N): each per-k value
        # lies within (8 k + 4 + L) eps mean|density| of the exact trapezoid sum of the computed
        # density.  The FFT bin is within 4 eps L sum|density| of N times that sum (the
        # per-sample bound of ``spaces.sup_bracket``), and / N is exact.  Against the closed
        # forms, each kernel (1 - |a|^2) / |zeta - a|^2 adds 2 (8 eps) / (1 - |a|) + 4 eps of
        # itself (zeta's error over |zeta - a| >= 1 - |a|, squared, and the three roundings),
        # and the trapezoid rule aliases no more than |a|^(N - k), below 1e-37 here.
        eps, L = np.finfo(np.float64).eps, nodes.bit_length()
        zeta = bl.circle_nodes(nodes)
        for alpha in _MOMENT_PARAMETERS:
            for alphas in ((alpha,), (alpha, -alpha)):
                moments = bl.poisson_product_moment(alphas, 8, nodes)
                density = np.prod([bl.poisson_kernel(a, zeta) for a in alphas], axis=0)
                mean = np.mean(np.abs(density))
                per_kernel = 16 / (1 - abs(alpha)) + 4
                for k in range(9):
                    per_k = np.mean(density * np.conj(zeta) ** k)
                    assert abs(moments[k] - per_k) <= (8 * k + 4 + 5 * L) * eps * mean
                    closed = (np.conj(alpha) ** k if len(alphas) == 1
                              else bl.poisson_product_moment_closed(alpha, k))
                    radius = (4 * L + len(alphas) * per_kernel + 1) * eps * mean
                    assert abs(moments[k] - closed) <= radius


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
                    series = bl.phi_prime_moment_series(alpha, 8, 2000)[k]
                    assert abs(closed - series) / abs(closed) < 1e-9

    def test_specific_complex_case(self):
        alpha = 0.3 + 0.1j
        closed = bl.phi_prime_moment(alpha, 3)
        series = bl.phi_prime_moment_series(alpha, 3, 2000)[3]
        assert abs(closed - series) / abs(closed) < 1e-9

    def test_the_default_order_is_the_retired_2000_within_rounding(self):
        # The two sums share every term, bit for bit, through the shorter order; the longer
        # adds terms the majorant holds to eps/4 of |closed|.  Every term of moment k has the
        # phase of conj(a)^k, and their moduli add up to |closed| = |a|^k ((1+rho)/(1-rho) + k),
        # so a pairwise sum of n of them rounds within (19 + ceil(log2(n / 128))) u of |closed|
        # (8 accumulators over leaves of 128, then one rounding per level), u = eps / 2: 23 u
        # at n = 2001, fewer at the cut.  The radius is eps/4 + 2 (23 u), under 24 eps.
        eps = np.finfo(np.float64).eps
        for alpha in _MOMENT_PARAMETERS + [0.0, 0.9j]:
            cut = bl.phi_prime_moment_series(alpha, 8)
            retired = bl.phi_prime_moment_series(alpha, 8, 2000)
            closed = np.array([bl.phi_prime_moment(alpha, k) for k in range(9)])
            assert np.all(np.abs(cut - retired) <= 24 * eps * np.abs(closed))

    def test_one_expansion_is_the_per_k_arithmetic(self):
        # the sums over one expansion are bitwise the per-k sums they replaced
        for alpha in _MOMENT_PARAMETERS:
            series = bl.phi_prime_moment_series(alpha, 8, 2000)
            for k in range(9):
                n = np.arange(2000 + k + 1)
                c = (abs(alpha) ** 2 - 1.0) * (n + 1) * np.conj(alpha) ** n
                assert series[k] == np.sum(c[k:] * np.conj(c[: len(c) - k]))


@pytest.mark.parametrize("index", [-1, -2, 1.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: bl.poisson_product_moment((0.5,), k, 256),
        lambda k: bl.poisson_product_moment((0.5, -0.5), k, 256),
        lambda k: bl.poisson_product_moment_closed(0.5, k),
        lambda k: bl.phi_prime_moment(0.5, k),
        lambda k: bl.phi_prime_moment_series(0.5, k, 10),
        lambda k: bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, 0.5, k),
        lambda k: bl.adjoint_symbol_series_oracle(bl.z_times_phi(0.5), k, 10),
    ],
    ids=["poisson", "poisson_pair", "poisson_pair_closed", "phi_prime", "phi_prime_series",
         "adjoint_expansion", "adjoint_oracle"],
)
def test_moment_index_must_be_a_nonnegative_int(call, index):
    # a negative k wraps the slices and a fractional one takes a branch of conj(zeta)^k
    with pytest.raises(ValueError, match="moment index must be an int >= 0"):
        call(index)


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
        oracle = bl.adjoint_symbol_series_oracle(bl.z_times_phi(alpha), 16, order=400)
        scale = np.maximum(np.abs(oracle.coeffs), 1e-3)
        assert np.max(np.abs(closed.coeffs - oracle.coeffs) / scale) < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 0.4j, 0.2 + 0.3j])
    def test_phi_pair_matches_oracle(self, alpha):
        closed = bl.adjoint_symbol_expansion(bl.VARIANT_PHI_PAIR, alpha, 16)
        oracle = bl.adjoint_symbol_series_oracle(bl.phi_pair(alpha), 16, order=400)
        scale = np.maximum(np.abs(oracle.coeffs), 1e-3)
        assert np.max(np.abs(closed.coeffs - oracle.coeffs) / scale) < 1e-8

    @pytest.mark.parametrize("order", [3, 10, 400])
    def test_one_array_is_the_per_k_inner_products(self, order):
        # every <psi, z^k psi>_S2 from one scaled coefficient array is bitwise the
        # PowerSeries and inner_product per k it replaced, for k past the order too
        for psi in (bl.z_times_phi(0.3 + 0.1j), bl.phi_pair(0.4j),
                    bl.BlaschkeProduct(1.0, (0.3, -0.2j, 0.5 + 0.1j))):
            series = psi.series(order)
            per_k = []
            for k in range(17):
                shifted = ps.PowerSeries(np.concatenate([np.zeros(k), series.coeffs]))
                per_k.append(sp.inner_product(sp.s2(), series, shifted) / (k**2 if k else 1.0))
            assert np.array_equal(bl.adjoint_symbol_series_oracle(psi, 16, order).coeffs, per_k)

    @pytest.mark.parametrize("psi", [bl.z_times_phi(0.5), bl.z_times_phi(-0.45j), bl.phi_pair(0.5),
                                     bl.phi_pair(0.2 + 0.3j), bl.BlaschkeProduct(1.0, (0.9, -0.3j))],
                             ids=["z_phi05", "z_phi045j", "pair05", "pair_02_03", "two_zeros_09"])
    def test_the_default_order_is_the_retired_400_within_rounding(self, psi):
        # The default order holds psi's S2-weighted tail to eps/4, so by Cauchy-Schwarz the
        # terms it drops move <psi, z^k psi> by at most eps/4 ||psi|| ||z^k psi|| (norms in S2);
        # the terms both keep are the same bits, and each sum of n products rounds within
        # (19 + ceil(log2(n / 128))) u of sum_n w(n) |psi_n| |psi_(n-k)| <= ||psi|| ||z^k psi||
        # (Cauchy-Schwarz again), 21 u at n = 401.  The radius is eps/4 + 2 (21 u) of that scale.
        eps = np.finfo(np.float64).eps
        cut = bl.adjoint_symbol_series_oracle(psi, 16).coeffs
        retired = bl.adjoint_symbol_series_oracle(psi, 16, 400).coeffs
        series = psi.series(400)
        k = np.arange(17)
        scale = np.array([sp.space_norm(sp.s2(), series) * sp.space_norm(
            sp.s2(), ps.PowerSeries(np.concatenate([np.zeros(j), series.coeffs]))) for j in k])
        assert np.all(np.abs(cut - retired) <= 22 * eps * scale / np.maximum(k * k, 1))

    def test_phi_pair_odd_coefficients_vanish(self):
        closed = bl.adjoint_symbol_expansion(bl.VARIANT_PHI_PAIR, 0.5, 15)
        assert np.max(np.abs(closed.coeffs[1::2])) == 0.0
        oracle = bl.adjoint_symbol_series_oracle(bl.phi_pair(0.5), 15, order=400)
        assert np.max(np.abs(oracle.coeffs[1::2])) < 1e-12

    def test_oracle_on_a_product_without_closed_form(self):
        # <psi, z^k psi>_S2 = psi(0) conj((z^k psi)(0)) + <psi', (z^k psi)'>_H2 by quadrature on
        # the circle, with psi' = psi sum_a (|a|^2 - 1) / ((1 - conj(a) z)(a - z))
        zeros = (0.3, -0.2j, 0.5 + 0.1j)
        psi = bl.BlaschkeProduct(1.0, zeros)
        z = bl.circle_nodes(4096)
        values = psi(z)
        prime = values * sum((abs(a) ** 2 - 1) / ((1 - np.conj(a) * z) * (a - z)) for a in zeros)
        quad = []
        for k in range(9):
            shifted_prime = k * z ** (k - 1) * values + z**k * prime
            at_zero = psi(0.0) * np.conj(psi(0.0)) if k == 0 else 0.0
            quad.append((at_zero + np.mean(prime * np.conj(shifted_prime))) / (k**2 if k else 1))
        oracle = bl.adjoint_symbol_series_oracle(psi, 8).coeffs
        quad = np.array(quad)
        assert np.max(np.abs(oracle - quad) / np.maximum(np.abs(quad), 1e-3)) < 1e-12


class TestAdjointDistinctness:
    def test_half_gap_exceeds_tenth(self):
        assert bl.adjoint_distinctness_gap(0.5) > 0.1

    def test_small_alpha_nonzero(self):
        assert bl.adjoint_distinctness_gap(0.1) > 1e-6

    def test_gap_vanishes_continuously(self):
        gaps = [bl.adjoint_distinctness_gap(alpha) for alpha in (0.2, 0.1, 0.05, 0.025)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            bl.adjoint_distinctness_gap(0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 0.7), st.floats(0, 2 * math.pi))
def test_involution_property(radius, phase):
    alpha = radius * math.cos(phase) + 1j * radius * math.sin(phase)
    phi = _phi(alpha).series(192)
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
