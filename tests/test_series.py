import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskops import checks, cli
from diskops import series as ps
from diskops.blaschke import BlaschkeProduct
from diskops.errors import DomainError, TruncationError


def resized(f, order):
    """f cut or zero-padded to the given order."""
    c = np.zeros(order + 1, dtype=np.complex128)
    m = min(order, f.order) + 1
    c[:m] = f.coeffs[:m]
    return ps.PowerSeries(c)


def coefficient_lists(max_len=8, magnitude=1.0, min_const=0.0):
    def build(draw):
        n = draw(st.integers(1, max_len))
        re = draw(st.lists(st.floats(-magnitude, magnitude), min_size=n, max_size=n))
        im = draw(st.lists(st.floats(-magnitude, magnitude), min_size=n, max_size=n))
        c = np.array(re) + 1j * np.array(im)
        if min_const > 0 and abs(c[0]) < min_const:
            c[0] = min_const * (1.0 + 1j)
        return ps.PowerSeries(c)

    return st.composite(lambda draw: build(draw))()


class TestConstruction:
    def test_invariant_length(self):
        f = ps.from_coefficients([1, 2, 3])
        assert f.order == 2 and len(f.coeffs) == 3

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ps.from_coefficients([1.0, float("nan")])

    def test_immutable(self):
        f = ps.from_coefficients([1, 2])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    @pytest.mark.parametrize("c", [[1, 2, 3], np.linspace(-1, 1, 5), np.arange(4) * 1j, 0.5])
    def test_stores_a_private_complex_copy(self, c):
        f = ps.PowerSeries(c)
        want = np.atleast_1d(np.asarray(c, np.complex128)).ravel()
        assert f.coeffs.dtype == np.complex128 and f.coeffs.tobytes() == want.tobytes()
        assert not np.shares_memory(f.coeffs, c)

    def test_converts_with_one_copy(self):
        # a float array of n entries needs one complex array of 16 n bytes, not two
        c = np.ones(1 << 16)
        tracemalloc.start()
        try:
            ps.PowerSeries(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * c.size

    def test_json_round_trip(self):
        f = ps.from_coefficients([1 + 2j, -0.5, 0.25j])
        assert cli._read_series(json.loads("[[1, 2], [-0.5, 0], [0, 0.25]]")) == f


class TestUnitScale:
    def test_frexp_scales_each_row_of_a_batch(self):
        rows = np.array([[3.0, -0.5], [0.0, 0.0], [1.5, 2.0**600]])
        m, e = ps.frexp(rows)
        assert e.tolist() == [2, 0, 601] and (np.ldexp(m, e[:, None]) == rows).all()
        assert ps.frexp(rows[0])[1] == 2 and type(ps.frexp(rows[0])[1]) is int

    def test_ldexp_norm_refuses_only_a_finite_norm_past_the_float_range(self):
        assert ps.ldexp_norm(0.75, 3) == 6.0 and type(ps.ldexp_norm(0.75, 3)) is float
        assert ps.ldexp_norm(math.inf, 3) == math.inf and math.isnan(ps.ldexp_norm(math.nan, 3))
        norms = ps.ldexp_norm(np.array([0.5, math.inf]), np.array([2, 0]))
        assert norms.tolist() == [2.0, math.inf]
        assert ps.ldexp_norm(0.5, 1024) == 2.0**1023
        for norm, e in ((0.5, 1025), (np.array([0.5, 0.5]), np.array([1, 1025]))):
            with pytest.raises(DomainError, match="the norm overflows the float range"):
                ps.ldexp_norm(norm, e)


class TestCauchyProduct:
    def test_binomial_square(self):
        one_plus_z = ps.from_coefficients([1, 1])
        sq = ps.cauchy_product(one_plus_z, one_plus_z, 2)
        assert np.allclose(sq.coeffs, [1, 2, 1])

    def test_identity_element(self):
        f = ps.from_coefficients([2, -1j, 0.5])
        assert ps.cauchy_product(f, ps.one(), f.order) == f

    def test_extremal_times_one_plus_z(self):
        # coefficient n of (1+z) * sum 2/((n+1)(n+2)) z^n is 4/(n(n+2))
        n = np.arange(33.0)
        extremal = ps.PowerSeries(2.0 / ((n + 1) * (n + 2)))
        product = ps.cauchy_product(extremal, ps.from_coefficients([1, 1]), 32)
        k = np.arange(1.0, 33.0)
        assert abs(product.coeffs[0] - 1.0) < 1e-15
        assert np.max(np.abs(product.coeffs[1:] - 4.0 / (k * (k + 2)))) < 1e-15

    def test_truncation_is_silent(self):
        f = ps.from_coefficients([1, 1, 1])
        assert ps.cauchy_product(f, f, 1).order == 1

    @pytest.mark.parametrize("order", [0, 5, 12, 24, 60])
    def test_every_direct_product_is_the_full_convolution_cut(self, order):
        # convolve is the full np.convolve product cut after order, bit for bit and unpadded;
        # cauchy_product pads it with zeros to order, and multiplier's direct branch is it for
        # b of at most order + 1 taps (it cuts a longer b there)
        rng = np.random.default_rng(order)
        for la, lb in ((1, 1), (1, 13), (13, 13), (7, 30), (30, 7), (61, 61)):
            a, b = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for n in (la, lb))
            full = np.convolve(a, b)
            got = ps.convolve(a, b, order)
            assert len(got) == min(order + 1, la + lb - 1)
            assert got.tobytes() == full[: order + 1].tobytes()
            padded = np.zeros(order + 1, dtype=np.complex128)
            padded[: len(got)] = got
            product = ps.cauchy_product(ps.PowerSeries(a), ps.PowerSeries(b), order)
            assert product.coeffs.tobytes() == padded.tobytes()
            if lb <= order + 1:
                assert ps.multiplier(ps.PowerSeries(b), order)(a).tobytes() == got.tobytes()


class TestDerivative:
    def test_termwise(self):
        assert np.allclose(ps.derivative(ps.from_coefficients([1, 1, 1])).coeffs, [1, 2])

    def test_constant_maps_to_zero(self):
        assert ps.derivative(ps.from_coefficients([7.0])) == ps.zero(0)

    def test_mobius_derivative_expansion(self):
        # d/dz (a-z)/(1-conj(a)z) = (-1+|a|^2) sum (n+1) conj(a)^n z^n
        alpha = 0.5
        geom = ps.PowerSeries(alpha ** np.arange(10).astype(complex))
        phi = ps.cauchy_product(ps.from_coefficients([alpha, -1]), geom, 9)
        derived = ps.derivative(phi)
        n = np.arange(8.0)
        expected = (-1 + alpha**2) * (n + 1) * alpha**n
        assert np.max(np.abs(derived.coeffs[:8] - expected) / np.abs(expected)) < 1e-12


class TestCompose:
    def test_identity_symbol(self):
        f = ps.from_coefficients([3, 1j, -2])
        assert ps.compose(f, ps.monomial(1), 2) == f

    def test_monomial_powers(self):
        assert ps.compose(ps.monomial(4), ps.monomial(3), 12) == ps.monomial(12)

    def test_geometric_composed_with_half_z(self):
        # 1/(1-z/2) at z/2 equals 1/(1-z/4): coefficients 4^-n
        geom_half = ps.PowerSeries(0.5 ** np.arange(30).astype(complex))
        composed = ps.compose(geom_half, ps.from_coefficients([0, 0.5]), 20)
        expected = 0.25 ** np.arange(21)
        assert np.max(np.abs(composed.coeffs - expected)) < 1e-15

    def test_rejects_symbol_leaving_disk(self):
        with pytest.raises(DomainError):
            ps.compose(ps.one(), ps.from_coefficients([1.0, 0.5]), 4)

    @pytest.mark.parametrize("alpha", [0.3, 0.5 + 0.2j, 0.7, -0.6j, 0.9])
    def test_mobius_involution_at_order_1024(self, alpha):
        phi = BlaschkeProduct(1.0, (alpha,)).series(1024)
        composed = ps.compose(phi, phi, 1024)
        assert np.max(np.abs(composed.coeffs - ps.monomial(1, 1024).coeffs)) < 1e-12

    @staticmethod
    def _horner(f, phi, order):
        """Reference: f_0 + phi (f_1 + phi (f_2 + ...)), one truncated product per coefficient."""
        times_phi = ps.multiplier(phi, order)
        acc = np.zeros(order + 1, dtype=np.complex128)
        for c in f.coeffs[::-1]:
            acc = times_phi(acc)
            acc[0] += c
        return acc

    @staticmethod
    def _inputs(m, taps):
        # sum |phi_j| = 0.9, so every coefficient of every power of phi is at most 1;
        # the weight 0.8 on z keeps the powers up to degree ~100 visible above rounding
        rng = np.random.default_rng(m * 1000 + taps)
        c = _random_series(rng, taps).coeffs
        c = 0.1 * c / np.abs(c).sum()
        c[1] += 0.8 * c[1] / abs(c[1])
        return _random_series(rng, m), ps.PowerSeries(c)

    # m = 25 fills all 5 blocks of b = 5; m = 26 (b = 6) and 1025 (b = 33) leave two
    # coefficients in the last block; m = 1 and 2 are a single block
    @pytest.mark.parametrize("order", [16, 255, 1024])
    @pytest.mark.parametrize("taps", [5, 200])
    @pytest.mark.parametrize("m", [1, 2, 25, 26, 1025])
    def test_matches_horner_reference(self, m, taps, order):
        f, phi = self._inputs(m, taps)
        got = ps.compose(f, phi, order).coeffs
        assert got.shape == (order + 1,)
        bound = 1e-13 * (1.0 + np.abs(f.coeffs).sum())
        assert np.max(np.abs(got - self._horner(f, phi, order))) <= bound

    @pytest.mark.filterwarnings("error")
    def test_symbol_without_self_map_is_one_domain_error(self):
        f = ps.PowerSeries(np.ones(1025, dtype=np.complex128))
        with pytest.raises(DomainError, match="no self-map"):
            ps.compose(f, ps.from_coefficients([0.5, 2.0]), 1024)

    @pytest.mark.filterwarnings("error")
    def test_product_past_the_float_range_is_one_domain_error(self):
        f = ps.PowerSeries(np.full(50, 1e308, dtype=np.complex128))
        with pytest.raises(DomainError, match="non-finite"):
            ps.compose(f, ps.from_coefficients([0.5, 0.5]), 20)


SWITCH = ps._FFT_MIN_TAPS


def _random_series(rng, n):
    return ps.PowerSeries(rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestProductSwitch:
    # order + 1 taps at a power-of-two order makes order + len(b) - 1 a power
    # of two, where an FFT one entry too short wraps the top term onto index 0;
    # order 256 with 256 taps makes order + len(b) itself a power of two
    @pytest.mark.parametrize("order", [63, 64, 255, 256, 1024])
    @pytest.mark.parametrize(
        "taps_at",
        [lambda n: SWITCH - 1, lambda n: SWITCH, lambda n: n, lambda n: n + 1, lambda n: n + 2],
        ids=["switch-1", "switch", "order", "order+1", "order+2"],
    )
    def test_multiplier_matches_direct_convolution(self, order, taps_at):
        taps = taps_at(order)
        rng = np.random.default_rng(order * 10 + taps)
        x = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        phi = _random_series(rng, taps)
        expected = np.convolve(x, phi.coeffs)[: order + 1]
        got = ps.multiplier(phi, order)(x)
        assert got.shape == (order + 1,)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @staticmethod
    def _check_repeated_products(f, taps):
        rng = np.random.default_rng(taps)
        phi = ps.scale(_random_series(rng, taps), 0.5 / taps)
        table = ps.orbit(f, phi, 40, 256)
        assert table.shape == (41, 257)
        # unpadded products: a direct one grows the row by deg phi, an FFT one fills it
        row = f.coeffs[:257]
        # the FFT error is relative to the row of |f| |phi|^k, which bounds every term summed
        magnitude, abs_phi = np.abs(resized(f, 256).coeffs), np.abs(phi.coeffs)
        for k in range(41):
            padded = resized(ps.PowerSeries(row), 256).coeffs
            if taps < SWITCH:  # direct path: the same convolutions, bit for bit
                assert np.array_equal(table[k], padded)
            else:
                assert np.max(np.abs(table[k] - padded)) <= 1e-14 * magnitude.max()
            row = ps.convolve(row, phi.coeffs, 256)
            magnitude = np.convolve(magnitude, abs_phi)[:257]

    @staticmethod
    def _check_underflow_cut(f, taps):
        # sum |phi_j| = 0.15: the rows underflow to exactly zero long before row 1024
        c = _random_series(np.random.default_rng(taps), taps).coeffs
        phi = ps.PowerSeries(0.15 * c / np.abs(c).sum())
        table = ps.orbit(f, phi, 1024, 1024)
        times_phi = ps.multiplier(phi, 1024)
        row = f.coeffs[:1025]
        for k in range(1025):
            assert np.array_equal(table[k], resized(ps.PowerSeries(row), 1024).coeffs), k
            row = times_phi(row)
        assert not table[-1].any() and table[1].any()

    @pytest.mark.parametrize("taps", [9, 200])
    def test_power_table_rows_are_repeated_products(self, taps):
        # the power table of phi is its orbit of 1
        self._check_repeated_products(ps.one(), taps)

    @pytest.mark.parametrize("taps", [9, 200])
    def test_orbit_rows_are_repeated_products(self, taps):
        self._check_repeated_products(_random_series(np.random.default_rng(1), 12), taps)

    @pytest.mark.parametrize("taps", [2, 200])
    def test_power_table_underflow_cut_is_exact(self, taps):
        self._check_underflow_cut(ps.one(), taps)

    @pytest.mark.parametrize("taps", [9, 200])
    def test_orbit_underflow_cut_is_exact(self, taps):
        self._check_underflow_cut(_random_series(np.random.default_rng(2), 12), taps)

    @pytest.mark.parametrize("taps", [2, 200])
    def test_orbit_overflow_is_one_domain_error(self, taps):
        # 0.5 + 2z + ...: no self-map, its powers pass 1e308 before row 1024
        c = np.zeros(taps, dtype=np.complex128)
        c[:2] = 0.5, 2.0
        c[-1] += 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                ps.orbit(ps.one(), ps.PowerSeries(c), 1024, 1024)

    def test_fft_path_imports_no_scipy_fft(self):
        code = (
            "import sys\n"
            "from diskops import blaschke, operators, series, spaces\n"
            "phi = blaschke.BlaschkeProduct(1.0, (0.5 + 0.2j,)).series(1024)\n"
            "series.compose(phi, phi, 1024)\n"
            "operators.composition_norm(spaces.s12(), series.scale(phi, 0.5), 1024)\n"
            "print(sorted(m for m in ('scipy.fft', 'scipy.signal') if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(ps.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"


def bisected_order(majorant, tol):
    """The retired ``Majorant.order_for``: the same refusals, then a bisection over
    [-1, 2^18], about 19 ``tail`` calls: the reference the solved search must equal."""
    if not (tol >= np.finfo(np.float64).tiny and majorant.tail(ps._MAJORANT_CAP) <= tol):
        raise TruncationError(f"no order up to {ps._MAJORANT_CAP} holds the tail within {tol:g}")
    lo, hi = -1, ps._MAJORANT_CAP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if majorant.tail(mid) <= tol else (mid, hi)
    return hi


def order_or_refusal(search, majorant, tol):
    try:
        return search(majorant, tol)
    except TruncationError as exc:
        return str(exc)


class TestMajorantSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(-50.0, 3000.0)),
        st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 500.0)),
        st.one_of(st.floats(np.finfo(np.float64).tiny, 1.0 - 2.0**-30),
                  st.floats(-1022.0, -1e-6).map(lambda k: 2.0**k)),
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, math.inf]),
                  st.floats(-300.0, 308.0).map(lambda k: 10.0**k)),
    )
    def test_solved_search_is_the_bisection(self, log_c, p, rho, tol):
        # rho from the least normal float up, tol from 0 and subnormals (refused) to inf:
        # the same least order, or the same TruncationError
        majorant = ps.Majorant(log_c, p, rho)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a tail past the float range
            want = order_or_refusal(bisected_order, majorant, tol)
            assert order_or_refusal(ps.Majorant.order_for, majorant, tol) == want

    @pytest.mark.parametrize("rho", [0.5, 0.25, 0.75, 0.9])
    def test_a_start_past_the_order_bisects_down(self, rho):
        # p = 0: tail(order) = rho^order, so tol = rho^k holds from order k on exactly; the
        # solved n = k + 1 rounds up to k + 1 + 1e-14 for some k (k = 46 at rho = 1/2), and
        # the start, order k + 1, holds too
        majorant = ps.Majorant(0.0, 0.0, rho)
        for k in range(1, int(-1000 / math.log2(rho))):
            assert majorant.order_for(rho**k) == bisected_order(majorant, rho**k)

    def test_tails_near_the_float_maximum_raise_no_warning(self):
        # 3,000 random majorants, log_c up to 3000 and rho near 1: terms, their sum and the
        # closing division pass the float range and bound by inf, with no RuntimeWarning (24 of
        # them warned while the overflow guard covered the exp alone)
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tails = [ps.Majorant(rng.uniform(0, 3000), rng.uniform(0, 50),
                                 1 - 10 ** rng.uniform(-6, -0.5)).tail(int(rng.integers(0, 2000)))
                     for _ in range(3000)]
        assert all(t >= 0 for t in tails) and math.inf in tails

    def test_verify_asks_at_most_8_tails_per_order(self, monkeypatch):
        # every order a verify run fixes, at four truncations and two seeds: the bisection took
        # 19 tail calls for each, the solved start takes about 3
        tail, order_for = ps.Majorant.tail, ps.Majorant.order_for
        calls, counts = [0], []

        def counted_tail(self, order):
            calls[0] += 1
            return tail(self, order)

        def counted_order_for(self, tol):
            calls[0] = 0
            try:
                return order_for(self, tol)
            finally:
                counts.append(calls[0])

        monkeypatch.setattr(ps.Majorant, "tail", counted_tail)
        monkeypatch.setattr(ps.Majorant, "order_for", counted_order_for)
        for truncation in (16, 256, 1024, 8192):
            for seed in (0, 3):
                checks.run_suite("all", checks.Config(truncation=truncation, seed=seed))
        assert len(counts) > 400 and max(counts) <= 8


class TestReciprocal:
    def test_geometric(self):
        geom = ps.PowerSeries(np.ones(6, dtype=complex))
        assert np.allclose(ps.reciprocal(geom, 5).coeffs, [1, -1, 0, 0, 0, 0])

    def test_s2_kernel_expansion(self):
        # 1 / (1 + sum_{n>=1} t^n/n^2) = 1 - t + (3/4) t^2 + ...
        n = np.arange(1.0, 9.0)
        f = ps.PowerSeries(np.concatenate([[1.0], 1.0 / n**2]).astype(complex))
        rec = ps.reciprocal(f, 4)
        assert np.allclose(rec.coeffs[:3], [1.0, -1.0, 0.75], atol=1e-15)

    def test_s22_kernel_expansion(self):
        # 1 / sum t^n/(1+n^2) = 1 - t/2 + t^2/20 + ...
        n = np.arange(9.0)
        f = ps.PowerSeries((1.0 / (1.0 + n**2)).astype(complex))
        rec = ps.reciprocal(f, 4)
        assert np.allclose(rec.coeffs[:3], [1.0, -0.5, 0.05], atol=1e-15)

    def test_rejects_zero_constant(self):
        with pytest.raises(DomainError):
            ps.reciprocal(ps.monomial(1), 3)


class TestEvaluate:
    def test_square_at_one(self):
        assert ps.evaluate(ps.from_coefficients([1, 2, 1]), 1.0) == 4.0

    def test_zero_series(self):
        assert ps.evaluate(ps.zero(5), 0.3 + 0.1j) == 0.0

    def test_extremal_at_one(self):
        n = np.arange(10_001.0)
        extremal = ps.PowerSeries((2.0 / ((n + 1) * (n + 2))).astype(complex))
        # telescoping partial sum: 2 - 2/(N+2)
        assert abs(ps.evaluate(extremal, 1.0) - 2.0) < 2e-4


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(coefficient_lists(), coefficient_lists(), coefficient_lists())
def test_product_distributes_over_sum(a, b, c):
    order = max(a.order, b.order, c.order) + 4
    a_plus_b = ps.PowerSeries(resized(a, order).coeffs + resized(b, order).coeffs)
    left = ps.cauchy_product(a_plus_b, c, order).coeffs
    right = ps.cauchy_product(a, c, order).coeffs + ps.cauchy_product(b, c, order).coeffs
    scale = 1.0 + float(np.abs(left).max())
    assert np.max(np.abs(left - right)) < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(coefficient_lists(magnitude=0.2, min_const=0.5))
def test_reciprocal_round_trip(f):
    # tail coefficients kept small so the inverse recurrence stays
    # well-conditioned over the working order
    order = 32
    back = ps.reciprocal(ps.reciprocal(f, order), order)
    target = resized(f, order)
    assert np.max(np.abs(back.coeffs - target.coeffs)) < 1e-10 * (1 + np.abs(f.coeffs).max())


@settings(max_examples=40, deadline=None)
@given(coefficient_lists(max_len=5, magnitude=0.5), coefficient_lists(max_len=4, magnitude=0.4),
       coefficient_lists(max_len=4, magnitude=0.25))
def test_compose_associativity(f, phi, psi):
    if abs(phi.coeffs[0]) >= 1.0 or abs(psi.coeffs[0]) >= 0.9:
        return
    order = 48
    inner_first = ps.compose(f, ps.compose(phi, psi, order), order)
    outer_first = ps.compose(ps.compose(f, phi, order), psi, order)
    scale = 1.0 + float(np.abs(inner_first.coeffs).max())
    assert np.max(np.abs(inner_first.coeffs - outer_first.coeffs)) < 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(coefficient_lists(), coefficient_lists())
def test_derivative_product_rule(a, b):
    order = a.order + b.order
    left = ps.derivative(ps.cauchy_product(a, b, order))
    right = (ps.cauchy_product(ps.derivative(a), b, max(order - 1, 0)).coeffs
             + ps.cauchy_product(a, ps.derivative(b), max(order - 1, 0)).coeffs)
    scale = 1.0 + float(np.abs(right).max())
    assert np.max(np.abs(resized(left, len(right) - 1).coeffs - right)) < 1e-12 * scale


_PARTS = st.one_of(st.floats(-1.2, 1.2), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=4))
def test_open_disk_gate_accepts_exactly_finite_points_inside(points):
    def inside(x):
        return cmath.isfinite(x) and abs(x) < 1.0

    for x in points:
        if inside(x):
            ps.require_open_disk(x, "point")
        else:
            with pytest.raises(DomainError, match="^point must lie in the open disk$"):
                ps.require_open_disk(x, "point")
    if all(inside(x) for x in points):
        ps.require_open_disk(np.array(points), "points")
    else:
        with pytest.raises(DomainError, match="^points must lie in the open disk$"):
            ps.require_open_disk(np.array(points), "points")


# coefficient counts at the block split's edges: perfect squares, one past them, and m = 1
_SPLIT_EDGES = [1, 2, 4, 5, 9, 10, 16, 17, 100, 101, 1024, 1025, 10_000, 10_001, 11_881, 11_882]
_DISK_POINTS = st.builds(
    cmath.rect, st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 2 * math.pi),
)
# rounding of the blocked Horner stays below C (b + ceil(m/b)) eps sum |a_k| |z|^k; the largest
# ratio seen over these kinds and sizes is about 0.2 of the bound with C = 1
_EVAL_C = 2.0


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(1, 12_000), st.sampled_from(_SPLIT_EDGES)), st.integers(0, 2**32 - 1),
       st.sampled_from(["gauss", "decay", "ones"]), st.lists(_DISK_POINTS, min_size=1, max_size=6),
       st.sampled_from([0, 1, 2]))
def test_evaluate_many_matches_an_mpmath_sum(m, seed, kind, points, ndim):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    elif kind == "decay":  # positive and falling, like the kernel coefficients
        a = (1.0 / (np.arange(m) + 1.0) ** rng.uniform(0.0, 2.0)).astype(complex)
    else:  # |z| = 1 sums these with heavy cancellation
        a = np.ones(m, dtype=complex)
    z = np.array(points)
    z = {0: z[0], 1: z, 2: z.reshape(2, -1) if z.size % 2 == 0 else z[:, None]}[ndim]
    z = np.asarray(z)
    got = ps.evaluate_many(ps.PowerSeries(a), z)
    assert got.shape == z.shape and got.dtype == np.complex128

    b = math.isqrt(m - 1) + 1
    blocks = -(-m // b)
    eps = np.finfo(np.float64).eps
    coeffs = [mpmath.mpc(c.real, c.imag) for c in a[::-1]]
    for point, value in zip(z.ravel(), got.ravel()):
        with mpmath.workdps(40):
            exact = mpmath.polyval(coeffs, mpmath.mpc(point.real, point.imag))
            error = float(abs(mpmath.mpc(value.real, value.imag) - exact))
        scale = float(np.abs(a) @ np.abs(point) ** np.arange(m))
        assert error <= _EVAL_C * (b + blocks) * eps * scale
    zero = z == 0
    assert np.array_equal(got[zero].view(np.float64), np.full(zero.sum(), a[0]).view(np.float64))
