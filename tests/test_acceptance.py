"""Acceptance criteria, one test per criterion.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
asserts the stated tolerances.  Tolerances are pinned here, not imported,
so a regression in any library default is caught.
"""

import math
import time

import numpy as np

from diskops import blaschke as bl
from diskops import checks
from diskops import operators as op
from diskops import pick as pk
from diskops import report as rp
from diskops import series as ps
from diskops import spaces as sp

SQRT2 = math.sqrt(2.0)
S12 = sp.s12()


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def _grid(count, max_radius, offset):
    phases = count // 4
    radii = max_radius * np.array([0.25, 0.5, 0.75, 1.0])
    return np.array(
        [
            r * np.exp(1j * (2 * np.pi * j / phases + offset + 0.3 * i))
            for i, r in enumerate(radii)
            for j in range(phases)
        ]
    )


def test_criterion_01_kernel_identity():
    start = time.perf_counter()
    worst = 0.0
    ws, zs = _grid(20, 0.9, 0.0), _grid(20, 0.9, 0.17)
    for space in (S12, sp.hardy(), sp.bergman(), sp.dirichlet()):
        closed = sp.kernel(space, ws[:, None], zs)
        series = sp.kernel(space, ws[:, None], zs, terms=10_000)
        worst = max(worst, float(np.max(np.abs(closed - series) / np.abs(closed))))
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion-1 kernel-identity",
        worst < 1e-9 and elapsed < 5.0,
        f"(max rel err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_02_sharp_pointwise_constant():
    short = sp.kernel_coefficient_series(S12, 10_000)
    at_one = ps.evaluate(short, 1.0).real
    # at truncation 1e4 the coefficient-sum norm sits sqrt(2)-1/(sqrt(2)(N+2))
    # away from sqrt(2); the 1e-6 tolerance needs the 1e6-term sum
    wide_norm = sp.space_norm(S12, sp.kernel_coefficient_series(S12, 1_000_000))
    rng = np.random.default_rng(0)
    bound_ok = True
    for _ in range(500):
        deg = int(rng.integers(0, 13))
        f = ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
        bound_ok = bound_ok and sp.sup_bracket(f)[1] <= SQRT2 * sp.space_norm(S12, f) + 1e-12
    ok = abs(wide_norm - SQRT2) < 1e-6 and abs(at_one - 2.0) < 2e-4 and bound_ok
    _verdict(
        "criterion-2 sharp-pointwise-constant",
        ok,
        f"(norm {wide_norm:.9f}, f(1) {at_one:.6f}, 500-poly bound {bound_ok})",
    )


def test_criterion_03_multiplier_norms():
    worst_monomial = 0.0
    for k in range(11):
        est = op.multiplication_norm(S12, ps.monomial(k), 64)
        worst_monomial = max(worst_monomial, abs(est - math.sqrt((k + 1) * (k + 2) / 2)))
    one_plus_z = op.multiplication_norm(S12, ps.from_coefficients([1, 1]), 512)
    rng = np.random.default_rng(1)
    sandwich_ok = True
    for _ in range(200):
        deg = int(rng.integers(0, 13))
        f = ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
        est = op.multiplication_norm(S12, f, 256)
        norm = sp.space_norm(S12, f)
        # constant symbols hit equality on the left; allow rounding slack
        sandwich_ok = (
            sandwich_ok
            and max(sp.sup_bracket(f)[1], norm) <= est + 1e-12
            and est <= 2 * SQRT2 * norm + 1e-12
        )
    ok = worst_monomial < 1e-10 and one_plus_z > math.sqrt(4.5) and sandwich_ok
    _verdict(
        "criterion-3 multiplier-norms",
        ok,
        f"(monomial err {worst_monomial:.1e}, |M_(1+z)| {one_plus_z:.4f} > {math.sqrt(4.5):.4f}, "
        f"sandwich {sandwich_ok})",
    )


def test_criterion_04_three_isometry():
    rng = np.random.default_rng(2)
    z = bl.BlaschkeProduct(-1.0, (0j,))  # the symbol z as a Blaschke product
    worst3 = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 13))
        probe = ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
        worst3 = max(worst3, abs(op.blaschke_power_defect(S12, z, 3, probe, probe.order + 3, 1e-8)))
    beta2 = op.blaschke_power_defect(S12, z, 2, ps.one(), 2, 1e-8)
    probes = [ps.one(), ps.from_coefficients([1, 1])]
    products = [
        all(
            abs(op.blaschke_power_defect(S12, psi, 3, f, 1024, 1e-8))
            < 1e-8 * (1.0 + sp.space_norm_sq(S12, f))
            for f in probes
        )
        for psi in (bl.z_times_phi(0.4), bl.phi_pair(0.5))
    ]
    ok = worst3 < 1e-12 and beta2 == 1.0 and all(products)
    _verdict(
        "criterion-4 three-isometry",
        ok,
        f"(max beta3 {worst3:.1e}, beta2(1) {beta2}, products {products})",
    )


def test_criterion_05_shift_classification():
    # M_z is an m-isometry iff n -> ||z^n||^2 = weight(n) has vanishing m-th differences
    w = S12.weights(63)
    s12_order, _ = op.isometry_order(w, 6)
    newton = [np.diff(w, j)[0] for j in range(3)]  # weight(n) = sum_j C(n,j) Delta^j w(0)
    s12_ok = s12_order == 3 and np.max(np.abs(np.array(newton) - [1.0, 2.0, 1.0])) < 1e-8
    s2_ok = op.isometry_order(sp.s2().weights(63), 6)[0] is None
    km_ok = all(op.isometry_order(sp.km(mm).weights(63), mm + 3)[0] == mm + 2 for mm in (1, 2, 3))
    _verdict(
        "criterion-5 shift-classification",
        s12_ok and s2_ok and km_ok,
        f"(s12 order-3 {s12_ok}, s2 none {s2_ok}, km orders {km_ok})",
    )


def test_criterion_06_growth_formulas():
    shift = bl.BlaschkeProduct(-1.0, (0j,))
    exact = all(sp.space_norm_sq(sp.s2(), ps.monomial(k)) == float(k * k) for k in range(1, 7))
    growth_ok = True
    for psi in (shift, bl.z_times_phi(0.3)):
        for f in (ps.one(), ps.from_coefficients([1, 1])):
            # the S2 seminorm (weights n^2) and the S12 norm grow quadratically
            for space, weights in ((sp.s2(), np.arange(513.0) ** 2), (S12, None)):
                residuals, scale = op.growth_residuals(space, psi, f, 3, 6, 1e-8, weights=weights)
                growth_ok = growth_ok and max(map(abs, residuals.values())) < 1e-8 * scale
    lin_ok = all(
        max(map(abs, residuals.values())) < 1e-8 * scale
        for residuals, scale in (
            op.growth_residuals(sp.dirichlet(), psi, f, 2, 5, 1e-8, weights=np.arange(513.0))
            for psi, f in (
            (shift, ps.one()),
            (bl.BlaschkeProduct(1.0, (0.6,)), ps.one()),
            (bl.z_times_phi(0.2), ps.from_coefficients([1, 0, 1])),
            )
        )
    )
    _verdict(
        "criterion-6 growth-formulas",
        exact and growth_ok and lin_ok,
        f"(monomial squares exact {exact}, growth {growth_ok}, linearity {lin_ok})",
    )


def test_criterion_07_adjoint_moment_oracles():
    worst_prime = 0.0
    worst_even = 0.0
    worst_odd = 0.0
    for radius in (0.1, 0.3, 0.5, 0.7):
        for phase in (0.0, np.pi / 4, np.pi / 2):
            alpha = radius * np.exp(1j * phase)
            series = bl.phi_prime_moment_series(alpha, 8, 2000)
            quads = bl.poisson_product_moment((alpha, -alpha), 8, 4096)
            for k in range(9):
                closed = bl.phi_prime_moment(alpha, k)
                worst_prime = max(worst_prime, abs(closed - series[k]) / abs(closed))
                quad = quads[k]
                wanted = bl.poisson_product_moment_closed(alpha, k)
                if k % 2:
                    worst_odd = max(worst_odd, abs(quad))
                else:
                    worst_even = max(worst_even, abs(quad - wanted))
    worst_exp = 0.0
    for variant, product, alpha in (
        (bl.VARIANT_Z_PHI, bl.z_times_phi, 0.5),
        (bl.VARIANT_Z_PHI, bl.z_times_phi, 0.3 + 0.1j),
        (bl.VARIANT_PHI_PAIR, bl.phi_pair, 0.5),
        (bl.VARIANT_PHI_PAIR, bl.phi_pair, 0.4j),
    ):
        closed = bl.adjoint_symbol_expansion(variant, alpha, 16)
        oracle = bl.adjoint_symbol_series_oracle(product(alpha), 16, order=400)
        scale = np.maximum(np.abs(oracle.coeffs), 1e-3)
        worst_exp = max(worst_exp, float(np.max(np.abs(closed.coeffs - oracle.coeffs) / scale)))
    gap = bl.adjoint_distinctness_gap(0.5)
    ok = (
        worst_prime < 1e-9
        and worst_even < 1e-10
        and worst_odd < 1e-12
        and worst_exp < 1e-8
        and gap > 0.1
    )
    _verdict(
        "criterion-7 adjoint-moment-oracles",
        ok,
        f"(derivative-moment {worst_prime:.1e}, moments {worst_even:.1e}/{worst_odd:.1e}, "
        f"expansions {worst_exp:.1e}, gap {gap:.3f})",
    )


def test_criterion_08_pick_suite():
    kaluza = pk.log_convexity(S12, 2000)[0] == -1
    signs = pk.reciprocal_sign_check(S12, 2000).status == rp.PASS
    c_s2 = pk.reciprocal_kernel_coefficients(sp.s2(), 4)
    c_s22 = pk.reciprocal_kernel_coefficients(sp.s22(), 4)
    coeffs_ok = (
        np.max(np.abs(c_s2[:3] - [1.0, -1.0, 0.75])) < 1e-12
        and np.max(np.abs(c_s22[:3] - [1.0, -0.5, 0.05])) < 1e-12
    )
    (gap_check,) = [fn for fn in checks.suite_checks("pick") if fn.check_id == "scalar_pick_gap"]
    gap_report = gap_check(checks.Config())
    values = {v.label: v.value.real for v in gap_report.computed}
    values_ok = (
        abs(values["pick_condition_value"] - 1.1409) < 5e-4
        and abs(values["attainable_target_sq"] - 0.0706) < 5e-4
    )
    ok = kaluza and signs and coeffs_ok and values_ok
    _verdict(
        "criterion-8 pick-suite",
        ok,
        f"(kaluza {kaluza}, signs {signs}, coeffs {coeffs_ok}, "
        f"values {values['pick_condition_value']:.4f}/{values['attainable_target_sq']:.4f})",
    )


def test_criterion_09_composition_suite():
    worst_k = max(abs(op.composition_monomial_norm(S12, k) - k) for k in range(1, 9))
    rng = np.random.default_rng(3)
    upper_ok = True
    for _ in range(10):
        deg = int(rng.integers(0, 9))
        f = ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
        f = ps.scale(f, 0.99 / (2 * SQRT2) / sp.space_norm(S12, f))
        comp = op.contractive_composition_norm(S12, f, n=256)
        phi0 = abs(f.coeffs[0])
        upper_ok = upper_ok and comp**2 <= (1.0 + phi0) / (1.0 - phi0) + 1e-8
    comp = op.contractive_composition_norm(sp.dirichlet(), ps.from_coefficients([0.5]), n=256)
    est_sq = comp**2
    lower = math.log(1.0 / 0.75) / 0.25
    bracket_ok = lower - 1e-8 <= est_sq <= 3.0
    hs_ok = True
    for _ in range(10):
        deg = int(rng.integers(1, 9))
        f = ps.PowerSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
        f = ps.scale(f, 0.8 / sp.sup_bracket(f)[0])
        hi = op.hilbert_schmidt_bracket(S12, f)[1]
        bound = 1.0 + 2.0 * sp.space_norm_sq(S12, f) / (1.0 - sp.sup_bracket(f)[0] ** 2)
        hs_ok = hs_ok and hi <= bound
    ok = worst_k < 1e-8 and upper_ok and bracket_ok and hs_ok
    _verdict(
        "criterion-9 composition-suite",
        ok,
        f"(monomial err {worst_k:.1e}, upper {upper_ok}, bracket {bracket_ok}, hs {hs_ok})",
    )


def test_criterion_10_verify_all():
    cfg = checks.Config()
    start = time.perf_counter()
    first = checks.run_suite("all", cfg)
    elapsed = time.perf_counter() - start
    second = checks.run_suite("all", cfg)
    same = all(
        a.check_id == b.check_id
        and a.status == b.status
        and [(v.label, v.value) for v in a.computed] == [(v.label, v.value) for v in b.computed]
        for a, b in zip(first, second)
    )
    ok = rp.reports_ok(first) and elapsed < 60.0 and same and len(first) >= 40
    _verdict(
        "criterion-10 verify-all",
        ok,
        f"({len(first)} checks, {elapsed:.1f}s, exit-ok {rp.reports_ok(first)}, deterministic {same})",
    )
