"""Named verification checks, grouped into runnable suites.

Each check reproduces one computable statement about these spaces and
returns a ``VerificationReport`` whose status the ``report`` helpers
derive from its verdict; the suite runner stamps it with the id the check
is registered under.  Checks draw any randomness from a PRNG seeded by
the config (plus a per-check offset), so two runs with the same config
produce identical computed values.  Suites never abort on a check
failure: exceptions are captured as status="error" reports.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import blaschke as bl
from . import operators as op
from . import pick as pk
from . import report as rp
from . import series as ps
from . import spaces as sp
from .errors import TruncationError

SQRT2 = math.sqrt(2.0)

SUITE_NAMES = ("kernels", "constants", "isometries", "blaschke", "pick", "composition", "all")


@dataclass
class Config:
    """Runtime knobs shared by every check and the CLI."""

    truncation: int = 256
    tol: float = 1e-8
    quad_nodes: int = 4096
    seed: int = 0
    output: str = "text"

    def __post_init__(self):
        if self.truncation < 16:
            raise ValueError("truncation must be >= 16")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.quad_nodes < 256 or self.quad_nodes & (self.quad_nodes - 1):
            raise ValueError("quad_nodes must be a power of two >= 256")
        if self.output not in ("text", "json", "csv"):
            raise ValueError("output must be one of text, json, csv")


_REGISTRY: dict[str, list] = {name: [] for name in SUITE_NAMES if name != "all"}


def _check(suite: str, check_id: str):
    def wrap(fn):
        fn.check_id = check_id
        _REGISTRY[suite].append(fn)
        return fn

    return wrap


def _rng(cfg: Config, check_id: str) -> np.random.Generator:
    return np.random.default_rng(cfg.seed + zlib.crc32(check_id.encode()))


def _random_polynomial(rng, max_degree=12, min_degree=0) -> ps.PowerSeries:
    deg = int(rng.integers(min_degree, max_degree + 1))
    c = rng.uniform(-1.0, 1.0, deg + 1) + 1j * rng.uniform(-1.0, 1.0, deg + 1)
    return ps.PowerSeries(c)


def _random_blaschke(rng, max_factors=4, max_modulus=0.8) -> bl.BlaschkeProduct:
    k = int(rng.integers(1, max_factors + 1))
    radii = rng.uniform(0.0, max_modulus, k)
    phases = rng.uniform(0.0, 2.0 * np.pi, k)
    lead = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return bl.BlaschkeProduct(lead, tuple(radii * np.exp(1j * phases)))


def _disk_grid(count: int, max_radius: float, phase_offset: float) -> np.ndarray:
    """count points on 4 rings inside the disk (count must be 4*phases)."""
    phases = count // 4
    radii = max_radius * np.array([0.25, 0.5, 0.75, 1.0])
    pts = [
        r * np.exp(1j * (2.0 * np.pi * j / phases + phase_offset + 0.3 * i))
        for i, r in enumerate(radii)
        for j in range(phases)
    ]
    return np.array(pts)


# ===========================================================================
# kernels
# ===========================================================================


def _kernel_grid_check(space: sp.SpaceWeights, cfg: Config):
    ws = _disk_grid(20, 0.9, 0.0)[:, None]
    zs = _disk_grid(20, 0.9, 0.17)
    closed = sp.kernel(space, ws, zs)
    series = sp.kernel(space, ws, zs, terms=10_000)
    worst = float(np.max(np.abs(closed - series) / np.abs(closed)))
    return rp.vanishing_report("max_relative_error", worst, 1e-9, rp.DERIVED)


for _suffix, _space in (("s12", sp.s12()), ("h2", sp.hardy()), ("a2", sp.bergman()),
                        ("d2", sp.dirichlet())):
    _check("kernels", f"kernel_closed_vs_series_{_suffix}")(
        functools.partial(_kernel_grid_check, _space)
    )


@_check("kernels", "kernel_hermitian_symmetry")
def _kernel_hermitian(cfg):
    rng = _rng(cfg, "kernel_hermitian_symmetry")
    spaces = [sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s12(), sp.s2(), sp.s22(), sp.km(2)]
    pts = np.array(
        [rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(50)]
    )
    w, z = pts[0::2], pts[1::2]  # drawn as 25 (w, z) pairs, w first
    worst = 0.0
    for space in spaces:
        kwz, kzw = sp.kernel(space, np.array([w, z]), np.array([z, w]))
        worst = max(worst, float(np.max(np.abs(kwz - np.conj(kzw)) / (1.0 + np.abs(kwz)))))
    return rp.vanishing_report("max_deviation", worst, 1e-12, rp.TRIVIAL)


@_check("kernels", "kernel_reproducing_property")
def _kernel_reproducing(cfg):
    rng = _rng(cfg, "kernel_reproducing_property")
    spaces = [sp.hardy(), sp.bergman(), sp.dirichlet(), sp.s12(), sp.s2(), sp.s22(),
              sp.km(3), sp.dalpha(1.5)]
    worst = 0.0
    for space in spaces:
        for _ in range(10):
            f = _random_polynomial(rng)
            w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            kernel_coeffs = space.kernel_coeffs(f.order) * np.conj(w) ** np.arange(f.order + 1)
            ip = sp.inner_product(space, f, ps.PowerSeries(kernel_coeffs))
            val = f(w)
            worst = max(worst, abs(ip - val) / (1.0 + abs(val)))
    return rp.vanishing_report("max_relative_error", worst, 1e-10, rp.DERIVED)


@_check("kernels", "kernel_special_values")
def _kernel_special_values(cfg):
    at_zero = sp.kernel(sp.s12(), 0.0, 0.7)
    d2_closed = sp.kernel(sp.dirichlet(), 0.5, 1.0)
    d2_series = sp.kernel(sp.dirichlet(), 0.5, 1.0, terms=300)
    h2_val = sp.kernel(sp.hardy(), 0.5, 0.8)
    return rp.compare_report(
        [
            ("s12_at_zero_argument", at_zero, 1.0, rp.PAPER),
            ("d2_at_half", d2_closed, 2.0 * math.log(2.0), rp.PAPER),
            ("d2_series_at_half", d2_series, d2_closed, rp.DERIVED),
            ("h2_geometric", h2_val, 1.0 / (1.0 - 0.4), rp.TRIVIAL),
        ],
        tolerance=1e-12,
        relative=True,
    )


@_check("kernels", "kernel_small_argument_switch")
def _kernel_small_switch(cfg):
    # below the switch the short sum is exact to rounding; just above it
    # the log form is allowed its documented cancellation loss
    t = np.array([9e-4, 9e-4 * np.exp(0.4j), 1.1e-3, 1.1e-3 * np.exp(0.4j), 2e-3])
    worst_below = 0.0
    worst_above = 0.0
    for space in (sp.s12(), sp.dirichlet()):
        series = sp.kernel(space, 1.0, t, terms=64)
        error = np.abs(sp.kernel(space, 1.0, t) - series) / np.abs(series)
        worst_below = max(worst_below, float(error[:2].max()))
        worst_above = max(worst_above, float(error[2:].max()))
    return rp.make_report(
        computed=[("max_error_below_switch", worst_below), ("max_error_above_switch", worst_above)],
        reference=[("max_error_below_switch", 0.0, rp.DERIVED),
                   ("max_error_above_switch", 0.0, rp.DERIVED)],
        tolerance=1e-9,
        ok=worst_below < 1e-13 and worst_above < 1e-9,
    )


# ===========================================================================
# constants (sharp multiplier inequalities)
# ===========================================================================


@_check("constants", "pointwise_bound_sqrt2")
def _pointwise_bound(cfg):
    rng = _rng(cfg, "pointwise_bound_sqrt2")
    s12 = sp.s12()
    worst = 0.0
    for _ in range(500):
        f = _random_polynomial(rng)
        ratio = sp.sup_norm(f) / sp.space_norm(s12, f)
        worst = max(worst, ratio)
    return rp.make_report(
        computed=[("max_sup_to_norm_ratio", worst)],
        reference=[("sharp_constant", SQRT2, rp.PAPER)],
        tolerance=1e-12,
        ok=worst <= SQRT2 + 1e-12,
    )


@_check("constants", "extremal_sharpness")
def _extremal_sharpness(cfg):
    s12 = sp.s12()
    wide = sp.kernel_coefficient_series(s12, 1_000_000)
    norm_wide = sp.space_norm(s12, wide)
    short = sp.kernel_coefficient_series(s12, 10_000)
    at_one = ps.evaluate(short, 1.0).real
    ratio = at_one / sp.space_norm(s12, short)
    return rp.make_report(
        computed=[("norm", norm_wide), ("value_at_one", at_one), ("sup_to_norm_ratio", ratio)],
        reference=[
            ("norm", SQRT2, rp.PAPER),
            ("value_at_one", 2.0, rp.PAPER),
            ("sup_to_norm_ratio", SQRT2, rp.PAPER),
        ],
        tolerance=2e-4,
        ok=(
            abs(norm_wide - SQRT2) < 1e-6
            and abs(at_one - 2.0) < 2e-4
            and ratio > SQRT2 - 1e-3
        ),
    )


@_check("constants", "algebra_product_bound")
def _algebra_bound(cfg):
    rng = _rng(cfg, "algebra_product_bound")
    s12 = sp.s12()
    limit = 2.0 * SQRT2
    worst = 0.0
    for _ in range(500):
        f = _random_polynomial(rng)
        g = _random_polynomial(rng)
        prod = ps.cauchy_product(f, g, f.order + g.order)
        ratio = sp.space_norm(s12, prod) / (sp.space_norm(s12, f) * sp.space_norm(s12, g))
        worst = max(worst, ratio)
    return rp.make_report(
        computed=[("max_product_ratio", worst)],
        reference=[("algebra_constant", limit, rp.PAPER)],
        tolerance=0.0,
        ok=worst < limit,
    )


@_check("constants", "mult_monomial_norms")
def _mult_monomial_norms(cfg):
    s12 = sp.s12()
    rows = []
    for k in range(11):
        est = op.multiplication_norm(s12, ps.monomial(k), 64)
        want = math.sqrt((k + 1) * (k + 2) / 2.0)
        rows.append((f"norm_k{k}", est, want, rp.PAPER))
    return rp.compare_report(rows, tolerance=1e-10)


@_check("constants", "mult_one_plus_z_norm")
def _mult_one_plus_z(cfg):
    est = op.multiplication_norm(sp.s12(), ps.from_coefficients([1, 1]), 512)
    floor = math.sqrt(4.5)
    return rp.make_report(
        computed=[("norm_estimate", est)],
        reference=[("strict_lower_bound", floor, rp.PAPER)],
        tolerance=0.0,
        ok=est > floor,
    )


@_check("constants", "mult_norm_sandwich")
def _mult_norm_sandwich(cfg):
    rng = _rng(cfg, "mult_norm_sandwich")
    s12 = sp.s12()
    lower_slack = np.inf
    upper_slack = np.inf
    for _ in range(200):
        f = _random_polynomial(rng)
        est = op.multiplication_norm(s12, f, 256)
        norm = sp.space_norm(s12, f)
        lower_slack = min(lower_slack, est - max(sp.sup_norm(f), norm))
        upper_slack = min(upper_slack, 2.0 * SQRT2 * norm - est)
    return rp.make_report(
        computed=[("min_lower_slack", lower_slack), ("min_upper_slack", upper_slack)],
        reference=[("slack_floor", 0.0, rp.PAPER)],
        tolerance=0.0,
        # constant symbols make both sides exactly equal, so allow rounding
        ok=lower_slack >= -1e-12 and upper_slack >= -1e-12,
    )


@_check("constants", "mult_strict_sup_gap")
def _mult_strict_gap(cfg):
    rng = _rng(cfg, "mult_strict_sup_gap")
    s12 = sp.s12()
    min_margin = np.inf
    for _ in range(20):
        f = _random_polynomial(rng, min_degree=1)
        est = op.multiplication_norm(s12, f, 512)
        sup = sp.sup_norm(f)
        min_margin = min(min_margin, (est - sup) / sup)
    return rp.make_report(
        computed=[("min_relative_margin", min_margin)],
        reference=[("margin_floor", 0.0, rp.PAPER)],
        tolerance=0.0,
        ok=min_margin > 0.0,
    )


@_check("constants", "extremal_product_coefficients")
def _extremal_product(cfg):
    extremal = sp.kernel_coefficient_series(sp.s12(), 64)
    product = ps.cauchy_product(extremal, ps.from_coefficients([1, 1]), 64)
    n = np.arange(1, 65, dtype=np.float64)
    expected = np.concatenate([[1.0], 4.0 / (n * (n + 2.0))])
    worst = float(np.max(np.abs(product.coeffs - expected) / expected))
    return rp.vanishing_report("max_relative_error", worst, 1e-12, rp.PAPER)


@_check("constants", "s12_norm_decomposition")
def _norm_decomposition(cfg):
    rng = _rng(cfg, "s12_norm_decomposition")
    s12 = sp.s12()
    rows = []
    h, b, hd = sp.norm_decomposition_s12(ps.one())
    rows.append(("constant_parts", complex(h + b + hd), 1.0, rp.TRIVIAL))
    h, b, hd = sp.norm_decomposition_s12(ps.monomial(1))
    rows.append(("monomial_total", h + 1.5 * b + 0.5 * hd, 3.0, rp.DERIVED))
    f = _random_polynomial(rng, max_degree=10, min_degree=10)
    h, b, hd = sp.norm_decomposition_s12(f)
    rows.append(
        ("random_total", h + 1.5 * b + 0.5 * hd, sp.space_norm(s12, f) ** 2, rp.DERIVED)
    )
    return rp.compare_report(rows, tolerance=1e-12, relative=True)


@_check("constants", "norm_relations")
def _norm_relations(cfg):
    rng = _rng(cfg, "norm_relations")
    reports = [
        sp.norm_relation_check(ps.one()),
        sp.norm_relation_check(ps.monomial(1)),
        sp.norm_relation_check(_random_polynomial(rng)),
    ]
    return rp.make_report(
        computed=[(f"case_{i}_pass", float(r.status == rp.PASS)) for i, r in enumerate(reports)],
        reference=[("all_pass", 1.0, rp.PAPER)],
        tolerance=1e-10,
        ok=all(r.status == rp.PASS for r in reports),
    )


# ===========================================================================
# isometries
# ===========================================================================

_Z = bl.BlaschkeProduct(-1.0, (0j,))  # the symbol z


@_check("isometries", "shift_s12_defect3")
def _shift_defect3(cfg):
    rng = _rng(cfg, "shift_s12_defect3")
    worst = 0.0
    for _ in range(100):
        probe = _random_polynomial(rng)
        worst = max(worst, abs(op.isometry_defect(sp.s12(), ps.monomial(1), 3, probe)))
    return rp.vanishing_report("max_defect", worst, 1e-12, rp.PAPER, "defect")


@_check("isometries", "shift_s12_defect2_unit")
def _shift_defect2(cfg):
    value = op.isometry_defect(sp.s12(), ps.monomial(1), 2, ps.one())
    return rp.compare_report([("defect", value, 1.0, rp.DERIVED)], tolerance=0.0)


@_check("isometries", "shift_h2_defect1")
def _shift_h2_defect(cfg):
    rng = _rng(cfg, "shift_h2_defect1")
    worst = max(
        abs(op.isometry_defect(sp.hardy(), ps.monomial(1), 1, _random_polynomial(rng)))
        for _ in range(20)
    )
    return rp.vanishing_report("max_defect", worst, 1e-13, rp.TRIVIAL, "defect")


@_check("isometries", "blaschke_identity_z_phi04")
def _blaschke_identity_zphi(cfg):
    rng = _rng(cfg, "blaschke_identity_z_phi04")
    probes = [ps.one(), ps.from_coefficients([1, 1]), _random_polynomial(rng, max_degree=8)]
    return op.blaschke_isometry_check(sp.s12(), bl.z_times_phi(0.4), probes, 1024, tol=cfg.tol)


@_check("isometries", "blaschke_identity_phi_pair05")
def _blaschke_identity_pair(cfg):
    probes = [ps.one(), ps.monomial(1), ps.from_coefficients([1, 1])]
    return op.blaschke_isometry_check(sp.s12(), bl.phi_pair(0.5), probes, 1024, tol=cfg.tol)


@_check("isometries", "blaschke_identity_s2_correction")
def _blaschke_s2_correction(cfg):
    # On the S2 scale the three-step identity picks up exactly -|f(0)|^2
    # for symbols vanishing at the origin.
    value = op.blaschke_power_defect(sp.s2(), bl.z_times_phi(0.4), 3, ps.one(), 1024)
    return rp.compare_report([("three_step_residual", value, -1.0, rp.DERIVED)], tolerance=1e-8)


def _fit_error(result: op.ShiftClassification, order: int, polynomial) -> float:
    """Largest coefficient error of the fitted P; inf unless the order matches."""
    if result.order != order or result.polynomial is None:
        return np.inf
    return float(np.max(np.abs(np.array(result.polynomial) - polynomial)))


@_check("isometries", "shift_order_s12")
def _shift_order_s12(cfg):
    n = np.arange(64.0)
    result = op.shift_isometry_order((n + 3.0) / (n + 1.0), 6)
    coeff_err = _fit_error(result, 3, [1.0, 1.5, 0.5])
    return rp.make_report(
        computed=[
            ("order", -1 if result.order is None else result.order),
            ("coefficient_error", coeff_err),
            ("fit_residual", result.residual),
        ],
        reference=[("order", 3, rp.PAPER), ("coefficient_error", 0.0, rp.PAPER)],
        tolerance=1e-8,
        ok=coeff_err < 1e-8,
    )


@_check("isometries", "shift_order_h2")
def _shift_order_h2(cfg):
    result = op.shift_isometry_order(np.ones(64), 6)
    return rp.make_report(
        computed=[("order", -1 if result.order is None else result.order)],
        reference=[("order", 1, rp.TRIVIAL)],
        tolerance=0.0,
        ok=_fit_error(result, 1, [1.0]) < 1e-12,
    )


@_check("isometries", "shift_order_s2_none")
def _shift_order_s2(cfg):
    wsq = np.ones(64)
    n = np.arange(1.0, 64.0)
    wsq[1:] = (n + 1.0) ** 2 / n**2
    result = op.shift_isometry_order(wsq, 6)
    return rp.make_report(
        computed=[
            ("order", -1 if result.order is None else result.order),
            ("best_residual", result.residual),
        ],
        reference=[("order", -1, rp.PAPER)],
        tolerance=0.0,
        ok=result.order is None,
    )


@_check("isometries", "shift_order_km")
def _shift_order_km(cfg):
    from numpy.polynomial import polynomial as npoly

    n = np.arange(64.0)
    rows = []
    ok = True
    for m in (1, 2, 3):
        result = op.shift_isometry_order((n + m + 2.0) / (n + 1.0), m + 3)
        rows.append((f"order_m{m}", -1 if result.order is None else result.order))
        target = npoly.polyfromroots([-i for i in range(1, m + 2)]).real
        ok = ok and _fit_error(result, m + 2, target / target[0]) < 1e-8
    return rp.make_report(
        computed=rows,
        reference=[(f"order_m{m}", m + 2, rp.PAPER) for m in (1, 2, 3)],
        tolerance=1e-8,
        ok=ok,
    )


@_check("isometries", "km_defect_orders")
def _km_defect(cfg):
    rng = _rng(cfg, "km_defect_orders")
    rows = []
    ok = True
    for m in (1, 2, 3):
        space = sp.km(m)
        worst = 0.0
        for _ in range(10):
            probe = _random_polynomial(rng, max_degree=8)
            # unit-norm probes keep the large Km weights from inflating
            # the rounding floor of the alternating sum
            probe = ps.scale(probe, 1.0 / sp.space_norm(space, probe))
            worst = max(worst, abs(op.isometry_defect(space, ps.monomial(1), m + 2, probe)))
        strict = op.isometry_defect(space, ps.monomial(1), m + 1, ps.one())
        rows.append((f"max_defect_m{m}", worst))
        rows.append((f"strict_witness_m{m}", strict))
        ok = ok and worst < 1e-12 and strict == 1.0
    return rp.make_report(
        computed=rows,
        reference=[("defect", 0.0, rp.PAPER), ("strict_witness", 1.0, rp.DERIVED)],
        tolerance=1e-12,
        ok=ok,
    )


@_check("isometries", "growth_monomial_square")
def _growth_monomial(cfg):
    s2 = sp.s2()
    report = op.growth_formula_check(s2, _Z, ps.one(), 6, tol=1e-12, order=64)
    # the formula is only tested when the S2 monomial norms n^2 come out exact
    if not all(sp.space_norm(s2, ps.monomial(n)) ** 2 == float(n * n) for n in range(1, 7)):
        report.status = rp.FAIL
    return report


def _residual_report(cases, run, tol):
    """One max_residual row per (name, *args) case of ``run``; passes iff every run passes."""
    named = [(name, run(*args)) for name, *args in cases]
    return rp.make_report(
        computed=[(f"{name}_residual", r.value("max_residual")) for name, r in named],
        reference=[("residual", 0.0, rp.PAPER)],
        tolerance=tol,
        ok=all(r.status == rp.PASS for _, r in named),
    )


@_check("isometries", "growth_s2_formula")
def _growth_s2(cfg):
    symbols = [("z", _Z), ("z_phi03", bl.z_times_phi(0.3))]
    probes = [("one", ps.one()), ("one_plus_z", ps.from_coefficients([1, 1]))]
    cases = [(f"{sname}_{pname}", psi, f) for sname, psi in symbols for pname, f in probes]
    growth = functools.partial(op.growth_formula_check, sp.s2(), n_max=6, tol=cfg.tol, order=512)
    return _residual_report(cases, growth, cfg.tol)


@_check("isometries", "growth_s12_formula")
def _growth_s12(cfg):
    cases = [
        ("z_one", _Z, ps.one()),
        ("z_phi03_one", bl.z_times_phi(0.3), ps.one()),
        ("z_phi03_one_plus_z", bl.z_times_phi(0.3), ps.from_coefficients([1, 1])),
        ("phi_pair05_z", bl.phi_pair(0.5), ps.monomial(1)),
    ]
    growth = functools.partial(op.growth_formula_check, sp.s12(), n_max=6, tol=cfg.tol, order=512)
    return _residual_report(cases, growth, cfg.tol)


@_check("isometries", "dirichlet_linearity")
def _dirichlet_linearity(cfg):
    cases = [
        ("phi06_one", bl.BlaschkeProduct(1.0, (0.6,)), ps.one(), 5),
        ("z_phi02_quadratic", bl.z_times_phi(0.2), ps.from_coefficients([1, 0, 1]), 4),
        ("z_one", _Z, ps.one(), 5),
    ]
    linearity = functools.partial(op.dirichlet_linearity_check, tol=cfg.tol, order=512)
    return _residual_report(cases, linearity, cfg.tol)


# ===========================================================================
# blaschke
# ===========================================================================


@_check("blaschke", "mobius_involution")
def _mobius_involution(cfg):
    alphas, tol = (0.3, 0.5 + 0.2j, 0.7, -0.6j), 1e-8
    # phi_a = a - (1-|a|^2) sum conj(a)^(j-1) z^j and every power of phi_a is bounded
    # by 1 on the disk, so its coefficients are too (Cauchy): cutting the outer series
    # after z^T moves each kept coefficient of phi_a(phi_a) by at most (1+|a|) |a|^T
    needed = max(math.ceil(math.log(tol / (1 + abs(a))) / math.log(abs(a))) for a in alphas)
    if cfg.truncation < needed:
        raise TruncationError(f"phi_a(phi_a) = z to {tol:g} needs truncation >= {needed}")
    worst = 0.0
    target = ps.monomial(1, order=cfg.truncation)
    for alpha in alphas:
        phi = bl.MobiusMap(alpha).series(cfg.truncation)
        composed = ps.compose(phi, phi, cfg.truncation)
        worst = max(worst, float(np.max(np.abs(composed.coeffs - target.coeffs))))
    return rp.vanishing_report("max_coefficient_error", worst, tol, rp.TRIVIAL)


@_check("blaschke", "blaschke_boundary_modulus")
def _blaschke_boundary(cfg):
    rng = _rng(cfg, "blaschke_boundary_modulus")
    zeta = bl.circle_nodes(256)
    worst_exact = 0.0
    worst_series = 0.0
    for _ in range(10):
        psi = _random_blaschke(rng)
        worst_exact = max(worst_exact, float(np.max(np.abs(np.abs(psi(zeta)) - 1.0))))
        r = max((abs(z) for z in psi.zeros), default=0.0)
        order = cfg.truncation
        if 0 < r < 1:
            order = min(max(16, int(math.log(1e-14) / math.log(r)) + 1), cfg.truncation)
        values = ps.evaluate_many(psi.series(order), zeta)
        worst_series = max(worst_series, float(np.max(np.abs(np.abs(values) - 1.0))))
    return rp.make_report(
        computed=[("max_exact_deviation", worst_exact), ("max_series_deviation", worst_series)],
        reference=[("deviation", 0.0, rp.TRIVIAL)],
        tolerance=1e-8,
        ok=worst_exact < 1e-10 and worst_series < 1e-8,
    )


@_check("blaschke", "mobius_series_coefficients")
def _mobius_series(cfg):
    geometric = ps.PowerSeries(0.5 ** np.arange(10).astype(np.complex128))
    oracle = ps.cauchy_product(ps.from_coefficients([0.5, -1.0]), geometric, 9)
    series = bl.MobiusMap(0.5).series(9)
    worst = float(np.max(np.abs(series.coeffs - oracle.coeffs)))
    return rp.vanishing_report("max_coefficient_error", worst, 1e-12, rp.DERIVED)


@_check("blaschke", "mobius_derivative_series")
def _mobius_derivative(cfg):
    alpha = 0.5
    derived = ps.derivative(bl.MobiusMap(alpha).series(9))
    n = np.arange(8.0)
    expected = (-1.0 + alpha**2) * (n + 1.0) * alpha**n
    worst = float(np.max(np.abs(derived.coeffs[:8] - expected) / np.abs(expected)))
    return rp.vanishing_report("max_relative_error", worst, 1e-12, rp.PAPER)


@_check("blaschke", "poisson_mean_and_moments")
def _poisson_moments(cfg):
    zeta = bl.circle_nodes(cfg.quad_nodes)
    rows = [
        ("kernel_at_origin", bl.poisson_kernel(0.0, 1.0), 1.0, rp.TRIVIAL),
        ("mean_value", bl.circle_mean(bl.poisson_kernel(0.3 + 0.2j, zeta)), 1.0, rp.TRIVIAL),
    ]
    alpha = 0.3 + 0.2j
    for k in range(6):
        rows.append(
            (f"moment_k{k}", bl.poisson_moment(alpha, k, cfg.quad_nodes),
             np.conj(alpha) ** k, rp.DERIVED)
        )
    return rp.compare_report(rows, tolerance=1e-10)


@_check("blaschke", "poisson_product_moments")
def _poisson_product_moments(cfg):
    worst_even = 0.0
    worst_odd = 0.0
    for radius in (0.1, 0.3, 0.5, 0.7):
        for phase in (0.0, np.pi / 4, np.pi / 2):
            alpha = radius * np.exp(1j * phase)
            for k in range(9):
                quad = bl.poisson_product_moment(alpha, k, cfg.quad_nodes)
                closed = bl.poisson_product_moment_closed(alpha, k)
                if k % 2:
                    worst_odd = max(worst_odd, abs(quad))
                else:
                    worst_even = max(worst_even, abs(quad - closed))
    base = bl.poisson_product_moment(0.5, 0, cfg.quad_nodes)
    return rp.make_report(
        computed=[
            ("max_even_error", worst_even),
            ("max_odd_magnitude", worst_odd),
            ("base_value_half", base),
        ],
        reference=[("base_value_half", 0.6, rp.PAPER)],
        tolerance=1e-10,
        ok=worst_even < 1e-10 and worst_odd < 1e-12 and abs(base - 0.6) < 1e-10,
    )


@_check("blaschke", "phi_prime_moments")
def _phi_prime_moments(cfg):
    worst = 0.0
    for radius in (0.1, 0.3, 0.5, 0.7):
        for phase in (0.0, np.pi / 4, np.pi / 2):
            alpha = radius * np.exp(1j * phase)
            for k in range(9):
                closed = bl.phi_prime_moment(alpha, k)
                series = bl.phi_prime_moment_series(alpha, k, 2000)
                worst = max(worst, abs(closed - series) / abs(closed))
    half = bl.phi_prime_moment(0.5, 0)
    return rp.make_report(
        computed=[("max_relative_error", worst), ("value_half_k0", half)],
        reference=[("value_half_k0", 5.0 / 3.0, rp.PAPER)],
        tolerance=1e-9,
        ok=worst < 1e-9 and abs(half - 5.0 / 3.0) < 1e-14,
    )


def _adjoint_expansion_check(variant, alphas):
    worst = 0.0
    for alpha in alphas:
        closed = bl.adjoint_symbol_expansion(variant, alpha, 16)
        oracle = bl.adjoint_symbol_series_oracle(variant, alpha, 16, order=400)
        scale = np.maximum(np.abs(oracle.coeffs), 1e-3)
        worst = max(worst, float(np.max(np.abs(closed.coeffs - oracle.coeffs) / scale)))
    return rp.vanishing_report("max_relative_error", worst, 1e-8, rp.PAPER)


@_check("blaschke", "adjoint_expansion_z_phi")
def _adjoint_z_phi(cfg):
    report = _adjoint_expansion_check(bl.VARIANT_Z_PHI, (0.5, 0.3 + 0.1j))
    # alpha = 0 collapses to the pure square shift with constant term 4
    const = bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, 0.0, 4).coeffs
    if abs(const[0] - 4.0) > 1e-14 or np.max(np.abs(const[1:])) > 0:
        report.status = rp.FAIL
    return report


@_check("blaschke", "adjoint_expansion_phi_pair")
def _adjoint_phi_pair(cfg):
    report = _adjoint_expansion_check(bl.VARIANT_PHI_PAIR, (0.5, 0.4j))
    # the product phi_a phi_{-a} is even, so its odd coefficients vanish
    odd = bl.adjoint_symbol_expansion(bl.VARIANT_PHI_PAIR, 0.5, 15).coeffs[1::2]
    if np.max(np.abs(odd)) > 0:
        report.status = rp.FAIL
    return report


@_check("blaschke", "adjoint_distinctness")
def _adjoint_distinctness(cfg):
    big = bl.adjoint_distinctness_check(0.5, tol=0.1)
    small = bl.adjoint_distinctness_check(0.1, tol=1e-6)
    tiny = bl.adjoint_distinctness_check(1e-3, tol=0.0)
    tiny_gap = tiny.value("gap")
    return rp.make_report(
        computed=[("gap_at_half", big.value("gap")), ("gap_at_milli", tiny_gap)],
        reference=[("gap_lower_bound", 0.1, rp.PAPER)],
        tolerance=0.1,
        ok=big.status == rp.PASS and small.status == rp.PASS and abs(tiny_gap) < 0.05,
    )


# ===========================================================================
# pick
# ===========================================================================


@_check("pick", "kaluza_s12")
def _kaluza_s12(cfg):
    report = pk.kaluza_check(sp.s12(), 10_000)
    # log-convexity must hold strictly on S12, not just with equality
    if report.value("min_margin").real <= 0.0:
        report.status = rp.FAIL
    return report


@_check("pick", "kaluza_h2")
def _kaluza_h2(cfg):
    return pk.kaluza_check(sp.hardy(), 1000)


@_check("pick", "kaluza_s2_failure")
def _kaluza_s2(cfg):
    report = pk.kaluza_check(sp.s2(), 100)
    first = report.value("first_failure_index")
    return rp.make_report(
        computed=[("first_failure_index", first)],
        reference=[("first_failure_index", 1, rp.DERIVED)],
        tolerance=0.0,
        ok=report.status == rp.FAIL and first == 1,
    )


@_check("pick", "reciprocal_sign_s12")
def _reciprocal_s12(cfg):
    return pk.reciprocal_sign_check(sp.s12(), 2000)


def _reciprocal_coeffs(space: sp.SpaceWeights, c1: float, c2: float, cfg: Config):
    c = pk.reciprocal_kernel_coefficients(space, 16)
    first = pk.reciprocal_sign_check(space, 16).value("first_violation_index")
    rows = [
        ("c0", c[0], 1.0, rp.PAPER),
        ("c1", c[1], c1, rp.PAPER),
        ("c2", c[2], c2, rp.PAPER),
        ("first_violation_index", first, 2.0, rp.PAPER),
    ]
    return rp.compare_report(rows, tolerance=1e-12)


for _suffix, _space, _c1, _c2 in (("s2", sp.s2(), -1.0, 0.75), ("s22", sp.s22(), -0.5, 0.05)):
    _check("pick", f"reciprocal_coeffs_{_suffix}")(
        functools.partial(_reciprocal_coeffs, _space, _c1, _c2)
    )


@_check("pick", "scalar_pick_gap")
def _scalar_pick_gap(cfg):
    return pk.scalar_pick_counterexample()


@_check("pick", "scalar_pick_matrix_psd")
def _scalar_pick_matrix(cfg):
    problem = pk.PickProblem(sp.s2(), (0.0, 0.5), (0.0, math.sqrt(0.1)))
    matrix = pk.pick_matrix(problem)
    verdict = pk.psd_check(matrix)
    corner = matrix[1, 1].real
    return rp.make_report(
        computed=[
            ("corner_entry", corner),
            ("min_eigenvalue", verdict.min_eigenvalue),
            ("is_psd", float(verdict.is_psd)),
        ],
        reference=[("corner_entry", 1.1409, rp.PAPER), ("is_psd", 1.0, rp.PAPER)],
        tolerance=5e-4,
        ok=verdict.is_psd and abs(corner - 1.1409) < 5e-4,
    )


@_check("pick", "pick_gram_positivity")
def _pick_gram(cfg):
    rng = _rng(cfg, "pick_gram_positivity")
    worst = np.inf
    for space in (sp.s12(), sp.hardy(), sp.dirichlet(), sp.s2()):
        nodes = tuple(
            rng.uniform(0.05, 0.85) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(8)
        )
        problem = pk.PickProblem(space, nodes, (0.0,) * 8)
        verdict = pk.psd_check(pk.pick_matrix(problem))
        worst = min(worst, verdict.min_eigenvalue / max(verdict.matrix_scale, 1.0))
    return rp.make_report(
        computed=[("min_scaled_eigenvalue", worst)],
        reference=[("floor", 0.0, rp.TRIVIAL)],
        tolerance=1e-10,
        ok=worst >= -1e-10,
    )


@_check("pick", "corona_constant_cases")
def _corona_constants(cfg):
    psd = pk.corona_kernel_check(sp.s12(), [ps.one()], 1.0)
    negative = pk.corona_kernel_check(sp.s12(), [ps.one()], 1.1)
    return rp.make_report(
        computed=[
            ("unit_delta_psd", float(psd.is_psd)),
            ("inflated_delta_min_eig", negative.min_eigenvalue),
        ],
        reference=[("unit_delta_psd", 1.0, rp.TRIVIAL)],
        tolerance=0.0,
        ok=psd.is_psd and not negative.is_psd,
    )


@_check("pick", "corona_two_symbols")
def _corona_pair(cfg):
    symbols = [ps.monomial(1), ps.from_coefficients([1, -1])]
    grid8 = pk.default_corona_grid(radii=(0.3, 0.7), phases=4)
    grid16 = pk.default_corona_grid(radii=(0.2, 0.45, 0.7, 0.85), phases=4)
    v8 = pk.corona_kernel_check(sp.s12(), symbols, 0.1, grid=grid8)
    v16 = pk.corona_kernel_check(sp.s12(), symbols, 0.1, grid=grid16)
    return rp.make_report(
        computed=[
            ("grid8_min_eig", v8.min_eigenvalue),
            ("grid16_min_eig", v16.min_eigenvalue),
        ],
        reference=[("sampled_positivity", 1.0, rp.DERIVED)],
        tolerance=1e-10,
        ok=v8.is_psd and v16.is_psd,
        one_sided=True,
    )


# ===========================================================================
# composition
# ===========================================================================


@_check("composition", "comp_monomial_norms")
def _comp_monomial_norms(cfg):
    s12 = sp.s12()
    rows = []
    ok = True
    for k in range(1, 9):
        value = op.composition_monomial_norm(s12, k)
        rows.append((f"norm_k{k}", value))
        ok = ok and abs(value - k) < 1e-8
    # the finite compression must agree with the banded column structure
    est = op.composition_norm(s12, ps.monomial(3), 128)
    expected = max(
        math.sqrt(s12.weight(3 * j) / s12.weight(j)) for j in range(0, 128 // 3 + 1)
    )
    rows.append(("compression_k3", est))
    return rp.make_report(
        computed=rows,
        reference=[(f"norm_k{k}", float(k), rp.PAPER) for k in range(1, 9)],
        tolerance=1e-8,
        ok=ok and abs(est - expected) < 1e-10 and est <= 3.0,
    )


@_check("composition", "comp_upper_bound_random")
def _comp_upper_bound(cfg):
    rng = _rng(cfg, "comp_upper_bound_random")
    s12 = sp.s12()
    target = 0.99 / (2.0 * SQRT2)
    min_slack = np.inf
    ok = True
    for _ in range(10):
        f = _random_polynomial(rng, max_degree=8)
        f = ps.scale(f, target / sp.space_norm(s12, f))
        r = op.composition_norm_bound_check(s12, f, n=cfg.truncation, tol=cfg.tol)
        upper = next(v.value for v in r.reference if v.label == "upper_bound")
        min_slack = min(min_slack, (upper - r.value("composition_norm_sq_estimate")).real)
        ok = ok and r.status == rp.CONSISTENT
    return rp.make_report(
        computed=[("min_upper_slack", min_slack)],
        reference=[("slack_floor", 0.0, rp.PAPER)],
        tolerance=cfg.tol,
        ok=ok,
        one_sided=True,
    )


@_check("composition", "comp_d2_constant_bracket")
def _comp_d2_bracket(cfg):
    d2 = sp.dirichlet()
    r = op.composition_norm_bound_check(
        d2, ps.from_coefficients([0.5]), n=cfg.truncation, tol=cfg.tol
    )
    est_sq = r.value("composition_norm_sq_estimate")
    lower = math.log(1.0 / 0.75) / 0.25
    return rp.make_report(
        computed=[("norm_sq_estimate", est_sq)],
        reference=[("lower_bound", lower, rp.PAPER), ("upper_bound", 3.0, rp.PAPER)],
        tolerance=1e-8,
        ok=r.status == rp.CONSISTENT and abs(est_sq.real - lower) < 1e-8,
        one_sided=True,
    )


@_check("composition", "comp_hilbert_schmidt_bound")
def _comp_hs_bound(cfg):
    rng = _rng(cfg, "comp_hilbert_schmidt_bound")
    s12 = sp.s12()
    min_slack = np.inf
    for _ in range(10):
        f = _random_polynomial(rng, max_degree=8, min_degree=1)
        f = ps.scale(f, 0.8 / sp.sup_norm(f))
        sup = sp.sup_norm(f)
        value = op.hilbert_schmidt_norm_sq(s12, f, cfg.truncation)
        bound = 1.0 + 2.0 * sp.space_norm(s12, f) ** 2 / (1.0 - sup**2)
        min_slack = min(min_slack, bound - value)
    return rp.make_report(
        computed=[("min_bound_slack", min_slack)],
        reference=[("slack_floor", 0.0, rp.PAPER)],
        tolerance=0.0,
        ok=min_slack >= 0.0,
    )


@_check("composition", "comp_hs_reference_values")
def _comp_hs_values(cfg):
    s12 = sp.s12()
    half_z = op.hilbert_schmidt_norm_sq(s12, ps.from_coefficients([0, 0.5]), cfg.truncation)
    zero = op.hilbert_schmidt_norm_sq(s12, ps.from_coefficients([0.0]), cfg.truncation)
    rows = [
        ("half_z_sum", half_z, 4.0 / 3.0, rp.DERIVED),
        ("zero_symbol_sum", zero, 1.0, rp.TRIVIAL),
    ]
    return rp.compare_report(rows, tolerance=1e-12)


@_check("composition", "comp_diagonal_identities")
def _comp_diagonal(cfg):
    rng = _rng(cfg, "comp_diagonal_identities")
    worst = 0.0
    for n, k in ((2, 3), (4, 2), (5, 5)):
        composed = ps.compose(ps.monomial(n), ps.monomial(k), n * k)
        target = ps.monomial(n * k)
        worst = max(worst, float(np.max(np.abs(composed.coeffs - target.coeffs))))
    f = _random_polynomial(rng)
    through_z = ps.compose(f, ps.monomial(1), f.order)
    worst = max(worst, float(np.max(np.abs(through_z.coeffs - f.coeffs))))
    identity = op.composition_matrix(sp.s12(), ps.monomial(1), 32)
    worst = max(worst, float(np.max(np.abs(identity - np.eye(33)))))
    return rp.vanishing_report("max_deviation", worst, 1e-14, rp.TRIVIAL)


# ===========================================================================
# suite runner
# ===========================================================================


def suite_checks(suite: str) -> list:
    if suite == "all":
        return [fn for name in _REGISTRY for fn in _REGISTRY[name]]
    if suite not in _REGISTRY:
        raise ValueError(f"unknown suite {suite!r}")
    return list(_REGISTRY[suite])


def run_suite(suite: str, config: Config | None = None) -> list[rp.VerificationReport]:
    """Run every check in the suite; failures never abort the run.

    Reports are sorted by check_id so the output order is deterministic
    regardless of execution order.
    """
    config = config or Config()
    reports = []
    for fn in suite_checks(suite):
        start = time.perf_counter()
        try:
            report = fn(config)
        except Exception as exc:  # captured, by contract
            report = rp.VerificationReport(
                check_id=fn.check_id,
                status=rp.ERROR,
                computed=(rp.LabeledValue(f"{type(exc).__name__}: {exc}", complex(float("nan"), 0.0)),),
            )
        report.check_id = fn.check_id
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        reports.append(report)
    reports.sort(key=lambda r: r.check_id)
    return reports
