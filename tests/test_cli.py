import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskops import blaschke as bl
from diskops import checks, cli
from diskops import pick as pk
from diskops import report as rp
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import DomainError

NAN = float("nan")
_Z_JSON = '{"a": [-1, 0], "zeros": [[0, 0]]}'  # the symbol z as a Blaschke product


@pytest.fixture(scope="module")
def pick_reports():
    return checks.run_suite("pick", checks.Config())


class TestConfig:
    def test_defaults(self):
        cfg = checks.Config()
        assert cfg.truncation == 256 and cfg.quad_nodes == 4096

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            checks.Config(truncation=8)

    def test_rejects_bad_node_count(self):
        with pytest.raises(ValueError):
            checks.Config(quad_nodes=1000)

    def test_rejects_bad_output(self):
        with pytest.raises(ValueError):
            checks.Config(output="yaml")


class TestRunSuite:
    def test_reports_sorted(self, pick_reports):
        ids = [r.check_id for r in pick_reports]
        assert ids == sorted(ids)

    def test_determinism(self):
        cfg = checks.Config(seed=11)
        first = checks.run_suite("blaschke", cfg)
        second = checks.run_suite("blaschke", cfg)
        for a, b in zip(first, second):
            assert a.check_id == b.check_id and a.status == b.status
            assert [(v.label, v.value) for v in a.computed] == [
                (v.label, v.value) for v in b.computed
            ]

    def test_all_suite_size(self):
        assert len(checks.suite_checks("all")) >= 40

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            checks.run_suite("nope", checks.Config())

    def test_error_capture_does_not_abort_suite(self, monkeypatch):
        def explode(cfg):
            raise RuntimeError("boom")

        explode.check_id = "always_explodes"
        patched = dict(checks._REGISTRY)
        patched["kernels"] = [explode] + list(checks._REGISTRY["kernels"])
        monkeypatch.setattr(checks, "_REGISTRY", patched)
        reports = checks.run_suite("kernels", checks.Config())
        by_id = {r.check_id: r for r in reports}
        assert by_id["always_explodes"].status == rp.ERROR
        assert "RuntimeError: boom" in by_id["always_explodes"].computed[0].label
        others = [r for r in reports if r.check_id != "always_explodes"]
        assert others and all(r.status != rp.ERROR for r in others)
        assert not rp.reports_ok(reports)

    @pytest.mark.parametrize(
        "check_id,needs",
        # seed 0: the tail majorant of its ten products reaches 1e-8 at order 118;
        # the z/2 sum falls short of 4/3 by (4/3) 4^-(T+1)
        [("blaschke_boundary_modulus", 118), ("comp_hs_reference_values", 20)],
    )
    def test_starved_checks_report_error(self, monkeypatch, check_id, needs):
        (fn,) = [fn for fn in checks.suite_checks("all") if fn.check_id == check_id]
        monkeypatch.setattr(checks, "_REGISTRY", {"only": [fn]})
        (report,) = checks.run_suite("only", checks.Config(truncation=16))
        assert report.status == rp.ERROR
        assert report.computed[0].label.startswith("TruncationError")
        assert report.computed[0].label.endswith(f"needs truncation >= {needs}")
        (report,) = checks.run_suite("only", checks.Config(truncation=needs))
        assert report.status == rp.PASS

    def test_boundary_modulus_evaluates_at_the_order_it_names(self, monkeypatch):
        (fn,) = [fn for fn in checks.suite_checks("all")
                 if fn.check_id == "blaschke_boundary_modulus"]
        monkeypatch.setattr(checks, "_REGISTRY", {"only": [fn]})
        (report,) = checks.run_suite("only", checks.Config(truncation=117))
        assert report.status == rp.ERROR
        assert report.computed[0].label.endswith("needs truncation >= 118")
        orders = []
        series = bl.BlaschkeProduct.series
        monkeypatch.setattr(bl.BlaschkeProduct, "series",
                            lambda psi, order: orders.append(order) or series(psi, order))
        (report,) = checks.run_suite("only", checks.Config(truncation=118))
        assert report.status == rp.PASS
        assert orders == [118] * 10

    def test_runner_names_every_report(self, pick_reports):
        ids = sorted(fn.check_id for fn in checks.suite_checks("pick"))
        assert sorted(r.check_id for r in pick_reports) == ids
        assert "kaluza_h2" in ids
        # called directly, the library check keeps its own default id
        assert pk.kaluza_check(sp.hardy(), 1000).check_id == "kaluza_H2"

    def test_side_condition_fails_inner_report(self, monkeypatch):
        # Hardy weights pass log-convexity with margin exactly 0, which the
        # S12 check rejects: it asks for a strict margin
        real = pk.kaluza_check
        monkeypatch.setattr(pk, "kaluza_check", lambda space, n_max: real(sp.hardy(), n_max))
        (fn,) = [fn for fn in checks.suite_checks("pick") if fn.check_id == "kaluza_s12"]
        report = fn(checks.Config())
        assert report.value("first_failure_index") == -1
        assert report.status == rp.FAIL


class TestReportHelpers:
    def test_value_lookup(self):
        report = rp.make_report([("a", 1.5), ("b", 2j)], [], 0.0, True)
        assert report.value("a") == 1.5 and report.value("b") == 2j
        with pytest.raises(KeyError):
            report.value("missing")

    @pytest.mark.parametrize(
        "ok,one_sided,status",
        [(True, False, rp.PASS), (True, True, rp.CONSISTENT), (False, False, rp.FAIL),
         (False, True, rp.FAIL)],
    )
    def test_status_from_verdict(self, ok, one_sided, status):
        assert rp.make_report([], [], 0.0, ok, one_sided=one_sided).status == status

    def test_vanishing_report_is_strict(self):
        assert rp.vanishing_report("err", 0.5e-9, 1e-9, rp.DERIVED).status == rp.PASS
        at_limit = rp.vanishing_report("err", 1e-9, 1e-9, rp.PAPER, "defect")
        assert at_limit.status == rp.FAIL
        assert [(v.label, v.value) for v in at_limit.reference] == [("defect", 0.0)]


class TestEmit:
    def test_empty_json(self):
        assert rp.emit_reports([], "json") == b"[]"

    def test_single_pass_json(self, pick_reports):
        data = json.loads(rp.emit_reports(pick_reports[:1], "json"))
        assert data[0]["status"] in ("pass", "consistent")

    def test_json_round_trip(self, pick_reports):
        payload = rp.emit_reports(pick_reports, "json")
        parsed = rp.parse_reports(payload)
        assert parsed == pick_reports

    def test_csv_row_count(self, pick_reports):
        rows = rp.emit_reports(pick_reports, "csv").decode().strip().splitlines()
        assert len(rows) == len(pick_reports) + 1

    def test_text_contains_counts(self, pick_reports):
        text = rp.emit_reports(pick_reports, "text").decode()
        assert f"-- {len(pick_reports)} checks" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            rp.emit_reports([], "yaml")

    def test_fifteen_digit_format(self):
        assert rp.format_quantity(math.pi) == "3.14159265358979"
        assert rp.format_quantity(1 + 2j) == "1+2j"
        assert rp.format_quantity(1.5 - 0.25j) == "1.5-0.25j"


class TestCommandLine:
    def test_norm(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(json.dumps([[1, 0], [1, 0]]))
        assert cli.main(["norm", "S12", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_opnorm_mult(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(json.dumps([[1, 0], [1, 0]]))
        assert cli.main(["--truncation", "512", "opnorm", "S12", "mult", str(path)]) == 0
        assert float(capsys.readouterr().out) > math.sqrt(4.5)

    def test_opnorm_comp(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(json.dumps([[0, 0], [0.5, 0]]))
        assert cli.main(["opnorm", "S12", "comp", str(path)]) == 0
        assert abs(float(capsys.readouterr().out) - 1.0) < 1e-10

    def test_kernel(self, capsys):
        assert cli.main(["kernel", "D2", "0.5", "1.0"]) == 0
        assert abs(float(capsys.readouterr().out) - 2 * math.log(2)) < 1e-12

    def test_kernel_complex_argument(self, capsys):
        assert cli.main(["kernel", "S12", "0.3+0.2j", "0.5"]) == 0
        out = capsys.readouterr().out.strip()
        assert "j" in out

    def test_isometry(self, tmp_path, capsys):
        path = tmp_path / "blaschke.json"
        path.write_text(json.dumps({"a": [-1, 0], "zeros": [[0, 0], [0.4, 0]]}))
        assert cli.main(["--truncation", "600", "isometry", "S12", str(path), "3"]) == 0
        out = capsys.readouterr().out
        assert "max |defect|" in out

    def test_isometry_at_a_certified_truncation(self, tmp_path, capsys):
        # zeros (0.9, -0.5) starve the default order 256 (see the exit-2 rows); 512 holds them
        path = tmp_path / "blaschke.json"
        path.write_text(json.dumps({"a": [1, 0], "zeros": [[0.9, 0], [-0.5, 0]]}))
        assert cli.main(["--truncation", "512", "isometry", "S12", str(path), "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        defects = [float(line.split()[-1]) for line in lines]
        assert len(defects) == 4 and max(abs(d) for d in defects) < 1e-12

    def test_pick(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(
            json.dumps(
                {
                    "space": "S2",
                    "nodes": [[0, 0], [0.5, 0]],
                    "targets": [[0, 0], [math.sqrt(0.1), 0]],
                }
            )
        )
        assert cli.main(["pick", str(path)]) == 0
        assert "is_psd True" in capsys.readouterr().out

    def test_verify_exit_code_and_flag_after_subcommand(self, capsys):
        code = cli.main(["verify", "pick", "--output", "json"])
        out = capsys.readouterr().out
        reports = rp.parse_reports(out.encode())
        assert code == 0
        assert all(r.ok for r in reports)

    def test_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("DISKOPS_OUTPUT", "csv")
        cli.main(["verify", "kernels"])
        out = capsys.readouterr().out
        assert out.startswith("check_id,status")

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("DISKOPS_OUTPUT", "csv")
        cli.main(["--output", "json", "verify", "kernels"])
        assert capsys.readouterr().out.lstrip().startswith("[")

    @pytest.mark.parametrize(
        "argv,payload,message,env",
        [
            (["opnorm", "S12", "mult", "{path}"], "[[1, 0], [2]]", "not a pair of two numbers", {}),
            (["norm", "S12", "{path}"], '{"a": 1}', "not a pair of two numbers", {}),
            (["opnorm", "Q2", "mult", "{path}"], "[[1, 0]]", "unknown space", {}),
            (["norm", "S12", "{path}"], "[[1, 0],", "Expecting value", {}),
            (["norm", "S12", "{path}.missing"], "[[1, 0]]", "No such file", {}),
            (["kernel", "S12", "2", "0.5"], "", "kernel argument", {}),
            (["kernel", "S2", "0.9999", "0.9999"], "", "needs 2", {}),
            (["kernel", "S12", "1e400", "0"], "", "kernel points must be finite", {}),
            (["kernel", "S12", "0.5", "inf"], "", "kernel points must be finite", {}),
            (["--truncation", "8", "verify", "pick"], "", "truncation must be", {}),
            (["isometry", "S12", "{path}", "3"], '{"a": [1, 0]}', "key 'zeros'", {}),
            (["isometry", "S12", "{path}", "3"], '{"a": [1], "zeros": []}',
             "'a' entry [1] is not a pair of two numbers", {}),
            (["pick", "{path}"], '{"space": "S12", "nodes": [[0.1]], "targets": [[1, 0]]}',
             "'nodes' entry [0.1] is not a pair of two numbers", {}),
            (["verify", "composition", "--tol", "nan"], "", "tol must be finite and > 0", {}),
            (["verify", "composition", "--tol", "-1"], "", "tol must be finite and > 0", {}),
            (["verify", "composition", "--tol", "inf"], "", "tol must be finite and > 0", {}),
            (["verify", "composition"], "", "tol must be finite and > 0", {"DISKOPS_TOL": "nan"}),
            (["isometry", "S12", "{path}", "0"], _Z_JSON, "isometry order must be >= 1", {}),
            (["isometry", "S12", "{path}", "-1"], _Z_JSON, "isometry order must be >= 1", {}),
            (["--truncation", "1024", "opnorm", "S12", "comp", "{path}"], "[[0.5, 0], [2, 0]]",
             "overflows at order 1024", {}),
            (["isometry", "S12", "{path}", "3"], '{"a": [1, 0], "zeros": [[0.9, 0], [-0.5, 0]]}',
             "psi^3 within 1e-08 needs truncation >= 388", {}),
            (["isometry", "S12", "{path}", "3"], '{"a": [1, 0], "zeros": [[0.99, 0], [-0.5, 0]]}',
             "psi^3 within 1e-08 needs truncation >= 7687", {}),
            (["norm", "Dalpha:inf", "{path}"], "[[1, 0]]", "Dalpha requires a finite alpha >= 0", {}),
            (["kernel", "Dalpha:inf", "0.5", "0.5"], "", "Dalpha requires a finite alpha >= 0", {}),
            (["kernel", "Dalpha:1e308", "0.5", "0.5"], "",
             "Dalpha:1e+308 weights overflow the float range", {}),
        ],
        ids=["bad_pair", "not_a_list", "unknown_space", "bad_json", "missing_file",
             "outside_disk", "series_too_long", "kernel_w_inf", "kernel_z_inf", "bad_config",
             "blaschke_missing_key", "blaschke_short_pair",
             "pick_short_node", "tol_nan", "tol_negative", "tol_inf", "tol_env_nan",
             "m_zero", "m_negative", "comp_not_self_map", "isometry_starved_09",
             "isometry_starved_099", "norm_dalpha_inf", "kernel_dalpha_inf",
             "kernel_dalpha_overflow"],
    )
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    def test_input_errors_exit_2_with_one_line(
        self, tmp_path, capfd, monkeypatch, argv, payload, message, env
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = tmp_path / "input.json"
        path.write_text(payload)
        assert cli.main([a.format(path=path) for a in argv]) == 2
        captured = capfd.readouterr()  # file-descriptor level: LAPACK prints there
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("diskops: ") and message in line

    def test_verify_determinism_bitwise(self, capsys):
        cli.main(["verify", "composition", "--output", "json"])
        first = capsys.readouterr().out
        cli.main(["verify", "composition", "--output", "json"])
        second = capsys.readouterr().out
        a = rp.parse_reports(first.encode())
        b = rp.parse_reports(second.encode())
        for x, y in zip(a, b):
            assert [(v.label, v.value) for v in x.computed] == [
                (v.label, v.value) for v in y.computed
            ]


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: cli.main(["kernel", "S12", "nan", "0.5"]), 2),
        (lambda: sp.kernel(sp.hardy(), NAN, 0.5), DomainError),
        (lambda: sp.kernel(sp.s2(), [0.5, NAN], 0.5), DomainError),
        (lambda: sp.kernel(sp.s12(), [[0.5], [0.9]], [0.3, 1.2]), DomainError),
        (lambda: bl.MobiusMap(NAN), DomainError),
        (lambda: bl.BlaschkeProduct(1.0, (NAN,)), DomainError),
        (lambda: bl.BlaschkeProduct(NAN), DomainError),
        (lambda: pk.PickProblem(sp.s12(), (NAN,), (0.0,)), DomainError),
        (lambda: bl.poisson_kernel(NAN, 1.0), DomainError),
        (lambda: bl.poisson_product_moment(NAN, 0), DomainError),
        (lambda: bl.phi_prime_moment(NAN, 0), DomainError),
        (lambda: bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, NAN, 4), DomainError),
        (lambda: bl.adjoint_distinctness_check(NAN), DomainError),
        (lambda: pk.corona_kernel_check(sp.s12(), [ps.one()], 1.0, grid=[NAN]), DomainError),
        (lambda: sp.dalpha(NAN), ValueError),
    ],
    ids=["cli_kernel", "kernel", "kernel_array_nan", "kernel_array_outside", "mobius", "blaschke_zero", "blaschke_unimodular", "pick_node",
         "poisson_kernel", "poisson_product_moment", "phi_prime_moment", "adjoint_expansion",
         "adjoint_distinctness", "corona_grid", "dalpha_alpha"],
)
def test_nan_rejected_at_domain_gates(call, error, capsys):
    if isinstance(error, int):  # the command line reports an exit code
        assert call() == error
        assert len(capsys.readouterr().err.splitlines()) == 1
        return
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# the JSON parsers: well-formed input round-trips, malformed input raises
# ValueError or DomainError and nothing else
# ---------------------------------------------------------------------------

_NUMBER = st.floats(-4.0, 4.0)
_PAIR = st.tuples(_NUMBER, _NUMBER).map(list)


def _polar_pair(radii):
    return st.builds(lambda r, t: [r * math.cos(t), r * math.sin(t)], radii, st.floats(0, 2 * math.pi))


_IN_DISK = _polar_pair(st.floats(0.0, 0.95))
_OUTSIDE_DISK = _polar_pair(st.floats(1.01, 4.0))
_MALFORMED_PAIR = st.one_of(
    _NUMBER.map(lambda x: [x]),  # a short pair
    st.tuples(st.sampled_from([None, "0.5", True, [0.5], 10**400]), _NUMBER).map(list),  # no number
    st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), _NUMBER).map(list),  # nan / inf
)


def _via_json(payload):
    return json.loads(json.dumps(payload))


def _rejects(parse, payload):
    with pytest.raises((ValueError, DomainError)):
        parse(_via_json(payload))


@settings(max_examples=60, deadline=None)
@given(st.lists(_PAIR, min_size=1, max_size=6), _MALFORMED_PAIR, st.integers(0, 5))
def test_series_json_parser(pairs, bad, at):
    assert [[c.real, c.imag] for c in ps.from_pairs(_via_json(pairs)).coeffs] == pairs
    pairs[at % len(pairs)] = bad
    _rejects(ps.from_pairs, pairs)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2 * math.pi), st.lists(_IN_DISK, max_size=4), _MALFORMED_PAIR, _OUTSIDE_DISK,
       st.sampled_from(["no a", "no zeros", "bad a", "bad zero", "zero outside"]))
def test_blaschke_json_parser(phase, zeros, bad, outside, fault):
    d = {"a": [math.cos(phase), math.sin(phase)], "zeros": zeros}
    psi = bl.BlaschkeProduct.from_dict(_via_json(d))
    assert [psi.unimodular.real, psi.unimodular.imag] == d["a"]
    assert [[z.real, z.imag] for z in psi.zeros] == zeros
    if fault.startswith("no "):
        del d[fault[3:]]
    elif fault == "bad a":
        d["a"] = bad
    else:
        d["zeros"] = zeros + [bad if fault == "bad zero" else outside]
    _rejects(bl.BlaschkeProduct.from_dict, d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["H2", "S2", "S12", "D2", "Dalpha:1.5", "Km:2"]),
       st.lists(st.tuples(_IN_DISK, _PAIR), min_size=1, max_size=4, unique_by=lambda p: tuple(p[0])),
       _MALFORMED_PAIR, _OUTSIDE_DISK,
       st.sampled_from(["no space", "no nodes", "no targets", "bad node", "node outside",
                        "bad target"]))
def test_pick_json_parser(space, data, bad, outside, fault):
    nodes, targets = [list(p) for p in zip(*data)]
    d = {"space": space, "nodes": nodes, "targets": targets}
    problem = pk.PickProblem.from_dict(_via_json(d))
    assert problem.space.label == space
    assert [[x.real, x.imag] for x in problem.nodes] == nodes
    assert [[x.real, x.imag] for x in problem.targets] == targets
    if fault.startswith("no "):
        del d[fault[3:]]
    elif fault == "bad target":
        d["targets"][-1] = bad
    else:
        d["nodes"][-1] = bad if fault == "bad node" else outside
    _rejects(pk.PickProblem.from_dict, d)


def _run_python(args, **env):
    """stdout of a fresh interpreter that imports diskops from this tree.

    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are unset unless given in env.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    environ = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ.update(env)
    return subprocess.run(
        [sys.executable, *args], env=environ, capture_output=True, text=True, timeout=120,
    ).stdout


def test_values_do_not_depend_on_blas_threads():
    # OpenBLAS defaults to one thread per core, and on a multi-core machine
    # threaded BLAS sums in another order than one thread does
    argv = ["-m", "diskops.cli", "verify", "constants", "--output", "json"]
    runs = []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        reports = json.loads(_run_python(argv, **env))
        for report in reports:
            del report["elapsed_ms"]
        runs.append(json.dumps(reports))
    assert runs[0] == runs[1]


def test_verify_imports_no_scipy():
    code = (
        "import sys\n"
        "from diskops import cli\n"
        "cli.main(['verify', 'constants'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _run_python(["-c", code]).splitlines()[-1] == "[]"


# the thread count of every loaded OpenBLAS: before importing diskops, after
# importing diskops.cli, and after one cli.main call
_THREAD_COUNTS = """
import ctypes, json, os
import numpy, scipy.sparse.linalg

def counts():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        fields = [line.rstrip("\\n").split(maxsplit=5) for line in maps]
    out = []
    for path in sorted({f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                out.append(getter())
                break
    return out

before = counts()
from diskops import cli
imported = counts()
cli.main(["kernel", "S12", "0.1", "0.2"])
print(json.dumps([before, imported, counts()]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "openblas_set", "omp_set"])
def test_cli_pins_blas_threads_unless_the_user_chose(env):
    out = _run_python(["-c", _THREAD_COUNTS], **env)
    before, imported, after = json.loads(out.splitlines()[-1])
    if not before:
        pytest.skip("no OpenBLAS with a thread-count symbol is loaded")
    assert imported == before  # importing changes nothing
    assert after == (before if env else [1] * len(before))
