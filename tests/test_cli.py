import inspect
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

from diskops import blaschke as bl
from diskops import checks, cli
from diskops import pick as pk
from diskops import report as rp
from diskops import series as ps
from diskops import spaces as sp
from diskops.errors import DomainError

NAN = float("nan")
_Z_JSON = '{"a": [-1, 0], "zeros": [[0, 0]]}'  # the symbol z as a Blaschke product
# isometry's stdout where every defect is exactly 0
_ZERO_DEFECTS = ("probe degree 0: defect 0\nprobe degree 1: defect 0\nprobe degree 1: defect 0\n"
                 "max |defect| 0\n")


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
        # the second run reads the weight vectors the first one cached: every report repeats,
        # elapsed time aside
        cfg = checks.Config(seed=11)
        runs = []
        for _ in range(2):
            reports = checks.run_suite("all", cfg)
            for report in reports:
                report.elapsed_ms = 0.0
            runs.append(rp.emit_reports(reports, "json"))
        assert runs[0] == runs[1]

    def test_all_suite_size(self):
        assert len(checks.suite_checks("all")) >= 40

    def test_free_heap_is_returned_before_each_check(self, monkeypatch):
        # a run's peak memory is then its largest check's, not the heap fragments left before it
        calls = []
        monkeypatch.setattr(checks, "_MALLOC_TRIM", calls.append)
        reports = checks.run_suite("kernels")
        assert calls == [0] * len(reports)

    def test_check_ids_unique(self):
        # a repeated id would share a seed stream and a benchmark metric name
        ids = [fn.check_id for fn in checks.suite_checks("all")]
        assert len(set(ids)) == len(ids)

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

    def test_no_check_takes_a_config(self):
        # each registered entry calls its body as body(rng) if seeded and body() otherwise, so no
        # body can read the truncation, the tolerance or the node count
        for entry in checks.suite_checks("all"):
            body = inspect.getclosurevars(entry).nonlocals["fn"]
            assert list(inspect.signature(body).parameters) in ([], ["rng"]), entry.check_id
        with open(checks.__file__, encoding="utf-8") as handle:
            source = handle.read()
        for knob in ("cfg.truncation", "cfg.tol", "cfg.quad_nodes"):
            assert knob not in source

    def test_boundary_modulus_passes_at_every_truncation(self):
        # seed 0: the tail majorant of its ten products reaches 1e-8 at order 118, which the
        # check takes whatever the truncation, below it too
        (fn,) = [fn for fn in checks.suite_checks("all")
                 if fn.check_id == "blaschke_boundary_modulus"]
        reports = [fn(checks.Config(truncation=t)) for t in (16, 117, 256)]
        assert all(r.status == rp.PASS for r in reports)
        assert reports[0].computed == reports[1].computed == reports[2].computed

    def test_hilbert_schmidt_checks_need_no_truncation(self):
        # both read the circle quadrature's bracket, which takes its own node count: at T = 16
        # they pass with the values they give at T = 1024
        fns = [fn for fn in checks.suite_checks("all") if fn.check_id in
               ("comp_hilbert_schmidt_bound", "comp_hs_reference_values")]
        short, long = ([fn(checks.Config(truncation=t)) for fn in fns] for t in (16, 1024))
        assert len(short) == 2 and all(r.status == rp.PASS for r in short)
        assert [r.computed for r in short] == [r.computed for r in long]

    def test_boundary_modulus_evaluates_at_the_order_it_names(self, monkeypatch):
        # at seed 0 every product series is cut at 118, the largest order_for(1e-8) of the ten
        (fn,) = [fn for fn in checks.suite_checks("all")
                 if fn.check_id == "blaschke_boundary_modulus"]
        orders = []
        series = bl.BlaschkeProduct.series
        monkeypatch.setattr(bl.BlaschkeProduct, "series",
                            lambda psi, order: orders.append(order) or series(psi, order))
        report = fn(checks.Config(truncation=16))
        assert report.status == rp.PASS
        assert orders == [118] * 10

    def test_extremal_sharpness_holds_no_million_term_array(self):
        # the million-term S12 norm is summed in blocks; the whole series took about 40 MB
        (fn,) = [fn for fn in checks.suite_checks("all") if fn.check_id == "extremal_sharpness"]
        tracemalloc.start()
        try:
            report = fn(checks.Config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status == rp.PASS
        assert peak < 4e6

    def test_runner_names_every_report(self, pick_reports):
        ids = sorted(fn.check_id for fn in checks.suite_checks("pick"))
        assert sorted(r.check_id for r in pick_reports) == ids
        assert "kaluza_h2" in ids

    def test_side_condition_fails_inner_report(self, monkeypatch):
        # Hardy weights pass log-convexity with margin exactly 0, which the
        # S12 check rejects: it asks for a strict margin
        real = pk.log_convexity
        monkeypatch.setattr(pk, "log_convexity", lambda space, n_max: real(sp.hardy(), n_max))
        (fn,) = [fn for fn in checks.suite_checks("pick") if fn.check_id == "kaluza_s12"]
        report = fn(checks.Config())
        assert {v.label: v.value for v in report.computed}["first_failure_index"] == -1
        assert report.status == rp.FAIL


class TestReportHelpers:
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
        assert json.loads(payload) == [rp.report_to_dict(r) for r in pick_reports]

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

    @pytest.mark.parametrize("scale", ["1e200", "1e-200", "1e160", "1e-170"])
    def test_norms_of_huge_and_tiny_series(self, tmp_path, capfd, scale):
        # the inner products of these series overflow or underflow at their own scale: the
        # values are those of 1 + z times the scale, with no warning
        path = tmp_path / "series.json"
        path.write_text(f"[[{scale}, 0], [{scale}, 0]]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["norm", "S12", str(path)]) == 0
            assert cli.main(["opnorm", "S12", "mult", str(path)]) == 0
        norm, opnorm = map(float, capfd.readouterr().out.split())
        assert norm == 2 * float(scale)
        assert opnorm == pytest.approx(2.3787284431514 * float(scale), rel=1e-13)

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
        assert cli.main(["isometry", "S12", str(path), "3"]) == 0
        out = capsys.readouterr().out
        assert "max |defect|" in out

    def test_isometry_at_a_certified_truncation(self, tmp_path, capsys):
        # --truncation is no knob of isometry: at 512, as at any truncation, each orbit is cut
        # where its tails allow
        path = tmp_path / "blaschke.json"
        path.write_text(json.dumps({"a": [1, 0], "zeros": [[0.9, 0], [-0.5, 0]]}))
        assert cli.main(["--truncation", "512", "isometry", "S12", str(path), "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        defects = [float(line.split()[-1]) for line in lines]
        assert len(defects) == 4 and max(abs(d) for d in defects) < 1e-12

    def test_isometry_ignores_the_numeric_flags(self, tmp_path, capsys):
        # --truncation and --tol are validated but reach no orbit: every run prints the same
        # bytes, at truncation 16 too
        path = tmp_path / "blaschke.json"
        path.write_text('{"a": [1, 0], "zeros": [[0.9, 0], [-0.5, 0]]}')
        outs = set()
        for truncation in ("16", "256", "8192"):
            for tol in ("1e-14", "1e-8", "1"):
                argv = ["--truncation", truncation, "--tol", tol, "isometry", "S12", str(path), "3"]
                assert cli.main(argv) == 0
                outs.add(capsys.readouterr().out)
        assert len(outs) == 1

    @pytest.mark.parametrize(
        "payload,m,out",
        [('{"a": [1, 0], "zeros": [[0.9, 0], [-0.5, 0]]}', "3",
          "probe degree 0: defect -1.24344978758018e-14\n"
          "probe degree 1: defect 3.19744231092045e-14\n"
          "probe degree 1: defect 9.9475983006414e-14\n"
          "max |defect| 9.9475983006414e-14\n"),
         ('{"a": [1, 0], "zeros": [[0.99, 0], [-0.5, 0]]}', "3",
          "probe degree 0: defect 2.8421709430404e-14\n"
          "probe degree 1: defect 5.40012479177676e-13\n"
          "probe degree 1: defect 1.93267624126747e-12\n"
          "max |defect| 1.93267624126747e-12\n"),
         (_Z_JSON, "256", _ZERO_DEFECTS),
         (_Z_JSON, "1100", _ZERO_DEFECTS)],
        ids=["isometry_starved_09", "isometry_starved_099", "isometry_z_starved",
             "isometry_z_starved_1100"],
    )
    def test_isometry_at_its_own_cut(self, tmp_path, capsys, payload, m, out):
        # the bytes --truncation 8192 printed while shorter truncations refused these inputs
        # (at the default one, "needs truncation >= 474, 6594, 257 and 1101")
        path = tmp_path / "blaschke.json"
        path.write_text(payload)
        assert cli.main(["isometry", "S12", str(path), m]) == 0
        assert capsys.readouterr().out == out

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
        reports = json.loads(out)
        assert code == 0
        assert all(r["status"] in (rp.PASS, rp.CONSISTENT) for r in reports)

    def test_verify_ignores_the_numeric_flags(self, capsys):
        # --truncation, --tol and --quad-nodes are validated but reach no check: the reports
        # equal the default run's, elapsed time aside
        runs = []
        for flags in ([], ["--truncation", "16", "--tol", "1e-14", "--quad-nodes", "256"]):
            assert cli.main(["verify", "all", *flags, "--output", "json"]) == 0
            reports = json.loads(capsys.readouterr().out)
            for report in reports:
                report.pop("elapsed_ms")
            runs.append(reports)
        assert runs[0] == runs[1]

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
            (["kernel", "S2", "0.9999", "0.9999"], "", "needs 242834 terms; the limit is 200000",
             {}),
            (["kernel", "S2", "0.9999999", "0.9999999"], "",
             "needs more than 262144 terms; the limit is 200000", {}),
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
            # refused before any power of phi is built, whose orbit used to overflow at 1024
            (["--truncation", "1024", "opnorm", "S12", "comp", "{path}"], "[[0.5, 0], [2, 0]]",
             "sup |phi| >= 2.5 > 1: phi is no self-map", {}),
            (["norm", "Dalpha:inf", "{path}"], "[[1, 0]]", "Dalpha requires a finite alpha >= 0", {}),
            (["kernel", "Dalpha:inf", "0.5", "0.5"], "", "Dalpha requires a finite alpha >= 0", {}),
            (["kernel", "Dalpha:1e308", "0.5", "0.5"], "",
             "Dalpha:1e+308 weights overflow the float range", {}),
            (["kernel", "Km:1000000", "0.5", "0.5"], "",
             "Km:1000000 weights overflow the float range", {}),
            # m 2^m = 1000 2^1000 takes the tail budget below the least normal float, which is
            # named as a power of two; at m = 100000 it used to print as "within 0".  --tol is
            # read by no command: D2 with it prints the S12 line, as 1 + ||1||^2 = 2 on both
            (["isometry", "S12", "{path}", "1000"], '{"a": [1, 0], "zeros": [[0.5, 0], [0, 0.3]]}',
             "diskops: psi^1000: the tail budget 2^-1064.0 is below the float range", {}),
            (["--tol", "1e-6", "isometry", "D2", "{path}", "1000"],
             '{"a": [1, 0], "zeros": [[0.5, 0], [0, 0.3]]}',
             "diskops: psi^1000: the tail budget 2^-1064.0 is below the float range", {}),
            (["isometry", "S12", "{path}", "100000"], '{"a": [1, 0], "zeros": [[0.5, 0], [0, 0.3]]}',
             "diskops: psi^100000: the tail budget 2^-100070.6 is below the float range", {}),
            (["verify", "constants", "--seed", "-10000000000"], "", "seed must be >= 0", {}),
            (["verify", "constants"], "", "seed must be >= 0", {"DISKOPS_SEED": "-1"}),
            (["verify", "pick", "--output", "xml"], "", "output must be one of text, json, csv",
             {}),
            (["verify", "pick"], "", "output must be one of text, json, csv",
             {"DISKOPS_OUTPUT": "xml"}),
            (["pick", "{path}"],
             '{"space": "S12", "nodes": [[0, 0], [0.5, 0]], "targets": [[1e200, 0], [0, 0]]}',
             "the Pick matrix overflows the float range", {}),
            # 1 - |target|^2 = -1e300 is finite; times the kernel near the circle (4.5e15) it is not
            (["pick", "{path}"],
             '{"space": "H2", "nodes": [[0.9999999999999999, 0], [0, 0]], "targets": [[1e150, 0], '
             '[0, 0]]}', "the Pick matrix overflows the float range", {}),
            (["norm", "S12", "{path}"], "[[1e308, 0], [1e308, 0]]",
             "the norm overflows the float range", {}),
            (["opnorm", "S12", "mult", "{path}"], "[[1e308, 0], [1e308, 0]]",
             "the norm overflows the float range", {}),
            # sup 1.1 on the circle, with no overflow: this printed 4.2168940064765e+41
            (["--truncation", "1024", "opnorm", "S12", "comp", "{path}"], "[[0.5, 0], [0.6, 0]]",
             "sup |phi| >= 1.1 > 1: phi is no self-map", {}),
            # sup 2e308 on the circle: the bracket's lower side saturates at the largest float,
            # a bound, so the line says >=
            (["opnorm", "S12", "comp", "{path}"], "[[0, 0], [1e308, 0], [1e308, 0]]",
             "diskops: composition symbol has sup |phi| >= 1.79769e+308 > 1: phi is no self-map "
             "of the disk", {}),
        ],
        ids=["bad_pair", "not_a_list", "unknown_space", "bad_json", "missing_file",
             "outside_disk", "series_too_long", "series_past_majorant_cap", "kernel_w_inf",
             "kernel_z_inf", "bad_config",
             "blaschke_missing_key", "blaschke_short_pair",
             "pick_short_node", "tol_nan", "tol_negative", "tol_inf", "tol_env_nan",
             "m_zero", "m_negative", "comp_not_self_map", "norm_dalpha_inf", "kernel_dalpha_inf",
             "kernel_dalpha_overflow", "kernel_km_overflow",
             "isometry_growth_underflow", "isometry_growth_underflow_d2_tol",
             "isometry_growth_underflow_100000", "seed_negative",
             "seed_env_negative", "output_xml", "output_env_xml", "pick_target_overflow",
             "pick_kernel_overflow", "norm_past_float_max", "opnorm_past_float_max",
             "opnorm_comp_not_self_map", "opnorm_comp_sup_past_float_max"],
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

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        # --truncation 100000000 asks the Golub-Kahan bases for 49.2 GiB: one line, not a
        # traceback (raised here by a stand-in, never by allocating)
        def no_memory(space, f, n):
            raise MemoryError(f"Unable to allocate 49.2 GiB for an array with shape (33, {n + 1})")

        monkeypatch.setattr(cli.op, "multiplication_norm", no_memory)
        path = tmp_path / "s.json"
        path.write_text("[[0.5, 0], [0.25, 0]]")
        assert cli.main(["--truncation", "100000000", "opnorm", "S12", "mult", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("diskops: Unable to allocate 49.2 GiB for an array with shape "
                                "(33, 100000001)\n")

    def test_verify_determinism_bitwise(self, capsys):
        cli.main(["verify", "composition", "--output", "json"])
        first = capsys.readouterr().out
        cli.main(["verify", "composition", "--output", "json"])
        second = capsys.readouterr().out
        a, b = json.loads(first), json.loads(second)
        for x, y in zip(a, b):
            assert x["computed"] == y["computed"]


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: cli.main(["kernel", "S12", "nan", "0.5"]), 2),
        (lambda: sp.kernel(sp.hardy(), NAN, 0.5), DomainError),
        (lambda: sp.kernel(sp.s2(), [0.5, NAN], 0.5), DomainError),
        (lambda: sp.kernel(sp.s12(), [[0.5], [0.9]], [0.3, 1.2]), DomainError),
        (lambda: bl.phi_prime_moment_series(NAN, 0), DomainError),
        (lambda: bl.BlaschkeProduct(1.0, (NAN,)), DomainError),
        (lambda: bl.BlaschkeProduct(NAN), DomainError),
        (lambda: pk.PickProblem(sp.s12(), (NAN,), (0.0,)), DomainError),
        (lambda: bl.poisson_kernel(NAN, 1.0), DomainError),
        (lambda: bl.poisson_product_moment((NAN,), 0), DomainError),
        (lambda: bl.phi_prime_moment(NAN, 0), DomainError),
        (lambda: bl.adjoint_symbol_expansion(bl.VARIANT_Z_PHI, NAN, 4), DomainError),
        (lambda: bl.adjoint_distinctness_gap(NAN), DomainError),
        (lambda: pk.corona_kernel_check(sp.s12(), [ps.one()], 1.0, grid=[NAN]), DomainError),
        (lambda: sp.dalpha(NAN), ValueError),
        (lambda: pk.psd_check(np.array([[1.0, 0.0], [0.0, NAN]])), DomainError),
        (lambda: pk.psd_check(np.array([[math.inf]])), DomainError),
    ],
    ids=["cli_kernel", "kernel", "kernel_array_nan", "kernel_array_outside", "mobius", "blaschke_zero", "blaschke_unimodular", "pick_node",
         "poisson_kernel", "poisson_product_moment", "phi_prime_moment", "adjoint_expansion",
         "adjoint_distinctness", "corona_grid", "dalpha_alpha", "psd_check_nan", "psd_check_inf"],
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
    assert [[c.real, c.imag] for c in cli._read_series(_via_json(pairs)).coeffs] == pairs
    pairs[at % len(pairs)] = bad
    _rejects(cli._read_series, pairs)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2 * math.pi), st.lists(_IN_DISK, max_size=4), _MALFORMED_PAIR, _OUTSIDE_DISK,
       st.sampled_from(["no a", "no zeros", "bad a", "bad zero", "zero outside"]))
def test_blaschke_json_parser(phase, zeros, bad, outside, fault):
    d = {"a": [math.cos(phase), math.sin(phase)], "zeros": zeros}
    psi = cli._read_blaschke(_via_json(d))
    assert [psi.unimodular.real, psi.unimodular.imag] == d["a"]
    assert [[z.real, z.imag] for z in psi.zeros] == zeros
    if fault.startswith("no "):
        del d[fault[3:]]
    elif fault == "bad a":
        d["a"] = bad
    else:
        d["zeros"] = zeros + [bad if fault == "bad zero" else outside]
    _rejects(cli._read_blaschke, d)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["H2", "S2", "S12", "D2", "Dalpha:1.5", "Km:2"]),
       st.lists(st.tuples(_IN_DISK, _PAIR), min_size=1, max_size=4, unique_by=lambda p: tuple(p[0])),
       _MALFORMED_PAIR, _OUTSIDE_DISK,
       st.sampled_from(["no space", "no nodes", "no targets", "bad node", "node outside",
                        "bad target"]))
def test_pick_json_parser(space, data, bad, outside, fault):
    nodes, targets = [list(p) for p in zip(*data)]
    d = {"space": space, "nodes": nodes, "targets": targets}
    problem = cli._read_pick_problem(_via_json(d))
    assert problem.space.label == space
    assert [[x.real, x.imag] for x in problem.nodes] == nodes
    assert [[x.real, x.imag] for x in problem.targets] == targets
    if fault.startswith("no "):
        del d[fault[3:]]
    elif fault == "bad target":
        d["targets"][-1] = bad
    else:
        d["nodes"][-1] = bad if fault == "bad node" else outside
    _rejects(cli._read_pick_problem, d)


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
    # threaded BLAS sums in another order than one thread does; the third run
    # pins only after a threaded SVD has left the workers spinning
    argv = ["verify", "constants", "--output", "json"]
    after_svd = (
        "import numpy\n"
        "numpy.linalg.svd(numpy.random.default_rng(0).standard_normal((257, 257)))\n"
        "from diskops import cli\n"
        f"cli.main({argv!r})\n"
    )
    runs = []
    for args, env in (
        (["-m", "diskops.cli", *argv], {}),
        (["-m", "diskops.cli", *argv], {"OPENBLAS_NUM_THREADS": "1"}),
        (["-c", after_svd], {}),
    ):
        reports = json.loads(_run_python(args, **env))
        for report in reports:
            del report["elapsed_ms"]
        runs.append(json.dumps(reports))
    assert runs[0] == runs[1] == runs[2]


def test_composition_suite_imports_no_numpy_ma():
    # np.unique loads numpy.ma (for np.ma.is_masked), inside the timed check
    code = (
        "import sys\n"
        "from diskops import checks\n"
        "checks.run_suite('composition')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_python(["-c", code]).splitlines()[-1] == "False"


def test_numpy_random_is_imported_before_the_first_check():
    # numpy imports numpy.random lazily, about 15 ms that the first seeded check's
    # elapsed_ms would hold; the first check records whether it is already loaded
    code = (
        "import sys\n"
        "from diskops import checks\n"
        "print('numpy.random' in sys.modules)\n"
        "first = checks._REGISTRY['kernels'][0]\n"
        "def probe(cfg):\n"
        "    print('numpy.random' in sys.modules)\n"
        "    return first(cfg)\n"
        "probe.check_id = first.check_id\n"
        "checks._REGISTRY['kernels'][0] = probe\n"
        "checks.run_suite('kernels')\n"
    )
    assert _run_python(["-c", code]).splitlines() == ["False", "True"]


def test_verify_imports_no_scipy():
    code = (
        "import sys\n"
        "from diskops import cli\n"
        "cli.main(['verify', 'constants'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _run_python(["-c", code]).splitlines()[-1] == "[]"


# the thread count of every loaded OpenBLAS, next to the OS thread count of the process:
# after a threaded SVD and before importing diskops, after importing diskops.cli, and
# after one cli.main call; the SVD leaves OpenBLAS workers spinning, the way a caller's
# own work or numpy's import does
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
    return [out, len(os.listdir("/proc/self/task"))]

numpy.linalg.svd(numpy.random.default_rng(0).standard_normal((257, 257)))
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
    if not before[0]:
        pytest.skip("no OpenBLAS with a thread-count symbol is loaded")
    assert imported == before  # importing changes nothing
    if env:
        assert after == before  # the user's count, and its pool, are left alone
        return
    assert after[0] == [1] * len(before[0])
    if before[1] == 1:
        pytest.skip("the OpenBLAS pool has no worker (one core)")
    assert after[1] == 1  # the idle workers are joined, not left spinning


# both OpenBLAS pools (numpy's, and scipy's second library) after a threaded call, after
# cli.main, after a second cli.main, and after raising numpy's count back for a threaded
# 600 x 600 product, which must equal the one taken before the pin bit for bit
_SHUTDOWN_EDGES = """
import ctypes, json, os
import numpy, scipy.sparse.linalg

def threads():
    return len(os.listdir("/proc/self/task"))

with open("/proc/self/maps", encoding="utf-8") as maps:
    fields = [line.rstrip("\\n").split(maxsplit=5) for line in maps]
libs = sorted({f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])})
numpy_libs = [path for path in libs if "openblas64_" in os.path.basename(path)]
a = numpy.random.default_rng(1).standard_normal((600, 600))
product = a @ a
started = threads()
if len(libs) < 2 or not numpy_libs or started == 1:
    print("null")
    raise SystemExit
numpy_lib = ctypes.CDLL(numpy_libs[0])
count = numpy_lib.scipy_openblas_get_num_threads64_()
from diskops import cli
cli.main(["kernel", "S12", "0.1", "0.2"])
pinned = threads()
cli.main(["kernel", "S12", "0.1", "0.2"])
again = threads()
numpy_lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
numpy_lib.scipy_openblas_set_num_threads64_(count)
same = bool(numpy.array_equal(a @ a, product))
print(json.dumps([started, pinned, again, threads(), same]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_cli_shuts_every_pool_and_a_raised_count_rebuilds_it():
    out = json.loads(_run_python(["-c", _SHUTDOWN_EDGES]).splitlines()[-1])
    if out is None:
        pytest.skip("needs numpy's and scipy's OpenBLAS with a worker each (two cores)")
    started, pinned, again, raised, same = out
    assert started >= 3  # a worker in each of the two pools
    assert pinned == again == 1
    assert raised > 1 and same
