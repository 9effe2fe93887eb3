import ast
import cmath
import contextlib
import functools
import gc
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extflow import affine, cli, flow, mobius, models, numerics, spectra, weylcheck
from extflow.errors import ExtflowError, IllPosed, InvalidArgument, NumericalInconsistency


def run_cli(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestConfig:
    def test_flags_only(self):
        values = cli.parse_args(
            ["fixed-points", "--model", "interval", "--l", "1",
             "--group", "translation"])
        assert type(values) is dict
        cfg = cli.load_config(values)
        assert cfg.model == "interval"
        assert cfg.l == 1.0
        assert cfg.group == "translation"

    def test_incompatible_model_group(self):
        values = cli.parse_args(
            ["fixed-points", "--model", "interval", "--group", "scaling"])
        with pytest.raises(cli.IncompatibleModelGroup):
            cli.load_config(values)

    def test_missing_model_names_field(self):
        values = cli.parse_args(["fixed-points"])
        with pytest.raises(cli.ParseError, match="model"):
            cli.load_config(values)

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sample configuration\n"
            "model = interval\n"
            "l = 2.0\n"
            "t = 0.5,1.5\n")
        values = cli.parse_args(
            ["fixed-points", "--config", str(path), "--l", "1.0"])
        cfg = cli.load_config(values)
        assert cfg.model == "interval"
        assert cfg.l == 1.0               # flag wins over the file
        assert cfg.t == [0.5, 1.5]

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("flavor = strange\n")
        values = cli.parse_args(
            ["fixed-points", "--model", "interval", "--config", str(path)])
        with pytest.raises(cli.ParseError, match="flavor"):
            cli.load_config(values)

    def test_every_default_is_finite_and_in_its_domain(self):
        # load_config validates only the keys given, so a key left out must
        # pass as its default
        for key, (value, _, _, domain) in cli._KEYS.items():
            if value is None:
                continue
            for x in value if isinstance(value, (list, tuple)) else (value,):
                assert not isinstance(x, (float, complex)) or cmath.isfinite(x), key
            assert domain is None or domain[0](value), key

    @pytest.mark.parametrize("argv, message", [
        (["fixed-points", "--model=interval", "--group=rotation", "--l=400"],
         "fixed-points: 'l' must lie in [1e-3, 300], got 400.0"),
        (["fixed-points", "--model=interval", "--l=400", "--t=nan"],
         "fixed-points: every numeric input must be finite"),
        (["fixed-points", "--model=interval", "--t=", "--group=rotation"],
         "fixed-points: 'group' must be translation or scaling, got 'rotation'"),
        (["spectrum", "--rho=2", "--window=3,1"],
         "spectrum: 'window' must be lo,hi with lo < hi, got [3.0, 1.0]"),
        (["shoot", "--count=0", "--theta=inf"], "shoot: every numeric input must be finite"),
        (["shoot", "--count=10" + "0" * 400, "--gamma=nan"],
         "shoot: every numeric input must be finite"),
        (["weyl", "--jobs=0", "--n=4"],
         "weyl: 'n' needs every grid size from 8 to 1048576, got [4]"),
        (["weyl", "--format=xml", "--jobs=0"], "weyl: 'jobs' must be at least 1, got 0"),
        (["period", "--model=interval", "--t-max=-1", "--l=400"],
         "period: 'l' must lie in [1e-3, 300], got 400.0"),
    ])
    def test_first_of_two_bad_keys(self, argv, message):
        # finiteness first, then the domains in _KEYS order, whatever the
        # order of the flags; spectra checks rho itself, so the window comes
        # first
        with pytest.raises(cli.ParseError) as info:
            cli.load_config(cli.parse_args(argv))
        assert str(info.value) == message


class TestCommands:
    def test_fixed_points_reports_dirichlet_parameter(self, tmp_path):
        code, text = run_cli(tmp_path, "fixed-points", "--model", "interval",
                             "--l", "1", "--t", "1")
        assert code == 0
        payload = json.loads(text)
        row = payload["results"]["rows"][0]
        assert row["re"] == pytest.approx(math.exp(-1), abs=1e-7)
        assert row["kind"] == "dissipative-nonselfadjoint"
        assert payload["pass"] is True

    def test_period_command(self, tmp_path):
        code, text = run_cli(tmp_path, "period", "--model", "interval", "--l", "1")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["period"] == pytest.approx(2 * math.pi, abs=1e-6)

    def test_flow_orbit(self, tmp_path):
        code, text = run_cli(tmp_path, "flow-orbit", "--model", "interval",
                             "--l", "1", "--t", "0.2,0.8,1.9", "--v0", "0.1+0.4j")
        assert code == 0
        payload = json.loads(text)
        rows = payload["results"]["rows"]
        assert len(rows) == 3
        assert all(r["modulus"] <= 1 + 1e-10 for r in rows)

    def test_period_inverse_square_default_bound(self, tmp_path):
        # no bound by default, reported as null: at -0.3 the period is 28.0993
        for gamma, rel in ((-25.0, 3e-15), (-0.3, 1e-11)):
            code, text = run_cli(tmp_path, "period", "--model", "inverse-square",
                                 f"--gamma={gamma}")
            assert code == 0
            results = json.loads(text)["results"]
            assert results["t_max"] is None
            assert results["period"] == pytest.approx(
                2 * math.pi / math.sqrt(-gamma - 0.25), rel=rel)

    def test_fixed_points_evaluates_each_element_once(self, tmp_path, monkeypatch):
        calls = []
        gamma_map = flow.gamma_map
        monkeypatch.setattr(flow, "gamma_map",
                            lambda *args: calls.append(args) or gamma_map(*args))
        code, _ = run_cli(tmp_path, "fixed-points", "--model", "inverse-square",
                          "--t", "0.3,1,2.5")
        assert code == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("gamma, t", [("-2", "7"), ("0.5", "25"), ("0.74", "25"),
                                          ("-0.26", "-690")])
    def test_fixed_points_beyond_six(self, gamma, t, tmp_path):
        # each point is read under the element or its inverse, whichever does
        # not expand there; under the element alone the repelling point at
        # gamma = 0.5, t = 25 reads 4.2e-7
        code, text = run_cli(tmp_path, "fixed-points", "--model", "inverse-square",
                             f"--gamma={gamma}", f"--t={t}")
        assert code == 0
        rows = json.loads(text)["results"]["rows"]
        assert len(rows) >= 1 and all(r["residual"] <= 1e-13 for r in rows)

    def test_invariance_with_period(self, tmp_path):
        code, text = run_cli(tmp_path, "invariance", "--model", "interval",
                             "--l", "1", "--t-max", "8.0")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["cyclic_period"] == pytest.approx(
            2 * math.pi, abs=1e-6)

    def test_weyl_on_grid_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "weyl", "--l", "1", "--n", "256", "--t", "0.9",
                             "--on-grid")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["worst_residual"] <= 1e-12
        assert payload["checks"]["on-grid residual <= 1e-12"] is True

    def test_spectrum_dissipative(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--l", "1",
                             "--rho", str(math.exp(-1)), "--window=-20,20")
        assert code == 0
        payload = json.loads(text)
        rows = payload["results"]["rows"]
        assert all(r["im"] == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_fk_params(self, tmp_path):
        code, text = run_cli(tmp_path, "fk-params", "--gamma", "0")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["v_friedrichs"]["re"] == pytest.approx(1.0, abs=3e-15)
        assert payload["results"]["v_krein"]["im"] == pytest.approx(-1.0, abs=3e-15)

    def test_invariance_interval(self, tmp_path):
        code, text = run_cli(tmp_path, "invariance", "--model", "interval",
                             "--l", "0.5")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["verdict"] == "UniqueDissipative"

    @pytest.mark.parametrize("offset", [1e-7, 1e-8, 1e-9, 4e-10, 2e-10, 1.5e-10, 1e-10,
                                        1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, "ulp"])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_alternative_next_to_the_critical_coupling(self, side, offset, tmp_path):
        # at every float coupling off -1/4, an elliptic flow has one interior
        # invariant point (|v| = 1 - 5e-5 at offset 1e-9, 1 - 1.7e-8 at
        # 1e-16, 1 - 1.2e-8 one ulp below) and a hyperbolic flow two boundary
        # points, pi mu/2 apart
        value = (math.nextafter(-0.25, side * math.inf) if offset == "ulp"
                 else -0.25 + side * offset)
        assert value != -0.25
        gamma = f"--gamma={value!r}"
        if side < 0:
            verdict, tag, kinds = "UniqueDissipative", "elliptic", [flow.DISSIPATIVE]
        else:
            verdict, tag, kinds = "TwoSelfAdjoint", "hyperbolic", [flow.SELF_ADJOINT] * 2
        code, text = run_cli(tmp_path, "invariance", "--model", "inverse-square", gamma)
        assert code == 0
        results = json.loads(text)["results"]
        assert results["verdict"] == verdict
        assert set(results["flow_class"].values()) == {tag}
        assert [fp["kind"] for fp in results["fixed_points"]] == kinds
        code, text = run_cli(tmp_path, "fixed-points", "--model", "inverse-square",
                             gamma, "--t", "1")
        assert code == 0
        assert [row["kind"] for row in json.loads(text)["results"]["rows"]] == kinds

    def test_generator_check_scaling(self, tmp_path):
        code, text = run_cli(tmp_path, "generator-check", "--model", "halfline",
                             "--group", "scaling", "--t", "0.5")
        assert code == 0
        payload = json.loads(text)
        row = payload["results"]["rows"][0]
        assert row["scale"]["re"] == pytest.approx(math.exp(-0.5), abs=1e-6)

    @pytest.mark.parametrize("argv", [
        *(["--model=inverse-square", f"--gamma={g}", "--t=-20,-14,14,20,25,100,300"]
          for g in ("-2", "-0.25", "0", "0.5")),
        ["--model=halfline", "--group=scaling", "--t=-20,-14,14,20,25,100,300"],
        ["--model=halfline", "--t=-700,700"],
        ["--model=interval", "--l=300", "--t=-700,700"],
    ], ids=["gamma=-2", "gamma=-0.25", "gamma=0", "gamma=0.5", "halfline-scaling",
            "halfline-translation", "interval"])
    def test_generator_check_over_the_group(self, argv, tmp_path):
        code, text = run_cli(tmp_path, "generator-check", *argv)
        assert code == 0
        assert all(r["residual"] <= weylcheck.GENERATOR_TOL
                   for r in json.loads(text)["results"]["rows"])

    @pytest.mark.parametrize("t, expected", [("-100", 3), ("-25", 0), ("-709.7", 3),
                                             ("-700", 3), ("560", 0), ("580", 3),
                                             ("600", 3), ("700", 3)])
    def test_generator_check_fails_without_warnings(self, t, expected, tmp_path, capsys):
        # the phase passes within ten rounding floors of the offset, eps
        # e^{-t} |A f|/|f|, at t = -25, and the check stops with exit 3 where
        # those exceed a milliradian, as at t = -100; also where e^{-t} A f
        # overflows, or its intermediates leave the normal floats, as at 580
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["generator-check", "--model=inverse-square", "--gamma=-2",
                             f"--t={t}", "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == expected
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (expected == 3) == ("DynamicRangeExceeded" in err)

    @pytest.mark.parametrize("argv, expected", [
        (["--model=halfline", "--group=scaling", "--t=400"], 0),
        (["--model=inverse-square", "--gamma=-2", "--t=400"], 0),
        (["--model=halfline", "--group=scaling", "--t=-400"], 3),
        (["--model=inverse-square", "--gamma=-2", "--t=-400"], 3),
        (["--model=halfline", "--group=scaling", "--t=700"], 3),
        (["--model=inverse-square", "--gamma=-2", "--t=700"], 3),
    ], ids=["halfline-400", "gamma=-2-400", "halfline--400", "gamma=-2--400",
            "halfline-700", "gamma=-2-700"])
    def test_generator_check_at_t_400(self, argv, expected, tmp_path, capsys):
        # the norms' rows are scaled by powers of two: t = 400 passes; at t =
        # -400 the offset's rounding floor leaves the phase unresolved, and at
        # t = 700 U A U* f itself leaves the floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["generator-check", *argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == expected
        assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
        assert (expected == 3) == ("DynamicRangeExceeded" in err)

    @pytest.mark.parametrize("t", ["1.4e154", "-1.4e154"])
    @pytest.mark.parametrize("model", ["interval", "halfline"])
    def test_generator_check_where_t_squared_overflows(self, model, t, tmp_path, capsys):
        # the second derivative of e^{ixt} f carries (it)^2, which leaves the
        # floats at |t| = 1.34e154: exit 3, where t = 1e154 still passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["generator-check", f"--model={model}", f"--t={t}",
                             "--out", str(tmp_path / "x.json")])
            passed = cli.main(["generator-check", f"--model={model}", f"--t={t[:-5]}e154",
                               "--out", str(tmp_path / "y.json")])
        err = capsys.readouterr().err
        assert (code, passed) == (3, 0)
        assert err.startswith(
            "numerical/runtime failure: DynamicRangeExceeded: a power of i kappa")
        assert err.count("\n") == 2 and "Traceback" not in err and "Warning" not in err

    def test_certify_nonequivalence(self, tmp_path):
        code, text = run_cli(tmp_path, "certify-nonequivalence", "--l", "1",
                             "--l2", "2", "--n", "128")
        assert code == 0
        payload = json.loads(text)
        assert payload["checks"]["certified"] is True

    def test_refine_off_grid(self, tmp_path):
        code, text = run_cli(tmp_path, "refine", "--l", "1",
                             "--n", "64,128,256", "--t", "1.0")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["orders"]["off-grid"] >= 0.9

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        _, text1 = run_cli(tmp_path, "weyl", "--l", "1", "--n", "64,128",
                           "--t", "0.5,1.5", "--on-grid", name="a.json")
        _, text2 = run_cli(tmp_path, "weyl", "--l", "1", "--n", "64,128",
                           "--t", "0.5,1.5", "--on-grid", "--jobs", "4",
                           name="b.json")
        assert text1 and text1 == text2
        texts = [run_cli(tmp_path, "refine", "--n", "256,64,128,64", "--t", "1.5,0.5",
                         "--jobs", jobs, name=f"refine-{jobs}.json")
                 for jobs in ("1", "2", "4")]
        assert texts[0][0] == 0 and texts[0][1]
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_refine_sweeps_on_the_worker_threads(self, tmp_path, monkeypatch):
        # refine's residual rows come from weylcheck.residual_rows, which
        # starts a pool only for --jobs above 1, of at most one thread per
        # core: --jobs 1000 over three (n, t) cells starts no more threads
        # than --jobs 3, and the bytes are those of --jobs 1
        import concurrent.futures
        pools = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        results = [run_cli(tmp_path, "refine", "--n", "64,128,256", "--jobs", jobs)
                   for jobs in ("1", "3", "1000")]
        assert results[0][0] == 0 and results[1] == results[0] and results[2] == results[0]
        cores = os.cpu_count() or 1
        assert pools == [workers for workers in (min(3, cores), min(1000, cores))
                         if workers > 1]


class TestEmission:
    def test_json_byte_determinism(self, tmp_path):
        _, text1 = run_cli(tmp_path, "fixed-points", "--model", "interval",
                           "--l", "1", "--t", "0.7,1.9", name="a.json")
        _, text2 = run_cli(tmp_path, "fixed-points", "--model", "interval",
                           "--l", "1", "--t", "0.7,1.9", name="b.json")
        assert text1 == text2

    def test_csv_row_count(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--l", "1", "--theta", "0",
                             "--window=-10,10", "--format", "csv",
                             name="out.csv")
        assert code == 0
        lines = text.strip().splitlines()
        payload_rows = len(lines) - 1
        assert lines[0].startswith("index,")
        assert payload_rows == 3   # (theta + 2 pi n) in (-10, 10): n = -1, 0, 1

    @pytest.mark.parametrize("argv", [
        ["--model", "inverse-square", "--gamma=-2", "--t", "0.4,-1.3"],
        ["--model", "interval", "--l", "2.5", "--t", "0.4,1.2"],
        ["--model", "halfline", "--group", "scaling", "--t=0.5,-0.7"],
    ], ids=["inverse-square", "interval", "halfline-scaling"])
    def test_csv_complex_cells_read_back_exactly(self, argv, tmp_path):
        # each generator-check CSV cell parses with float() or complex() to
        # the value of its JSON report
        _, text = run_cli(tmp_path, "generator-check", *argv)
        _, csv = run_cli(tmp_path, "generator-check", *argv, "--format", "csv",
                         name="out.csv")
        header, *lines = csv.splitlines()
        keys = header.split(",")
        rows = json.loads(text)["results"]["rows"]
        assert sorted(keys) == sorted(rows[0]) and len(lines) == len(rows)
        imaginary = 0
        for line, row in zip(lines, rows):
            for key, cell in zip(keys, line.split(",")):
                value = row[key]
                if isinstance(value, dict):
                    assert complex(cell) == complex(value["re"], value["im"])
                    imaginary += value["im"] != 0.0
                else:
                    assert float(cell) == value
        assert imaginary > 0

    def test_seventeen_digit_floats(self, tmp_path):
        _, text = run_cli(tmp_path, "period", "--model", "interval", "--l", "1")
        assert "6.2831853071" in text

    def test_invalid_output_path(self):
        code = cli.main(["period", "--model", "interval", "--l", "1",
                         "--out", "/nonexistent-dir/x/y.json"])
        assert code == 3


# the battery in run order: each criterion's function, name and budget in s
_BATTERY = (
    ("criterion_1_identity_and_group_law", "criterion 1: flow identity and group law", 10.0),
    ("criterion_2_interval_invariant_extension",
     "criterion 2: interval invariant extension", 5.0),
    ("criterion_3_cyclic_period", "criterion 3: cyclic invariance period", 10.0),
    ("criterion_4_interval_spectra", "criterion 4: interval spectra", 1.0),
    ("criterion_5_weyl_grid", "criterion 5: restricted relations on the grid", 60.0),
    ("criterion_6_friedrichs_krein_fixed_points",
     "criterion 6: extremal extension fixed points", 60.0),
    ("criterion_7_fall_to_center", "criterion 7: fall-to-center spectrum", 60.0),
    ("criterion_8_generator_invariance", "criterion 8: generator invariance", 30.0),
    ("criterion_9_property_suites", "criterion 9: property suites", 60.0),
)


class TestBattery:
    def test_criteria_keep_their_order_names_and_budgets(self):
        from extflow import acceptance
        assert acceptance.ALL_CRITERIA == [
            getattr(acceptance, function) for function, _, _ in _BATTERY]
        results = [criterion() for criterion in acceptance.ALL_CRITERIA]
        assert [(r.name, r.budget_s) for r in results] == [
            (name, budget) for _, name, budget in _BATTERY]

    def test_all_lists_each_criterion_with_its_budget_checks_and_notes(self):
        code, out, err = _call(["all"])
        assert code == 0
        criteria = json.loads(out)["results"]["criteria"]
        assert [(name, c["budget_s"]) for name, c in criteria.items()] == [
            (name, budget) for _, name, budget in _BATTERY]
        for c in criteria.values():
            assert set(c) == {"passed", "budget_s", "checks", "notes"}
            assert c["passed"] and c["checks"] and all(c["checks"].values())
        assert [name for name, c in criteria.items() if c["notes"]] == [
            _BATTERY[6][1], _BATTERY[7][1]]

    def test_an_error_inside_a_criterion_ends_all_with_exit_3(self, monkeypatch):
        def fails(*args):
            raise NumericalInconsistency("the ladder skips a rung")

        monkeypatch.setattr(spectra, "shoot_negative_eigenvalues", fails)
        code, out, err = _call(["all"])
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            "numerical/runtime failure: NumericalInconsistency: the ladder skips a rung")
        assert "Traceback" not in err


class TestExitCodes:
    def test_configuration_error_is_2(self):
        assert cli.main(["fixed-points", "--model", "interval",
                         "--group", "scaling"]) == 2
        assert cli.main(["fixed-points"]) == 2

    def test_numerical_error_is_3(self, tmp_path):
        # nu = 0.1: one ladder step spans e^{20 pi}, beyond the dynamic range
        code = cli.main(["shoot", "--gamma", "-0.26", "--count", "2",
                         "--out", str(tmp_path / "x.json")])
        assert code == 3

    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "-25", "--count", "9"], "count must be between 1 and 4, got 9"),
        (["--gamma", "-25", "--count", "0"], "count must be between 1 and 4, got 0"),
        (["--gamma", "0.3", "--count", "2"],
         "shooting needs gamma < -1/4 (oscillatory boundary), got 0.3"),
        (["--gamma", "-0.25", "--count", "2"],
         "shooting needs gamma < -1/4 (oscillatory boundary), got -0.25"),
        (["--gamma", "-2", "--theta", "nan"], "shoot: every numeric input must be finite"),
        (["--gamma", "-2", "--theta", "inf"], "shoot: every numeric input must be finite"),
        (["--gamma=-inf", "--count", "2"], "shoot: every numeric input must be finite"),
    ], ids=["count-9", "count-0", "gamma-0.3", "gamma-critical", "theta-nan",
            "theta-inf", "gamma-minus-inf"])
    def test_shoot_domain_is_configuration_error(self, flags, message, tmp_path, capsys):
        # the count and the upper bound on gamma are spectra's own checks,
        # whose messages name the value given
        code = cli.main(["shoot", *flags, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"configuration error: {message}\n"

    def test_skipped_rung_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # a closed-form ladder that skips a rung fails the shooting phases'
        # rung count
        full = spectra._ladder
        monkeypatch.setattr(spectra, "_ladder",
                            lambda nu, phase, count: full(nu, phase, count + 1)[::2])
        code = cli.main(["shoot", "--gamma", "-25", "--count", "2",
                         "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "NumericalInconsistency" in capsys.readouterr().err

    def test_ladder_off_by_one_percent_fails_the_ratio_check(self, tmp_path, monkeypatch):
        # consecutive ratios 1% off exp(2pi/nu), within the former 5% bound,
        # keep every rung's multiple of pi but fail the 2e-13 bound
        full = spectra._ladder
        monkeypatch.setattr(spectra, "_ladder", lambda nu, phase, count: [
            lam * 1.01 ** n for n, lam in enumerate(full(nu, phase, count))])
        out = tmp_path / "x.json"
        assert cli.main(["shoot", "--gamma", "-25", "--count", "4", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert checks == {"consecutive ratio matches exp(2pi/nu) within 2e-13 relative": False,
                          "eigenvalues found": True}

    def test_fixed_points_off_by_1e_10_fail(self, tmp_path, monkeypatch):
        # the bound is flow.RESIDUAL_TOL = 1e-11, against 5.8e-13 measured:
        # points 1e-10 off the invariant one (within the former bound of 1e-8)
        # fail the check
        real = flow.fixed_points_flow
        monkeypatch.setattr(flow, "fixed_points_flow", lambda fm, gen: [
            (v + 1e-10, kind) for v, kind in real(fm, gen)])
        code, text = run_cli(tmp_path, "fixed-points", "--model=interval", "--t=0.5,1")
        assert code == 1
        assert json.loads(text)["checks"] == {"fixed-point residual <= 1e-11": False}

    @pytest.mark.parametrize("flags, values", [
        (["--rho=1e-20"], 7), (["--rho=1e-300+1e-300j", "--l=300"], 1910),
        (["--theta=1e17", "--window=-3,0"], [-2.6584887370946804]),
        (["--theta=1e308", "--window=2,3"], [2.6710203145624652]),
        (["--theta=-1e308", "--l=300", "--window=-1,1"], 96),
    ], ids=["rho-1e-20", "rho-1e-300", "theta-1e17", "theta-1e308", "theta--1e308"])
    def test_spectrum_far_out(self, flags, values, tmp_path):
        # rho's residual |rho e^{-i lambda l} - 1| stays at rounding level
        # however small rho is, and theta's lattice steps from its phase: the
        # values listed are the float theta mod 2 pi (mpmath at 2,000 bits),
        # and a number is the count of points
        code, text = run_cli(tmp_path, "spectrum", *flags)
        assert code == 0
        rows = json.loads(text)["results"]["rows"]
        if isinstance(values, int):
            assert len(rows) == values
        else:
            assert [r["re"] for r in rows] == pytest.approx(values, rel=1e-15)
        assert max(r["residual"] for r in rows) <= spectra.LATTICE_TOL


    @pytest.mark.parametrize("rho, expected", [("1e-310", 3), ("5e-309", 3), ("1e-300", 0)])
    def test_spectrum_where_one_over_rho_leaves_the_floats(self, rho, expected, tmp_path,
                                                            capsys):
        # below |rho| = 5.6e-309, 1/|rho| overflows and the height and every
        # residual would read inf and nan: exit 3 with one line, no output
        code, text = run_cli(tmp_path, "spectrum", "--rho", rho)
        err = capsys.readouterr().err
        assert code == expected and bool(text) == (expected == 0)
        assert ("DynamicRangeExceeded" in err) == (expected == 3)
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--l=300", "--window=-1e300,1e300"], ["--l=1", "--window=-1e300,1e300"],
        ["--window=1e17,1.00000000000002e17"]], ids=["l-300", "l-1", "1e17"])
    @pytest.mark.parametrize("lattice", [["--theta=0.7"], ["--rho=0.3-0.4j"]],
                             ids=["theta", "rho"])
    def test_spectrum_where_the_window_outruns_the_spacing(self, flags, lattice, tmp_path,
                                                           capsys):
        # 2 pi/l below 8 ulps of the window's edge: the lattice would stall or
        # repeat its points, so exit 3 with one line, no output
        code, text = run_cli(tmp_path, "spectrum", *lattice, *flags)
        err = capsys.readouterr().err
        assert (code, text) == (3, "")
        assert "DynamicRangeExceeded" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_spectrum_off_by_1e_9_fails(self, tmp_path, monkeypatch):
        # one flat bound, spectra.LATTICE_TOL = 1e-10, on both lattices: points
        # 1e-9 off fail it. For rho it is the former 1e-10/|rho| on
        # |e^{-i lambda l} - 1/rho|, without that bound's cap at |rho| = 1e-10
        real = spectra._lattice
        monkeypatch.setattr(spectra, "_lattice", lambda *args: [
            v + 1e-9 for v in real(*args)])
        for flags in (["--rho=0.36"], ["--theta=0.7"]):
            code, text = run_cli(tmp_path, "spectrum", *flags)
            assert code == 1
            assert json.loads(text)["checks"] == {"eigencondition residuals <= 1e-10": False}

    def test_halfline_start_is_checked_before_any_element(self, tmp_path, capsys):
        # the parameter set is {0}: exit 2 even where the first element does
        # not exist
        code, _ = run_cli(tmp_path, "flow-orbit", "--model=halfline", "--group=scaling",
                          "--t=1000", "--v0=0.5")
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("configuration error: indices (0, 1): the parameter set is {0}, "
                       "got v = (0.5+0j)\n")

    @pytest.mark.parametrize("call", [
        lambda: affine.AffineMap(-1.0, 0.0),
        lambda: flow.gamma_apply(None, affine.AffineMap(1.0, 0.0), 2.0),
        lambda: models.IntervalModel(-1.0),
        lambda: numerics.quad_finite(np.sin, 1.0, 0.0),
        lambda: spectra.shoot_negative_eigenvalues(-2.0, 0.0, 5),
        lambda: weylcheck.build_interval_grid(1.0, 4),
        lambda: models.InverseSquareModel(0.8),
        lambda: models.IntervalModel(1.0).generator("scaling"),
        lambda: flow.gamma_apply(models.HalflineModel(), affine.AffineMap(1.0, 0.0), 0.5),
        lambda: spectra.interval_dissipative_lattice(1.0, 2.0, (-1.0, 1.0)),
    ], ids=["affine", "flow", "models", "numerics", "spectra", "weylcheck", "ill-posed",
            "outside-group", "unsupported-indices", "invalid-rho"])
    def test_library_domain_errors_are_typed(self, call):
        # IllPosed, OutsideGroup, UnsupportedIndices and InvalidRho derive
        # from InvalidArgument, so the CLI exits 2 for each
        with pytest.raises(InvalidArgument) as info:
            call()
        assert isinstance(info.value, ExtflowError) and isinstance(info.value, ValueError)

    def test_invalid_argument_is_2(self, tmp_path, monkeypatch, capsys):
        def reject(*args):
            raise InvalidArgument("count must be between 1 and 4")

        monkeypatch.setattr(spectra, "shoot_negative_eigenvalues", reject)
        code = cli.main(["shoot", "--gamma", "-2", "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "configuration error: count must be between 1 and 4\n"

    def test_unknown_command_is_2(self):
        assert cli.main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["weyl", "--n", "4"],
        ["weyl", "--n", "256,7"],
        ["refine", "--n", "4,64,128"],
        ["certify-nonequivalence", "--l2", "2", "--n", "4"],
        ["refine", "--n", "64,64,64"],
        ["refine", "--n", "64,128,64"],
        ["weyl", "--n", "1000000000000000"],
        ["weyl", "--n", "64,99999999999999999999999"],
        ["refine", "--n", "64,128,1000000000000000"],
        ["refine", "--n", "99999999999999999999999,64,128"],
        ["certify-nonequivalence", "--l2", "2", "--n", "1000000000000000"],
        ["certify-nonequivalence", "--l2", "2", "--n", "99999999999999999999999"],
    ], ids=["weyl-4", "weyl-7", "refine-4", "certify-4", "refine-one-size",
            "refine-two-sizes", "weyl-1e15", "weyl-1e23", "refine-1e15", "refine-1e23",
            "certify-1e15", "certify-1e23"])
    def test_grid_sizes_are_configuration_errors(self, argv, tmp_path, capsys):
        # refine's three distinct sizes are weylcheck.refine's check
        code = cli.main([*argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith((f"configuration error: {argv[0]}: 'n' needs every grid size",
                               "configuration error: need at least three distinct grid sizes"))
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    def test_refine_refuses_before_any_row(self, monkeypatch, capsys):
        # fewer than three distinct sizes exit 2 before any residual is computed
        calls = []
        monkeypatch.setattr(weylcheck, "weyl_residual", lambda *args: calls.append(args))
        assert cli.main(["refine", "--n", "1048576,1048576", "--t", "0.5,1.5,2.5"]) == 2
        assert calls == [] and "three distinct grid sizes" in capsys.readouterr().err

    def test_refine_refuses_a_saturated_fit(self, capsys):
        # at l = 300 the coarsest grid has t h = 7.03, where every residual
        # is near its bound of 2 and the order is below ORDER_MIN by
        # construction: exit 2 with one line, on-grid still runs
        assert cli.main(["refine", "--l", "300", "--n", "64,128,256", "--t", "0.5,1.5"]) == 2
        err = capsys.readouterr().err
        assert "off-grid |t| h" in err and err.count("\n") == 1 and "Traceback" not in err
        assert cli.main(["refine", "--l", "300", "--n", "64,128,256", "--t", "0.5,1.5",
                         "--on-grid"]) == 0

    @pytest.mark.parametrize("argv", [
        ["weyl", "--l", "300", "--n", "1024", "--t", "37.3,-9.9", "--on-grid"],
        ["weyl", "--l", "3.3", "--n", "64", "--t", "1e4", "--on-grid"],
        ["refine", "--l", "3.3", "--n", "64,128,256", "--t", "1e4", "--on-grid"]])
    def test_on_grid_rounding_of_the_phases_exits_3(self, argv, tmp_path, capsys):
        # the relation is exact on the grid, but the phases x_j t round to a
        # residual past ON_GRID_TOL (1.36e-12 and 3.6e-12): unresolved, not a
        # failure, with one line and no output; a small |t| l still passes
        assert cli.main([*argv, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical/runtime failure: DynamicRangeExceeded: on-grid residual")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()
        assert cli.main(["weyl", "--l", "1", "--n", "8,1024", "--t", "1", "--on-grid",
                         "--out", str(tmp_path / "x.json")]) == 0

    @pytest.mark.parametrize("n", ["64,128", "64,64", "128,64,256"])
    def test_certify_takes_exactly_one_size(self, n, tmp_path, capsys):
        # the certificate is taken at one grid size, so a list is an error
        code = cli.main(["certify-nonequivalence", "--l2", "2", "--n", n,
                         "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("configuration error: certify-nonequivalence: "
                       "give exactly one grid size in 'n'\n")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if "t" in cli._COMMANDS[c][1]])
    def test_empty_t_is_configuration_error(self, command, source, tmp_path, capsys):
        # every command whose row holds t; an empty t would check nothing and pass
        argv = [command, *_BASE.get(command, [])]
        if source == "flag":
            argv.append("--t=")
        else:
            path = tmp_path / "empty.cfg"
            path.write_text("t =\n")
            argv += ["--config", str(path)]
        code = cli.main([*argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"configuration error: {command}: 't' needs at least one value\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv", [
        ["period", "--model", "halfline"],
        ["period", "--model", "interval", "--l", "400"],
        ["period", "--model", "interval", "--l", "1e-9"],
        ["certify-nonequivalence", "--l2", "400"],
        ["flow-orbit", "--model", "interval", "--v0", "2"],
        ["flow-orbit", "--model", "halfline", "--v0", "0.3"],
        ["fk-params", "--gamma", "0.8"],
        ["fk-params", "--gamma", "-0.3"],
        ["spectrum", "--rho", "2"],
        ["fixed-points", "--model", "inverse-square", "--gamma", "0.8"],
        ["invariance", "--model", "interval", "--t", "1"],
        ["flow-orbit", "--model", "interval", "--t", "nan"],
        ["fixed-points", "--model", "inverse-square", "--t", "0.5,inf"],
        ["generator-check", "--model", "interval", "--t", "nan"],
        ["spectrum", "--theta", "nan"],
        ["spectrum", "--rho", "nan"],
        ["spectrum", "--window=-inf,inf"],
        ["period", "--model", "interval", "--t-max", "nan"],
        ["fixed-points", "--model", "interval", "--tol", "nan"],
        ["flow-orbit", "--model", "interval", "--v0", "nan+0j"],
        ["spectrum", "--rho", "0.3", "--theta", "1", "--window=-5,5"],
        ["fixed-points", "--model", "inverse-square", "--gamma", "-2", "--l", "5"],
        ["invariance", "--model", "halfline", "--gamma", "3"],
        ["invariance", "--model", "halfline", "--l", "2"],
        ["generator-check", "--model", "interval", "--gamma=-2"],
        ["period", "--model", "interval", "--t-max=-1"],
        ["period", "--model", "inverse-square", "--gamma=-2", "--t-max=0"],
        ["invariance", "--model", "interval", "--t-max=-1"],
        ["fixed-points", "--model", "interval", "--group", "rotation"],
    ], ids=["halfline-period", "l-400", "l-1e-9", "l2-400", "v0-2", "halfline-v0",
            "fk-gamma-0.8", "fk-gamma-below-critical", "rho-2", "invsq-gamma-0.8",
            "invariance-t", "orbit-t-nan", "fixed-points-t-inf", "generator-t-nan",
            "theta-nan", "rho-nan", "window-inf", "t-max-nan", "tol-nan", "v0-nan",
            "spectrum-theta-and-rho", "invsq-l", "halfline-gamma", "halfline-l",
            "interval-gamma", "period-t-max-negative", "period-t-max-0",
            "invariance-t-max-negative", "unknown-group"])
    def test_input_domain_is_configuration_error(self, argv, tmp_path, capsys):
        code = cli.main([*argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("gamma", ["-51145", "-1e6", "-1e300"])
    @pytest.mark.parametrize("command", ["invariance", "fixed-points", "period",
                                         "flow-orbit", "shoot"])
    def test_gamma_below_the_model_floor(self, command, gamma, tmp_path, capsys):
        # sin(pi mu) overflows below gamma = -51,144.7; the model stops at -5e4,
        # and shoot, whose work grows with nu, stops there too
        model = [] if command == "shoot" else ["--model", "inverse-square"]
        code = cli.main([command, *model, f"--gamma={gamma}",
                         "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: shoot: gamma must lie in [-50000, -1/4)"
                              if command == "shoot" else
                              "configuration error: gamma must lie in [-50000, 3/4)")
        assert f"got {float(gamma)}" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        with pytest.raises(IllPosed):
            models.InverseSquareModel(float(gamma))

    @pytest.mark.parametrize("argv", [
        ["fixed-points", "--model", "inverse-square", "--t", "800"],
        ["fixed-points", "--model", "inverse-square", "--t=-800"],
        ["flow-orbit", "--model", "inverse-square", "--t=-1e4"],
        ["period", "--model", "inverse-square", "--gamma=-0.25001"],
        ["generator-check", "--model", "halfline", "--group", "scaling", "--t", "800"],
        ["generator-check", "--model", "halfline", "--group", "scaling", "--t=-800"],
        ["generator-check", "--model", "inverse-square", "--t=-800"],
        ["generator-check", "--model", "inverse-square", "--t", "1500"],
    ], ids=["fixed-points-800", "fixed-points--800", "orbit--1e4", "period-2pi/nu-1987",
            "halfline-800", "halfline--800", "invsq--800", "invsq-1500"])
    def test_scaling_beyond_the_float_range(self, argv, tmp_path, capsys):
        # a scaling element exists while e^t and e^{-t} are finite floats
        code = cli.main([*argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical/runtime failure: DynamicRangeExceeded:")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--gamma=-0.25001", "--theta=1.2", "--count=1"],
        ["--gamma=-0.250001", "--theta=2.0", "--count=1"],
        ["--gamma=-0.25000001", "--theta=0.7", "--count=1"],
        ["--gamma=-0.25000001", "--theta=2.0", "--count=1"],
        ["--gamma=-0.2501", "--theta=0.7", "--count=4"],
    ], ids=["overflow", "underflow", "nu=1e-4-overflow", "nu=1e-4-underflow", "span"])
    def test_shoot_rungs_beyond_the_floats(self, argv, tmp_path, capsys):
        # near gamma = -1/4 one ladder step is e^{2 pi / nu}: a rung, or the
        # span of four, leaves the floats
        code = cli.main(["shoot", *argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical/runtime failure: DynamicRangeExceeded:")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("gamma, t", [("-0.25", "-698"), ("-0.25", "-700"),
                                          ("-2", "-708.5")])
    def test_fixed_points_at_the_negative_edge(self, gamma, t, tmp_path):
        # the unscaled coefficients grow like e^{-t/2}, and their determinant
        # overflowed here; measured residuals <= 6.9e-14
        code, text = run_cli(tmp_path, "fixed-points", "--model", "inverse-square",
                             f"--gamma={gamma}", f"--t={t}")
        assert code == 0
        rows = json.loads(text)["results"]["rows"]
        zeros = flow.generator(models.inverse_square(float(gamma)), "scaling").zeros()
        assert len(rows) >= 1
        for r in rows:
            assert min(abs(complex(r["re"], r["im"]) - z) for z in zeros) <= flow.FP_TOL
            assert r["residual"] <= 1e-12

    def test_hyperbolic_flow_stops_at_the_condition_guard(self, tmp_path, capsys):
        code = cli.main(["fixed-points", "--model", "inverse-square", "--t", "100",
                         "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "NearSingularDenominator" in capsys.readouterr().err

    def test_generator_check_nan_fit_fails(self, tmp_path, monkeypatch, capsys):
        # a fit that is not finite never reads as a pass, on any model
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(weylcheck, "generator_invariance_residual",
                            lambda *args: weylcheck.GeneratorCheck(math.nan, nan, nan, nan, math.nan))
        for argv in (["--model", "inverse-square"], ["--model", "interval"],
                     ["--model", "halfline", "--group", "scaling"]):
            code, text = run_cli(tmp_path, "generator-check", *argv)
            assert code == 1
            assert json.loads(text)["results"]["rows"][0]["residual"] == "nan"
        monkeypatch.undo()
        capsys.readouterr()
        # beyond the float range of one side the check stops with exit 3
        code, text = run_cli(tmp_path, "generator-check", "--model", "inverse-square",
                             "--t=-709.7", name="range.json")
        err = capsys.readouterr().err
        assert code == 3 and text == ""
        assert err.startswith("numerical/runtime failure: DynamicRangeExceeded:")
        assert err.count("\n") == 1 and "Warning" not in err

    @pytest.mark.parametrize("command", ["invariance", "fixed-points", "period",
                                         "flow-orbit"])
    def test_gamma_at_the_model_floor_runs(self, command, tmp_path):
        code, text = run_cli(tmp_path, command, "--model", "inverse-square",
                             "--gamma=-5e4")
        assert code == 0
        assert json.loads(text)["pass"] is True

    def test_halfline_orbit_of_zero_runs(self, tmp_path):
        code, text = run_cli(tmp_path, "flow-orbit", "--model", "halfline",
                             "--v0", "0", "--t", "0.5")
        assert code == 0
        assert json.loads(text)["results"]["worst_modulus"] == 0.0

    @pytest.mark.parametrize("model, v0", [("halfline", "0"), ("interval", "0.3"),
                                           ("inverse-square", "0.3")])
    def test_orbit_start_defaults_to_a_parameter_of_the_model(self, model, v0, tmp_path):
        # 0 on the halfline, whose parameter set is {0}, and 0.3 elsewhere;
        # the echo shows the value used, so the bytes are those of --v0
        code, text = run_cli(tmp_path, "flow-orbit", "--model", model, name="default.json")
        assert code == 0
        assert json.loads(text)["config"]["v0"] == {"im": 0.0, "re": float(v0)}
        assert (code, text) == run_cli(tmp_path, "flow-orbit", "--model", model, "--v0", v0)

    def test_invariance_verdict_must_match_the_flow_class(self, tmp_path, monkeypatch):
        # the interval flow is elliptic with a unique dissipative invariant
        # extension; a hyperbolic class beside that verdict fails the run
        code, text = run_cli(tmp_path, "invariance", "--model", "interval", "--l", "1")
        assert code == 0
        assert json.loads(text)["checks"] == {"verdict matches the flow class": True}
        # invariant_extensions sets each sample's class
        real = flow.invariant_extensions

        def hyperbolic(model, group):
            rep = real(model, group)
            rep.flow_class = dict.fromkeys(rep.flow_class, mobius.MapTag.HYPERBOLIC)
            return rep

        monkeypatch.setattr(flow, "invariant_extensions", hyperbolic)
        code, text = run_cli(tmp_path, "invariance", "--model", "interval", "--l", "1")
        assert code == 1
        payload = json.loads(text)
        assert payload["results"]["verdict"] == "UniqueDissipative"
        assert payload["checks"] == {"verdict matches the flow class": False}

    @pytest.mark.parametrize("perturb", [
        lambda a, b, c, det: (a, b, c, 1.01 * det),
        lambda a, b, c, det: (1.01 * a, 1.01 * b, 1.01 * c, 1.01**2 * det),
    ], ids=["det", "rate"])
    @pytest.mark.parametrize("model, flags", [
        (models.IntervalModel, ["--model", "interval", "--l", "1"]),
        (models.InverseSquareModel, ["--model", "inverse-square", "--gamma=-2"]),
        (models.InverseSquareModel, ["--model", "inverse-square", "--gamma=0"]),
    ], ids=["interval", "gamma=-2", "gamma=0"])
    def test_invariance_checks_the_generator_against_the_elements(
            self, model, flags, perturb, tmp_path, monkeypatch, capsys):
        # a generator 1% off in det X, or in its rate (which keeps its zeros),
        # no longer gives the sampled elements' traces: a numerical failure,
        # not a verdict
        stated = model.generator
        monkeypatch.setattr(model, "generator",
                            lambda self, group: perturb(*stated(self, group)))
        code, _ = run_cli(tmp_path, "invariance", *flags)
        assert code == 3
        assert "NumericalInconsistency" in capsys.readouterr().err

    def test_seed_is_not_an_option(self, tmp_path):
        assert cli.main(["weyl", "--seed", "3"]) == 2
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        assert cli.main(["weyl", "--config", str(path)]) == 2


# ---------------------------------------------------------------------------
# the recursive emitter that the one-pass cli.to_json replaced, kept as its
# oracle
# ---------------------------------------------------------------------------

def _reference_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x != x:
        return '"nan"'
    if x in (math.inf, -math.inf):
        return f'"{x}"'
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def reference_to_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return _reference_number(obj)
    if isinstance(obj, complex):
        return reference_to_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        parts = [f'{inner}{reference_to_json(k)}: {reference_to_json(obj[k], indent + 1)}'
                 for k in keys]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{reference_to_json(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


class _Text(str):
    """A str subclass: to_json rejects it as a key and as a leaf."""


class _Mapping(dict):
    """A dict subclass: to_json takes its isinstance path."""


_TEXT = st.text(st.sampled_from('ab "\\\n\té∂中'), max_size=6) | st.text(max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**17, max_value=10**40),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, 1e300, 1e17, 0.1]),
    st.floats(),
    st.complex_numbers(),
    _TEXT,
)
_PAYLOADS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
    st.dictionaries(_TEXT, children, max_size=4).map(_Mapping),
), max_leaves=24)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(obj=_PAYLOADS, indent=st.integers(0, 3))
def test_to_json_matches_the_recursive_emitter(obj, indent):
    assert cli.to_json(obj, indent) == reference_to_json(obj, indent)


def test_to_json_rejects_what_the_recursive_emitter_rejects():
    for obj in (object(), np.zeros(2), {1: {2, 3}}):
        with pytest.raises(TypeError):
            reference_to_json(obj)
        with pytest.raises(TypeError):
            cli.to_json(obj)


@pytest.mark.parametrize("leaf", [np.float64(1.0), np.bool_(True), np.complex128(1j),
                                  _Text("a")], ids=["float64", "bool_", "complex128", "str"])
def test_to_json_rejects_scalars_that_are_not_builtin(leaf):
    # a payload holds builtin scalars only; a subclass or numpy scalar is a
    # fault in the handler that made it, alone or inside a row
    for obj in (leaf, {"rows": [{"x": leaf}]}, [0.5, leaf]):
        with pytest.raises(TypeError):
            cli.to_json(obj)


@pytest.mark.parametrize("key", [1, 0.5, True, None, _Text("a")],
                         ids=["int", "float", "bool", "None", "str-subclass"])
def test_to_json_rejects_keys_that_are_not_exact_str(key):
    # every payload key is an exact str; any other key is a fault in the
    # handler that made it, alone or beside str keys of a row
    for obj in ({key: 1.0}, {"rows": [{key: 1.0}]}, [{key: "x", "a": 0}]):
        with pytest.raises(TypeError):
            cli.to_json(obj)


def test_a_cached_key_head_still_rejects_a_str_subclass():
    # the head of "rows" is cached by the first call; _Text("rows") hashes
    # and compares equal to it, and must still raise
    cli.to_json({"rows": [{"x": 1.0}]})
    assert "rows" in cli._HEADS
    with pytest.raises(TypeError):
        cli.to_json({_Text("rows"): 1.0})


def test_nesting_past_the_separator_table():
    # each level a dict and a list, to twice the table's depth, at an indent
    # that starts past its end too
    deep = len(cli._FRAMES)
    obj = [1.5, "end"]
    for level in range(deep):
        obj = {"level": level, "inner": [obj, {"z": 2j}]}
    for indent in (0, 3, deep + 1):
        assert cli.to_json(obj, indent) == reference_to_json(obj, indent)


def test_cold_and_warm_caches_give_the_same_bytes(monkeypatch):
    # a fixed-points payload with 300 distinct keys and values, past the
    # caches' bound of 256: first with empty caches and a table that must
    # grow from depth 0, then again warm
    payload = cli.dispatch(cli.load_config(cli.parse_args(
        ["fixed-points", "--model=inverse-square", "--gamma=-2", "--t=0.5,1"])))
    payload["many"] = {f"k{i}": f"v{i}" for i in range(300)}
    monkeypatch.setattr(cli, "_FRAMES", [])
    monkeypatch.setattr(cli, "_HEADS", cli._Quoted(": "))
    monkeypatch.setitem(cli._SCALARS, str, cli._Quoted().__getitem__)
    cold = cli.to_json(payload)
    assert cold == cli.to_json(payload) == reference_to_json(payload)
    assert len(cli._HEADS) == len(cli._SCALARS[str].__self__) == 256


def _leaf_types(obj):
    """The exact types of the leaves and keys of a payload."""
    if type(obj) is dict:
        return {type(key) for key in obj} | {t for v in obj.values() for t in _leaf_types(v)}
    if type(obj) in (list, tuple):
        return {t for item in obj for t in _leaf_types(item)}
    return {type(obj)}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_payloads_hold_builtin_scalars_only(command):
    # every command, with each model it reads and its base flags: what
    # dispatch returns has leaves that the emitter writes by exact type
    for model in _models(command):
        if (command, model) == ("period", "halfline"):
            continue
        payload = cli.dispatch(cli.load_config(cli.parse_args([command, *_base(command, model)])))
        assert _leaf_types(payload) <= {type(None), bool, int, float, str, complex}


def test_to_json_leaves_no_reference_cycles():
    # cyclic garbage would hold each payload's parts until the collector runs
    payload = {"rows": [{"re": 0.5, "im": None, "z": 1 + 2j}], "pass": True}
    gc.collect()
    gc.disable()
    try:
        cli.to_json(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the flag space: exit codes, streams and byte stability of cli.main
# ---------------------------------------------------------------------------

def _number(lo, hi, *special):
    return st.sampled_from(special) | st.floats(lo, hi).map(repr)


# in-domain values of every flag but --config, --out and --jobs, and values
# outside each domain, which are drawn one time in eight
_FLAGS = {
    "--model": (st.sampled_from(["interval", "inverse-square", "halfline"]), ["ring"]),
    "--l": (_number(1e-3, 300.0, "1", "0.5"), ["400", "-1", "0", "x"]),
    "--gamma": (_number(-30.0, 0.7, "-25", "-2", "-0.26", "-0.25", "0"),
                ["0.75", "nan", "-inf"]),
    "--group": (st.sampled_from(["translation", "scaling"]), ["rotation"]),
    "--t": (st.lists(_number(-6.0, 6.0, "1", "0.3", "-1.5", "0", "7"),
                     min_size=1, max_size=3).map(",".join),
            ["800", "-1e4", "nan", "1,x"]),
    "--n": (st.lists(st.sampled_from(["8", "64", "128", "256", "512"]),
                     min_size=1, max_size=3).map(",".join), ["4", "64,x"]),
    "--format": (st.sampled_from(["json", "csv"]), ["xml"]),
    "--theta": (_number(-7.0, 7.0, "0", "1.9"), ["inf", "nan"]),
    "--rho": (st.sampled_from(["0.36", "0.3+0.1j", "-0.5j", "0"]), ["2", "1j", "x"]),
    "--window": (st.sampled_from(["-20,20", "-5,5", "0,3"]), ["3,1", "1", ""]),
    "--count": (st.sampled_from(["1", "2", "3", "4"]), ["0", "9"]),
    "--on-grid": (st.just(None), [None]),
    "--l2": (_number(1e-3, 300.0, "2"), ["400"]),
    "--v0": (st.sampled_from(["0", "0.3", "0.1+0.4j", "-1", "1j"]), ["2", "nan"]),
    "--t-max": (_number(0.1, 10.0, "8"), ["0", "-1"]),
}
# flags that make each command runnable; the drawn flags come after them
# and override them
_BASE = {
    "flow-orbit": ["--model=interval"], "fixed-points": ["--model=interval"],
    "invariance": ["--model=interval"], "period": ["--model=interval"],
    "generator-check": ["--model=interval"], "shoot": ["--gamma=-2"],
    "refine": ["--n=64,128,256"], "certify-nonequivalence": ["--l2=2"],
}
_COMMANDS = [c for c in cli.COMMANDS if c != "all"] + ["frobnicate"]


def _row(command, model="interval"):
    """The drawn flags a command takes: its own keys, the model's where it
    reads one, and --format; every flag for an unknown command."""
    keys = cli._row(command, model) if command in cli._COMMANDS else cli._KEYS
    return sorted({"--" + key.replace("_", "-") for key in keys} & set(_FLAGS) | {"--format"})


def _reads_model(command):
    return command in cli._COMMANDS and "model" in cli._COMMANDS[command][1]


def _arg(name, value):
    return name if value is None else f"{name}={value}"


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command, *_BASE.get(command, [])]
    model = draw(st.sampled_from(sorted(cli._MODELS)))
    if _reads_model(command):
        argv.append(f"--model={model}")
    for name in draw(st.lists(st.sampled_from(_row(command, model)), max_size=4, unique=True)):
        valid, invalid = _FLAGS[name]
        in_domain = draw(st.integers(0, 7)) < 7
        argv.append(_arg(name, draw(valid if in_domain else st.sampled_from(invalid))))
    return argv


@st.composite
def _strays(draw):
    """A runnable command and one in-domain flag from outside its row."""
    command = draw(st.sampled_from(cli.COMMANDS))
    name = draw(st.sampled_from(sorted(set(_FLAGS) - set(_row(command)))))
    return [command, *_BASE.get(command, []), _arg(name, draw(_FLAGS[name][0]))]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _is_configuration_error(code, out, err):
    return (code == 2 and out == "" and err.count("\n") == 1 and "Traceback" not in err
            and err.startswith("configuration error: "))


def _is_stray_key_error(code, out, err, command):
    return (_is_configuration_error(code, out, err)
            and err.startswith(f"configuration error: {command}: '")
            and "is not a key of this command" in err)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=_argvs(), other=_argvs(), stray=_strays(),
       bad=st.sampled_from([["--frob"], ["--jobs=x"], ["--format=xml"],
                            ["--model=ring"], ["--n"], ["--gam=-2"], ["--on-grid=1"],
                            ["--gamma"], ["fixed-points"]]))
def test_flag_space(argv, other, stray, bad):
    code, out, err = _call([*argv, "--jobs=1"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (0, 1):
        if "--format=csv" not in argv:
            payload = json.loads(out)
            assert payload["pass"] is (code == 0)
            config = payload["config"]
            assert sorted(config) == sorted(cli._row(argv[0], config.get("model")))
    else:
        assert out == ""
    assert _is_configuration_error(*_call([*other, *bad]))
    assert _is_stray_key_error(*_call(stray), stray[0])
    # after a parse failure on other flags, a call gives the bytes of the
    # first call, and so does every --jobs
    assert _call([*argv, "--jobs=1"])[:2] == (code, out)
    assert _call([*argv, "--jobs=2"])[:2] == (code, out)


# an in-domain config-file value of every key a command may not read
_FILE_VALUES = {
    "model": "interval", "l": "1", "gamma": "-2", "group": "translation", "t": "5",
    "n": "64", "theta": "0", "rho": "0.36", "window": "-5,5",
    "count": "2", "on_grid": "true", "l2": "2", "v0": "0.3", "t_max": "8",
}


def _models(command):
    """Each model where the command reads one, else None alone."""
    return sorted(cli._MODELS) if _reads_model(command) else [None]


def _base(command, model):
    """Flags that make a command runnable with the given model."""
    return _BASE.get(command, []) if model is None else [f"--model={model}"]


@pytest.mark.parametrize("file, flags", [
    ("rho = 0.3\ntheta = 1\n", []),
    ("rho = 0.3\n", ["--theta=1"]),
    ("theta = 1\n", ["--rho=0.3"]),
])
def test_spectrum_takes_theta_or_rho(file, flags, tmp_path):
    # each selects the extension, so the lattice of rho would ignore theta
    path = tmp_path / "spectrum.cfg"
    path.write_text(file)
    code, out, err = _call(["spectrum", "--window=-5,5", "--config", str(path), *flags])
    assert code == 2 and out == ""
    assert err == "configuration error: spectrum: give theta or rho, not both\n"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_config_file_key_outside_the_row(command, tmp_path):
    # the command's base flags and a file with one key it does not read, as
    # `invariance` with `t = 5`, or `fixed-points --model inverse-square`
    # with `l = 1`
    for model in _models(command):
        strays = sorted(set(_FILE_VALUES) - set(cli._row(command, model)))
        assert strays and set(_FILE_VALUES) | set(cli._RUN_KEYS) == set(cli._KEYS)
        for key in strays:
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = {_FILE_VALUES[key]}\n")
            result = _call([command, *_base(command, model), "--config", str(path)])
            assert _is_stray_key_error(*result, command)
            assert f"'{key}' is not a key" in result[2]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_row_is_what_its_handler_reads(command):
    # the keys a command takes and echoes are the keys its handler reads,
    # with each model, the run-wide jobs aside; the halfline has no period
    reads = set()

    class Recording(types.SimpleNamespace):
        def __getattribute__(self, name):
            if name in cli._KEYS:
                reads.add(name)
            return super().__getattribute__(name)

    for model in _models(command):
        if (command, model) == ("period", "halfline"):
            continue
        cfg = cli.load_config(cli.parse_args([command, *_base(command, model)]))
        cfg = Recording(**vars(cfg))
        reads.clear()
        handler, _ = cli._COMMANDS[command]
        handler(cfg)
        assert reads - set(cli._RUN_KEYS) == set(cli._row(command, model))


@pytest.mark.parametrize("model", sorted(cli._MODELS))
def test_each_model_row_builds_its_model(model):
    # the constructor reads the model's keys in order, the default group
    # comes first, and every group is one the model is invariant under
    argv = {"interval": ["--l=2"], "inverse-square": ["--gamma=-2"], "halfline": []}[model]
    cfg = cli.load_config(cli.parse_args(
        ["fixed-points", f"--model={model}", *argv]))
    built = cli._build_model(cfg)
    _, keys, groups = cli._MODELS[model]
    assert built.name == model
    assert [getattr(built, {"l": "length", "gamma": "gamma"}[key]) for key in keys] == [
        {"l": 2.0, "gamma": -2.0}[key] for key in keys]
    assert cfg.group == groups[0] and set(groups) <= set(affine.GROUPS)
    if model == "inverse-square":
        assert built is cli._build_model(cfg)       # the cached model
    for group in set(affine.GROUPS) - set(groups):
        with pytest.raises(cli.IncompatibleModelGroup):
            cli.load_config(cli.parse_args(
                ["fixed-points", f"--model={model}", f"--group={group}", *argv]))


# each key: a command that reads it, flags that make it runnable, and a value,
# negative where the key takes one; None for the --on-grid switch
_KEY_CASES = {
    "model": (["fixed-points", "--gamma=-2"], "inverse-square"),
    "l": (["fixed-points", "--model=interval"], "2.5"),
    "gamma": (["fixed-points", "--model=inverse-square"], "-2"),
    "group": (["fixed-points", "--model=halfline"], "scaling"),
    "t": (["fixed-points", "--model=interval"], "-1.5,0.3"),
    "n": (["weyl", "--t=0.5"], "64,128"),
    "theta": (["spectrum", "--window=-5,5"], "-1.9"),
    "rho": (["spectrum", "--window=-5,5"], "-0.5j"),
    "window": (["spectrum"], "-5,5"),
    "count": (["shoot", "--gamma=-2"], "2"),
    "on_grid": (["weyl", "--n=64", "--t=0.5"], None),
    "l2": (["certify-nonequivalence", "--n=64"], "2"),
    "v0": (["flow-orbit", "--model=interval"], "-0.5j"),
    "t_max": (["period", "--model=interval"], "8"),
    "jobs": (["weyl", "--n=64,128", "--t=0.5"], "2"),
    "out": (["fixed-points", "--model=interval"], "report.json"),
    "format": (["fixed-points", "--model=interval"], "csv"),
}


@pytest.mark.parametrize("key", sorted(_KEY_CASES))
def test_each_key_in_every_flag_form(key, tmp_path):
    # --key v and --key=v, the command first and last, all parse to the
    # key's own parser of v and give the same bytes; a value that starts
    # with a dash is taken as the value
    assert set(_KEY_CASES) == set(cli._KEYS)
    (command, *base), value = _KEY_CASES[key]
    flag = "--" + key.replace("_", "-")
    if key == "out":
        value = str(tmp_path / value)
    forms = [[flag]] if value is None else [[flag, value], [f"{flag}={value}"]]
    results = []
    for given in forms:
        for argv in ([command, *base, *given], [*base, *given, command]):
            parsed = cli.parse_args(argv)
            assert parsed[key] == (True if value is None else cli._KEYS[key][1](value))
            code, out, err = _call(argv)
            assert code in (0, 1), err
            results.append((code, out, Path(value).read_text() if key == "out" else None))
    assert len(results) == 2 * len(forms) and len(set(results)) == 1


def test_help_prints_the_tables():
    code, out, err = _call(["--help"])
    assert code == 0 and err == "" and out == cli.usage()
    assert _call(["fixed-points", "-h"])[:2] == (0, out)
    assert all(command in out for command in cli.COMMANDS)
    assert all("--" + key.replace("_", "-") in out for key in cli._KEYS)


@pytest.mark.parametrize("argv, message", [
    (["fixed-points", "--model=interval", "--gam=-2"], "unknown flag '--gam'"),
    (["fixed-points", "--model=interval", "-t", "1"], "unknown flag '-t'"),
    (["fixed-points", "--model=interval", "--t"], "--t needs a value"),
    (["fixed-points", "--model=interval", "--t", "x"], "bad value for 't': 'x'"),
    (["fixed-points", "--model=interval", "--jobs=1.5"], "bad value for 'jobs': '1.5'"),
    (["frobnicate"], "unknown command 'frobnicate'"),
    (["--model=interval"], "missing command"),
    (["fixed-points", "--model=interval", "period"], "unexpected argument 'period'"),
    (["weyl", "--on-grid=x"], "--on-grid is a switch and takes no value"),
])
def test_parse_errors_are_one_line(argv, message):
    code, out, err = _call(argv)
    assert _is_configuration_error(code, out, err) and message in err


_HEAVY = ("extflow.acceptance", "extflow.spectra", "extflow.weylcheck", "numpy")
_IMPORT_CASES = [
    (["fixed-points", "--model=inverse-square", "--gamma=-2", "--t=1"], set()),
    (["invariance", "--model=interval"], set()),
    (["period", "--model=inverse-square", "--gamma=-2"], set()),
    (["flow-orbit", "--model=interval", "--t=0.5"], set()),
    (["shoot", "--gamma=-2", "--count=1"], {"numpy"}),
    (["weyl", "--n=64", "--t=0.5"], {"extflow.weylcheck"}),
    (["fk-params", "--gamma=0.2"], set()),
    (["spectrum", "--rho=0.3"], {"extflow.spectra"}),
    (["all"], {"extflow.acceptance"}),
]
# the commands that run on the standard library, numpy never loaded
_NUMPY_FREE = ("fixed-points", "invariance", "period", "flow-orbit", "fk-params", "spectrum")
_ARGPARSE_CASE = ["fixed-points", "--model=interval"]


@functools.lru_cache(maxsize=None)
def _fresh_process() -> dict:
    """One fresh process runs the argparse case and then each import case:
    the numpy-free ones first, of those the ones that load no heavy module
    first, and the rest as listed. It reports each command line's exit code,
    the heavy modules it newly loaded, and whether argparse and numpy are
    loaded after it."""
    argvs = [_ARGPARSE_CASE] + [
        argv for argv, loaded in sorted(
            _IMPORT_CASES, key=lambda case: (case[0][0] not in _NUMPY_FREE, bool(case[1])))]
    script = ("import json, os, sys\n"
              "from extflow import cli\n"
              "report = []\n"
              f"for argv in {argvs!r}:\n"
              "    before = set(sys.modules)\n"
              "    code = cli.main(argv + ['--out', os.devnull])\n"
              f"    new = sorted(m for m in {_HEAVY!r} if m in sys.modules and m not in before)\n"
              "    report.append((code, new, 'argparse' in sys.modules, 'numpy' in sys.modules))\n"
              "print(json.dumps(report))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    return {tuple(argv): tuple(row) for argv, row in zip(argvs, json.loads(done.stdout))}


def test_fixed_points_does_not_import_argparse():
    code, _, argparse, numpy = _fresh_process()[tuple(_ARGPARSE_CASE)]
    assert (code, argparse, numpy) == (0, False, False)


@pytest.mark.parametrize("argv, loaded", _IMPORT_CASES,
                         ids=lambda value: value[0] if isinstance(value, list) else None)
def test_a_command_imports_only_what_it_runs(argv, loaded):
    # the flow commands and spectrum, run first in a fresh process, leave
    # the battery, the grid checks and numpy unimported, and only spectrum
    # loads the shooting module; shoot then newly loads numpy, and each
    # other command its own module
    code, new, _, numpy = _fresh_process()[tuple(argv)]
    assert (code, new, numpy) == (0, sorted(loaded), argv[0] not in _NUMPY_FREE)


def _imports(tree):
    """(statement, module, names) of each import in a module's syntax tree,
    with a relative module written as in the source (".models")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node, "." * node.level + (node.module or ""), [a.name for a in node.names]


def test_import_graph():
    # spectra runs without the models, models is stdlib closed forms, cli
    # writes builtin scalars, and numerics enters the program only through
    # noqa lines that keep a name for the benchmark's tracer, which wraps
    # (module, name) pairs. No module the flow commands or spectrum load
    # imports numpy at module level: numerics and spectra import it inside
    # the functions that form arrays
    src = Path(cli.__file__).resolve().parent
    texts = {path.stem: path.read_text() for path in src.glob("*.py")}
    trees = {name: ast.parse(text) for name, text in texts.items()}
    assert not [node.lineno for node, module, names in _imports(trees["spectra"])
                if module in (".models", "extflow.models")
                or module in (".", "extflow") and "models" in names]
    for name in ("numerics", "spectra", "models", "cli", "flow", "mobius", "affine", "errors"):
        assert not [node.lineno for node, module, _ in _imports(trees[name])
                    if node in trees[name].body and module.split(".")[0] == "numpy"], name
    tracing = ast.parse((src.parents[1] / "extbench" / "tracing.py").read_text())
    wrapped = {(call.args[0].id, call.args[1].value) for call in ast.walk(tracing)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "wrap" and isinstance(call.args[0], ast.Name)}
    for name, tree in trees.items():
        lines = texts[name].splitlines()
        for node, module, names in _imports(tree):
            if module in (".numerics", "extflow.numerics"):
                assert lines[node.end_lineno - 1].endswith("# noqa: F401"), (name, node.lineno)
                assert {(name, imported) for imported in names} <= wrapped, (name, names)


@pytest.mark.parametrize("text, value", [
    *((text, True) for text in ("1", "true", "Yes", "ON")),
    *((text, False) for text in ("0", "False", "no", "OFF")),
    *((text, None) for text in ("maybe", "ture", "", "2", "onn")),
])
def test_config_file_bool(text, value, tmp_path):
    # a switch's file value is one of 1/true/yes/on or 0/false/no/off, in
    # any case; other text exits 2 like any other unreadable value
    path = tmp_path / "run.cfg"
    path.write_text(f"on_grid = {text}\n")
    argv = ["weyl", "--n=64", "--t=0.5", "--config", str(path)]
    if value is None:
        code, out, err = _call(argv)
        assert _is_configuration_error(code, out, err)
        assert f"bad value for 'on_grid': {text!r}" in err
    else:
        assert cli.load_config(cli.parse_args(argv)).on_grid is value
