import contextlib
import gc
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extflow import affine, cli, flow, mobius, models, numerics, spectra, weylcheck
from extflow.errors import ExtflowError, IllPosed, InvalidArgument


def run_cli(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestConfig:
    def test_flags_only(self):
        args = cli.build_parser().parse_args(
            ["fixed-points", "--model", "interval", "--l", "1",
             "--group", "translation"])
        cfg = cli.load_config(args)
        assert cfg.model == "interval"
        assert cfg.length == 1.0
        assert cfg.group == "translation"

    def test_incompatible_model_group(self):
        args = cli.build_parser().parse_args(
            ["fixed-points", "--model", "interval", "--group", "scaling"])
        with pytest.raises(cli.IncompatibleModelGroup):
            cli.load_config(args)

    def test_missing_model_names_field(self):
        args = cli.build_parser().parse_args(["fixed-points"])
        with pytest.raises(cli.ParseError, match="model"):
            cli.load_config(args)

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sample configuration\n"
            "model = interval\n"
            "l = 2.0\n"
            "t = 0.5,1.5\n")
        args = cli.build_parser().parse_args(
            ["fixed-points", "--config", str(path), "--l", "1.0"])
        cfg = cli.load_config(args)
        assert cfg.model == "interval"
        assert cfg.length == 1.0          # flag wins over the file
        assert cfg.t_values == [0.5, 1.5]

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("flavor = strange\n")
        args = cli.build_parser().parse_args(
            ["fixed-points", "--model", "interval", "--config", str(path)])
        with pytest.raises(cli.ParseError, match="flavor"):
            cli.load_config(args)


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

    @pytest.mark.parametrize("offset", [1e-7, 1e-8, 1e-9, 4e-10, 2e-10, 1.5e-10])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_alternative_next_to_the_critical_coupling(self, side, offset, tmp_path):
        # outside the band |gamma + 1/4| <= 1e-10 that the model treats as
        # critical, an elliptic flow has one interior invariant point (|v| =
        # 1 - 5e-5 at offset 1e-9, 1 - 2e-5 at 1.5e-10) and a hyperbolic flow
        # two boundary points
        gamma = f"--gamma={-0.25 + side * offset!r}"
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

    @pytest.mark.parametrize("t, expected", [("-100", 1), ("-25", 1), ("-709.7", 3),
                                             ("-700", 3), ("600", 3), ("700", 3)])
    def test_generator_check_fails_without_warnings(self, t, expected, tmp_path, capsys):
        # past the offset's rounding floor, eps e^{-t} |A f|/|f| > 1e-6 at
        # t <= -25, the phase fails; where e^{-t} A f overflows, or its
        # intermediates underflow to zero, the check stops with exit 3
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
        (["--model=halfline", "--group=scaling", "--t=-400"], 1),
        (["--model=inverse-square", "--gamma=-2", "--t=-400"], 1),
        (["--model=halfline", "--group=scaling", "--t=700"], 3),
        (["--model=inverse-square", "--gamma=-2", "--t=700"], 3),
    ], ids=["halfline-400", "gamma=-2-400", "halfline--400", "gamma=-2--400",
            "halfline-700", "gamma=-2-700"])
    def test_generator_check_at_t_400(self, argv, expected, tmp_path, capsys):
        # the norms' rows are scaled by powers of two: t = 400 passes, t =
        # -400 reaches the phase bound's FAIL, and at t = 700 U A U* f itself
        # leaves the floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["generator-check", *argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == expected
        assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
        assert (expected == 3) == ("DynamicRangeExceeded" in err)

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

    def test_seventeen_digit_floats(self, tmp_path):
        _, text = run_cli(tmp_path, "period", "--model", "interval", "--l", "1")
        assert "6.2831853071" in text

    def test_invalid_output_path(self):
        code = cli.main(["period", "--model", "interval", "--l", "1",
                         "--out", "/nonexistent-dir/x/y.json"])
        assert code == 3


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

    @pytest.mark.parametrize("flags", [
        ["--gamma", "-25", "--count", "9"],
        ["--gamma", "-25", "--count", "0"],
        ["--gamma", "0.3", "--count", "2"],
        ["--gamma", "-0.25", "--count", "2"],
        ["--gamma", "-2", "--theta", "nan"],
        ["--gamma", "-2", "--theta", "inf"],
        ["--gamma=-inf", "--count", "2"],
    ], ids=["count-9", "count-0", "gamma-0.3", "gamma-critical", "theta-nan",
            "theta-inf", "gamma-minus-inf"])
    def test_shoot_domain_is_configuration_error(self, flags, tmp_path, capsys):
        code = cli.main(["shoot", *flags, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: shoot:")
        assert err.count("\n") == 1 and "Traceback" not in err

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

    @pytest.mark.parametrize("call", [
        lambda: affine.AffineMap(-1.0, 0.0),
        lambda: flow.gamma_apply(None, affine.AffineMap(1.0, 0.0), 2.0),
        lambda: mobius.disk_automorphism(1.5),
        lambda: models.by_name("sphere"),
        lambda: numerics.quad_finite(np.sin, 1.0, 0.0),
        lambda: spectra.shoot_negative_eigenvalues(-2.0, 0.0, 5),
        lambda: weylcheck.build_interval_grid(1.0, 4),
    ], ids=["affine", "flow", "mobius", "models", "numerics", "spectra", "weylcheck"])
    def test_library_domain_errors_are_typed(self, call):
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
    ], ids=["weyl-4", "weyl-7", "refine-4", "certify-4", "refine-one-size",
            "refine-two-sizes"])
    def test_grid_sizes_are_configuration_errors(self, argv, tmp_path, capsys):
        code = cli.main([*argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {argv[0]}:")
        assert err.count("\n") == 1 and "Traceback" not in err
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
    ], ids=["halfline-period", "l-400", "l-1e-9", "l2-400", "v0-2", "halfline-v0",
            "fk-gamma-0.8", "fk-gamma-below-critical", "rho-2", "invsq-gamma-0.8",
            "invariance-t", "orbit-t-nan", "fixed-points-t-inf", "generator-t-nan",
            "theta-nan", "rho-nan", "window-inf", "t-max-nan", "tol-nan", "v0-nan",
            "spectrum-theta-and-rho", "invsq-l", "halfline-gamma", "halfline-l",
            "interval-gamma"])
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
        assert err.startswith("configuration error: gamma must lie in [-50000, 3/4)")
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
        zeros = flow.generator(models.inverse_square(float(gamma)),
                               affine.Scaling(math.e, 0.0)).zeros()
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
        # a fit that is not finite never reads as a pass, whatever --tol is
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(weylcheck, "generator_invariance_residual",
                            lambda *args: weylcheck.GeneratorCheck(math.nan, nan, nan, nan))
        for argv in (["--model", "inverse-square"], ["--model", "interval"],
                     ["--model", "halfline", "--group", "scaling", "--tol", "1e300"]):
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

    def test_invariance_verdict_must_match_the_flow_class(self, tmp_path, monkeypatch):
        # the interval flow is elliptic with a unique dissipative invariant
        # extension; a hyperbolic class beside that verdict fails the run
        code, text = run_cli(tmp_path, "invariance", "--model", "interval", "--l", "1")
        assert code == 0
        assert json.loads(text)["checks"] == {"verdict matches the flow class": True}
        monkeypatch.setattr(flow.FlowGenerator, "tag",
                            lambda gen, t: mobius.MapTag.HYPERBOLIC)
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
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return _reference_number(float(obj) if isinstance(obj, np.floating) else obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return reference_to_json({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        parts = [f'{inner}{reference_to_json(str(k))}: {reference_to_json(obj[k], indent + 1)}'
                 for k in keys]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{reference_to_json(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


_TEXT = st.text(st.sampled_from('ab "\\\n\té∂中'), max_size=6) | st.text(max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**17, max_value=10**40),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, 1e300, 1e17, 0.1]),
    st.floats(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    st.complex_numbers(),
    _TEXT,
)
_KEYS = _TEXT | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
_PAYLOADS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_KEYS, children, max_size=4),
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
    "--tol": (_number(1e-14, 1e-3, "1e-6"), ["0", "-1"]),
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
    keys = cli._row(command, model) if command in cli._COMMAND_KEYS else cli._KEYS
    return sorted({"--" + key.replace("_", "-") for key in keys} & set(_FLAGS) | {"--format"})


def _reads_model(command):
    return "model" in cli._COMMAND_KEYS.get(command, ())


def _arg(name, value):
    return name if value is None else f"{name}={value}"


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command, *_BASE.get(command, [])]
    model = draw(st.sampled_from(sorted(cli._MODEL_KEYS)))
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


def _is_stray_key_error(code, out, err, command):
    return (code == 2 and out == "" and err.count("\n") == 1 and "Traceback" not in err
            and err.startswith(f"configuration error: {command}: '")
            and "is not a key of this command" in err)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=_argvs(), other=_argvs(), stray=_strays(),
       bad=st.sampled_from([["--frob"], ["--jobs=x"], ["--format=xml"],
                            ["--model=ring"], ["--n"]]))
def test_flag_space(argv, other, stray, bad):
    cli.build_parser.cache_clear()
    code, out, err = _call([*argv, "--jobs=1"])      # a fresh parser
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
    assert _call([*other, *bad])[0] == 2
    assert _is_stray_key_error(*_call(stray), stray[0])
    # after a parse failure on other flags, the cached parser gives the bytes
    # of the fresh call, and so does every --jobs
    assert _call([*argv, "--jobs=1"])[:2] == (code, out)
    assert _call([*argv, "--jobs=2"])[:2] == (code, out)


# an in-domain config-file value of every key a command may not read
_FILE_VALUES = {
    "model": "interval", "l": "1", "gamma": "-2", "group": "translation", "t": "5",
    "n": "64", "tol": "1e-6", "theta": "0", "rho": "0.36", "window": "-5,5",
    "count": "2", "on_grid": "true", "l2": "2", "v0": "0.3", "t_max": "8",
}


def _models(command):
    """Each model where the command reads one, else None alone."""
    return sorted(cli._MODEL_KEYS) if _reads_model(command) else [None]


def _base(command, model):
    """Flags that make a command runnable with the given model."""
    if model is None:
        return _BASE.get(command, [])
    halfline_orbit = (command, model) == ("flow-orbit", "halfline")
    return [f"--model={model}", *(["--v0=0"] if halfline_orbit else [])]


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
    # the keys a command takes and echoes are the fields its handler reads,
    # with each model, the run-wide jobs aside; the halfline has no period
    key_of = {field: key for key, (field, *_) in cli._KEYS.items()}
    reads = set()

    class Recording(cli.RunConfig):
        def __getattribute__(self, name):
            if name in key_of:
                reads.add(key_of[name])
            return super().__getattribute__(name)

    for model in _models(command):
        if (command, model) == ("period", "halfline"):
            continue
        cfg = cli.load_config(cli.build_parser().parse_args([command, *_base(command, model)]))
        cfg.__class__ = Recording
        reads.clear()
        cli._HANDLERS[command](cfg)
        assert reads - set(cli._RUN_KEYS) == set(cli._row(command, model))
