import json
import math

import pytest

from extflow import cli, flow, mobius


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
        code, text = run_cli(tmp_path, "period", "--model", "inverse-square",
                             "--gamma", "-25")
        assert code == 0
        results = json.loads(text)["results"]
        assert results["t_max"] == 6.0
        assert results["period"] == pytest.approx(
            2 * math.pi / math.sqrt(24.75), abs=3e-15)

    def test_fixed_points_evaluates_each_element_once(self, tmp_path, monkeypatch):
        calls = []
        gamma_map = flow.gamma_map
        monkeypatch.setattr(flow, "gamma_map",
                            lambda *args: calls.append(args) or gamma_map(*args))
        code, _ = run_cli(tmp_path, "fixed-points", "--model", "inverse-square",
                          "--t", "0.3,1,2.5")
        assert code == 0
        assert len(calls) == 3

    def test_invariance_with_period(self, tmp_path):
        code, text = run_cli(tmp_path, "invariance", "--model", "interval",
                             "--l", "1", "--t-max", "8.0")
        assert code == 0
        payload = json.loads(text)
        assert payload["results"]["cyclic_period"] == pytest.approx(
            2 * math.pi, abs=1e-6)

    def test_weyl_on_grid_passes(self, tmp_path):
        code, text = run_cli(tmp_path, "weyl", "--model", "interval", "--l", "1",
                             "--n", "256", "--t", "0.9", "--on-grid")
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

    def test_generator_check_scaling(self, tmp_path):
        code, text = run_cli(tmp_path, "generator-check", "--model", "halfline",
                             "--group", "scaling", "--t", "0.5")
        assert code == 0
        payload = json.loads(text)
        row = payload["results"]["rows"][0]
        assert row["scale"]["re"] == pytest.approx(math.exp(-0.5), abs=1e-6)

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
        payload1 = json.loads(text1)
        payload2 = json.loads(text2)
        payload1["config"]["jobs"] = payload2["config"]["jobs"] = None
        assert payload1 == payload2


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
    ], ids=["halfline-period", "l-400", "l-1e-9", "l2-400", "v0-2", "halfline-v0",
            "fk-gamma-0.8", "fk-gamma-below-critical", "rho-2", "invsq-gamma-0.8"])
    def test_input_domain_is_configuration_error(self, argv, tmp_path, capsys):
        code = cli.main([*argv, "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

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
        monkeypatch.setattr(flow, "classify", lambda m, eps: mobius.MapClass(
            mobius.MapTag.HYPERBOLIC, []))
        code, text = run_cli(tmp_path, "invariance", "--model", "interval", "--l", "1")
        assert code == 1
        payload = json.loads(text)
        assert payload["results"]["verdict"] == "UniqueDissipative"
        assert payload["checks"] == {"verdict matches the flow class": False}

    def test_seed_is_not_an_option(self, tmp_path):
        assert cli.main(["weyl", "--seed", "3"]) == 2
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        assert cli.main(["weyl", "--config", str(path)]) == 2
