"""The benchmark's tracer wraps extflow functions by name and reads the
shapes of their results; these tests fail when a rename or a changed
result type would break a traced benchmark run."""

from pathlib import Path

import pytest

from extflow import cli, weylcheck

EXTBENCH = Path(__file__).resolve().parents[1] / "extbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(EXTBENCH))
    import tracing
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_install_wraps_and_uninstall_restores(tracer):
    wrapped = list(tracer._undo)
    assert wrapped
    assert all(owner.__dict__[attr] is not original for owner, attr, original in wrapped)
    tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in wrapped)


def test_traced_grid_commands_run(tracer, tmp_path):
    # the tracer's after-hooks read .shape from the grid, from U_t's phase
    # diagonal and from the residual's first argument, that same diagonal
    for argv in (["weyl", "--n", "64,128", "--t", "0.7", "--jobs", "1"],
                 ["refine", "--n", "64,128,256", "--t", "1.0"],
                 ["certify-nonequivalence", "--l2", "2", "--n", "64"]):
        assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert {"weylcheck.grid", "weylcheck.unitary", "weylcheck.residual",
            "weylcheck.nilpotency", "cli.emit"} <= set(tracer.names)
    # the grid commands read V_s's shift alone; its record, which criterion
    # 5's nilpotency check measures, still passes the semigroup and norm hooks
    assert "weylcheck.semigroup" not in tracer.names
    grid = weylcheck.build_interval_grid(1.0, 64)
    assert weylcheck.operator_norm(weylcheck.semigroup(grid, 1.0)) == 0.0
    assert {"weylcheck.semigroup", "numerics.norm"} <= set(tracer.names)


def test_traced_shoot_counts_one_mismatch_per_rung(tracer, tmp_path):
    # the tracer wraps spectra._mismatch, spectra.find_root and
    # spectra.shoot_negative_eigenvalues by name; the ladder is closed form,
    # so each rung costs one residual mismatch and no root bracket
    argv = ["shoot", "--gamma", "-2", "--count", "2", "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert tracer.names.count("spectra.mismatch") == 2
    assert "numerics.root" not in tracer.names
    assert "spectra.shoot" in tracer.names
