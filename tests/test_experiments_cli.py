"""Tests for the experiments CLI."""

import pathlib

import pytest

from repro.core.errors import ReproError, SweepInterrupted
from repro.experiments.cli import EXPERIMENTS, main


def test_static_experiments_run(capsys):
    assert main(["table1", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "Figure 2" in out


def test_fast_dynamic_experiment(capsys):
    assert main(["table3", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "cudaStreamSynchronize" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_output_dir_written(tmp_path, capsys):
    assert main(["table1", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    written = tmp_path / "table1.txt"
    assert written.exists()
    assert "alexnet" in written.read_text()


def test_all_expands_to_every_experiment():
    assert set(EXPERIMENTS) >= {
        "table1", "fig2", "fig3", "table2", "fig4", "table3", "table4",
        "fig5", "ablate", "async",
    }


def test_strict_invariants_flag_threads_to_runner(monkeypatch, capsys):
    from repro.experiments import cli

    captured = {}
    real_build = cli._build_runner

    def build(jobs, cache_dir, no_cache, progress, invariants="off"):
        captured["invariants"] = invariants
        return real_build(jobs, cache_dir, no_cache, progress, invariants)

    monkeypatch.setattr(cli, "_build_runner", build)
    assert main(["table1", "--strict-invariants", "--no-cache"]) == 0
    assert captured["invariants"] == "strict"
    assert main(["table1", "--invariants", "warn", "--no-cache"]) == 0
    assert captured["invariants"] == "warn"
    assert "invariants (warn)" in capsys.readouterr().err


def test_interrupted_sweep_exits_130(monkeypatch, capsys):
    from repro.core.errors import SweepInterrupted
    from repro.experiments import cli

    def interrupted(name, cache, fast):
        raise SweepInterrupted("fig3", 3, 10)

    monkeypatch.setattr(cli, "_run_experiment", interrupted)
    assert main(["fig3", "--no-cache"]) == 130
    assert "interrupted" in capsys.readouterr().err


@pytest.mark.parametrize("error, status", [
    (ReproError("boom"), 2),
    (SweepInterrupted("fig3", 3, 10), 130),
], ids=["error", "interrupt"])
def test_self_profile_disables_perf_on_a_failed_run(monkeypatch, capsys,
                                                    tmp_path, error, status):
    from repro.experiments import cli
    from repro.perf.spans import PERF

    def failing(name, cache, fast):
        raise error

    monkeypatch.setattr(cli, "_run_experiment", failing)
    trace = tmp_path / "self.trace.json"
    try:
        assert main(["fig3", "--fast", "--no-cache",
                     "--self-profile", str(trace)]) == status
        assert PERF.enabled is False
    finally:
        PERF.disable()
        PERF.reset()
    capsys.readouterr()


def test_selfcheck_fast_passes(tmp_path, capsys):
    from repro.experiments import selfcheck

    # Strict selfcheck over a reduced grid: the simulator must satisfy
    # every invariant, and a cached second invocation must replay clean.
    assert main(["selfcheck", "--fast", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "replayed violation records from cache: 0" in out
    assert selfcheck.main(["--fast", "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "overall: PASS" in captured.out
    assert "0 simulated" in captured.err
