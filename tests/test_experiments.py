"""Tests for the experiment runners (one per table/figure), the registry
and the public API surface.  The paper's numbers and figure shapes are
checked in ``test_paper_numbers.py``."""

import pytest

import repro
from repro.experiments import (
    ablations,
    fig2_stake_trajectories,
    fig6_finalization_times,
    fig9_stake_distribution,
    fig10_exceed_probability,
    fig10_montecarlo,
    registry,
    safety_bounds,
    table1_scenarios,
    table2_slashing_times,
    table3_nonslashing_times,
)
from repro.experiments.runner import build_parser, main, run_experiments


REPORTS = [
    (fig2_stake_trajectories, dict(max_epoch=100, step=50), "Figure 2"),
    (fig6_finalization_times, dict(n_points=5), "Figure 6"),
    (fig9_stake_distribution, {}, "Figure 9"),
    (fig10_exceed_probability, dict(beta0_values=(0.33,), max_epoch=1000, step=500), "Figure 10"),
    (fig10_montecarlo, dict(horizon=100, n_trials=4, n_honest=8), "Figure 10"),
    (table1_scenarios, dict(max_epochs=100), "Table 1"),
    (table2_slashing_times, dict(include_simulation=False), "Table 2"),
    (table3_nonslashing_times, dict(include_simulation=False), "Table 3"),
    (safety_bounds, dict(p0_values=(0.5,), include_simulation=False), "Section 5.1"),
    (ablations, dict(p0_values=(0.4, 0.5)), "Ablations"),
]


@pytest.mark.parametrize(
    "module, kwargs, headline",
    REPORTS,
    ids=[module.__name__.rsplit(".", 1)[-1] for module, _, _ in REPORTS],
)
def test_report_names_its_source(module, kwargs, headline):
    """Each report's text names the table or figure it reproduces (the
    numbers themselves are checked in the paper-numbers ledger)."""
    assert headline in module.run(**kwargs).format_text()


def test_rows_follow_the_requested_grid():
    assert len(fig6_finalization_times.run(n_points=5).rows()) == 5
    result = ablations.run(p0_values=(0.4, 0.5))
    assert result.ejection_model.rows()
    assert len(result.split_sensitivity.rows()) == 2
    assert result.early_finalization.rows()


class TestPublicApiSurface:
    def test_version(self):
        assert repro.__version__

    def test_key_symbols_exported(self):
        for name in (
            "SpecConfig",
            "BeaconState",
            "Store",
            "LeakSimulation",
            "BouncingAttackModel",
            "SimulationEngine",
            "build_partitioned_simulation",
            "conflicting_finalization_time",
        ):
            assert hasattr(repro, name), name


class TestRegistryAndRunner:
    def test_all_ids_registered(self):
        ids = registry.list_ids()
        for expected in ("fig2", "fig3", "fig6", "fig7", "fig9", "fig10", "table1", "table2", "table3"):
            assert expected in ids

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            registry.get("fig99")

    def test_registry_run_dispatches(self):
        result = registry.run("fig6")
        assert hasattr(result, "rows")

    def test_runner_list_option(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "table2" in captured.out

    def test_runner_executes_experiment(self, capsys):
        assert main(["fig6"]) == 0
        captured = capsys.readouterr()
        assert "Figure 6" in captured.out

    def test_runner_without_arguments_prints_help(self, capsys):
        assert main([]) == 1

    def test_runner_rejects_unknown_ids_before_running(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "no-such-exp"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "no-such-exp" in captured.err
        assert "Figure 6" not in captured.out

    def test_run_experiments_helper(self):
        reports = run_experiments(["bouncing-duration"])
        assert len(reports) == 1
        assert "Bouncing" in reports[0]

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["--all"])
        assert args.all
