"""Tests for the experiment runners (one per table/figure) and the registry."""

import pytest

from repro.experiments import (
    ablations,
    bouncing_duration,
    fig2_stake_trajectories,
    fig3_active_ratio,
    fig6_finalization_times,
    fig7_threshold_region,
    fig9_stake_distribution,
    fig10_exceed_probability,
    registry,
    safety_bounds,
    table1_scenarios,
    table2_slashing_times,
    table3_nonslashing_times,
)
from repro.experiments.runner import build_parser, main, run_experiments


class TestFigure2:
    def test_series_and_ejections(self):
        result = fig2_stake_trajectories.run(max_epoch=8000, step=100)
        rows = {row["behavior"]: row for row in result.rows()}
        assert rows["active"]["final_stake_eth"] == pytest.approx(32.0)
        assert rows["inactive"]["discrete_ejection_epoch"] == pytest.approx(4685, rel=0.01)
        assert rows["semi-active"]["discrete_ejection_epoch"] == pytest.approx(7652, rel=0.01)
        assert "Figure 2" in result.format_text()

    def test_trajectories_ordered(self):
        result = fig2_stake_trajectories.run(max_epoch=4000, step=200)
        at_end = {name: trajectory.final_stake() for name, trajectory in result.trajectories.items()}
        assert at_end["inactive"] < at_end["semi-active"] < at_end["active"]


class TestFigure3:
    def test_threshold_epochs_ordered_by_p0(self):
        result = fig3_active_ratio.run(max_epoch=5000, step=100, include_simulation=False)
        # Larger p0 regains the supermajority sooner.
        assert result.threshold_epochs[0.6] < result.threshold_epochs[0.5]
        assert result.threshold_epochs[0.5] <= result.threshold_epochs[0.2]

    def test_ratio_jumps_to_one_at_ejection(self):
        result = fig3_active_ratio.run(
            p0_values=(0.2,), max_epoch=8000, step=100, include_simulation=False
        )
        assert result.analytical_series[0.2][-1] == pytest.approx(1.0)

    def test_simulation_tracks_analytical_before_ejection(self):
        result = fig3_active_ratio.run(p0_values=(0.4,), max_epoch=2000, step=100)
        analytical = result.analytical_series[0.4]
        simulated = result.simulated_series[0.4]
        assert analytical[10] == pytest.approx(simulated[10], abs=0.02)

    def test_initial_ratio_is_p0(self):
        result = fig3_active_ratio.run(p0_values=(0.3,), max_epoch=100, step=10, include_simulation=False)
        assert result.analytical_series[0.3][0] == pytest.approx(0.3)


class TestTables2And3:
    def test_table2_matches_paper_exactly(self):
        result = table2_slashing_times.run(include_simulation=False)
        for row in result.rows():
            assert row["epochs_analytical"] == row["epochs_paper"]

    def test_table2_simulation_cross_check(self):
        result = table2_slashing_times.run(
            beta0_values=(0.2, 0.33), include_simulation=True, simulation_max_epochs=4000
        )
        for row in result.rows():
            assert row["epochs_simulated"] == pytest.approx(row["epochs_analytical"], rel=0.03)

    def test_table3_within_one_percent_of_paper(self):
        result = table3_nonslashing_times.run(include_simulation=False)
        for row in result.rows():
            assert row["epochs_analytical"] == pytest.approx(row["epochs_paper"], rel=0.01)

    def test_formatting(self):
        assert "Table 2" in table2_slashing_times.run(include_simulation=False).format_text()
        assert "Table 3" in table3_nonslashing_times.run(include_simulation=False).format_text()


class TestFigure6:
    def test_curves_decrease_with_beta0(self):
        result = fig6_finalization_times.run(n_points=12)
        assert result.slashing_epochs[0] > result.slashing_epochs[-1]
        assert result.non_slashing_epochs[0] > result.non_slashing_epochs[-1]

    def test_non_slashing_never_faster(self):
        result = fig6_finalization_times.run(n_points=12)
        assert result.non_slashing_always_slower()

    def test_rows_and_text(self):
        result = fig6_finalization_times.run(n_points=5)
        assert len(result.rows()) == 5
        assert "Figure 6" in result.format_text()


class TestFigure7:
    def test_critical_beta0(self):
        result = fig7_threshold_region.run(p0_points=11, beta0_points=12)
        assert result.critical_beta0_at_half == pytest.approx(0.2421, abs=5e-4)

    def test_boundary_curve_monotone_in_p0(self):
        result = fig7_threshold_region.run(p0_points=21, beta0_points=5)
        betas = list(result.boundary_beta0)
        assert all(b >= a - 1e-12 for a, b in zip(betas, betas[1:]))

    def test_region_contains_paper_point(self):
        result = fig7_threshold_region.run(p0_points=11, beta0_points=34)
        region = result.region
        i = region.p0_values.index(0.5)
        feasible_betas = [
            region.beta0_values[j]
            for j in range(len(region.beta0_values))
            if region.feasible_on_both()[i, j]
        ]
        assert feasible_betas and min(feasible_betas) == pytest.approx(0.2421, abs=0.02)


class TestFigure9:
    def test_mass_accounting(self):
        result = fig9_stake_distribution.run()
        row = result.rows()[0]
        assert row["total_mass"] == pytest.approx(1.0, abs=5e-3)
        # At t=4024 the honest validators are still far from ejection, so
        # virtually all the mass sits in the continuous body of the law.
        assert row["ejection_mass"] == pytest.approx(0.0, abs=1e-6)
        assert row["continuous_mass"] == pytest.approx(1.0, abs=5e-3)
        assert "Figure 9" in result.format_text()

    def test_ejection_mass_appears_late(self):
        late = fig9_stake_distribution.run(epoch=7500)
        assert late.ejection_mass > 0.05

    def test_median_matches_semi_active_stake(self):
        from repro.leak.stake import semi_active_stake

        result = fig9_stake_distribution.run(epoch=4024)
        assert result.median_stake == pytest.approx(semi_active_stake(4024.0), rel=1e-9)
        assert 20.0 < result.median_stake < 30.0


class TestFigure10:
    def test_one_third_curve_sits_at_half(self):
        result = fig10_exceed_probability.run(beta0_values=(1 / 3,), max_epoch=4000, step=1000)
        series = result.series[1 / 3]
        assert series[1] == pytest.approx(0.5, abs=1e-3)

    def test_curves_ordered_by_beta0(self):
        result = fig10_exceed_probability.run(beta0_values=(0.3, 0.33, 1 / 3), max_epoch=6000, step=2000)
        at_6000 = [result.series[b][-1] for b in (0.3, 0.33, 1 / 3)]
        assert at_6000[0] <= at_6000[1] <= at_6000[2]

    def test_ejection_epoch_reported(self):
        result = fig10_exceed_probability.run(beta0_values=(0.33,), max_epoch=1000, step=500)
        assert result.byzantine_ejection_epoch == pytest.approx(7652, rel=0.01)
        assert "Figure 10" in result.format_text()


class TestAuxiliaryExperiments:
    def test_table1_outcomes_match_paper(self):
        result = table1_scenarios.run(max_epochs=5000)
        assert result.matches_paper()
        assert "Table 1" in result.format_text()

    def test_bouncing_duration_paper_estimate(self):
        result = bouncing_duration.run(beta0_values=(1 / 3,), horizons=(7000,))
        assert result.rows()[0]["log10_p_at_7000"] == pytest.approx(-121.0, abs=0.5)

    def test_safety_bound(self):
        result = safety_bounds.run(p0_values=(0.5,), include_simulation=False)
        assert result.worst_case_bound() == pytest.approx(4686.0)
        assert "4686" in result.format_text() or "Section 5.1" in result.format_text()

    def test_ablations_run(self):
        result = ablations.run(p0_values=(0.4, 0.5))
        assert result.ejection_model.rows()
        assert result.split_sensitivity.rows()
        assert result.early_finalization.rows()
        assert "Ablations" in result.format_text()

    def test_ablation_waiting_for_ejection_is_optimal(self):
        result = ablations.run()
        rows = result.early_finalization.rows()
        at_ejection = rows[0]["byzantine_proportion"]
        assert all(row["byzantine_proportion"] <= at_ejection + 1e-9 for row in rows)


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
