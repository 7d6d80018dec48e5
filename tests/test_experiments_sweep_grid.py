"""Tests for the (p0, beta0) sweep-grid extension experiment."""

import pytest

from repro.experiments import registry, sweep_grid


class TestSweepGrid:
    def test_grid_shapes_and_rows(self):
        result = sweep_grid.run(p0_values=(0.4, 0.5), beta0_values=(0.0, 0.2))
        assert result.slashing_grid.shape == (2, 2)
        assert len(result.rows()) == 4
        assert "sweep" in result.format_text()

    def test_monotone_in_beta0(self):
        result = sweep_grid.run(p0_values=(0.5,), beta0_values=(0.0, 0.1, 0.2, 0.3))
        row = result.slashing_grid[0]
        assert all(b <= a + 1e-9 for a, b in zip(row, row[1:]))

    def test_registered(self):
        assert "sweep-grid" in registry.list_ids()
        assert hasattr(registry.run("sweep-grid"), "rows")


class TestEmpiricalGapMode:
    """The Monte-Carlo validation layer of the sweep (``n_trials``)."""

    KWARGS = dict(
        p0_values=(0.4, 0.5),
        beta0_values=(0.3, 0.33),
        n_trials=6,
        horizon=15,
        n_honest=8,
        seed=1,
    )

    def test_gap_grids_present_and_bounded(self):
        from repro.spec.config import SpecConfig

        result = sweep_grid.run(**self.KWARGS)
        assert result.has_empirical
        assert result.exceed_closed_form.shape == (2, 2)
        assert result.exceed_empirical.shape == (2, 2)
        assert ((result.exceed_empirical >= 0) & (result.exceed_empirical <= 1)).all()
        assert 0.0 <= result.max_exceed_gap() <= 1.0
        rows = result.rows()
        assert {"exceed_closed_form", "exceed_empirical", "exceed_gap"} <= set(rows[0])
        assert "closed-form vs empirical" in result.format_text()

    def test_serial_equals_parallel(self):
        serial = sweep_grid.run(jobs=1, **self.KWARGS)
        parallel = sweep_grid.run(jobs=2, **self.KWARGS)
        assert (serial.exceed_empirical == parallel.exceed_empirical).all()
        assert (serial.exceed_closed_form == parallel.exceed_closed_form).all()

    def test_default_run_has_no_empirical_layer(self):
        result = sweep_grid.run(p0_values=(0.5,), beta0_values=(0.3,))
        assert not result.has_empirical
        assert result.exceed_gap is None
        with pytest.raises(ValueError):
            result.max_exceed_gap()
        assert "exceed_gap" not in result.rows()[0]

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid.run(p0_values=(0.5,), beta0_values=(0.3,), n_trials=0)

    def test_registry_reports_batched_options(self):
        accepted = registry.get("sweep-grid").accepted_options()
        assert {"jobs", "seed", "n_trials", "batch", "backend"} <= accepted
        accepted_fig10 = registry.get("fig10-montecarlo").accepted_options()
        assert {"batch", "backend"} <= accepted_fig10
