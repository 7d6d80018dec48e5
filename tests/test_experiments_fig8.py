"""Tests for the Figure-8 Markov-bounce experiment."""

import pytest

from repro.experiments import fig8_markov_bounce, registry


class TestFigure8:
    def test_exact_walk_consistency(self):
        # Seen from one branch, the exact two-epoch walk mean is 2*(4-5p)
        # which the rows expose for cross-checking against the drift model.
        result = fig8_markov_bounce.run(p0_values=(0.4,))
        row = result.rows()[0]
        assert row["exact_walk_mean_after_two_epochs"] == pytest.approx(2 * (4 - 5 * 0.4))

    def test_format_and_registry(self):
        result = fig8_markov_bounce.run()
        assert "Figure 8" in result.format_text()
        assert "fig8" in registry.list_ids()
        assert hasattr(registry.run("fig8"), "rows")
