#!/usr/bin/env python3
"""Scenario 5.1: losing Safety with only honest validators.

Reproduces the Section-5.1 analysis end to end: a network partition splits
the honest validators into two branches, each branch leaks the stake of the
validators it cannot hear, and once each branch regains a 2/3 supermajority
it finalizes — producing two conflicting finalized chains.

The script sweeps the honest split p0, compares the analytical crossing
time (Equation 6) with the discrete aggregate simulation, and renders the
Figure-3 curves as an ASCII chart.

Run with:  python examples/partition_safety_loss.py
"""

from repro.analysis.finalization_time import (
    ByzantineStrategy,
    conflicting_finalization_time,
    threshold_epoch_honest_only,
)
from repro.analysis.partition_scenarios import run_all_honest_scenario
from repro.experiments import fig3_active_ratio
from repro.viz import ascii_plot, format_table


def sweep_splits() -> None:
    print("=" * 72)
    print("Conflicting finalization time vs the honest split p0 (Section 5.1)")
    print("=" * 72)
    rows = []
    for p0 in (0.5, 0.45, 0.4, 0.35, 0.3):
        analytical = conflicting_finalization_time(ByzantineStrategy.NONE, p0=p0)
        outcome = run_all_honest_scenario(p0=p0, max_epochs=5200)
        rows.append(
            {
                "p0": p0,
                "slower branch crosses 2/3 (analytical)": analytical.threshold_epoch,
                "conflicting finalization (analytical)": analytical.finalization_epoch,
                "conflicting finalization (simulated)": outcome.conflicting_finalization_epoch,
            }
        )
    print(format_table(rows))
    print()
    print("The even split (p0 = 0.5) is the fastest configuration; no honest-only")
    print("partition can lose Safety before ~4662 epochs (about 3 weeks; the")
    print("paper's 4686 takes its own 4685-epoch ejection as given).")


def figure3_chart() -> None:
    print()
    print("=" * 72)
    print("Figure 3: ratio of active validators during the leak")
    print("=" * 72)
    result = fig3_active_ratio.run(
        p0_values=(0.6, 0.5, 0.4, 0.3, 0.2), max_epoch=8000, step=100, include_simulation=False
    )
    series = {
        f"p0={p0}": (list(result.epochs), result.analytical_series[p0])
        for p0 in result.p0_values
    }
    print(ascii_plot(series, width=68, height=16, x_label="epoch", y_label="active ratio"))
    print()
    rows = [
        {"p0": p0, "epoch regaining 2/3": result.threshold_epochs[p0]}
        for p0 in result.p0_values
    ]
    print(format_table(rows))


def explain_bound() -> None:
    print()
    print("=" * 72)
    print("Where the ~4661-epoch bound comes from")
    print("=" * 72)
    print("With p0 < 2/3 on a branch, the branch only regains a supermajority once")
    print("the stake of the validators it deems inactive has leaked away, i.e. at")
    print("  t = sqrt(2^25 [ln(2(1-p0)) - ln(p0)])  (Equation 6), capped by the")
    print("ejection of inactive validators.  For the even split that cap binds:")
    for p0 in (0.6, 0.55, 0.5):
        print(f"  p0 = {p0:<5} -> t = {threshold_epoch_honest_only(p0):7.1f} epochs")


def main() -> None:
    sweep_splits()
    figure3_chart()
    explain_bound()


if __name__ == "__main__":
    main()
