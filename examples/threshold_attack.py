#!/usr/bin/env python3
"""Scenario 5.2.3: exceeding the one-third Byzantine safety threshold.

Instead of finalizing as fast as possible, semi-active Byzantine validators
can wait: by keeping both branches unfinalized they let the inactivity leak
drain the honest validators deemed inactive on each branch until those are
ejected, at which point the Byzantine share of the remaining stake peaks
(Equation 13).  If their initial proportion is at least ~0.2421 (for an
even honest split), the peak exceeds 1/3 on both branches.

Run with:  python examples/threshold_attack.py
"""

from repro.analysis.threshold import analyse_pair, critical_beta0
from repro.analysis.partition_scenarios import run_threshold_exceeding_scenario
from repro.experiments import fig7_threshold_region
from repro.leak.ratios import byzantine_proportion, max_byzantine_proportion
from repro.viz import ascii_plot, format_table


def critical_proportion() -> None:
    print("=" * 72)
    print("The critical initial Byzantine proportion (Figure 7)")
    print("=" * 72)
    result = fig7_threshold_region.run()
    print(f"  smallest beta0 that can exceed 1/3 on both branches at p0=0.5: "
          f"{result.critical_beta0_at_half:.4f}  (paper: 0.2421)")
    rows = [
        {"p0": p0, "min beta0 to exceed 1/3": beta0}
        for p0, beta0 in list(zip(result.boundary_p0, result.boundary_beta0))[::10]
    ]
    print(format_table(rows))


def beta_over_time() -> None:
    print()
    print("=" * 72)
    print("Evolution of the Byzantine proportion beta(t) during the leak (Eq. 11)")
    print("=" * 72)
    epochs = list(range(0, 4700, 50))
    series = {}
    for beta0 in (0.2, 0.2421, 0.28, 0.33):
        series[f"beta0={beta0}"] = (epochs, [byzantine_proportion(t, 0.5, beta0) for t in epochs])
    series["1/3 threshold"] = (epochs, [1 / 3 for _ in epochs])
    print(ascii_plot(series, width=68, height=14, x_label="epoch", y_label="beta(t)"))
    print()
    print("  The continuous proportion stays below 1/3 until the ejection of the")
    print("  honest inactive validators (epoch ~4661) removes their residual stake")
    print("  from the denominator; the peak reached at that point is Equation 13:")
    rows = []
    for beta0 in (0.2, 0.2421, 0.28, 0.33):
        crossing = analyse_pair(0.5, beta0)
        rows.append(
            {
                "beta0": beta0,
                "beta_max (Eq. 13)": max_byzantine_proportion(0.5, beta0),
                "exceeds 1/3": crossing.exceeds_threshold,
                "crossing epoch": crossing.crossing_epoch,
            }
        )
    print(format_table(rows))


def discrete_simulation() -> None:
    print()
    print("=" * 72)
    print("Discrete aggregate simulation of the attack (8000 epochs)")
    print("=" * 72)
    for beta0 in (0.2, 0.25, 0.3):
        outcome = run_threshold_exceeding_scenario(beta0=beta0, p0=0.5, max_epochs=8000)
        print(f"  beta0 = {beta0:<5} -> max Byzantine proportion observed: "
              f"{outcome.max_byzantine_proportion:.4f}  "
              f"({'exceeds' if outcome.threshold_exceeded else 'stays below'} 1/3)")
    print()
    print(f"  critical beta0 (analytical): {critical_beta0(0.5):.4f}")


def main() -> None:
    critical_proportion()
    beta_over_time()
    discrete_simulation()


if __name__ == "__main__":
    main()
