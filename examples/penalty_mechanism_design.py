#!/usr/bin/env python3
"""Designing inactivity-penalty mechanisms: the paper's analysis as a tool.

The paper frames its results as a first step towards analysing penalty
mechanisms in BFT protocols in general (Tezos and Polkadot have similar
devices).  Every closed form reads its constants from a ``SpecConfig``, so
this example explores the design space by overriding config fields: how
the leak speed (penalty quotient), the score dynamics, and the quorum size
move the three quantities that matter —

* how long a partition must last before Safety can be lost,
* how long inactive validators survive before ejection,
* how much initial Byzantine stake suffices to exceed the quorum-breaking
  threshold by simply waiting.

It also shows the post-leak recovery tail and validates the closed forms
against the per-validator Monte-Carlo simulator.

Run with:  python examples/penalty_mechanism_design.py
"""

from repro.analysis.threshold import critical_beta0
from repro.experiments import fig10_montecarlo, generalized_mechanism, recovery_tail
from repro.leak.stake import Behavior, continuous_ejection_epoch
from repro.spec.config import SpecConfig
from repro.viz import format_table


def design_space() -> None:
    print("=" * 72)
    print("Penalty-mechanism design space")
    print("=" * 72)
    result = generalized_mechanism.run()
    print(format_table(result.rows(), columns=[
        "mechanism", "safety_bound_epochs", "inactive_ejection_epoch", "critical_beta0",
    ]))
    print()
    print("  Faster leaks restore Liveness sooner but also lose Safety sooner under")
    print("  partition; the critical Byzantine proportion is invariant to the leak")
    print("  speed — it only depends on how semi-active and inactive validators are")
    print("  penalised relative to each other.")


def custom_mechanism() -> None:
    print()
    print("=" * 72)
    print("A custom mechanism: milder penalties for intermittent validators")
    print("=" * 72)
    configs = {
        "ethereum (bias 4, recovery 1)": SpecConfig(),
        "custom (bias 4, recovery 3)": SpecConfig(inactivity_score_recovery=3),
    }
    rows = [
        {
            "mechanism": name,
            "semi-active ejection": continuous_ejection_epoch(
                Behavior.SEMI_ACTIVE, config=config
            ),
            "critical beta0": critical_beta0(0.5, config=config),
        }
        for name, config in configs.items()
    ]
    print(format_table(rows))
    print()
    print("  Forgiving semi-activity (higher score recovery) keeps alternating")
    print("  validators alive much longer — which also makes the Section-5.2.3")
    print("  threshold attack cheaper.  Penalty design is a trade-off.")


def recovery() -> None:
    print()
    print("=" * 72)
    print("Post-leak recovery tail (why Figure 3 keeps rising after 2/3)")
    print("=" * 72)
    print(format_table(recovery_tail.run().rows()))


def monte_carlo_validation() -> None:
    print()
    print("=" * 72)
    print("Monte-Carlo validation of the bouncing-attack closed form (Eq. 24)")
    print("=" * 72)
    result = fig10_montecarlo.run(
        beta0_values=(1 / 3, 0.33), horizon=2500, n_trials=25, n_honest=120, seed=1
    )
    print(result.format_text())
    print()
    print("  The per-validator simulation keeps the score floor and the ejection rule")
    print("  that the Gaussian model drops; the empirical either-branch probability")
    print("  tracks the doubled closed form, as the paper argues.")


def main() -> None:
    design_space()
    custom_mechanism()
    recovery()
    monte_carlo_validation()


if __name__ == "__main__":
    main()
