"""The paper-numbers ledger: every number the paper states, in one table.

Each :class:`Row` of :data:`LEDGER` gives a quantity, the paper's value and
section, a tolerance, and the layers that reproduce it.  A layer is one of
:data:`BASE_LAYERS` (closed forms, the spec's stake recurrence, the
epoch-level ``LeakSimulation`` ledger) or the id of a registered experiment,
whose run supplies the value.  One test case runs per (row, layer) pair.
Each experiment runs once per session, at the paper's parameters (its
defaults), through the :func:`runs` fixture.

Figure-shape claims that have no number (monotone curves, orderings,
probability laws) are plain tests after the table; each cites its figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np
import pytest

import repro
from repro.analysis import speedup_over_honest_baseline
from repro.analysis.bouncing import BouncingStakeDistribution
from repro.analysis.finalization_time import ByzantineStrategy
from repro.constants import PAPER_INACTIVE_EJECTION_EPOCH
from repro.experiments import registry
from repro.leak.stake import Behavior, continuous_ejection_epoch, semi_active_stake
from repro.spec.inactivity import discrete_ejection_epoch

CLOSED_FORM = "closed form"
SPEC_RECURRENCE = "spec recurrence"
DISCRETE_LEDGER = "discrete ledger"
BASE_LAYERS = (CLOSED_FORM, SPEC_RECURRENCE, DISCRETE_LEDGER)

#: Non-default arguments of the ledger's experiment runs: the Figure-10
#: Monte-Carlo is cut from 512 x 3 x 4000 epochs to a sub-second sample.
RUN_ARGS = {
    "fig10-montecarlo": dict(
        beta0_values=(1 / 3,), horizon=1500, n_trials=30, n_honest=100, seed=1
    ),
}


class Runs(dict):
    """Experiment id -> result, run on first use."""

    def __missing__(self, experiment_id: str):
        result = registry.get(experiment_id).run(**RUN_ARGS.get(experiment_id, {}))
        self[experiment_id] = result
        return result


@pytest.fixture(scope="module")
def runs() -> Runs:
    return Runs()


class Tol(NamedTuple):
    """``pytest.approx`` bounds; both zero means exact equality."""

    rel: float = 0.0
    abs: float = 0.0


#: ``pytest.approx``'s default, for values that are exact up to rounding.
APPROX = Tol(rel=1e-6)

Layer = Callable[[Runs], float]


@dataclass(frozen=True)
class Row:
    quantity: str
    paper: float
    section: str
    layers: Dict[str, Layer]
    tol: Tol
    #: The value asserted instead of ``paper``, where the paper's number is
    #: rounded in prose or the layer derives its own ejection epoch (see the
    #: calibration note).
    expected: Optional[float] = None
    #: Every layer of this row caps its crossing times at the paper's
    #: 4685-epoch ejection (``constants.PAPER_INACTIVE_EJECTION_EPOCH``,
    #: passed explicitly), so the row equals the paper by construction: the
    #: paper constant is an input.
    paper_input: bool = False


def _table(experiment_id: str, column: str, beta0: float) -> Layer:
    def measure(r: Runs) -> float:
        (row,) = (row for row in r[experiment_id].rows() if row["beta0"] == beta0)
        return row[column]

    return measure


def _sweep(grid: str, beta0: float) -> Layer:
    def measure(r: Runs) -> float:
        result = r["sweep-grid"]
        i, j = result.p0_values.index(0.5), result.beta0_values.index(beta0)
        return getattr(result, grid)[i, j]

    return measure


def _ethereum_mechanism(column: str) -> Layer:
    def measure(r: Runs) -> float:
        rows = r["generalized-mechanism"].rows()
        (row,) = (row for row in rows if row["mechanism"] == "ethereum (2**26)")
        return row[column]

    return measure


def _grid_critical_beta0(r: Runs) -> float:
    region = r["fig7"].region
    feasible = region.feasible_on_both()[region.p0_values.index(0.5)]
    return min(beta0 for beta0, ok in zip(region.beta0_values, feasible) if ok)


def _ejection_layers(behavior: str) -> Dict[str, Layer]:
    return {
        CLOSED_FORM: lambda _: continuous_ejection_epoch(Behavior(behavior)),
        SPEC_RECURRENCE: lambda _: discrete_ejection_epoch(behavior),
        "fig2": lambda r: r["fig2"].discrete_ejection_epochs[behavior],
        "ablations": lambda r: r["ablations"].ejection_model.discrete_epochs[behavior],
    }


def _crossing_layers(
    experiment_id: str, strategy: str, beta0: float, ejection_cap: Optional[float] = None
) -> Dict[str, Layer]:
    return {
        CLOSED_FORM: lambda _: repro.epochs_to_conflicting_finalization(
            strategy, 0.5, beta0, ejection_cap
        ),
        experiment_id: _table(experiment_id, "epochs_analytical", beta0),
    }


def _honest_only_at_paper_ejection():
    return repro.conflicting_finalization_time(
        ByzantineStrategy.NONE, p0=0.5, ejection_cap=PAPER_INACTIVE_EJECTION_EPOCH
    )


def _bouncing(beta0: float, p0: float = 0.5) -> repro.BouncingAttackModel:
    return repro.BouncingAttackModel(beta0=beta0, p0=p0)


TABLE2 = {0.0: 4685, 0.1: 4066, 0.15: 3622, 0.2: 3107, 0.33: 502}
TABLE3 = {0.0: 4685, 0.1: 4221, 0.15: 3819, 0.2: 3328, 0.33: 556}
FIG8_P0 = (0.5, 0.55, 0.6, 0.66)
EVEN_SPLIT_INCREMENTS = {8: 0.25, 3: 0.5, -2: 0.25}
SLASHING, NON_SLASHING = ByzantineStrategy.SLASHING, ByzantineStrategy.NON_SLASHING

LEDGER = (
    # -- Section 4.3, Figure 2: stake of a validator during the leak --------
    Row(
        "active validator stake after 8000 epochs (ETH)", 32.0, "§4.3, Fig. 2",
        {"fig2": lambda r: r["fig2"].trajectories["active"].final_stake()}, Tol(),
    ),
    # Calibration note.  The paper puts the ejection of an inactive validator
    # at epoch 4685 and of a semi-active one at 7652.  Every layer here that
    # integrates the stake dynamics lands about 0.5% earlier, and the layers
    # agree with each other to within one epoch:
    #   - continuous stake function (leak/stake.py): 4660.58 and 7610.70;
    #   - spec recurrence, ``discrete_ejection_epoch``: 4661 and 7612;
    #   - discrete ledger (``LeakSimulation``), Table 2 at beta0 = 0: 4660;
    #   - discrete ledger, Safety bound at p0 = 0.5: 4661.
    # So the gap is not discretization; the paper does not say how it
    # evaluated 4685 and 7652.  Every closed form reads its constants from a
    # ``SpecConfig`` and caps crossing times at that config's continuous
    # inactive ejection (4660.58 on mainnet).  The paper's 4685 is an explicit
    # input only in the rows marked ``paper_input``: the Table 2/3 rows at
    # beta0 = 0 and the 4685 -> 4686 Safety bound, in their closed-form layer
    # and in the experiments that reproduce them (safety-bound, fig3, table2,
    # table3, fig6, sweep-grid).  The independent values are the separate
    # discrete-ledger rows below, at their own tolerances.
    Row(
        "inactive validator ejection epoch", 4685, "§4.3, Fig. 2",
        _ejection_layers("inactive"), Tol(rel=0.01),
    ),
    Row(
        "semi-active validator ejection epoch", 7652, "§4.3, Fig. 2",
        _ejection_layers("semi-active"), Tol(rel=0.01),
    ),
    # -- Section 5.1: honest validators only, the Safety bound --------------
    Row(
        "honest-only threshold epoch, p0=0.5", 4685, "§5.1, Eq. 6, Fig. 3",
        {
            CLOSED_FORM: lambda _: _honest_only_at_paper_ejection().threshold_epoch,
            "safety-bound": lambda r: r["safety-bound"].analytical_threshold[0.5],
            "fig3": lambda r: r["fig3"].threshold_epochs[0.5],
        },
        Tol(), paper_input=True,
    ),
    Row(
        "Safety bound: conflicting finalization epoch", 4686, "§5.1",
        {
            CLOSED_FORM: lambda _: _honest_only_at_paper_ejection().finalization_epoch,
            "safety-bound": lambda r: r["safety-bound"].worst_case_bound(),
        },
        Tol(), paper_input=True,
    ),
    Row(
        "Safety bound: conflicting finalization epoch, simulated", 4686, "§5.1, Table 1",
        {
            DISCRETE_LEDGER: lambda r: r["safety-bound"].simulated_finalization[0.5],
            "table1": lambda r: r["table1"].outcomes[0].conflicting_finalization_epoch,
        },
        Tol(rel=0.02),
    ),
    Row(
        "Safety bound under the generalized Ethereum mechanism", 4686, "§5.1",
        {"generalized-mechanism": _ethereum_mechanism("safety_bound_epochs")},
        Tol(abs=5), expected=4661,
    ),
    # -- Section 5.2.1, Table 2: slashable Byzantine, p0 = 0.5 --------------
    Row(
        "Table 2 epochs, beta0=0.0", TABLE2[0.0], "§5.2.1, Eq. 9, Table 2, Fig. 6",
        {
            **_crossing_layers("table2", SLASHING, 0.0, PAPER_INACTIVE_EJECTION_EPOCH),
            "fig6": lambda r: r["fig6"].slashing_epochs[0],
            "sweep-grid": _sweep("slashing_grid", 0.0),
        },
        Tol(), paper_input=True,
    ),
    *(
        Row(
            f"Table 2 epochs, beta0={beta0}", TABLE2[beta0], "§5.2.1, Eq. 9, Table 2",
            _crossing_layers("table2", SLASHING, beta0), Tol(),
        )
        for beta0 in (0.1, 0.15, 0.2, 0.33)
    ),
    *(
        Row(
            f"Table 2 epochs, beta0={beta0}, unrounded", TABLE2[beta0], "§5.2.1, Eq. 9",
            {"sweep-grid": _sweep("slashing_grid", beta0)}, Tol(abs=1),
        )
        for beta0 in (0.1, 0.2, 0.33)
    ),
    *(
        Row(
            f"Table 2 epochs, beta0={beta0}, simulated", epochs, "§5.2.1, Table 2",
            {DISCRETE_LEDGER: _table("table2", "epochs_simulated", beta0)}, Tol(rel=0.03),
        )
        for beta0, epochs in TABLE2.items()
    ),
    Row(
        "Safety lost faster than honest-only, slashable beta0=0.33", 10, "§5.2.1",
        {CLOSED_FORM: lambda _: speedup_over_honest_baseline(SLASHING, 0.33)},
        Tol(abs=1.0), expected=9.3,  # "approximately ten times": 4685 / 502
    ),
    # -- Section 5.2.2, Table 3: non-slashable Byzantine, p0 = 0.5 ----------
    Row(
        "Table 3 epochs, beta0=0.0", TABLE3[0.0], "§5.2.2, Eq. 10, Table 3, Fig. 6",
        {
            **_crossing_layers("table3", NON_SLASHING, 0.0, PAPER_INACTIVE_EJECTION_EPOCH),
            "fig6": lambda r: r["fig6"].non_slashing_epochs[0],
            "sweep-grid": _sweep("non_slashing_grid", 0.0),
        },
        Tol(), paper_input=True,
    ),
    *(
        Row(
            f"Table 3 epochs, beta0={beta0}", TABLE3[beta0], "§5.2.2, Eq. 10, Table 3",
            _crossing_layers("table3", NON_SLASHING, beta0),
            # The paper solves Equation 10 numerically; its middle rows are
            # matched within 1%.
            Tol() if beta0 == 0.33 else Tol(rel=0.01),
        )
        for beta0 in (0.1, 0.15, 0.2, 0.33)
    ),
    *(
        Row(
            f"Table 3 epochs, beta0={beta0}, simulated", epochs, "§5.2.2, Table 3",
            {DISCRETE_LEDGER: _table("table3", "epochs_simulated", beta0)}, Tol(rel=0.05),
        )
        for beta0, epochs in TABLE3.items()
    ),
    Row(
        "Safety lost faster than honest-only, non-slashable beta0=0.33", 8, "§5.2.2",
        {CLOSED_FORM: lambda _: speedup_over_honest_baseline(NON_SLASHING, 0.33)},
        Tol(abs=1.0), expected=8.4,  # "approximately eight times": 4685 / 556
    ),
    # -- Section 5.2.3, Figure 7: exceeding one third ------------------------
    Row(
        "critical beta0 at p0=0.5", 0.2421, "§5.2.3, Fig. 7",
        {
            CLOSED_FORM: lambda _: repro.critical_beta0(0.5),
            "fig7": lambda r: r["fig7"].critical_beta0_at_half,
        },
        Tol(abs=5e-4),
    ),
    Row(
        "critical beta0 at p0=0.5 under the generalized Ethereum mechanism", 0.2421, "§5.2.3",
        {"generalized-mechanism": _ethereum_mechanism("critical_beta0")}, Tol(abs=2e-3),
    ),
    Row(
        "smallest feasible beta0 on the Figure-7 grid at p0=0.5", 0.2421, "§5.2.3, Fig. 7",
        {"fig7": _grid_critical_beta0}, Tol(abs=0.02),
    ),
    # -- Section 5.3: the probabilistic bouncing attack ----------------------
    Row(
        "P[beta > 1/3] at beta0=1/3", 0.5, "§5.3, Eq. 24, Fig. 10",
        {
            CLOSED_FORM: lambda _: _bouncing(1 / 3).exceed_threshold_probability(4000.0),
            "fig10": lambda r: r["fig10"].series[1 / 3][r["fig10"].epochs.index(4000)],
            "fig10-montecarlo": lambda r: r["fig10-montecarlo"].horizon_rows()[0][
                "closed_form_single_branch"
            ],
        },
        Tol(abs=1e-3),
    ),
    Row(
        "log10 P[bouncing attack lasts 7000 epochs], beta0=1/3", -121, "§5.3",
        {
            CLOSED_FORM: lambda _: _bouncing(1 / 3).log10_duration_probability(7000),
            "bouncing-duration": _table("bouncing-duration", "log10_p_at_7000", 1 / 3),
        },
        Tol(abs=0.5),
    ),
    Row(
        "Byzantine ejection epoch under the bouncing attack", 7653, "§5.3, Fig. 10",
        {
            CLOSED_FORM: lambda _: _bouncing(0.33).byzantine_ejection_epoch(),
            "fig10": lambda r: r["fig10"].byzantine_ejection_epoch,
        },
        Tol(rel=0.01),
    ),
    *(
        Row(
            f"Eq. 14 feasible p0 window at beta0=1/3, {side} end", bound, "§5.3, Eq. 14",
            {CLOSED_FORM: lambda _, i=i: _bouncing(1 / 3, p0=0.55).feasible_p0_window()[i]},
            APPROX,
        )
        for i, (side, bound) in enumerate((("lower", 0.5), ("upper", 1.0)))
    ),
    *(
        Row(
            f"Eq. 15 mean two-epoch score increment, p0={p0}", 3.0, "§5.3, Eq. 15, Fig. 8",
            {"fig8": lambda r, p0=p0: r["fig8"].mean_two_epoch_increment[p0]}, APPROX,
        )
        for p0 in FIG8_P0
    ),
    *(
        Row(
            f"Eq. 15 P[two-epoch increment {step:+d}], p0=0.5", probability,
            "§5.3, Eq. 15, Fig. 8",
            {"fig8": lambda r, step=step: r["fig8"].increment_distributions[0.5][step]},
            APPROX,
        )
        for step, probability in EVEN_SPLIT_INCREMENTS.items()
    ),
    *(
        Row(
            f"Fig. 8 two-epoch path {path}, p0=0.5", 0.25, "§5.3, Fig. 8",
            {"fig8": lambda r, path=path: r["fig8"].rows()[0][f"path_{path}"]}, APPROX,
        )
        for path in ("AA", "AB")
    ),
)

#: Registered experiments with no ledger row, and why.
EXEMPT = {
    "fig9": "a density plot; the paper reads no number off it (shape tests below)",
    "recovery-tail": "an extension past the paper's horizon; no number from the paper",
    "balancing-feasibility": "a Gasper balancing-attack extension; no number from this paper",
    "balancing-duration": "a Gasper balancing-attack extension; no number from this paper",
}

CASES = [(row, layer) for row in LEDGER for layer in row.layers]


@pytest.mark.parametrize(
    "row, layer", CASES, ids=[f"{row.quantity} | {layer}" for row, layer in CASES]
)
def test_ledger_row(runs, row, layer):
    target = row.paper if row.expected is None else row.expected
    measured = row.layers[layer](runs)
    assert measured == pytest.approx(target, rel=row.tol.rel, abs=row.tol.abs), (
        f"{row.quantity} ({row.section}) via {layer}: {measured}, paper {row.paper}"
        f"{' (paper constant as input)' if row.paper_input else ''}, tolerance {row.tol}"
    )


class TestLedgerCompleteness:
    def test_every_experiment_has_a_row_or_an_exemption(self):
        covered = {layer for row in LEDGER for layer in row.layers} & set(
            registry.EXPERIMENTS
        )
        assert not covered & set(EXEMPT)
        assert covered | set(EXEMPT) == set(registry.EXPERIMENTS)
        assert all(reason for reason in EXEMPT.values())

    def test_every_row_is_complete(self):
        for row in LEDGER:
            assert row.section and row.layers, row.quantity
            assert isinstance(row.tol, Tol) and min(row.tol) >= 0, row.quantity
            for layer in row.layers:
                assert layer in BASE_LAYERS or layer in registry.EXPERIMENTS, layer
        quantities = [row.quantity for row in LEDGER]
        assert len(quantities) == len(set(quantities))


# ----------------------------------------------------------------------
# Figure-shape claims with no number
# ----------------------------------------------------------------------
def test_fig2_stakes_ordered(runs):
    """Figure 2: active > semi-active > inactive until the ejections."""
    result = runs["fig2"]
    at_4000 = list(result.trajectories["active"].epochs).index(4000)
    stake = {name: t.stakes[at_4000] for name, t in result.trajectories.items()}
    assert stake["inactive"] < stake["semi-active"] < stake["active"]
    assert (
        result.trajectories["semi-active"].final_stake()
        >= result.trajectories["inactive"].final_stake()
    )


def test_fig3_active_ratio_curves(runs):
    """Figure 3: each curve starts at p0, never falls, ends at 1 after the
    ejection; a larger p0 regains 2/3 sooner; the discrete ledger tracks
    the closed form over the first 1000 epochs."""
    result = runs["fig3"]
    early = [i for i, epoch in enumerate(result.epochs) if epoch <= 1000]
    for p0 in result.p0_values:
        series = result.analytical_series[p0]
        assert series[0] == pytest.approx(p0)
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
        assert series[-1] == pytest.approx(1.0)
        simulated = result.simulated_series[p0]
        for i in early:
            assert simulated[i] == pytest.approx(series[i], abs=0.02)
    thresholds = result.threshold_epochs
    assert thresholds[0.6] < thresholds[0.5] <= thresholds[0.2]


def test_fig6_curves(runs):
    """Figure 6: both curves fall with beta0 and collapse below 600 epochs
    near 1/3; the non-slashable strategy is never faster."""
    result = runs["fig6"]
    slashing = result.slashing_epochs
    assert all(b <= a + 1e-9 for a, b in zip(slashing, slashing[1:]))
    assert result.non_slashing_epochs[0] > result.non_slashing_epochs[-1]
    assert slashing[-1] < 600 and result.non_slashing_epochs[-1] < 600
    assert result.non_slashing_always_slower()


def test_fig7_boundary(runs):
    """Figure 7: the smallest feasible beta0 grows with p0, and the region
    feasible on both branches is not empty."""
    result = runs["fig7"]
    betas = list(result.boundary_beta0)
    assert all(b >= a - 1e-12 for a, b in zip(betas, betas[1:]))
    assert result.region.feasible_on_both().any()


def test_fig8_laws_sum_to_one(runs):
    """Figure 8 / Equation 15: the two-epoch paths and the increments are
    probability laws for every p0."""
    result = runs["fig8"]
    for p0 in FIG8_P0:
        assert sum(result.path_probabilities[p0].values()) == pytest.approx(1.0)
        assert sum(result.increment_distributions[p0].values()) == pytest.approx(1.0)


def test_fig9_stake_distribution(runs):
    """Figure 9: at t=4024 the capped law integrates to 1, sits in its
    continuous body, centres on the semi-active stake and peaks there; the
    ejection mass appears only late in the leak."""
    result = runs["fig9"]
    row = result.rows()[0]
    assert row["total_mass"] == pytest.approx(1.0, abs=5e-3)
    assert row["continuous_mass"] == pytest.approx(1.0, abs=5e-3)
    assert row["ejection_mass"] == pytest.approx(0.0, abs=1e-6)
    assert result.median_stake == pytest.approx(semi_active_stake(4024.0), rel=1e-9)
    assert 20.0 < result.median_stake < 30.0
    peak = result.stake_grid[int(np.argmax(result.density))]
    assert peak == pytest.approx(result.median_stake, abs=1.0)
    assert BouncingStakeDistribution(p0=0.5).ejection_mass(7500.0) > 0.05


def test_fig10_exceed_probability_curves(runs):
    """Figure 10: curves are ordered by beta0; below 1/3 each rises before
    the Byzantine ejection and drops to zero after it."""
    result = runs["fig10"]
    for epoch in (4000, 6000):
        at = [result.series[b][result.epochs.index(epoch)] for b in sorted(result.series)]
        assert all(a <= b + 1e-9 for a, b in zip(at, at[1:]))
    for beta0 in (0.33, 0.329, 0.3):
        series = result.series[beta0]
        assert series[result.epochs.index(7500)] > series[result.epochs.index(2000)]
        assert series[-1] == 0.0


def test_fig10_monte_carlo_either_branch(runs):
    """Figure 10: with two symmetric branches at beta0=1/3, one of them
    exceeds 1/3 in almost every trial, as the doubled closed form says."""
    row = runs["fig10-montecarlo"].horizon_rows()[0]
    assert row["closed_form_both_branches"] == pytest.approx(1.0, abs=1e-3)
    assert row["empirical_either_branch"] > 0.8


def test_table1_outcomes(runs):
    """Table 1: every scenario reaches the paper's qualitative outcome, and
    slashable Byzantine stake finalizes conflicting branches first."""
    result = runs["table1"]
    assert result.matches_paper()
    by_id = {outcome.scenario_id: outcome for outcome in result.outcomes}
    epoch = {key: by_id[key].conflicting_finalization_epoch for key in ("5.1", "5.2.1", "5.2.2")}
    assert None not in epoch.values()
    assert epoch["5.2.1"] < epoch["5.1"]
    assert epoch["5.2.2"] >= epoch["5.2.1"]
    assert by_id["5.2.3"].threshold_exceeded
    assert by_id["5.2.3"].max_byzantine_proportion > 1 / 3
    assert by_id["5.3"].outcome == "beta > 1/3 probably"


def test_safety_even_split_is_fastest(runs):
    """Section 5.1: no honest split loses Safety before the even one."""
    finalization = runs["safety-bound"].analytical_finalization
    assert finalization[0.5] <= finalization[0.4] <= finalization[0.3]
    even = repro.conflicting_finalization_time(ByzantineStrategy.NONE, p0=0.5)
    for p0 in (0.3, 0.4, 0.45, 0.6):
        other = repro.conflicting_finalization_time(ByzantineStrategy.NONE, p0=p0)
        assert other.threshold_epoch >= even.threshold_epoch - 1e-9


def test_sweep_grid_even_split_is_worst_and_symmetric(runs):
    """Figure 6 extension: for every beta0 and both strategies the even split
    is the worst case, and the grid is symmetric in p0 around it."""
    result = runs["sweep-grid"]
    for beta0 in result.beta0_values:
        assert result.worst_case_split(beta0) == pytest.approx(0.5)
        assert result.worst_case_split(
            beta0, strategy=ByzantineStrategy.NON_SLASHING
        ) == pytest.approx(0.5)
    assert np.allclose(result.slashing_grid, result.slashing_grid[::-1], rtol=1e-6)
    assert np.allclose(result.non_slashing_grid, result.non_slashing_grid[::-1], rtol=1e-6)


def test_bouncing_duration_shrinks(runs):
    """Section 5.3: the attack's survival probability falls with the horizon
    and with beta0, and its expected duration is short."""
    rows = {row["beta0"]: row for row in runs["bouncing-duration"].rows()}
    for row in rows.values():
        assert row["log10_p_at_7000"] < row["log10_p_at_1000"] < row["log10_p_at_100"]
    assert rows[0.1]["log10_p_at_7000"] < rows[1 / 3]["log10_p_at_7000"]
    assert rows[1 / 3]["expected_duration_epochs"] < 50


def test_ablations(runs):
    """Ablations: the discrete and continuous ejection epochs agree within
    1.5%; moving p0 off 0.5 slows the attack (Figure 6); waiting for the
    honest ejection maximises the Byzantine proportion (footnote 12)."""
    result = runs["ablations"]
    for row in result.ejection_model.rows():
        if row["continuous"] is not None:
            assert abs(row["discrete"] - row["continuous"]) / row["continuous"] < 0.015
    sensitivity = {row["p0"]: row for row in result.split_sensitivity.rows()}
    assert sensitivity[0.5]["epochs_slashing"] <= sensitivity[0.3]["epochs_slashing"]
    assert sensitivity[0.5]["epochs_non_slashing"] <= sensitivity[0.7]["epochs_non_slashing"]
    corner = result.early_finalization.rows()
    at_ejection = corner[0]["byzantine_proportion"]
    assert all(row["byzantine_proportion"] <= at_ejection + 1e-9 for row in corner)


def test_generalized_mechanism_scales(runs):
    """Generalized mechanisms: a faster leak shortens the Safety bound, and
    the critical beta0 does not depend on the penalty quotient."""
    rows = {row["mechanism"]: row for row in runs["generalized-mechanism"].rows()}
    ethereum = rows["ethereum (2**26)"]
    assert (
        rows["aggressive (2**20)"]["safety_bound_epochs"]
        < ethereum["safety_bound_epochs"]
        < rows["lenient (2**28)"]["safety_bound_epochs"]
    )
    assert rows["moderate (2**24)"]["critical_beta0"] == pytest.approx(
        ethereum["critical_beta0"], rel=1e-9
    )


def test_recovery_tail_shorter_than_leak(runs):
    """Section 4.1 extension: once finality resumes, the residual penalties
    stop before the leak's own length."""
    for row in runs["recovery-tail"].rows():
        assert 0 < row["recovery_tail_epochs"] < row["leak_duration_epochs"]
