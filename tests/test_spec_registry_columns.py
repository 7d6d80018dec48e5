"""The column-store registry against the object registry it replaced.

``BeaconState`` keeps its validators as columns
(:class:`repro.spec.validator.Registry`), and every epoch stage hands those
columns to the kernels in place.  The oracle below is the adapter the
stages used before: flatten a list of :class:`Validator` objects into
arrays, call the same kernel, write the results back object by object.
Both are driven through many epochs of randomized registries (indices out
of order, zero stakes, pre-slashed and pre-exited validators, stakes
crossing the ejection balance, random active and slashable sets) on both
backends, and every registry field and every ``EpochReport`` field must be
bit-equal after every epoch.

The oracle differs from the old code in one deliberate way: ``stake_of``
maps validator indices through the registry, as the finality stage always
did, and adds in registry order.  The old code looked indices up as
registry positions, which only agreed on registries stored in index order.
"""

import numpy as np
import pytest

from repro.core.backend import (
    FinalityRules,
    RewardRules,
    SlashingRules,
    StakeRules,
    get_backend,
)
from repro.spec.checkpoint import Checkpoint, FFGVote, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.finality import FFGVotePool, JustificationResult
from repro.spec.inactivity import InactivityUpdate
from repro.spec.rewards import RewardSummary
from repro.spec.slashing import SlashingOutcome
from repro.spec.state import BeaconState
from repro.spec.state_transition import EpochReport, process_epoch
from repro.spec.types import Root
from repro.spec.validator import NEVER, Validator, make_registry

CONFIG = SpecConfig.minimal()
EPOCHS = 40


def cp(epoch: int, label: str) -> Checkpoint:
    return Checkpoint(epoch=epoch, root=Root.from_label(f"{label}{epoch}"))


# ----------------------------------------------------------------------
# The object-registry oracle
# ----------------------------------------------------------------------
def loop_sum(stakes):
    """Left-to-right accumulation, one stake after the other."""
    total = 0.0
    for stake in stakes:
        total += stake
    return total


def oracle_total_active_stake(records, epoch):
    return loop_sum(v.stake for v in records if v.is_active(epoch))


def oracle_stake_of(records, indices, epoch):
    chosen = set(indices)
    return loop_sum(
        v.stake for v in records if v.index in chosen and v.is_active(epoch)
    )


def oracle_byzantine_proportion(records, epoch):
    total = oracle_total_active_stake(records, epoch)
    if total == 0:
        return 0.0
    return (
        loop_sum(
            v.stake for v in records if v.label == "byzantine" and v.is_active(epoch)
        )
        / total
    )


def oracle_justification(state, records, pool, epoch, kernel):
    result = JustificationResult()
    flat = pool.flat
    votes = flat.vote_arrays(epoch)
    if votes is None:
        return result
    voters, source_epochs, source_roots, target_roots = votes
    n = len(records)
    stakes = np.fromiter((v.stake for v in records), dtype=float, count=n)
    eligible = np.fromiter((v.is_active(epoch) for v in records), dtype=bool, count=n)
    indices = np.fromiter((v.index for v in records), dtype=np.int64, count=n)
    if not np.array_equal(indices, np.arange(n)):
        positions = np.full(int(indices.max()) + 1, -1, dtype=np.int64)
        positions[indices] = np.arange(n)
        voters = positions[voters]
    relevant_epochs = set(source_epochs.tolist())
    relevant_epochs.add(epoch)
    justified_roots = {}
    for justified_epoch in relevant_epochs:
        checkpoint = state.justified_checkpoints.get(justified_epoch)
        if checkpoint is not None and state.is_justified(justified_epoch):
            justified_roots[justified_epoch] = flat.intern_root(checkpoint.root)
    update = kernel.finality_epoch_update(
        voters,
        source_epochs,
        source_roots,
        target_roots,
        stakes,
        eligible,
        FinalityRules.from_config(state.config),
        epoch=epoch,
        total_stake=oracle_total_active_stake(records, epoch),
        justified_roots=justified_roots,
        finalized_epoch=state.finalized_checkpoint.epoch,
        root_rank=flat.root_ranks(),
    )
    for event in update.events:
        target = Checkpoint(epoch=event.target_epoch, root=flat.root_of(event.target_root))
        state.record_justification(target)
        result.newly_justified.append(target)
        if event.finalizes_source:
            source = Checkpoint(
                epoch=event.source_epoch, root=flat.root_of(event.source_root)
            )
            state.record_finalization(source)
            result.newly_finalized.append(source)
    return result


def oracle_rewards(state, records, active_set, in_leak, kernel):
    summary = RewardSummary(epoch=state.current_epoch)
    stakes = np.array([v.stake for v in records], dtype=float)
    active = np.array([v.index in active_set for v in records], dtype=bool)
    ineligible = np.array(
        [not v.is_active(state.current_epoch) or v.slashed for v in records],
        dtype=bool,
    )
    outcome = kernel.attestation_rewards_epoch_update(
        stakes, active, ineligible, RewardRules.from_config(state.config), in_leak
    )
    for validator, stake in zip(records, outcome.stakes.tolist()):
        validator.stake = stake
    summary.total_rewards = outcome.total_rewards
    summary.total_penalties = outcome.total_penalties
    summary.rewarded_indices = [
        records[int(i)].index for i in np.flatnonzero(outcome.rewarded)
    ]
    summary.penalized_indices = [
        records[int(i)].index for i in np.flatnonzero(outcome.penalized)
    ]
    return summary


def oracle_inactivity(state, records, active_set, in_leak, kernel):
    update = InactivityUpdate(epoch=state.current_epoch, in_leak=in_leak)
    stakes = np.array([v.stake for v in records], dtype=float)
    scores = np.array([float(v.inactivity_score) for v in records], dtype=float)
    ineligible = np.array(
        [not v.is_active(state.current_epoch) for v in records], dtype=bool
    )
    update.inactive_indices = [
        v.index
        for v, out in zip(records, ineligible.tolist())
        if not out and v.index not in active_set
    ]
    active = np.array([v.index in active_set for v in records], dtype=bool)
    outcome = kernel.epoch_update(
        stakes,
        scores,
        active,
        ineligible,
        StakeRules.from_config(state.config),
        in_leak=in_leak,
    )
    for validator, stake in zip(records, outcome.stakes.tolist()):
        validator.stake = stake
    for validator, score in zip(records, outcome.scores.tolist()):
        validator.inactivity_score = int(score) if score == int(score) else score
    for position in np.flatnonzero(outcome.newly_ejected):
        validator = records[int(position)]
        validator.exit(state.current_epoch + 1)
        update.ejected_indices.append(validator.index)
    update.total_penalty = outcome.total_penalty
    return update


def oracle_slashing(state, records, slashable, kernel):
    outcome = SlashingOutcome()
    requested = list(dict.fromkeys(slashable))
    if not requested:
        return outcome
    position_of = {v.index: p for p, v in enumerate(records)}
    stakes = np.array([v.stake for v in records], dtype=float)
    slashed = np.array([v.slashed for v in records], dtype=bool)
    ineligible = np.array(
        [not v.is_active(state.current_epoch) for v in records], dtype=bool
    )
    mask = np.zeros(len(records), dtype=bool)
    for index in requested:
        mask[position_of[index]] = True
    result = kernel.slashing_epoch_update(
        stakes, mask, slashed, ineligible, SlashingRules.from_config(state.config)
    )
    for validator, stake, is_slashed in zip(
        records, result.stakes.tolist(), result.slashed.tolist()
    ):
        validator.stake = stake
        validator.slashed = is_slashed
    for index in requested:
        position = position_of[index]
        if result.newly_slashed[position]:
            records[position].exit(state.current_epoch + 1)
            outcome.slashed_indices.append(index)
    outcome.total_penalty = result.total_penalty
    return outcome


def oracle_process_epoch(state, records, pool, active, slashable, epoch, backend):
    """``process_epoch`` over a list of ``Validator`` objects.

    ``state`` only carries the checkpoint bookkeeping; its own registry
    columns are never read.
    """
    state.current_epoch = epoch
    active_set = set(active)
    kernel = get_backend(backend)
    in_leak = state.is_in_inactivity_leak()
    justification = oracle_justification(state, records, pool, epoch, kernel)
    rewards = oracle_rewards(state, records, active_set, in_leak, kernel)
    inactivity = oracle_inactivity(state, records, active_set, in_leak, kernel)
    slashing = oracle_slashing(state, records, slashable, kernel)
    total = oracle_total_active_stake(records, epoch)
    ratio = (
        0.0 if total <= 0 else oracle_stake_of(records, active_set, epoch) / total
    )
    return EpochReport(
        epoch=epoch,
        in_leak=in_leak,
        justification=justification,
        rewards=rewards,
        inactivity=inactivity,
        slashing=slashing,
        byzantine_proportion=oracle_byzantine_proportion(records, epoch),
        active_stake_ratio=ratio,
    )


# ----------------------------------------------------------------------
# Randomized drive
# ----------------------------------------------------------------------
def fields(validator):
    """Every registry field, floats by their bits and scores by type too."""
    score = validator.inactivity_score
    return (
        validator.index,
        validator.stake.hex(),
        type(score).__name__,
        float(score).hex(),
        validator.slashed,
        validator.exit_epoch,
        validator.label,
    )


def random_records(rng):
    n = int(rng.integers(6, 40))
    order = rng.permutation(n) if rng.random() < 0.7 else np.arange(n)
    records = []
    for position in range(n):
        kind = rng.random()
        if kind < 0.1:
            stake = 0.0
        elif kind < 0.4:  # just above the ejection balance
            stake = CONFIG.ejection_balance + float(rng.uniform(0.0, 0.05))
        else:
            stake = float(rng.uniform(0.0, CONFIG.max_effective_balance))
        validator = Validator(
            index=int(order[position]),
            stake=stake,
            inactivity_score=(
                int(rng.integers(0, 60)) if rng.random() < 0.8 else float(rng.uniform(0, 60))
            ),
            label="byzantine" if rng.random() < 0.3 else "honest",
        )
        if rng.random() < 0.1:  # pre-slashed
            validator.slashed = True
            validator.exit(int(rng.integers(0, 3)))
        elif rng.random() < 0.1:  # pre-exited, or exiting mid-run
            validator.exit(int(rng.integers(0, EPOCHS)))
        records.append(validator)
    return records


def cast_votes(rng, pools, records, epoch, justified):
    """Random votes for one or two targets at ``epoch`` into every pool."""
    targets = [cp(epoch, "a"), cp(epoch, "b")]
    sources = [justified[-1], justified[max(0, len(justified) - 2)], cp(epoch - 1, "z")]
    for validator in records:
        if rng.random() < 0.15:
            continue
        vote = FFGVote(
            source=sources[int(rng.choice(3, p=[0.8, 0.1, 0.1]))],
            target=targets[int(rng.random() < 0.1)],
        )
        for pool in pools:
            pool.add_vote(validator.index, vote)


def run_epochs(seed, backend):
    """Drive the column store and the oracle side by side, epoch by epoch.

    Yields both reports after each epoch, having checked that the two
    registries agree field for field.
    """
    rng = np.random.default_rng(seed)
    records = random_records(rng)
    state = BeaconState.genesis(records, CONFIG)
    bookkeeping = BeaconState.genesis(records, CONFIG)
    assert [fields(v) for v in state.validators] == [fields(v) for v in records]
    pool, oracle_pool = FFGVotePool(), FFGVotePool()
    indices = [v.index for v in records]
    justified = [GENESIS_CHECKPOINT]
    for epoch in range(1, EPOCHS + 1):
        # Long stretches without votes drive the chain into the leak.
        if epoch % 12 < 6:
            cast_votes(rng, (pool, oracle_pool), records, epoch, justified)
        active = [i for i in indices if rng.random() < 0.6]
        active.append(len(indices) + 5)  # an index absent from the registry
        slashable = [i for i in indices if rng.random() < 0.04]
        slashable += slashable[:1]  # a repeated index
        report = process_epoch(
            state,
            pool,
            np.array(active, dtype=np.int64) if epoch % 2 else set(active),
            slashable_indices=slashable,
            epoch=epoch,
            backend=backend,
        )
        expected = oracle_process_epoch(
            bookkeeping, records, oracle_pool, active, slashable, epoch, backend
        )
        assert [fields(v) for v in state.validators] == [fields(v) for v in records]
        justified.extend(report.justification.newly_justified)
        yield report, expected


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("seed", range(6))
def test_column_store_matches_object_registry(backend, seed):
    for report, expected in run_epochs(seed, backend):
        assert repr(report) == repr(expected), f"epoch {report.epoch}"


def test_randomized_runs_reach_every_edge():
    """The seeds above leak, eject, slash and finalize at least once."""
    seen = {"leak": False, "ejected": False, "slashed": False, "finalized": False}
    for seed in range(6):
        for report, _ in run_epochs(seed, "numpy"):
            seen["leak"] |= report.in_leak
            seen["ejected"] |= bool(report.inactivity.ejected_indices)
            seen["slashed"] |= bool(report.slashing.slashed_indices)
            seen["finalized"] |= report.justification.finalized_any
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# Row views, forks and summation order
# ----------------------------------------------------------------------
def test_row_view_writes_hit_the_columns():
    state = BeaconState.genesis(make_registry(4), CONFIG)
    columns = state.validators
    row = columns[2]
    row.stake = 20.5
    row.inactivity_score = 7
    row.slashed = True
    row.exit(9)
    row.exit(12)  # keeps the earlier exit
    row.label = "a-much-longer-label"
    assert columns.stake[2] == 20.5
    assert columns.inactivity_score[2] == 7.0
    assert bool(columns.slashed[2])
    assert columns.exit_epoch[2] == 9
    assert str(columns.label[2]) == "a-much-longer-label"
    assert columns.label[0] == "honest"
    # Reads come back as the record types: an integral score as an int,
    # "never exited" as None.
    fresh = state.validators[2]
    assert fresh == Validator(
        index=2,
        stake=20.5,
        inactivity_score=7,
        slashed=True,
        exit_epoch=9,
        label="a-much-longer-label",
    )
    assert type(fresh.inactivity_score) is int
    fresh.inactivity_score = 2.5
    assert fresh.inactivity_score == 2.5
    assert state.validators[1].exit_epoch is None
    assert columns.exit_epoch[1] == NEVER
    assert not fresh.is_active(9) and fresh.is_active(8)
    assert state.validators[1].apply_penalty(40.0) == CONFIG.max_effective_balance
    assert columns.stake[1] == 0.0
    state.validators[0].exit_epoch = None
    assert columns.exit_epoch[0] == NEVER
    assert [v.index for v in state.validators[1:3]] == [1, 2]
    assert state.validators[-1].index == 3
    with pytest.raises(IndexError):
        state.validators[4]
    with pytest.raises(AttributeError):
        state.validators[0].index = 5


def test_state_copies_detached_records():
    records = make_registry(3)
    state = BeaconState.genesis(records, CONFIG)
    records[0].stake = 1.0
    state.validators[1].stake = 2.0
    assert state.validators[0].stake == CONFIG.max_effective_balance
    assert records[1].stake == CONFIG.max_effective_balance


def test_fork_is_independent_through_epoch_processing():
    rng = np.random.default_rng(11)
    records = random_records(rng)
    state = BeaconState.genesis(records, CONFIG)
    process_epoch(state, FFGVotePool(), [v.index for v in records[::2]], epoch=1)
    forked = state.fork()
    assert forked == state
    before = [fields(v) for v in state.validators]
    forked.validators[0].stake = 3.0
    forked.validators[1].label = "byzantine-and-more"
    for epoch in range(2, 12):
        process_epoch(forked, FFGVotePool(), [], slashable_indices=[records[2].index], epoch=epoch)
    assert [fields(v) for v in state.validators] == before
    assert forked != state
    again = state.fork()
    again.validators[0].stake = 4.0
    assert state.validators[0].stake != 4.0
    assert forked.validators[0].stake != 4.0


def test_stake_totals_add_left_to_right_in_registry_order():
    """``total_active_stake``, ``stake_of`` and ``byzantine_stake_proportion``
    equal a plain ``for``-loop accumulation bit for bit at 10k stakes.

    ``np.sum`` adds pairwise and Python 3.12's ``sum()`` over floats is
    compensated, so only an explicit running sum fixes these floats on
    every interpreter.
    """
    rng = np.random.default_rng(1)
    records = make_registry(10_000, CONFIG, byzantine_fraction=0.3)
    for validator, stake in zip(records, rng.uniform(16.0, 33.0, len(records)).tolist()):
        validator.stake = stake
    records[5].exit(0)
    state = BeaconState.genesis(records, CONFIG)
    live = [v for v in records if v.is_active(0)]
    total = loop_sum(v.stake for v in live)
    assert state.total_active_stake().hex() == total.hex()
    chosen = [v.index for v in records if v.index % 3]
    assert state.stake_of(chosen[::-1]).hex() == (
        loop_sum(v.stake for v in live if v.index % 3).hex()
    )
    byzantine = loop_sum(v.stake for v in live if v.label == "byzantine")
    assert state.byzantine_stake_proportion().hex() == (byzantine / total).hex()
