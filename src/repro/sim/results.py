"""Results of a slot-level simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.transport import TransportStats
from repro.spec.checkpoint import Checkpoint
from repro.spec.finality import conflicting_finalized_checkpoints
from repro.spec.state import BeaconState


def _dedup_by_identity(states: Sequence[BeaconState]) -> List[BeaconState]:
    """The distinct state objects in ``states`` (view groups share one)."""
    seen: Set[int] = set()
    distinct: List[BeaconState] = []
    for state in states:
        if id(state) not in seen:
            seen.add(id(state))
            distinct.append(state)
    return distinct


@dataclass(frozen=True)
class ViewEvent:
    """One change in the engine's view-group topology.

    ``kind`` is ``"split"``: ``parent`` forked off the child group
    ``child`` holding ``members``.  Groups never merge, so splits are the
    only kind the engine records.
    """

    slot: int
    time: float
    kind: str
    parent: str
    child: str
    members: Tuple[int, ...]


@dataclass
class EpochSnapshot:
    """Global observables collected at the end of one epoch."""

    epoch: int
    #: Highest finalized epoch per validator node.
    finalized_epoch_by_node: Dict[int, int]
    #: Byzantine stake proportion as seen by a representative honest node.
    byzantine_proportion: float
    #: Whether any honest node is currently in an inactivity leak.
    any_in_leak: bool
    #: Whether conflicting finalized checkpoints exist among honest nodes.
    safety_violated: bool


@dataclass
class SimulationResult:
    """Outcome of a :class:`repro.sim.engine.SimulationEngine` run."""

    epochs_run: int
    honest_indices: List[int]
    byzantine_indices: List[int]
    #: Final state of every node, keyed by validator index.  Under view
    #: sharding the members of a group share one state object; comparisons
    #: are by value, so grouped and per-node runs produce equal results.
    final_states: Dict[int, BeaconState]
    snapshots: List[EpochSnapshot] = field(default_factory=list)
    transport_stats: Optional[TransportStats] = None
    #: Validators slashed on any honest node's chain by the end of the run.
    slashed_indices: Set[int] = field(default_factory=set)
    #: View-group membership the engine simulated with (group name →
    #: validator indices); one singleton group per validator when view
    #: sharding was off.
    view_groups: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Timeline of dynamic view splits, in occurrence order.  Empty for per-node runs (singleton groups never
    #: split) and for runs whose message streams never diverge.
    view_events: List[ViewEvent] = field(default_factory=list)
    #: Largest number of simultaneously live view groups during the run.
    #: Groups only split, so this is the number live at the end.
    peak_view_count: int = 0

    # ------------------------------------------------------------------
    def split_events(self) -> List[ViewEvent]:
        """The split events of the view timeline."""
        return [event for event in self.view_events if event.kind == "split"]

    # ------------------------------------------------------------------
    def honest_states(self) -> List[BeaconState]:
        """Final states of the honest nodes."""
        return [self.final_states[i] for i in self.honest_indices]

    def distinct_final_states(self) -> List[BeaconState]:
        """The distinct state objects behind ``final_states``.

        Under view sharding this is one state per view group — the cheap
        iteration target for O(views) post-processing at mainnet scale.
        """
        return _dedup_by_identity(list(self.final_states.values()))

    def _distinct_honest_states(self) -> List[BeaconState]:
        """Distinct state objects behind the honest nodes.

        States shared by a view group are identical by construction, so
        pairwise checks over the distinct objects see every possible
        conflict while staying O(views²) instead of O(validators²).
        """
        return _dedup_by_identity(self.honest_states())

    def safety_violated(self) -> bool:
        """True if two honest nodes finalized conflicting checkpoints.

        The per-epoch snapshots carry the engine's global check (which can
        see across partitions); the state-level same-epoch check is kept as
        a fallback for results built without snapshots.
        """
        if any(snapshot.safety_violated for snapshot in self.snapshots):
            return True
        return bool(conflicting_finalized_checkpoints(self._distinct_honest_states()))

    def conflicting_checkpoints(self) -> List[Tuple[Checkpoint, Checkpoint]]:
        """The conflicting finalized checkpoint pairs among honest nodes."""
        return conflicting_finalized_checkpoints(self._distinct_honest_states())

    def max_finalized_epoch(self) -> int:
        """Highest epoch finalized by any honest node."""
        return max(
            (state.finalized_checkpoint.epoch for state in self.honest_states()),
            default=0,
        )

    def min_finalized_epoch(self) -> int:
        """Lowest epoch finalized across honest nodes."""
        return min(
            (state.finalized_checkpoint.epoch for state in self.honest_states()),
            default=0,
        )

    def liveness_held(self, min_progress: int = 1) -> bool:
        """True if every honest node's finalized chain grew by ``min_progress`` epochs."""
        return all(
            state.finalized_checkpoint.epoch >= min_progress
            for state in self.honest_states()
        )

    def byzantine_proportion_series(self) -> List[float]:
        """Per-epoch Byzantine stake proportion (from the snapshots)."""
        return [snapshot.byzantine_proportion for snapshot in self.snapshots]

    def first_safety_violation_epoch(self) -> Optional[int]:
        """Epoch of the first recorded safety violation, if any."""
        for snapshot in self.snapshots:
            if snapshot.safety_violated:
                return snapshot.epoch
        return None

    def leak_epochs(self) -> List[int]:
        """Epochs during which at least one honest node was in a leak."""
        return [snapshot.epoch for snapshot in self.snapshots if snapshot.any_in_leak]
