"""Results of a slot-level simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.network.transport import TransportStats
from repro.spec.finality import conflicting_finalized_checkpoints
from repro.spec.state import BeaconState


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
    #: Final state of every view, keyed like ``view_groups``: a view's
    #: members all hold this one state.
    view_states: Dict[str, BeaconState]
    #: Names of the views with at least one honest member.
    honest_views: List[str]
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
        """Final states of the honest views, one per view."""
        return [self.view_states[name] for name in self.honest_views]

    def safety_violated(self) -> bool:
        """True if two honest nodes finalized conflicting checkpoints.

        The per-epoch snapshots carry the engine's global check (which can
        see across partitions); the state-level same-epoch check is kept as
        a fallback for results built without snapshots.
        """
        if any(snapshot.safety_violated for snapshot in self.snapshots):
            return True
        return bool(conflicting_finalized_checkpoints(self.honest_states()))

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
