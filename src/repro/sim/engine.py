"""The view-sharded, slot-level simulation engine.

The engine advances the synchronized slot clock, asks the scheduled
proposer and attesters of each slot for their actions (through their
agents), pushes the resulting messages through the partially-synchronous
network, delivers due messages to every *view*, and runs epoch processing
per view at epoch boundaries.  Per-epoch global observables (finality
progress, Byzantine proportion, Safety violations) are recorded into a
:class:`~repro.sim.results.SimulationResult`.

**View sharding.**  Validators on the same partition side receive the
identical message stream — every message is either broadcast, targeted at
a whole partition, or withheld from everyone, and senders receive their
own messages through the network with the same delay as their peers — so
their local views are provably equal.  With ``view_sharding=True``
(default) the engine therefore simulates one :class:`~repro.sim.node.Node`
per *view group* (one per partition, plus one per bridge class; a healthy
network is a single group) instead of one per validator, registering one
delivery endpoint per group with the transport.  Per-validator identity
survives through :class:`~repro.sim.node.MemberView` facades
(``engine.nodes``) and per-member inclusion cursors inside the shared
nodes.  ``view_sharding=False`` falls back to one node per validator —
the configuration for differential testing (``tests/test_sim_view_groups``
pins both modes bit-identical) and the only mode whose cost scales with
O(N²).

**Dynamic view splitting.**  Static groups only stay valid while every
message reaches a group's members uniformly.  When the adversary targets
an exact validator subset (``recipients`` on an action), any group the
audience partially covers is copy-on-write split at send time
(:meth:`SimulationEngine._ensure_exact_audience`): the covered members
fork off with a full ``Node.split_clone`` under a fresh endpoint, and
in-flight traffic to the old endpoint is duplicated so both children see
the same past.  Groups never re-merge: the topology only grows by splits,
so every endpoint stays live for the whole run.  Per-slot cost stays
O(live groups): a balancing attack at 10k validators runs with ~3 groups,
not 10k nodes.

**One vote packaging.**  Every vote travels as an
:class:`~repro.core.attestation_batch.AttestationBatch` message.
Committee members of one view with the same committee key are clustered
per slot and their identical votes travel as one batch — honest votes as
one batch, an attack's coordinated votes as one batch per branch voted
on.  Agents without a key (the stochastic behaviour profiles) are
clusters of one and send one-row batches.  Both modes share this flow —
sharding changes who ingests a message, never what is sent.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.agents.base import (
    AgentContext,
    AttestationBatchAction,
    ProposalAction,
    ValidatorAgent,
)
from repro.network.adversary import Adversary
from repro.network.clock import SlotClock
from repro.network.latency import LatencyModel, resolve_latency_model
from repro.network.message import Message
from repro.network.partition import PartitionSchedule
from repro.network.transport import Network
from repro.sim.node import MemberView, Node
from repro.sim.results import EpochSnapshot, SimulationResult, ViewEvent
from repro.spec.blocktree import BlockTree
from repro.spec.committees import DutyScheduler, EpochDuties
from repro.spec.config import SpecConfig
from repro.spec.finality import conflicting_finalized_checkpoints
from repro.spec.validator import Registry, Validator


class SimulationEngine:
    """Drives validator agents through slots and epochs over shared views."""

    def __init__(
        self,
        registry: List[Validator],
        agents: Dict[int, ValidatorAgent],
        schedule: Optional[PartitionSchedule] = None,
        config: Optional[SpecConfig] = None,
        seed: str = "repro",
        view_sharding: bool = True,
        backend: str = "numpy",
        latency_model: Union[None, str, LatencyModel] = None,
        latency_seed: int = 0,
    ) -> None:
        if set(agents) != {validator.index for validator in registry}:
            raise ValueError("every validator in the registry needs exactly one agent")
        self.config = config or SpecConfig.mainnet()
        self.registry = registry
        self.agents = agents
        # Only agents whose class overrides the no-op epoch-start hook get
        # a context built for it (honest validators never do).
        self._epoch_start_agents: List[Tuple[int, ValidatorAgent]] = [
            (index, agent)
            for index, agent in agents.items()
            if type(agent).on_epoch_start is not ValidatorAgent.on_epoch_start
        ]
        # Control never changes, so the honest/Byzantine split is fixed here.
        self._honest: List[int] = [
            index for index, agent in agents.items() if not agent.is_byzantine
        ]
        self._byzantine: List[int] = [
            index for index, agent in agents.items() if agent.is_byzantine
        ]
        self._byzantine_set: FrozenSet[int] = frozenset(self._byzantine)
        self.schedule = schedule or PartitionSchedule.fully_connected()
        self.clock = SlotClock(config=self.config)
        self.scheduler = DutyScheduler(config=self.config, seed=seed)
        self.view_sharding = view_sharding
        self.backend = backend
        self._partition_names: Tuple[str, ...] = tuple(self.schedule.partition_names())
        # Global observer tree: every published block, regardless of which
        # nodes received it.  Used to detect conflicting finalized chains
        # even while the partition still hides one branch from the other.
        self._global_tree = BlockTree()

        # ------------------------------------------------------------------
        # View groups: one node per set of validators provably sharing a
        # message stream; each view's registry copy evolves independently
        # per local view (per branch), exactly as in the paper.
        # ------------------------------------------------------------------
        self.view_groups: Dict[str, Tuple[int, ...]] = self._compute_view_groups()
        columns = Registry.of(registry)
        self.views: Dict[str, Node] = {
            name: Node(
                validator_index=min(members),
                registry=columns,
                config=self.config,
                backend=backend,
                members=members,
            )
            for name, members in self.view_groups.items()
        }
        self.group_of: Dict[int, str] = {
            index: name
            for name, members in self.view_groups.items()
            for index in members
        }
        #: Per-validator facades over the shared views (the public,
        #: per-node-compatible surface used by agents).
        self.nodes: Dict[int, Union[Node, MemberView]] = {
            validator.index: self.views[self.group_of[validator.index]].for_member(
                validator.index
            )
            for validator in registry
        }
        self._endpoint_of: Dict[int, int] = {
            index: self.views[name].validator_index
            for index, name in self.group_of.items()
        }
        self._view_by_endpoint: Dict[int, Node] = {
            view.validator_index: view for view in self.views.values()
        }
        self._endpoints: Tuple[int, ...] = tuple(sorted(self._view_by_endpoint))

        #: Optional realistic-latency model (a name like ``"gossip"`` or
        #: a bound/unbound :class:`~repro.network.latency.LatencyModel`).
        #: ``None`` keeps the legacy uniform-delay rule byte-for-byte.
        self.latency_model = resolve_latency_model(latency_model, seed=latency_seed)
        if self.latency_model is not None:
            self.latency_model.bind(
                self.schedule,
                [validator.index for validator in registry],
                self.config.seconds_per_slot,
            )
        self.network = Network(
            self.schedule,
            participants=list(self._endpoints),
            latency_model=self.latency_model,
        )
        self.network.set_view_hooks(
            lambda endpoint: self._view_by_endpoint[endpoint].member_array,
            self._ensure_exact_audience,
        )
        self.adversary = Adversary(
            byzantine_indices=set(self._byzantine),
            network=self.network,
            schedule=self.schedule,
        )
        self.adversary.set_endpoint_resolver(self._endpoint_of.__getitem__)
        self.adversary.set_split_hook(self._ensure_exact_audience)

        #: Timeline of dynamic view splits, in occurrence order.
        self.view_events: List[ViewEvent] = []
        self._current_slot = 0
        self._current_time = 0.0

        # Memoized safety check (see _finalized_chains_conflict).
        self._safety_latched = False
        self._refresh_honest_views()

    # ------------------------------------------------------------------
    # View-group computation
    # ------------------------------------------------------------------
    def _compute_view_groups(self) -> Dict[str, Tuple[int, ...]]:
        """Partition the registry into groups with identical message streams.

        Reachability is uniform inside a partition and among bridge
        validators, but the adversary's partition-targeted audiences
        additionally include every *Byzantine* validator — so each
        reachability class splits by control: a Byzantine validator inside
        a partition receives cross-branch Byzantine traffic its honest
        partition peers never see (an all-honest group is the common case
        and stays whole).  Without sharding every validator is its own
        group — the per-node fallback for views that must be allowed to
        diverge.
        """
        indices = [validator.index for validator in self.registry]
        if not self.view_sharding:
            return {f"node-{index}": (index,) for index in indices}

        groups: Dict[str, Tuple[int, ...]] = {}

        def unique_name(base: str) -> str:
            # Partition names are user-chosen, so derived names ("bridge",
            # "<name>-byzantine") can collide with them; disambiguate
            # deterministically instead of silently dropping a group.
            name = base
            suffix = 2
            while name in groups:
                name = f"{base}~{suffix}"
                suffix += 1
            return name

        def add_split_by_control(name: str, members: Sequence[int]) -> None:
            byzantine = tuple(i for i in members if i in self._byzantine_set)
            honest = tuple(i for i in members if i not in self._byzantine_set)
            if honest:
                groups[unique_name(name)] = honest
            if byzantine:
                groups[unique_name(f"{name}-byzantine")] = byzantine

        if not self._partition_names:
            add_split_by_control("global", indices)
            return groups
        index_set = set(indices)
        assigned: Set[int] = set()
        for name in self._partition_names:
            members = sorted(set(self.schedule.members_of(name)) & index_set)
            if members:
                add_split_by_control(name, members)
                assigned |= set(members)
        bridge = [index for index in indices if index not in assigned]
        add_split_by_control("bridge", bridge)
        return groups

    # ------------------------------------------------------------------
    # Dynamic view splitting
    # ------------------------------------------------------------------
    def _ensure_exact_audience(self, recipients: Tuple[int, ...]) -> Tuple[int, ...]:
        """Endpoints covering exactly ``recipients``, splitting groups as needed.

        Installed as the adversary's split hook.  Any view group the
        audience only partially covers is copy-on-write split *before*
        the message is scheduled: the split happens at send time, which
        is safe because the clone is exact and deliveries only occur
        between slot phases — the two children stay bit-identical until
        the diverging message actually lands.  Per-node simulations have
        singleton groups, which a subset always covers fully or not at
        all, so this degenerates to plain endpoint resolution there.
        """
        target = set(recipients)
        partial = [
            name
            for name, members in self.view_groups.items()
            if 0 < len(target.intersection(members)) < len(members)
        ]
        for name in partial:
            inside = tuple(i for i in self.view_groups[name] if i in target)
            self._split_group(name, inside)
        seen: Set[int] = set()
        endpoints: List[int] = []
        for index in recipients:
            endpoint = self._endpoint_of[index]
            if endpoint not in seen:
                seen.add(endpoint)
                endpoints.append(endpoint)
        return tuple(endpoints)

    def _split_group(self, name: str, subset: Tuple[int, ...]) -> str:
        """Fork the group ``name`` along ``subset`` (a strict, nonempty subset).

        The side keeping the old representative keeps the existing node
        and transport endpoint; the other side gets a ``split_clone``
        registered under a new endpoint (its lowest member, which — being
        a non-representative — cannot collide with any live endpoint).
        In-flight and withheld messages addressed to the old endpoint are
        duplicated for the new one, and every endpoint-derived cache
        (audiences, facades, honest-view list) is rebuilt.  Returns the
        child group's name.
        """
        members = self.view_groups[name]
        subset_set = set(subset)
        node = self.views[name]
        old_rep = node.validator_index
        if old_rep in subset_set:
            stay = tuple(i for i in members if i in subset_set)
            move = tuple(i for i in members if i not in subset_set)
        else:
            stay = tuple(i for i in members if i not in subset_set)
            move = tuple(i for i in members if i in subset_set)
        new_rep = min(move)
        child_name = f"{name}/{new_rep}"
        while child_name in self.view_groups:  # pragma: no cover - defensive
            child_name = f"{child_name}~2"

        clone = node.split_clone(move, new_rep)
        node.restrict_members(stay)
        self.view_groups[name] = stay
        self.view_groups[child_name] = move
        self.views[child_name] = clone
        for index in move:
            self.group_of[index] = child_name
            self.nodes[index] = clone.for_member(index)
            self._endpoint_of[index] = new_rep
        self._view_by_endpoint[new_rep] = clone
        self._endpoints = tuple(sorted(self._view_by_endpoint))
        self.network.split_endpoint(old_rep, new_rep)
        self.adversary.notify_topology_changed()
        self._refresh_honest_views()
        self.view_events.append(
            ViewEvent(
                slot=self._current_slot,
                time=self._current_time,
                kind="split",
                parent=name,
                child=child_name,
                members=move,
            )
        )
        return child_name

    def _refresh_honest_views(self) -> None:
        # Views containing at least one honest member drive the global
        # Safety/Liveness observables (duplicated states add nothing).
        self._honest_views: Dict[str, Node] = {
            name: view
            for name, view in self.views.items()
            if any(m not in self._byzantine_set for m in view.members)
        }
        # The safety fingerprint is positional over the honest views, so a
        # topology change invalidates the memo (the latch survives).
        self._safety_cache: Optional[Tuple[Tuple, bool, bool]] = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def honest_indices(self) -> List[int]:
        """Indices of honest validators."""
        return list(self._honest)

    def byzantine_indices(self) -> List[int]:
        """Indices of Byzantine validators."""
        return list(self._byzantine)

    def _duties_for_epoch(self, epoch: int) -> EpochDuties:
        # The scheduler memoizes each epoch's duties.
        return self.scheduler.duties_for_epoch(epoch, self.registry)

    def _context_for(self, validator_index: int, slot: int, time: float) -> AgentContext:
        epoch = self.config.epoch_of_slot(slot)
        duties = self._duties_for_epoch(epoch)
        offset = slot % self.config.slots_per_epoch
        return AgentContext(
            validator_index=validator_index,
            slot=slot,
            epoch=epoch,
            time=time,
            node=self.nodes[validator_index],
            duties=duties,
            is_proposer=duties.proposers[offset] == validator_index,
            partition_names=self._partition_names,
        )

    def _deliver_due(self, time: float) -> None:
        for delivery in self.network.deliveries_until(time):
            self._view_by_endpoint[delivery.recipient].receive(delivery.message)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def _publish_proposal(self, action: ProposalAction, sender: int, time: float) -> None:
        message = Message.block(action.block, sender=sender, sent_at=time)
        if action.block.parent_root in self._global_tree:
            self._global_tree.add_block(action.block)
        if action.recipients is not None:
            self.adversary.send_to_validators(message, action.recipients, action.delay)
        elif action.audience is None:
            self.network.broadcast(message, delay=action.delay)
        else:
            self.adversary.send_to_partition(message, action.audience, delay=action.delay)

    def _publish_batch(self, action: AttestationBatchAction, time: float) -> None:
        batch = action.batch
        message = Message.attestation_batch(
            batch, sender=int(batch.validators[0]), sent_at=time
        )
        if action.withhold:
            self.adversary.withhold(message, self._endpoints)
        elif action.recipients is not None:
            self.adversary.send_to_validators(message, action.recipients, action.delay)
        elif action.audience is None:
            self.network.broadcast(message, delay=action.delay)
        else:
            self.adversary.send_to_partition(
                message, action.audience, delay=action.delay
            )

    # ------------------------------------------------------------------
    # Slot phases
    # ------------------------------------------------------------------
    def _run_proposals(self, slot: int, time: float) -> None:
        duties = self._duties_for_epoch(self.config.epoch_of_slot(slot))
        proposer = duties.proposer_for_slot(slot, self.config.slots_per_epoch)
        agent = self.agents[proposer]
        ctx = self._context_for(proposer, slot, time)
        for action in agent.propose(ctx):
            self._publish_proposal(action, sender=proposer, time=time)

    def _run_attestations(self, slot: int, time: float) -> None:
        """Collect and publish the slot committee's attestations.

        Committee members are clustered per (view group, committee key)
        and each cluster is asked once.  Agents without a key are
        clusters of one and publish first, in committee order; the keyed
        clusters follow in first-appearance order — a fixed,
        deterministic schedule shared by both sharding modes.
        """
        duties = self._duties_for_epoch(self.config.epoch_of_slot(slot))
        committee = duties.committee_for_slot(slot, self.config.slots_per_epoch)
        solo: List[List[int]] = []
        # Insertion order of the dict IS the first-appearance order.
        clusters: Dict[Tuple[str, Hashable], List[int]] = {}
        for index in committee:
            key = self.agents[index].committee_key()
            if key is None:
                solo.append([index])
            else:
                clusters.setdefault((self.group_of[index], key), []).append(index)
        for members in chain(solo, clusters.values()):
            leader = members[0]
            ctx = self._context_for(leader, slot, time)
            for action in self.agents[leader].attest_committee(ctx, members):
                self._publish_batch(action, time=time)

    # ------------------------------------------------------------------
    # Epoch bookkeeping
    # ------------------------------------------------------------------
    def _process_epoch_on_all_nodes(self, epoch: int) -> None:
        for view in self.views.values():
            view.process_epoch_end(epoch)

    def _safety_fingerprint(self) -> Tuple:
        """Cheap summary of everything the safety check depends on."""
        return tuple(
            (len(view.state.finalized_checkpoints), view.state.finalized_checkpoint)
            for view in self._honest_views.values()
        )

    def _finalized_chains_conflict(self) -> bool:
        """Global Safety check over the honest views' finalized checkpoints.

        Two finalized chains conflict when neither finalized checkpoint is an
        ancestor of (or equal to) the other in the global block tree — the
        paper's Safety property (one finalized chain must be a prefix of the
        other).  Checkpoints for blocks the global tree has not recorded are
        compared by epoch/root only.

        Memoized: finalized checkpoints only accumulate, so a detected
        violation latches, and epochs on which no view's finalized
        checkpoints changed skip the O(views²) rescan entirely (unless a
        previous scan had to skip an unresolved root, which the growing
        global tree could since have resolved).
        """
        if self._safety_latched:
            return True
        fingerprint = self._safety_fingerprint()
        if self._safety_cache is not None:
            cached_fingerprint, cached_result, cached_unresolved = self._safety_cache
            if cached_fingerprint == fingerprint and not cached_unresolved:
                return cached_result
        result, unresolved = self._scan_finalized_conflicts()
        self._safety_cache = (fingerprint, result, unresolved)
        if result:
            self._safety_latched = True
        return result

    def _scan_finalized_conflicts(self) -> Tuple[bool, bool]:
        checkpoints = [
            view.state.finalized_checkpoint for view in self._honest_views.values()
        ]
        unresolved = False
        for i, first in enumerate(checkpoints):
            for second in checkpoints[i + 1 :]:
                if first == second:
                    continue
                if first.epoch == second.epoch and first.root != second.root:
                    return True, unresolved
                low, high = sorted((first, second), key=lambda c: c.epoch)
                if low.root not in self._global_tree or high.root not in self._global_tree:
                    unresolved = True
                    continue
                if not self._global_tree.is_ancestor(low.root, high.root):
                    return True, unresolved
        # Also cover conflicts at intermediate finalized epochs.
        honest_states = [view.state for view in self._honest_views.values()]
        return bool(conflicting_finalized_checkpoints(honest_states)), unresolved

    def _snapshot(self, epoch: int) -> EpochSnapshot:
        finalized_epoch_by_node: Dict[int, int] = {}
        for view in self.views.values():
            finalized = view.state.finalized_checkpoint.epoch
            for member in view.members:
                finalized_epoch_by_node[member] = finalized
        representative = self.nodes[self._honest[0]].state if self._honest else None
        return EpochSnapshot(
            epoch=epoch,
            finalized_epoch_by_node=finalized_epoch_by_node,
            byzantine_proportion=(
                representative.byzantine_stake_proportion() if representative else 0.0
            ),
            any_in_leak=any(
                view.state.is_in_inactivity_leak() for view in self._honest_views.values()
            ),
            safety_violated=self._finalized_chains_conflict(),
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, num_epochs: int) -> SimulationResult:
        """Run the simulation for ``num_epochs`` epochs and return the result."""
        if num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        snapshots: List[EpochSnapshot] = []
        slots_per_epoch = self.config.slots_per_epoch
        total_slots = num_epochs * slots_per_epoch

        for slot in range(total_slots):
            slot_start = self.clock.start_of_slot(slot)
            epoch = self.config.epoch_of_slot(slot)
            self._current_slot = slot
            self._current_time = slot_start

            if self.clock.is_epoch_start(slot):
                if epoch > 0:
                    # Close the books on the previous epoch on every view.
                    self._process_epoch_on_all_nodes(epoch - 1)
                    snapshots.append(self._snapshot(epoch - 1))
                if self.network.withheld_count():
                    self.adversary.release_all(slot_start)
                for index, agent in self._epoch_start_agents:
                    agent.on_epoch_start(self._context_for(index, slot, slot_start))

            # Deliver messages due by the start of the slot, then propose.
            # Slot 0 is occupied by the genesis block, so proposals start at slot 1.
            self._deliver_due(slot_start)
            if slot > 0:
                self._run_proposals(slot, slot_start)

            # Attestations are produced a third of the way into the slot.
            attestation_time = self.clock.attestation_deadline(slot)
            self._current_time = attestation_time
            self._deliver_due(attestation_time)
            self._run_attestations(slot, attestation_time)

            # Flush deliveries due before the end of the slot.
            self._deliver_due(self.clock.start_of_slot(slot + 1))

        # Final epoch processing.
        self._process_epoch_on_all_nodes(num_epochs - 1)
        snapshots.append(self._snapshot(num_epochs - 1))

        slashed: Set[int] = set()
        for view in self._honest_views.values():
            columns = view.state.validators
            slashed.update(columns.index[columns.slashed].tolist())

        return SimulationResult(
            epochs_run=num_epochs,
            honest_indices=self.honest_indices(),
            byzantine_indices=self.byzantine_indices(),
            view_states={name: view.state for name, view in self.views.items()},
            honest_views=list(self._honest_views),
            snapshots=snapshots,
            transport_stats=self.network.stats,
            slashed_indices=slashed,
            view_groups=dict(self.view_groups),
            view_events=list(self.view_events),
            peak_view_count=len(self.views),
        )
