"""Validator agent interface for the slot-level simulator.

An *agent* decides what a validator does with its duties: which block to
propose, what to attest, and to whom the messages should go.  Honest agents
follow the protocol; Byzantine agents implement the paper's attack
strategies.  Agents never touch the network directly — they return
*actions* which the simulation engine executes through the transport and
the adversary, so the timing and partitioning rules are enforced in one
place.

Votes have one packaging from agent to ingest: the engine asks each
cluster of same-view committee members once per slot
(:meth:`ValidatorAgent.attest_committee`), and the agent answers with
:class:`AttestationBatchAction` items.  An agent with no committee key is
a cluster of one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Tuple

from repro.core.attestation_batch import AttestationBatch
from repro.spec.block import BeaconBlock
from repro.spec.committees import EpochDuties

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.node import Node


@dataclass
class ProposalAction:
    """A block proposal to publish.

    ``audience`` restricts delivery to one partition (by name); ``None``
    broadcasts to every participant the network can reach.  ``recipients``
    targets an exact set of *validator indices* instead — the adversary's
    sharpest capability, used by the balancing attack to show different
    blocks to different halves of the honest validators (it takes
    precedence over ``audience`` and, under view sharding, dynamically
    splits any view group it only partially covers).  ``delay`` releases
    the message that many seconds after its nominal send time; honoured
    only together with ``recipients``.
    """

    block: BeaconBlock
    audience: Optional[str] = None
    recipients: Optional[Tuple[int, ...]] = None
    delay: float = 0.0


@dataclass
class AttestationBatchAction:
    """Attestations to publish: one cluster's identical votes as one message.

    Every vote leaves an agent this way; a lone validator's vote is a
    one-row batch.  ``audience`` restricts delivery to one partition;
    ``withhold`` hands the batch to the adversary instead of the network,
    to be released later (the bouncing attack's withheld votes).
    ``recipients``/``delay`` target an exact validator set with a timed
    release, as for :class:`ProposalAction` (the swayer votes of the
    balancing attack); ``delay`` alone publishes late to everyone (the
    lazy profile).
    """

    batch: AttestationBatch
    audience: Optional[str] = None
    withhold: bool = False
    recipients: Optional[Tuple[int, ...]] = None
    delay: float = 0.0


@dataclass
class AgentContext:
    """Everything an agent may look at when deciding its actions."""

    validator_index: int
    slot: int
    epoch: int
    time: float
    #: The validator's local node: store, state, vote pool, detector.
    node: "Node"
    #: Duties of the current epoch (shared deterministic schedule).
    duties: EpochDuties
    #: True when this validator proposes at this slot.
    is_proposer: bool
    #: Names of the network partitions (empty when the network is whole).
    partition_names: Sequence[str] = ()


class ValidatorAgent(ABC):
    """Behaviour of one validator."""

    def __init__(self, validator_index: int) -> None:
        self.validator_index = validator_index

    # ------------------------------------------------------------------
    @abstractmethod
    def propose(self, ctx: AgentContext) -> List[ProposalAction]:
        """Return the block proposals to publish at this slot (may be empty)."""

    def on_epoch_start(self, ctx: AgentContext) -> None:
        """Hook called at the first slot of every epoch (default: no-op)."""

    # ------------------------------------------------------------------
    # Attestation API
    # ------------------------------------------------------------------
    def committee_key(self) -> Optional[Hashable]:
        """Batching key for committee-level attestation, or ``None``.

        Agents returning a non-``None`` key promise that every agent of
        theirs with the same key, attesting from the same view in the
        same slot, produces identical attestation content; the engine
        then clusters such committee members and calls
        :meth:`attest_committee` once per (view group, key).  Honest
        agents and every Byzantine strategy (:mod:`repro.agents.byzantine`)
        define a key; agents with per-validator decisions (the stochastic
        behaviour profiles) return ``None`` and are clusters of one,
        asked before the keyed clusters.  A key must be O(1) to compute
        and hash.
        """
        return None

    @abstractmethod
    def attest_committee(
        self, ctx: AgentContext, members: Sequence[int]
    ) -> List[AttestationBatchAction]:
        """Return the vote actions of one same-view committee cluster.

        ``ctx`` is built for the cluster's first member and ``members``
        lists every clustered validator in committee order (just
        ``[ctx.validator_index]`` for an agent without a committee key).
        The result may be empty.
        """

    # ------------------------------------------------------------------
    @property
    def is_byzantine(self) -> bool:
        """True for agents controlled by the adversary."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(validator={self.validator_index})"
