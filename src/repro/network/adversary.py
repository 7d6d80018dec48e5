"""The coordinating adversary.

Following the paper's fault model (Section 2), the adversary controls every
Byzantine validator, can coordinate them across network partitions (it is
unaffected by partitions), but cannot manipulate delays between honest
validators.  The adversary object gives attack strategies a single place to

* learn which Byzantine validators exist and what they currently see,
* direct messages at one partition only (being "active on branch 1"),
* withhold Byzantine messages and release them at an opportune time
  (the probabilistic bouncing attack).

Audience resolution is *endpoint-aware*: the view-sharded engine simulates
one node per view group, so a partition-targeted message needs one
delivery per group, not one per validator.  The engine installs an
endpoint resolver (validator index → delivery endpoint) and the adversary
collapses + caches each partition or exact-validator audience through
it, making repeated targeted sends O(groups) instead of O(validators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.network.message import Message
from repro.network.partition import PartitionSchedule
from repro.network.transport import Network


@dataclass
class Adversary:
    """Coordinates the Byzantine validators of a simulation."""

    byzantine_indices: Set[int]
    network: Network
    schedule: PartitionSchedule

    def __post_init__(self) -> None:
        self.byzantine_indices = set(self.byzantine_indices)
        self._endpoint_of: Callable[[int], int] = lambda index: index
        #: Resolved endpoints per audience: ``(partition, include_byzantine)``
        #: for partition sends, the recipient tuple for exact-validator
        #: sends.  Valid until the next topology change.
        self._audience_cache: Dict[Tuple, Tuple[int, ...]] = {}
        self._split_hook: Optional[Callable[[Tuple[int, ...]], Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Endpoint resolution (installed by the engine)
    # ------------------------------------------------------------------
    def set_endpoint_resolver(self, resolver: Callable[[int], int]) -> None:
        """Install the validator-index → delivery-endpoint mapping.

        Under view sharding several validators share one endpoint (their
        view group's representative); without sharding the resolver is
        the identity.  Invalidates all endpoint-derived caches.
        """
        self._endpoint_of = resolver
        self.notify_topology_changed()

    def set_split_hook(
        self, hook: Callable[[Tuple[int, ...]], Tuple[int, ...]]
    ) -> None:
        """Install the engine's exact-audience hook.

        ``hook(recipients)`` must return delivery endpoints that cover
        *exactly* the given validators, splitting any view group that the
        audience only partially covers.  Installed by the view-sharded
        engine; without it per-validator sends fall back to plain
        endpoint resolution (correct for per-node simulations, where
        endpoints are validators).
        """
        self._split_hook = hook

    def notify_topology_changed(self) -> None:
        """Invalidate every cache derived from the endpoint mapping.

        Must be called whenever validator → endpoint assignments change:
        resolver (re)installation, view-group splits, and any
        post-construction mutation of the partition map all route through
        here.  Stale audiences would silently address outdated endpoints
        (or miss freshly split ones).
        """
        self._audience_cache.clear()

    def resolve_endpoints(self, recipients: Iterable[int]) -> Tuple[int, ...]:
        """Collapse validator indices to their distinct delivery endpoints."""
        seen: Set[int] = set()
        endpoints: List[int] = []
        for index in recipients:
            endpoint = self._endpoint_of(index)
            if endpoint not in seen:
                seen.add(endpoint)
                endpoints.append(endpoint)
        return tuple(endpoints)

    # ------------------------------------------------------------------
    # Topology knowledge
    # ------------------------------------------------------------------
    def honest_members_of(self, partition_name: str) -> Set[int]:
        """Honest validators inside the named partition."""
        members = set(self.schedule.members_of(partition_name))
        return members - self.byzantine_indices

    def partitions(self) -> List[str]:
        """Partition names, in order."""
        return self.schedule.partition_names()

    def controls(self, validator_index: int) -> bool:
        """True if the validator is Byzantine (controlled by this adversary)."""
        return validator_index in self.byzantine_indices

    # ------------------------------------------------------------------
    # Targeted message release
    # ------------------------------------------------------------------
    def _audience_endpoints(
        self, partition_name: str, include_byzantine: bool
    ) -> Tuple[int, ...]:
        key = (partition_name, include_byzantine)
        cached = self._audience_cache.get(key)
        if cached is None:
            recipients: List[int] = sorted(self.schedule.members_of(partition_name))
            if include_byzantine:
                recipients += sorted(self.byzantine_indices)
            cached = self.resolve_endpoints(recipients)
            self._audience_cache[key] = cached
        return cached

    def send_to_partition(
        self,
        message: Message,
        partition_name: str,
        include_byzantine: bool = True,
        delay: float = 0.0,
    ) -> None:
        """Deliver a Byzantine message to one partition only, optionally late.

        Because Byzantine senders are bridge nodes in the partition
        schedule, restricting the audience is how "being active on branch 1
        but not branch 2" is realised: validators of the other partition
        simply never receive the message before GST.  The sender's own
        endpoint is part of the audience — every view, the sender's
        included, learns of the message through the same delivery path.
        """
        self.network.broadcast(
            message,
            recipients=self._audience_endpoints(partition_name, include_byzantine),
            delay=delay,
        )

    def broadcast_everywhere(self, message: Message) -> None:
        """Deliver a Byzantine message to every participant (both branches)."""
        self.network.broadcast(message)

    def send_to_validators(
        self, message: Message, recipients: Iterable[int], delay: float = 0.0
    ) -> None:
        """Deliver a message to an exact set of validators, optionally late.

        The sharpest targeting primitive the fault model grants the
        adversary: any subset of validators, independent of partition
        boundaries (Byzantine coordination is unaffected by partitions).
        Under view sharding the engine's split hook first forks any view
        group the audience only partially covers, so the returned
        endpoints cover exactly ``recipients``; a positive ``delay``
        releases the message that many seconds after its nominal send
        time (the swayer's "just before the deadline" timing).  The
        endpoints are cached per recipient tuple until the next topology
        change: until then the hook would split nothing and return the
        same endpoints.
        """
        targets = tuple(recipients)
        endpoints = self._audience_cache.get(targets)
        if endpoints is None:
            if self._split_hook is not None:
                # May split groups, which clears the cache; store after.
                endpoints = self._split_hook(targets)
            else:
                endpoints = self.resolve_endpoints(targets)
            self._audience_cache[targets] = endpoints
        if delay > 0.0:
            for endpoint in endpoints:
                self.network.send_delayed(message, endpoint, delay)
        else:
            self.network.broadcast(message, recipients=endpoints)

    def withhold(self, message: Message, recipients: Iterable[int]) -> None:
        """Withhold a message addressed to ``recipients`` for later release."""
        for endpoint in self.resolve_endpoints(recipients):
            self.network.withhold(message, endpoint)

    def release_all(self, release_time: float) -> int:
        """Release every withheld message; returns the number released."""
        return self.network.release_withheld(release_time)

    # ------------------------------------------------------------------
    # Accounting helpers used by experiments
    # ------------------------------------------------------------------
    def byzantine_count(self) -> int:
        """Number of Byzantine validators under the adversary's control."""
        return len(self.byzantine_indices)

    def is_unaffected_by_partition(self) -> bool:
        """Adversary invariant: every Byzantine validator is a bridge node.

        Returns True when the partition schedule indeed treats all Byzantine
        validators as connected to both sides — a sanity check used by
        scenario builders.
        """
        return all(self.schedule.is_bridge(index) for index in self.byzantine_indices)
