"""Best-effort broadcast over a partially-synchronous network.

The transport schedules deliveries according to a
:class:`~repro.network.partition.PartitionSchedule`: within a partition (or
after GST) messages arrive within ``delta`` seconds; across partitions
before GST they are held and delivered at ``GST + delta``.  The adversary
(:mod:`repro.network.adversary`) can additionally withhold messages sent by
Byzantine validators and release them at a chosen time, which is the
capability the probabilistic bouncing attack relies on.

Participants are delivery *endpoints*: under view sharding the engine
registers one endpoint per view group (its representative validator), so a
broadcast costs O(groups) deliveries instead of O(validators) — and the
payload of one delivery may itself be a whole committee's attestation
batch.  Senders receive their own messages through the network like every
other member of their view group (uniform delay, uniform order), which is
what makes view groups provably share a message stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.latency import LatencyModel, quantize_to_phase
from repro.network.message import Delivery, Message
from repro.network.partition import PartitionSchedule


@dataclass
class TransportStats:
    """Counters describing the traffic handled by the transport.

    The three delay counters are disjoint by cause:

    * ``delayed_across_partition`` — the partition schedule held the
      delivery until GST (it could not cross the split earlier),
    * ``adversary_delayed`` — the sender deliberately timed the release
      (the adversary's ``send_delayed`` primitive),
    * ``lazy_delayed`` — an honest sender published late (the lazy
      behaviour profiles' delayed broadcasts),
    * ``latency_delayed`` — a stochastic latency model pushed the
      delivery past the synchronous bound ``availability + delta``.
    """

    sent: int = 0
    delivered: int = 0
    withheld: int = 0
    delayed_across_partition: int = 0
    adversary_delayed: int = 0
    lazy_delayed: int = 0
    latency_delayed: int = 0


class Network:
    """Message scheduling between validator nodes.

    The class is intentionally independent of the simulation engine: it
    only turns ``broadcast``/``send`` calls into :class:`Delivery` records
    ordered by delivery time; the engine pops them and hands the payloads
    to recipient nodes.
    """

    def __init__(
        self,
        schedule: PartitionSchedule,
        participants: Sequence[int],
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.schedule = schedule
        self.participants = list(participants)
        self._queue: List[Delivery] = []
        self._withheld: List[Tuple[Message, int]] = []
        self.stats = TransportStats()
        #: Optional latency model.  ``None`` and a
        #: :class:`~repro.network.latency.UniformDelay` take the exact
        #: legacy scheduling path; other models sample per-recipient
        #: delivery times (``_schedule_modeled``).
        self.latency_model = latency_model
        if latency_model is not None and latency_model.schedule is None:
            # Standalone use (no engine): bind with endpoints as the
            # validator set and no phase grid (raw delivery times).
            latency_model.bind(schedule, self.participants)
        self._modeled = latency_model is not None and not latency_model.is_uniform
        # View hooks, installed by the view-sharded engine: endpoint →
        # member validators, and exact-audience resolution (which
        # copy-on-write splits any view group an audience only partially
        # covers).  Without hooks an endpoint is its own single member.
        self._members_of: Callable[[int], Sequence[int]] = lambda endpoint: (endpoint,)
        self._exact_audience: Callable[[Tuple[int, ...]], Tuple[int, ...]] = (
            lambda recipients: recipients
        )

    def set_view_hooks(
        self,
        members_of: Callable[[int], Sequence[int]],
        exact_audience: Callable[[Tuple[int, ...]], Tuple[int, ...]],
    ) -> None:
        """Install the engine's view-group resolution hooks.

        ``members_of(endpoint)`` lists the validators behind a delivery
        endpoint (an int64 array is used without a copy, so the engine
        returns each view's cached ``member_array``);
        ``exact_audience(validators)`` returns endpoints covering exactly
        those validators, splitting partially-covered view groups first.
        Only the modeled (non-uniform latency) scheduling path consults
        these.
        """
        self._members_of = members_of
        self._exact_audience = exact_audience

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def broadcast(
        self,
        message: Message,
        exclude: Iterable[int] = (),
        recipients: Optional[Iterable[int]] = None,
        delay: float = 0.0,
    ) -> None:
        """Best-effort broadcast of ``message`` to every participant.

        ``recipients`` restricts the audience (the adversary uses this to
        release withheld votes to one partition only); ``exclude`` removes
        specific recipients (usually the sender itself, which processes its
        own messages locally).  A positive ``delay`` models a *lazy*
        sender that publishes that many seconds after the nominal send
        time: partition rules (and any latency model) apply from the
        later instant.
        """
        # Snapshot: the modeled path can split view groups mid-broadcast,
        # which appends fresh endpoints to ``self.participants``.
        audience = list(recipients) if recipients is not None else list(self.participants)
        excluded = set(exclude)
        self.stats.sent += 1
        if delay > 0.0:
            self.stats.lazy_delayed += 1
        effective = message.sent_at + delay
        for recipient in audience:
            if recipient in excluded:
                continue
            self._dispatch(message, recipient, effective)

    def send(self, message: Message, recipient: int) -> None:
        """Point-to-point send (same timing rules as broadcast)."""
        self.stats.sent += 1
        self._dispatch(message, recipient, message.sent_at)

    def send_delayed(self, message: Message, recipient: int, delay: float) -> None:
        """Point-to-point send that leaves the sender ``delay`` seconds late.

        Models an adversary timing a message's *release* (a swayer voting
        "just before the deadline"): the network sees the message as if it
        were sent at ``sent_at + delay``, so partition rules and ``delta``
        apply from that later instant.
        """
        self.stats.sent += 1
        self.stats.adversary_delayed += 1
        self._dispatch(message, recipient, message.sent_at + delay)

    def withhold(self, message: Message, recipient: int) -> None:
        """Hold a message outside the network until :meth:`release` is called.

        Models the adversary's ability to delay the release of Byzantine
        messages (Section 5.3 step 2: "Byzantine validators withhold their
        messages ... releasing them at the opportune time").
        """
        self._withheld.append((message, recipient))
        self.stats.withheld += 1

    def release_withheld(self, release_time: float) -> int:
        """Release every withheld message at ``release_time``.

        The released messages still obey the partition schedule from the
        release time onwards.  Returns the number of messages released.
        """
        count = 0
        for message, recipient in self._withheld:
            if self._modeled:
                self._schedule_modeled(message, recipient, release_time, floor=release_time)
            else:
                deliver_at = max(
                    release_time,
                    self.schedule.delivery_time(message.sender, recipient, release_time),
                )
                heapq.heappush(
                    self._queue,
                    Delivery(message=message, recipient=recipient, deliver_at=deliver_at),
                )
            count += 1
        self._withheld.clear()
        return count

    def _dispatch(self, message: Message, recipient: int, effective_sent: float) -> None:
        """Schedule one endpoint's delivery under the configured timing rule."""
        if self._modeled:
            self._schedule_modeled(message, recipient, effective_sent)
            return
        deliver_at = self.schedule.delivery_time(message.sender, recipient, effective_sent)
        if deliver_at > effective_sent + self.schedule.delta:
            self.stats.delayed_across_partition += 1
        heapq.heappush(
            self._queue, Delivery(message=message, recipient=recipient, deliver_at=deliver_at)
        )

    def _schedule_modeled(
        self,
        message: Message,
        recipient: int,
        effective_sent: float,
        floor: Optional[float] = None,
    ) -> None:
        """Per-member sampled delivery times for one endpoint's view group.

        The latency model draws one delivery time per *member validator*
        behind the endpoint.  When every member lands in the same phase
        bucket (the common case: default model parameters keep latencies
        well inside one phase window) a single delivery is scheduled for
        the whole group.  Members whose sampled times diverge past a
        phase boundary can no longer share a view, so the engine's
        exact-audience hook copy-on-write splits the group per bucket —
        all splits are performed *before* any of this message's
        deliveries are pushed, because ``split_endpoint`` duplicates
        in-flight traffic for the new endpoint and must not duplicate
        the very message being scheduled.
        """
        model = self.latency_model
        members = np.asarray(self._members_of(recipient), dtype=np.int64)
        times, avail = model.delivery_times(message, members, effective_sent)
        if floor is not None:
            times = np.maximum(times, floor)
        self.stats.delayed_across_partition += int(np.count_nonzero(avail > effective_sent))
        # A delivery counts as latency-delayed when the model pushed it
        # past where the uniform-delay rule would have landed it *on the
        # same phase grid* — quantization alone is not a model delay.
        # Members that all start together share one bound.
        start = avail[:1] if (avail == avail[0]).all() else avail
        bound = start + self.schedule.delta
        if model.seconds_per_slot is not None:
            bound = quantize_to_phase(bound, model.seconds_per_slot)
        self.stats.latency_delayed += int(np.count_nonzero(times > bound))
        if (times == times[0]).all():
            heapq.heappush(
                self._queue,
                Delivery(message=message, recipient=recipient, deliver_at=float(times[0])),
            )
            return
        buckets: List[Tuple[float, Tuple[int, ...]]] = []
        for bucket_time in np.unique(times):
            bucket_members = tuple(members[times == bucket_time].tolist())
            endpoints = self._exact_audience(bucket_members)
            buckets.append((float(bucket_time), endpoints))
        for deliver_at, endpoints in buckets:
            for endpoint in endpoints:
                heapq.heappush(
                    self._queue,
                    Delivery(message=message, recipient=endpoint, deliver_at=deliver_at),
                )

    # ------------------------------------------------------------------
    # Endpoint lifecycle (dynamic view splits)
    # ------------------------------------------------------------------
    def split_endpoint(self, old: int, new: int) -> None:
        """Register ``new`` as a participant whose view just forked off ``old``.

        Everything still in flight towards ``old`` — queued deliveries and
        withheld messages — is duplicated for ``new`` with identical
        delivery times and message ids: the members that moved to the new
        endpoint were going to receive those messages, and the split must
        not change that.  Ordering between the copies is irrelevant (they
        land on distinct nodes); ordering *within* each endpoint's stream
        is preserved because ``Delivery`` sorts by
        ``(deliver_at, message_id, recipient)`` and both fields are kept.
        """
        if new in self.participants:
            raise ValueError(f"endpoint {new} already registered")
        self.participants.append(new)
        for delivery in [d for d in self._queue if d.recipient == old]:
            heapq.heappush(
                self._queue,
                Delivery(
                    message=delivery.message,
                    recipient=new,
                    deliver_at=delivery.deliver_at,
                ),
            )
        for message, recipient in [w for w in self._withheld if w[1] == old]:
            self._withheld.append((message, new))

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def deliveries_until(self, time: float) -> List[Delivery]:
        """Pop and return every delivery due at or before ``time``, in order."""
        due: List[Delivery] = []
        while self._queue and self._queue[0].deliver_at <= time:
            delivery = heapq.heappop(self._queue)
            due.append(delivery)
            self.stats.delivered += 1
        return due

    def pending(self) -> int:
        """Number of deliveries still in flight."""
        return len(self._queue)

    def withheld_count(self) -> int:
        """Number of messages currently withheld by the adversary."""
        return len(self._withheld)

    def next_delivery_time(self) -> Optional[float]:
        """Delivery time of the earliest pending message, if any."""
        return self._queue[0].deliver_at if self._queue else None
