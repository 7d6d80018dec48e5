"""Pluggable message-latency models for the slot-level network.

The transport's historical timing rule is *uniform delay*: every message
arrives exactly ``delta`` seconds after it becomes available (its send
time, or GST for messages held across a partition).  This module keeps
that rule as :class:`UniformDelay` — the default, bit-identical to the
pre-latency-layer behaviour — and adds seeded stochastic models on the
same seam:

* :class:`FixedJitter` — a base propagation delay plus a bounded uniform
  jitter per recipient,
* :class:`LogNormalLatency` — heavy-tailed per-recipient latency with a
  closed-form mean/quantile structure (the classical fit for internet
  round-trip times),
* :class:`GossipPropagation` — per-hop delays accumulated over a sparse
  seeded peer topology instead of a one-shot broadcast, GossipSub-style.

**Determinism and mode independence.**  Samples are *counter-based*: a
latency is a pure hash of ``(model seed, payload class, effective send
time, recipient validator index)`` — never of the RNG call order, the
message identity, or the audience it was sampled in.  Same seed ⇒
byte-identical delivery schedules, regardless of how recipients are
chunked into queries.  Crucially the key uses the payload *class*, not
the concrete message: a committee's votes travel as one
:class:`~repro.core.attestation_batch.AttestationBatch` per view group
under view sharding but as one-row batches in the per-node fallback
(every validator is its own view there), and both packagings must
sample identical delivery times for the grouped==per-node equivalence
contract to survive.  For the same reason
:class:`GossipPropagation` roots attestation-phase traffic at a
deterministic per-phase *virtual source* rather than at the (packaging
dependent) message sender; block proposals, which are identical objects
in both modes, use their true sender as the gossip origin.

**Phase quantization.**  Agents only observe the network at the engine's
slot phases (slot start, attestation deadline, next slot start), so a
stochastic model's raw arrival times are rounded up to the next phase
boundary (:func:`quantize_to_phase`).  This is what makes per-validator
latency compatible with view sharding: members of a view group whose
sampled latencies land in the *same* phase window still share a provably
identical message stream, and only divergence *past a boundary* forces a
copy-on-write view split (see ``Network._schedule_modeled``).
:class:`UniformDelay` never quantizes — its schedule is the exact legacy
computation.

Because only the phase is observed, most samples need never be drawn.
A model may state, per recipient, a range ``[low, high]`` that its
sampled latency cannot leave (:meth:`LatencyModel._latency_bounds`):
``k*(hop_min, hop_max)`` for a recipient ``k`` gossip hops away,
``(base, base + jitter)`` for :class:`FixedJitter`.
:func:`quantize_to_phase` is monotone non-decreasing, so when
``avail + low - eps`` and ``avail + high + eps`` round to the same phase
every arrival in between does too, and that phase is the delivery time
without hashing anything.  ``eps`` (``1e-9`` s plus ``1e-12`` of the
arrival time) covers the rounding of a ``k``-term float sum added to the
send time, up to leak horizons of ~1.8e6 s.  When the whole audience
shares one start time, each latency class (a hop count) is settled
once rather than per recipient.  Only recipients whose range
straddles a boundary are sampled, with the model's own
:meth:`~LatencyModel._latencies`, so the result is bit-identical to
quantizing a full sample.  Without a phase grid nothing is settled: the
raw path samples every recipient, and it is the oracle of the settled
one.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.message import Message, MessageKind
from repro.network.partition import PartitionSchedule

_MASK64 = (1 << 64) - 1

#: Payload classes for latency keying.  A vote's class does not depend on
#: how many votes its batch packs (see module docstring).
_CLASS_OF_KIND = {
    MessageKind.BLOCK: 1,
    MessageKind.ATTESTATION_BATCH: 2,
}


# ----------------------------------------------------------------------
# Counter-based hashing (splitmix64)
# ----------------------------------------------------------------------
def _mix_scalar(*words: int) -> int:
    """Fold integer words into one well-mixed 64-bit key (splitmix64)."""
    z = 0x9E3779B97F4A7C15
    for word in words:
        z = (z + (word & _MASK64)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


def _mix_array(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = values.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    # A second round for avalanche on small consecutive inputs.
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hashed_u64(key: int, ids: np.ndarray) -> np.ndarray:
    """Per-id 64-bit hashes for ``key``: order- and chunking-independent."""
    return _mix_array(np.asarray(ids, dtype=np.uint64) ^ np.uint64(key & _MASK64))


def hashed_uniform(key: int, ids: np.ndarray) -> np.ndarray:
    """Per-id uniforms in ``[0, 1)`` drawn from the counter-based stream."""
    return (hashed_u64(key, ids) >> np.uint64(11)) * (2.0 ** -53)


def hashed_uniform_scalar(key: int) -> float:
    """A single uniform in ``[0, 1)`` from an integer key."""
    return (_mix_scalar(key) >> 11) * (2.0 ** -53)


def _time_bits(time: float) -> int:
    """Stable integer key for a float timestamp (bit pattern, not rounding)."""
    return int(np.float64(time).view(np.uint64))


# ----------------------------------------------------------------------
# Phase grid
# ----------------------------------------------------------------------
def quantize_to_phase(times: np.ndarray, seconds_per_slot: float) -> np.ndarray:
    """Round raw arrival times up to the next engine phase boundary.

    The engine drains deliveries at slot starts and at the attestation
    deadline a third of the way into each slot, so the observable phase
    grid is ``{s*T, s*T + T/3}``.  Times already on the grid map to
    themselves.
    """
    times = np.asarray(times, dtype=np.float64)
    slots = np.floor(times / seconds_per_slot)
    slot_start = slots * seconds_per_slot
    offset = times - slot_start
    third = seconds_per_slot / 3.0
    return np.where(
        offset <= 0.0,
        slot_start,
        np.where(offset <= third, slot_start + third, slot_start + seconds_per_slot),
    )


def _settle_margin(times: np.ndarray) -> np.ndarray:
    """Float slack of a bounded arrival time (see "Phase quantization")."""
    return 1e-9 + 1e-12 * np.abs(times)


#: ``(classes, low, high, sample)`` from :meth:`LatencyModel._latency_bounds`:
#: recipient ``i`` samples a latency in ``[low[classes[i]], high[classes[i]]]``,
#: and ``sample(rows)`` returns the latencies of ``recipients[rows]``.
LatencyBounds = Tuple[
    np.ndarray, np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]
]


# ----------------------------------------------------------------------
# Model hierarchy
# ----------------------------------------------------------------------
class LatencyModel:
    """Base class: per-recipient delivery-time computation for one message.

    Subclasses implement :meth:`_latencies`.  A model must be *bound*
    (:meth:`bind`) before computing delivery times: binding attaches the
    partition schedule (availability rules), the full validator index
    set (gossip topology) and the slot length (phase quantization).  The
    engine binds the model it is given; standalone users bind manually.
    """

    #: ``True`` only for :class:`UniformDelay`: the transport then takes
    #: the exact legacy scheduling path (no sampling, no quantization).
    is_uniform = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.schedule: Optional[PartitionSchedule] = None
        self.seconds_per_slot: Optional[float] = None
        self._part_code: Optional[np.ndarray] = None
        self.indices: Tuple[int, ...] = ()

    # ------------------------------------------------------------------
    def bind(
        self,
        schedule: PartitionSchedule,
        indices: Sequence[int],
        seconds_per_slot: Optional[float] = None,
    ) -> "LatencyModel":
        """Attach the partition schedule, validator set and phase grid."""
        self.schedule = schedule
        self.indices = tuple(sorted(int(i) for i in indices))
        self.seconds_per_slot = (
            float(seconds_per_slot) if seconds_per_slot is not None else None
        )
        size = (max(self.indices) + 1) if self.indices else 1
        # Partition code per validator: 0.. for named partitions, -1 for
        # bridge validators (reachable from every side).
        codes = np.full(size, -1, dtype=np.int64)
        for part_id, name in enumerate(schedule.partition_names()):
            for member in schedule.members_of(name):
                if member < size:
                    codes[member] = part_id
        self._part_code = codes
        return self

    def _require_bound(self) -> None:
        if self.schedule is None or self._part_code is None:
            raise RuntimeError(
                f"{type(self).__name__} must be bound (bind(schedule, indices, ...)) "
                "before computing delivery times"
            )

    # ------------------------------------------------------------------
    def availability(
        self, sender: int, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        """Earliest time the message can start travelling to each recipient.

        This is the partition rule of :class:`PartitionSchedule`, applied
        before the latency sample: within a partition (or after GST) a
        message is available at its effective send time; across a
        partition before GST it is held until GST.
        """
        self._require_bound()
        schedule = self.schedule
        if available_at >= schedule.gst or not schedule.partition_names():
            return np.full(len(recipients), available_at, dtype=np.float64)
        codes = self._part_code
        sender_code = codes[sender] if 0 <= sender < len(codes) else -1
        r = np.asarray(recipients, dtype=np.int64)
        # Indices outside the code table (negative ones included) are
        # unknown validators, treated like bridges.
        known = (r >= 0) & (r < len(codes))
        r_codes = np.where(known, codes[np.where(known, r, 0)], -1)
        reachable = (
            (r == sender)
            | (sender_code < 0)
            | (r_codes < 0)
            | (r_codes == sender_code)
        )
        return np.where(reachable, available_at, schedule.gst)

    def _message_key(self, message: Message, available_at: float) -> int:
        """Sampling key: seed x payload class x effective send time.

        Deliberately excludes the message id and sender (see module
        docstring: packaging differs between sharding modes).
        """
        return _mix_scalar(
            self.seed, _CLASS_OF_KIND[message.kind], _time_bits(available_at)
        )

    def _latencies(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        """Per-recipient propagation latencies (seconds), to be sampled."""
        raise NotImplementedError

    def _latency_bounds(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> Optional[LatencyBounds]:
        """Ranges the sampled latencies cannot leave, or ``None`` if unknown.

        A model that returns bounds lets :meth:`delivery_times` settle a
        recipient's phase without sampling it; ``sample`` must then equal
        :meth:`_latencies` on the selected rows bit for bit.
        """
        return None

    def delivery_times(
        self,
        message: Message,
        recipients: Sequence[int],
        available_at: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(delivery_time, availability)`` arrays for the recipients.

        ``availability`` is the partition-gated start time (send time or
        GST); the delivery time adds the sampled latency and — when a
        phase grid is bound — rounds up to the next phase boundary.  On
        the phase grid, recipients whose latency bounds settle the phase
        are not sampled (module docstring, "Phase quantization").
        """
        self._require_bound()
        recipients = np.asarray(recipients, dtype=np.int64)
        avail = self.availability(message.sender, recipients, available_at)
        available_at = float(available_at)
        grid = self.seconds_per_slot
        if grid is None:
            return avail + self._latencies(message, recipients, available_at), avail
        bounds = self._latency_bounds(message, recipients, available_at)
        if bounds is None:
            raw = avail + self._latencies(message, recipients, available_at)
            return quantize_to_phase(raw, grid), avail
        classes, low, high, sample = bounds
        if len(avail) and (avail == avail[0]).all():
            # One start time: settle each latency class once.
            early, late = avail[0] + low, avail[0] + high
        else:
            early, late = avail + low[classes], avail + high[classes]
            classes = np.arange(len(avail))
        settled = quantize_to_phase(late + _settle_margin(late), grid)
        open_class = quantize_to_phase(early - _settle_margin(early), grid) != settled
        times = settled[classes]
        rows = np.flatnonzero(open_class[classes])
        if len(rows):
            times[rows] = quantize_to_phase(avail[rows] + sample(rows), grid)
        return times, avail


class UniformDelay(LatencyModel):
    """The exact legacy timing rule: every message arrives ``delta`` late.

    The bound is the partition schedule's ``delta``, making this model
    *provably* the pre-latency-layer behaviour — the transport routes it
    through the identical legacy code path, so configuring
    ``latency_model=UniformDelay()`` is byte-for-byte the same simulation
    as configuring no model at all.
    """

    is_uniform = True

    def __init__(self) -> None:
        super().__init__(seed=0)

    def _latencies(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        self._require_bound()
        return np.full(len(recipients), self.schedule.delta, dtype=np.float64)


class FixedJitter(LatencyModel):
    """A base propagation delay plus bounded uniform jitter per recipient.

    ``latency = base + U[0, jitter)`` with the uniform drawn from the
    counter-based stream keyed on (payload class, send time, recipient).
    """

    def __init__(self, base: float = 0.2, jitter: float = 0.4, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if base < 0 or jitter < 0:
            raise ValueError("base and jitter must be non-negative")
        self.base = float(base)
        self.jitter = float(jitter)

    def _latencies(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        key = self._message_key(message, available_at)
        return self.base + hashed_uniform(key, recipients) * self.jitter

    def _latency_bounds(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> LatencyBounds:
        return (
            np.zeros(len(recipients), dtype=np.intp),
            np.array([self.base]),
            np.array([self.base + self.jitter]),
            lambda rows: self._latencies(message, recipients[rows], available_at),
        )


class LogNormalLatency(LatencyModel):
    """Heavy-tailed per-recipient latency: ``median * exp(sigma * Z)``.

    The closed forms pinned by the property suite:

    * mean      = ``median * exp(sigma**2 / 2)``
    * quantile  = ``median * exp(sigma * Phi^-1(q))``

    ``Z`` is a standard normal produced by Box-Muller over two
    independent counter-based uniforms.
    """

    def __init__(self, median: float = 0.25, sigma: float = 0.5, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if median <= 0:
            raise ValueError("median must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.median = float(median)
        self.sigma = float(sigma)

    @property
    def mean(self) -> float:
        """Closed-form mean of the latency distribution."""
        return self.median * math.exp(self.sigma ** 2 / 2.0)

    def quantile(self, q: float) -> float:
        """Closed-form quantile of the latency distribution."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        # Acklam-free route: inverse error function via statistics.NormalDist.
        from statistics import NormalDist

        return self.median * math.exp(self.sigma * NormalDist().inv_cdf(q))

    def _latencies(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        key = self._message_key(message, available_at)
        # Two independent uniform streams for Box-Muller; u1 mapped into
        # (0, 1] so the log never sees zero.
        u1 = (hashed_u64(_mix_scalar(key, 1), recipients) >> np.uint64(11)).astype(
            np.float64
        )
        u1 = (u1 + 1.0) * (2.0 ** -53)
        u2 = hashed_uniform(_mix_scalar(key, 2), recipients)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return self.median * np.exp(self.sigma * z)


class GossipPropagation(LatencyModel):
    """Per-hop delays accumulated over a sparse seeded peer topology.

    Binding builds a connected ``degree``-regular-ish overlay over the
    validator set (a deterministic ring for connectivity plus seeded
    random peers, GossipSub-style).  A recipient's latency is the sum of
    ``hops`` independent per-hop delays ``U[hop_min, hop_max)``, where
    ``hops`` is its BFS distance from the message's gossip *origin*:

    * block proposals and their sender are identical objects in both
      sharding modes, so blocks use ``message.sender`` as the origin;
    * attestation-phase traffic is packaged differently per mode (one
      batch per view group vs one-row batches), so its origin is
      a deterministic *virtual source* hashed from the send time — the
      subnet-aggregation point of the phase, identical in both modes.

    Partition rules still gate availability (a partition severs links
    regardless of overlay distance); the overlay models propagation
    spread within the reachable side.
    """

    def __init__(
        self,
        degree: int = 8,
        hop_delay: Tuple[float, float] = (0.05, 0.2),
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        if degree < 2:
            raise ValueError("degree must be at least 2")
        lo, hi = hop_delay
        if lo < 0 or hi < lo:
            raise ValueError("hop_delay must satisfy 0 <= min <= max")
        self.degree = int(degree)
        self.hop_delay = (float(lo), float(hi))
        self._position: Optional[np.ndarray] = None
        self._neighbors: Optional[np.ndarray] = None
        # Memo of the last origin only: consecutive messages share their
        # origin (one phase, one virtual source), distinct origins rarely
        # repeat later, and one array bounds the memory.
        self._last_hops: Optional[Tuple[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    def bind(
        self,
        schedule: PartitionSchedule,
        indices: Sequence[int],
        seconds_per_slot: Optional[float] = None,
    ) -> "GossipPropagation":
        super().bind(schedule, indices, seconds_per_slot)
        self._last_hops = None
        n = len(self.indices)
        positions = np.full((max(self.indices) + 1) if n else 1, -1, dtype=np.int64)
        positions[list(self.indices)] = np.arange(n)
        self._position = positions
        # Ring edges guarantee connectivity; seeded extra peers give the
        # small-world fan-out.  Adjacency is a padded (n, max_deg) matrix
        # of sorted peers whose pads point at the sentinel position ``n``.
        if n > 1:
            pos = np.arange(n, dtype=np.int64)
            ring = (pos + 1) % n
            sources, targets = [pos, ring], [ring, pos]
            extra = max(0, self.degree - 2)
            if extra:
                rng = np.random.default_rng(self.seed)
                drawn = rng.integers(0, n, size=(n, extra)).ravel()
                owners = np.repeat(pos, extra)
                keep = drawn != owners
                sources += [owners[keep], drawn[keep]]
                targets += [drawn[keep], owners[keep]]
            # Directed edge keys sort by (source, target): one sort orders
            # every row at once and a neighbour mask drops duplicate edges
            # (numpy 2's hash-based ``np.unique`` is ~20x slower here).
            keys = np.sort(np.concatenate(sources) * n + np.concatenate(targets))
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            rows, peers = np.divmod(keys, n)
            lengths = np.bincount(rows, minlength=n)
            starts = np.cumsum(lengths) - lengths
            adjacency = np.full((n, int(lengths.max())), n, dtype=np.int64)
            adjacency[rows, np.arange(len(keys)) - starts[rows]] = peers
        else:
            adjacency = np.full((n, 1), n, dtype=np.int64)
        self._neighbors = adjacency
        return self

    def hops_from(self, origin_index: int) -> np.ndarray:
        """BFS hop distances (by overlay) from a validator to every position.

        The returned int64 array is read-only: it is memoized for the
        next call with the same origin.
        """
        self._require_bound()
        if self._neighbors is None:
            raise RuntimeError("GossipPropagation.bind must run before hops_from")
        if self._last_hops is not None and self._last_hops[0] == origin_index:
            return self._last_hops[1]
        n = len(self.indices)
        start = (
            int(self._position[origin_index])
            if 0 <= origin_index < len(self._position)
            else -1
        )
        if start < 0:
            # Unknown origins (never the engine's case) propagate from the
            # deterministic position 0 so distances stay defined.
            start = 0
        hops = np.full(n, -1, dtype=np.int64)
        hops[start] = 0
        # Frontier-bitmask BFS.  The pad sentinel ``n`` starts visited, so
        # pads never enter a frontier.
        seen = np.zeros(n + 1, dtype=bool)
        seen[[start, n]] = True
        frontier = np.array([start], dtype=np.int64)
        unvisited = n - 1
        level = 0
        while frontier.size:
            level += 1
            if frontier.size < unvisited:
                # Top-down: mark every peer of the frontier and keep the
                # unvisited ones, already sorted and unique.
                reached = np.zeros(n + 1, dtype=bool)
                reached[self._neighbors[frontier]] = True
                reached &= ~seen
                frontier = np.flatnonzero(reached)
            else:
                # Bottom-up once the frontier outnumbers the unvisited
                # positions: keep those with a peer in the frontier.
                in_frontier = np.zeros(n + 1, dtype=bool)
                in_frontier[frontier] = True
                candidates = np.flatnonzero(~seen)
                hit = in_frontier[self._neighbors[candidates]].any(axis=1)
                frontier = candidates[hit]
            seen[frontier] = True
            hops[frontier] = level
            unvisited -= frontier.size
        hops.flags.writeable = False
        self._last_hops = (origin_index, hops)
        return hops

    def _origin_for(self, message: Message, available_at: float) -> int:
        if message.kind == MessageKind.BLOCK:
            return message.sender
        # Virtual per-phase source: identical in both sharding modes.
        draw = _mix_scalar(self.seed, 0xA77E57, _time_bits(available_at))
        return self.indices[draw % len(self.indices)]

    def _positions_of(self, recipients: np.ndarray) -> np.ndarray:
        """Overlay positions of ``recipients``, rejecting unbound ones by name."""
        position = self._position
        # Negative indices would silently wrap to the highest validators,
        # and unbound ones map to position -1.
        if not len(recipients) or (
            recipients.min() >= 0 and recipients.max() < len(position)
        ):
            positions = position[recipients]
            if not len(positions) or positions.min() >= 0:
                return positions
        unbound = sorted(set(recipients.tolist()) - set(self.indices))
        raise ValueError(f"recipients not bound to the gossip overlay: {unbound}")

    def _hops_of(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        """Hops each recipient pays: its overlay distance, at least one."""
        hops_by_position = self.hops_from(self._origin_for(message, available_at))
        # The ring keeps the overlay connected, so every distance is set.
        # The origin pays one hop too (local validation + publish): a
        # zero-latency self-delivery would otherwise split the origin out
        # of its view group on every single message.
        return np.maximum(hops_by_position[self._positions_of(recipients)], 1)

    def _hop_latencies(
        self, key: int, recipients: np.ndarray, hops: np.ndarray
    ) -> np.ndarray:
        """Sum of ``hops`` per-hop delays per recipient, hashed per hop level."""
        lo, hi = self.hop_delay
        latency = np.zeros(len(recipients), dtype=np.float64)
        max_hops = int(hops.max()) if len(hops) else 0
        for hop in range(max_hops):
            live = hops > hop
            if not live.any():
                break
            u = hashed_uniform(_mix_scalar(key, hop), recipients)
            latency += np.where(live, lo + u * (hi - lo), 0.0)
        return latency

    def _latencies(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> np.ndarray:
        return self._hop_latencies(
            self._message_key(message, available_at),
            recipients,
            self._hops_of(message, recipients, available_at),
        )

    def _latency_bounds(
        self, message: Message, recipients: np.ndarray, available_at: float
    ) -> LatencyBounds:
        # The latency class is the hop count k, bounded by k*(lo, hi).
        hops = self._hops_of(message, recipients, available_at)
        key = self._message_key(message, available_at)
        lo, hi = self.hop_delay
        count = np.arange(int(hops.max()) + 1 if len(hops) else 1, dtype=np.float64)
        return (
            hops,
            count * lo,
            count * hi,
            lambda rows: self._hop_latencies(key, recipients[rows], hops[rows]),
        )


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
#: Model names accepted by :func:`make_latency_model` (and the
#: ``--latency-model`` CLI flag).
LATENCY_MODEL_NAMES = ("uniform", "jitter", "lognormal", "gossip")


def make_latency_model(
    name: str, seed: int = 0, **params: object
) -> LatencyModel:
    """Build a latency model by name (the CLI/preset seam).

    ``params`` are forwarded to the model constructor, so presets can
    override e.g. ``degree`` or ``sigma`` without new factory names.
    """
    key = name.lower().replace("_", "-")
    if key == "uniform":
        return UniformDelay(**params)  # type: ignore[arg-type]
    if key in ("jitter", "fixed-jitter"):
        return FixedJitter(seed=seed, **params)  # type: ignore[arg-type]
    if key in ("lognormal", "log-normal"):
        return LogNormalLatency(seed=seed, **params)  # type: ignore[arg-type]
    if key == "gossip":
        return GossipPropagation(seed=seed, **params)  # type: ignore[arg-type]
    raise ValueError(
        f"unknown latency model {name!r}; expected one of {LATENCY_MODEL_NAMES}"
    )


def resolve_latency_model(
    model: Union[None, str, LatencyModel], seed: int = 0
) -> Optional[LatencyModel]:
    """Normalize a builder argument: ``None``, a name, or a model instance."""
    if model is None or isinstance(model, LatencyModel):
        return model
    return make_latency_model(model, seed=seed)
