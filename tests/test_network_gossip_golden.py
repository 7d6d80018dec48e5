"""Golden pins for gossip propagation: the delivery schedule must not move.

``GossipPropagation`` is a performance-sensitive layer (hop distances
are recomputed per phase origin), and every optimisation of it must
leave the sampled schedule byte-identical.  These constants were
recorded from the original set-based overlay build and ``np.unique``
BFS; a faster implementation has to reproduce them exactly:

* blake2b digests of ``delivery_times`` for a 2,000-validator model,
  over block and attestation messages at 20 send times, half of them
  before GST across a two-way partition.  One digest is taken on the
  engine's phase grid and one on raw times: phase rounding absorbs most
  hop-count differences, so only the raw digest sees every distance.
  The phase grid now settles most recipients from hop-count bounds
  without sampling them, so the raw digest also pins the full-sampling
  path that is the oracle of that shortcut;
* the transport counters, finalized epoch and peak view count of
  512-validator honest slot simulations under gossip latency.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.network.latency import GossipPropagation
from repro.network.message import Message, MessageKind
from repro.network.partition import Partition, PartitionSchedule
from repro.sim.scenarios import build_honest_simulation
from repro.spec.block import BeaconBlock

N = 2000
T = 12.0
GST = 5 * T

SCHEDULE_DIGESTS = {
    "phase-grid": (T, "485f07d03263e9870112101194a526f6"),
    "raw": (None, "92f264808f5dbe34dae5a6da2a872fc4"),
}


def partitioned_model(seconds_per_slot) -> GossipPropagation:
    schedule = PartitionSchedule(
        partitions=(
            Partition("branch-1", frozenset(range(0, 900))),
            Partition("branch-2", frozenset(range(900, 1800))),
        ),
        gst=GST,
        delta=2.0,
    )
    model = GossipPropagation(degree=8, hop_delay=(0.282, 0.846), seed=11)
    return model.bind(schedule, range(N), seconds_per_slot=seconds_per_slot)


def sample_schedule(seconds_per_slot):
    """(message, delivery, availability) for a block and a vote per slot."""
    model = partitioned_model(seconds_per_slot)
    recipients = np.arange(N)
    for slot in range(10):
        block = Message.block(
            BeaconBlock.genesis(), sender=(slot * 211) % N, sent_at=slot * T
        )
        vote = Message(MessageKind.ATTESTATION_BATCH, None, (slot * 97) % N, slot * T + T / 3)
        for message in (block, vote):
            when, avail = model.delivery_times(message, recipients, message.sent_at)
            yield message, when, avail


@pytest.mark.parametrize("grid", sorted(SCHEDULE_DIGESTS))
def test_delivery_schedule_digest_is_pinned(grid):
    seconds_per_slot, expected = SCHEDULE_DIGESTS[grid]
    digest = hashlib.blake2b(digest_size=16)
    held = 0
    for message, when, avail in sample_schedule(seconds_per_slot):
        digest.update(when.tobytes())
        digest.update(avail.tobytes())
        held += int(np.count_nonzero(avail == GST)) if message.sent_at < GST else 0
    # The pin covers partition gating, not only propagation.
    assert held > 0
    assert digest.hexdigest() == expected


def run_honest(latency_model):
    engine = build_honest_simulation(n_validators=512, latency_model=latency_model)
    result = engine.run(4)
    return (
        dataclasses.asdict(result.transport_stats),
        result.max_finalized_epoch(),
        result.peak_view_count,
    )


def test_honest_gossip_run_is_pinned():
    stats, finalized, peak_views = run_honest("gossip")
    assert stats == {
        "sent": 31,
        "delivered": 31,
        "withheld": 0,
        "delayed_across_partition": 0,
        "adversary_delayed": 0,
        "lazy_delayed": 0,
        "latency_delayed": 0,
    }
    assert finalized == 2
    assert peak_views == 1


def test_slow_gossip_run_that_splits_views_is_pinned():
    # Hop delays long enough to cross phase boundaries, so the schedule
    # decides view splits and delayed deliveries.
    stats, finalized, peak_views = run_honest(
        GossipPropagation(hop_delay=(0.45, 1.4), seed=3)
    )
    assert stats == {
        "sent": 76,
        "delivered": 695,
        "withheld": 0,
        "delayed_across_partition": 0,
        "adversary_delayed": 0,
        "lazy_delayed": 0,
        "latency_delayed": 26,
    }
    assert finalized == 2
    assert peak_views == 14
