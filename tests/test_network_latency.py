"""Property tests for the pluggable latency models (repro.network.latency).

The latency layer's contract has four load-bearing properties:

* **seed determinism** — a model is a pure function of its seed: the same
  seed yields byte-identical delivery schedules, a different seed a
  different one;
* **chunking invariance** — samples are counter-based (hashed per
  recipient), so delivery times do not depend on how an audience is
  chunked into queries — the property that makes per-view-group sampling
  equal per-validator sampling;
* **partition gating** — the availability rule of the legacy transport
  (held to GST across a partition, delta-bounded within one) survives
  under every model;
* **statistical sanity** — the stochastic models match their closed
  forms (LogNormal mean/quantiles, jitter bounds, gossip hop structure).
"""

import gc
import math
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.latency import (
    LATENCY_MODEL_NAMES,
    FixedJitter,
    GossipPropagation,
    LatencyModel,
    LogNormalLatency,
    UniformDelay,
    hashed_uniform,
    make_latency_model,
    quantize_to_phase,
    resolve_latency_model,
)
from repro.network.message import Message, MessageKind
from repro.network.partition import Partition, PartitionSchedule
from repro.spec.block import BeaconBlock

N = 40
INDICES = tuple(range(N))
T = 12.0  # seconds per slot used by the phase-grid tests


def flat_schedule(delta: float = 1.0) -> PartitionSchedule:
    return PartitionSchedule.fully_connected(delta=delta)


def split_schedule(gst: float = 1000.0, delta: float = 2.0) -> PartitionSchedule:
    """0-17 in branch-1, 18-35 in branch-2, 36-39 bridges."""
    return PartitionSchedule(
        partitions=(
            Partition("branch-1", frozenset(range(0, 18))),
            Partition("branch-2", frozenset(range(18, 36))),
        ),
        gst=gst,
        delta=delta,
    )


def block_message(sender: int = 0, sent_at: float = 0.0) -> Message:
    return Message.block(BeaconBlock.genesis(), sender=sender, sent_at=sent_at)


def batch_message(sender: int, sent_at: float = 4.0) -> Message:
    # The latency layer keys on the message *kind* and sender only, so a
    # payload-free wrapper is enough for sampling tests.
    return Message(MessageKind.ATTESTATION_BATCH, None, sender, sent_at)


ALL_MODELS = [
    pytest.param(lambda: UniformDelay(), id="uniform"),
    pytest.param(lambda: FixedJitter(base=0.2, jitter=0.4, seed=7), id="jitter"),
    pytest.param(lambda: LogNormalLatency(median=0.25, sigma=0.5, seed=7), id="lognormal"),
    pytest.param(lambda: GossipPropagation(degree=6, seed=7), id="gossip"),
]


class TestHashedStream:
    def test_uniforms_lie_in_unit_interval(self):
        u = hashed_uniform(12345, np.arange(10_000))
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_same_key_is_deterministic(self):
        ids = np.arange(256)
        assert hashed_uniform(99, ids).tobytes() == hashed_uniform(99, ids).tobytes()

    def test_different_keys_decorrelate(self):
        ids = np.arange(256)
        assert hashed_uniform(1, ids).tobytes() != hashed_uniform(2, ids).tobytes()

    def test_chunking_invariance(self):
        ids = np.arange(1000)
        whole = hashed_uniform(7, ids)
        parts = np.concatenate(
            [hashed_uniform(7, chunk) for chunk in np.array_split(ids, 13)]
        )
        assert whole.tobytes() == parts.tobytes()

    def test_order_invariance(self):
        ids = np.arange(100)
        shuffled = ids[::-1].copy()
        assert np.array_equal(hashed_uniform(7, ids)[::-1], hashed_uniform(7, shuffled))

    def test_small_consecutive_ids_are_well_spread(self):
        # The classic single-round splitmix weakness: nearby inputs give
        # correlated upper bits.  The two-round finalizer must not.
        u = hashed_uniform(0, np.arange(4096))
        assert abs(float(u.mean()) - 0.5) < 0.02
        assert float(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.05


class TestPhaseGrid:
    def test_grid_points_are_fixed(self):
        grid = np.array([0.0, T / 3, T, T + T / 3, 5 * T])
        assert np.allclose(quantize_to_phase(grid, T), grid)

    def test_rounds_up_within_slot(self):
        times = np.array([0.1, T / 3 - 1e-9, T / 3 + 0.1, T - 0.1])
        expected = np.array([T / 3, T / 3, T, T])
        assert np.allclose(quantize_to_phase(times, T), expected)

    def test_never_rounds_down(self):
        times = np.linspace(0.0, 10 * T, 997)
        quantized = quantize_to_phase(times, T)
        assert np.all(quantized >= times - 1e-12)
        assert np.all(quantized - times < T)


class TestAvailabilityGating:
    @pytest.mark.parametrize("build", ALL_MODELS)
    def test_cross_partition_held_to_gst(self, build):
        schedule = split_schedule()
        model = build().bind(schedule, INDICES)
        recipients = np.arange(N)
        avail = model.availability(0, recipients, available_at=10.0)
        # Same side + bridges travel immediately; the far side waits.
        assert np.all(avail[:18] == 10.0)
        assert np.all(avail[18:36] == schedule.gst)
        assert np.all(avail[36:] == 10.0)

    @pytest.mark.parametrize("build", ALL_MODELS)
    def test_bridge_sender_reaches_everyone(self, build):
        model = build().bind(split_schedule(), INDICES)
        avail = model.availability(36, np.arange(N), available_at=10.0)
        assert np.all(avail == 10.0)

    @pytest.mark.parametrize("build", ALL_MODELS)
    def test_after_gst_everyone_available(self, build):
        schedule = split_schedule(gst=100.0)
        model = build().bind(schedule, INDICES)
        avail = model.availability(0, np.arange(N), available_at=100.0)
        assert np.all(avail == 100.0)

    @pytest.mark.parametrize("build", ALL_MODELS)
    def test_delivery_never_precedes_availability(self, build):
        model = build().bind(split_schedule(), INDICES, seconds_per_slot=T)
        times, avail = model.delivery_times(
            block_message(sender=0), np.arange(N), available_at=10.0
        )
        assert np.all(times >= avail)

    def test_negative_recipient_does_not_wrap_to_the_last_validator(self):
        # Validator 29, the last bound one, is in branch-2; an unknown
        # index is reachable like a bridge, never read as validator 29.
        schedule = split_schedule()
        model = FixedJitter(seed=1).bind(schedule, range(30))
        avail = model.availability(0, np.array([-1, 29, 45]), available_at=10.0)
        assert avail.tolist() == [10.0, schedule.gst, 10.0]

    def test_unbound_model_refuses_to_sample(self):
        with pytest.raises(RuntimeError, match="bound"):
            FixedJitter().delivery_times(block_message(), [0, 1], 0.0)


class TestSeedDeterminism:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda s: FixedJitter(seed=s), id="jitter"),
            pytest.param(lambda s: LogNormalLatency(seed=s), id="lognormal"),
            pytest.param(lambda s: GossipPropagation(seed=s), id="gossip"),
        ],
    )
    def test_same_seed_byte_identical_different_seed_not(self, build):
        message = block_message(sender=3, sent_at=24.0)
        recipients = np.arange(N)

        def schedule_bytes(seed: int) -> bytes:
            # No phase grid: quantization would collapse nearby seeds into
            # the same bucket; the raw schedule is the seeded object.
            model = build(seed).bind(flat_schedule(), INDICES)
            times, _ = model.delivery_times(message, recipients, available_at=24.0)
            return times.tobytes()

        assert schedule_bytes(11) == schedule_bytes(11)
        assert schedule_bytes(11) != schedule_bytes(12)

    @pytest.mark.parametrize("build", ALL_MODELS)
    def test_chunked_queries_match_whole_audience(self, build):
        model = build().bind(flat_schedule(), INDICES, seconds_per_slot=T)
        message = block_message(sender=0, sent_at=12.0)
        recipients = np.arange(N)
        whole, _ = model.delivery_times(message, recipients, available_at=12.0)
        parts = np.concatenate(
            [
                model.delivery_times(message, chunk, available_at=12.0)[0]
                for chunk in np.array_split(recipients, 7)
            ]
        )
        assert whole.tobytes() == parts.tobytes()

    def test_vote_batch_delivery_times_ignore_the_sender(self):
        # A committee's votes travel as one batch under view sharding but
        # as one-row batches per-node, each from a different sender; the
        # sender must not change the sampled delivery times.
        model = FixedJitter(seed=5).bind(flat_schedule(), INDICES, seconds_per_slot=T)
        recipients = np.arange(N)
        first, _ = model.delivery_times(
            batch_message(sender=2, sent_at=4.0), recipients, available_at=4.0
        )
        second, _ = model.delivery_times(
            batch_message(sender=9, sent_at=4.0), recipients, available_at=4.0
        )
        assert first.tobytes() == second.tobytes()


class TestUniformDelay:
    def test_flags_the_legacy_path(self):
        assert UniformDelay().is_uniform
        assert not FixedJitter().is_uniform

    def test_default_delta_comes_from_schedule(self):
        schedule = split_schedule(delta=2.0)
        model = UniformDelay().bind(schedule, INDICES)
        times, avail = model.delivery_times(
            block_message(sender=0), np.arange(18), available_at=10.0
        )
        assert np.allclose(times, avail + 2.0)

    def test_takes_no_bound_of_its_own(self):
        with pytest.raises(TypeError):
            UniformDelay(delta=0.5)

    def test_rebinding_follows_the_new_schedule(self):
        model = UniformDelay()
        for delta in (0.5, 3.0):
            model.bind(split_schedule(delta=delta), INDICES)
            times, avail = model.delivery_times(
                block_message(sender=0), np.arange(18), available_at=10.0
            )
            assert np.allclose(times, avail + delta)


class TestFixedJitter:
    def test_latency_bounds(self):
        model = FixedJitter(base=0.2, jitter=0.4, seed=3).bind(flat_schedule(), INDICES)
        times, avail = model.delivery_times(
            block_message(sender=0), np.arange(N), available_at=5.0
        )
        latency = times - avail
        assert np.all(latency >= 0.2) and np.all(latency < 0.6)

    def test_zero_jitter_degenerates_to_constant(self):
        model = FixedJitter(base=0.3, jitter=0.0, seed=3).bind(flat_schedule(), INDICES)
        times, avail = model.delivery_times(
            block_message(sender=0), np.arange(N), available_at=5.0
        )
        assert np.allclose(times - avail, 0.3)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            FixedJitter(base=-0.1)
        with pytest.raises(ValueError):
            FixedJitter(jitter=-0.1)


class TestLogNormalClosedForms:
    def _samples(self, model: LogNormalLatency, n: int = 20_000) -> np.ndarray:
        model.bind(flat_schedule(), range(n))
        times, avail = model.delivery_times(
            block_message(sender=0), np.arange(n), available_at=0.0
        )
        return times - avail

    def test_empirical_mean_matches_closed_form(self):
        model = LogNormalLatency(median=0.25, sigma=0.5, seed=9)
        samples = self._samples(model)
        # mean = median * exp(sigma^2 / 2); SE of the mean ~ 0.001 here.
        assert model.mean == pytest.approx(0.25 * math.exp(0.125))
        assert float(samples.mean()) == pytest.approx(model.mean, rel=0.02)

    def test_empirical_quantiles_match_closed_form(self):
        model = LogNormalLatency(median=0.25, sigma=0.5, seed=9)
        samples = self._samples(model)
        assert model.quantile(0.5) == pytest.approx(model.median)
        for q in (0.1, 0.5, 0.9):
            assert float(np.quantile(samples, q)) == pytest.approx(
                model.quantile(q), rel=0.05
            )

    def test_log_of_samples_is_gaussian(self):
        model = LogNormalLatency(median=0.25, sigma=0.5, seed=9)
        logs = np.log(self._samples(model))
        assert float(logs.mean()) == pytest.approx(math.log(0.25), abs=0.02)
        assert float(logs.std()) == pytest.approx(0.5, rel=0.05)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(sigma=-1.0)
        with pytest.raises(ValueError):
            LogNormalLatency().quantile(1.0)


class TestGossipPropagation:
    def test_topology_is_seed_deterministic(self):
        first = GossipPropagation(seed=4).bind(flat_schedule(), INDICES)
        second = GossipPropagation(seed=4).bind(flat_schedule(), INDICES)
        assert first._neighbors.tobytes() == second._neighbors.tobytes()
        third = GossipPropagation(seed=5).bind(flat_schedule(), INDICES)
        assert first._neighbors.tobytes() != third._neighbors.tobytes()

    def test_overlay_is_connected(self):
        model = GossipPropagation(degree=6, seed=4).bind(flat_schedule(), INDICES)
        for origin in (0, 17, N - 1):
            hops = model.hops_from(origin)
            assert np.all(hops >= 0), "ring edges must keep the overlay connected"
            assert hops[model._position[origin]] == 0

    def test_everyone_pays_at_least_one_hop(self):
        # Including the origin: a zero-latency self-delivery would split
        # the origin out of its view group on every message.
        model = GossipPropagation(degree=6, seed=4).bind(flat_schedule(), INDICES)
        times, avail = model.delivery_times(
            block_message(sender=5), np.arange(N), available_at=0.0
        )
        lo, _hi = model.hop_delay
        assert np.all(times - avail >= lo)

    def test_latency_bounded_by_hop_count(self):
        model = GossipPropagation(degree=6, hop_delay=(0.05, 0.2), seed=4).bind(
            flat_schedule(), INDICES
        )
        hops = np.maximum(model.hops_from(5)[model._position[np.arange(N)]], 1)
        times, avail = model.delivery_times(
            block_message(sender=5), np.arange(N), available_at=0.0
        )
        latency = times - avail
        assert np.all(latency >= hops * 0.05 - 1e-12)
        assert np.all(latency <= hops * 0.2 + 1e-12)

    def test_block_origin_is_the_sender(self):
        # The sender's neighbours (1 hop) must see strictly less worst-case
        # latency than the overlay's most distant validators.
        model = GossipPropagation(degree=4, hop_delay=(0.1, 0.1), seed=4).bind(
            flat_schedule(), tuple(range(200))
        )
        times, avail = model.delivery_times(
            block_message(sender=0), np.arange(200), available_at=0.0
        )
        latency = times - avail
        hops = np.maximum(model.hops_from(0)[model._position[np.arange(200)]], 1)
        assert np.allclose(latency, hops * 0.1)
        assert latency.max() > latency.min()

    def test_attestations_share_a_virtual_origin_across_senders(self):
        model = GossipPropagation(seed=4).bind(flat_schedule(), INDICES)
        recipients = np.arange(N)
        first, _ = model.delivery_times(
            batch_message(sender=1, sent_at=4.0), recipients, available_at=4.0
        )
        second, _ = model.delivery_times(
            batch_message(sender=30, sent_at=4.0), recipients, available_at=4.0
        )
        assert first.tobytes() == second.tobytes()

    def test_hop_memo_holds_one_distance_array(self):
        model = GossipPropagation(degree=6, seed=4).bind(flat_schedule(), INDICES)
        served = []
        for origin in range(50):
            served.append(weakref.ref(model.hops_from(origin)))
        gc.collect()
        assert sum(ref() is not None for ref in served) <= 1

    def test_repeated_origin_returns_equal_read_only_distances(self):
        model = GossipPropagation(degree=6, seed=4).bind(flat_schedule(), INDICES)
        first = model.hops_from(7).copy()
        model.hops_from(8)
        again = model.hops_from(7)
        assert np.array_equal(first, again)
        assert np.array_equal(again, model.hops_from(7))
        assert not again.flags.writeable

    def test_unbound_recipient_is_rejected_by_name(self):
        # Position -1 would otherwise read the last validator's distance.
        bound = [i for i in range(10) if i != 5]
        model = GossipPropagation(degree=4, seed=4).bind(flat_schedule(), bound)
        with pytest.raises(ValueError, match=r"\[5\]"):
            model.delivery_times(block_message(sender=0), [4, 5, 6], available_at=0.0)

    @pytest.mark.parametrize("grid", [T, None], ids=["phase-grid", "raw"])
    def test_negative_recipient_is_rejected_by_name(self, grid):
        # -1 would otherwise wrap to the highest index's position.
        model = GossipPropagation(degree=4, seed=4).bind(
            flat_schedule(), range(100), seconds_per_slot=grid
        )
        with pytest.raises(ValueError, match=r"\[-1\]"):
            model.delivery_times(block_message(sender=0), [-1], available_at=0.0)
        with pytest.raises(ValueError, match=r"\[-3, 100\]"):
            model.delivery_times(block_message(sender=0), [4, -3, 100], available_at=0.0)

    def test_recipient_above_the_largest_index_is_rejected_by_name(self):
        model = GossipPropagation(degree=4, seed=4).bind(flat_schedule(), range(10))
        with pytest.raises(ValueError, match=r"\[12\]"):
            model.delivery_times(block_message(sender=0), [3, 12], available_at=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GossipPropagation(degree=1)
        with pytest.raises(ValueError):
            GossipPropagation(hop_delay=(0.5, 0.1))


class TestFactory:
    def test_every_published_name_constructs(self):
        for name in LATENCY_MODEL_NAMES:
            assert isinstance(make_latency_model(name, seed=1), LatencyModel)

    def test_aliases_and_parameters_forward(self):
        assert isinstance(make_latency_model("fixed-jitter"), FixedJitter)
        assert isinstance(make_latency_model("log_normal"), LogNormalLatency)
        assert make_latency_model("gossip", degree=12).degree == 12
        assert make_latency_model("lognormal", sigma=0.9).sigma == 0.9

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown latency model"):
            make_latency_model("carrier-pigeon")

    def test_resolve_passthrough(self):
        assert resolve_latency_model(None) is None
        instance = FixedJitter()
        assert resolve_latency_model(instance) is instance
        assert isinstance(resolve_latency_model("gossip", seed=2), GossipPropagation)
        assert resolve_latency_model("gossip", seed=2).seed == 2


def deque_hops(neighbors: np.ndarray, start: int) -> np.ndarray:
    """Textbook queue BFS over the padded overlay (pads point past the end)."""
    n = len(neighbors)
    hops = np.full(n, -1, dtype=np.int64)
    hops[start] = 0
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for peer in neighbors[here]:
            if peer < n and hops[peer] < 0:
                hops[peer] = hops[here] + 1
                queue.append(int(peer))
    return hops


def set_based_overlay(n: int, degree: int, seed: int) -> np.ndarray:
    """The original per-peer set construction of the gossip overlay."""
    rng = np.random.default_rng(seed)
    neighbor_sets = [set() for _ in range(n)]
    if n > 1:
        for pos in range(n):
            neighbor_sets[pos].add((pos + 1) % n)
            neighbor_sets[(pos + 1) % n].add(pos)
        extra = max(0, degree - 2)
        if extra:
            targets = rng.integers(0, n, size=(n, extra))
            for pos in range(n):
                for target in targets[pos]:
                    if target != pos:
                        neighbor_sets[pos].add(int(target))
                        neighbor_sets[int(target)].add(pos)
    width = max((len(s) for s in neighbor_sets), default=1) or 1
    adjacency = np.full((n, width), n, dtype=np.int64)
    for pos, peers in enumerate(neighbor_sets):
        adjacency[pos, : len(peers)] = sorted(peers)
    return adjacency


def unique_based_overlay(n: int, degree: int, seed: int) -> np.ndarray:
    """The overlay built from ``np.unique`` over the directed-edge keys."""
    if n <= 1:
        return np.full((n, 1), n, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    ring = (pos + 1) % n
    sources, targets = [pos, ring], [ring, pos]
    extra = max(0, degree - 2)
    if extra:
        drawn = np.random.default_rng(seed).integers(0, n, size=(n, extra)).ravel()
        owners = np.repeat(pos, extra)
        keep = drawn != owners
        sources += [owners[keep], drawn[keep]]
        targets += [drawn[keep], owners[keep]]
    keys = np.unique(np.concatenate(sources) * n + np.concatenate(targets))
    rows, peers = np.divmod(keys, n)
    lengths = np.bincount(rows, minlength=n)
    starts = np.cumsum(lengths) - lengths
    adjacency = np.full((n, int(lengths.max())), n, dtype=np.int64)
    adjacency[rows, np.arange(len(keys)) - starts[rows]] = peers
    return adjacency


class TestGossipOverlay:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        degree=st.integers(2, 10),
        seed=st.integers(0, 2 ** 32 - 1),
        origin=st.integers(-3, 310),
    )
    def test_bfs_matches_a_queue_bfs(self, n, degree, seed, origin):
        model = GossipPropagation(degree=degree, seed=seed).bind(
            flat_schedule(), range(n)
        )
        start = origin if 0 <= origin < n else 0  # unknown origins use position 0
        hops = model.hops_from(origin)
        expected = deque_hops(model._neighbors, start)
        assert hops.dtype == np.int64
        assert np.array_equal(hops, expected)
        assert np.all(hops >= 0)

    @pytest.mark.parametrize("degree", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257, 10_000])
    def test_vectorized_build_matches_the_set_based_build(self, n, degree):
        model = GossipPropagation(degree=degree, seed=n + degree).bind(
            flat_schedule(), range(n)
        )
        expected = set_based_overlay(n, degree, seed=n + degree)
        assert model._neighbors.dtype == expected.dtype
        assert model._neighbors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31 + 5])
    @pytest.mark.parametrize("degree", [2, 3, 8, 12])
    @pytest.mark.parametrize("n", [1, 2, 40, 10_000])
    def test_sorted_dedup_matches_np_unique(self, n, degree, seed):
        model = GossipPropagation(degree=degree, seed=seed).bind(flat_schedule(), range(n))
        expected = unique_based_overlay(n, degree, seed)
        assert model._neighbors.dtype == expected.dtype
        assert model._neighbors.tobytes() == expected.tobytes()


def full_sampling(model: LatencyModel, message: Message, recipients, available_at):
    """The oracle of phase settling: sample every recipient, then quantize."""
    recipients = np.asarray(recipients, dtype=np.int64)
    avail = model.availability(message.sender, recipients, available_at)
    raw = avail + model._latencies(message, recipients, float(available_at))
    return quantize_to_phase(raw, model.seconds_per_slot), avail


def assert_settled_matches_full_sampling(model, message, recipients, available_at):
    times, avail = model.delivery_times(message, recipients, available_at)
    expected, expected_avail = full_sampling(model, message, recipients, available_at)
    assert avail.tobytes() == expected_avail.tobytes()
    assert times.tobytes() == expected.tobytes()


def wide_split_schedule(n: int, gst: float) -> PartitionSchedule:
    """Two partitions of ``n`` validators with a few bridges at the top."""
    cut, top = (n * 9) // 20, (n * 9) // 10
    return PartitionSchedule(
        partitions=(
            Partition("branch-1", frozenset(range(0, cut))),
            Partition("branch-2", frozenset(range(cut, top))),
        ),
        gst=gst,
        delta=2.0,
    )


def phase_messages(send_times, n: int):
    """A block and an attestation at each send time."""
    for i, sent_at in enumerate(send_times):
        sender = (i * 37) % n
        yield Message.block(BeaconBlock.genesis(), sender=sender, sent_at=sent_at)
        yield batch_message(sender=sender, sent_at=sent_at)


#: Hop delays whose multiples land exactly on ``T/3`` or ``T``: 2*2.0 and
#: 4*1.0 are ``T/3``, 6*2.0 and 12*1.0 are ``T``.  Degenerate ranges make
#: every sample a k-term sum that may round across the product ``k*lo``.
BOUNDARY_HOP_DELAYS = [
    (1.0, 2.0),
    (2.0, 4.0),
    (0.0, 4.0),
    (4.0, 4.0),
    (1.0, 1.0),
    (4.0 / 3.0, 4.0 / 3.0),
    (0.1, 0.1),
    (0.4, 0.4),
    (0.3, 0.6),
]

#: Send times on phase boundaries, just off them, and near 1e6 s (a leak
#: horizon's scale, where one ulp of the time is ~1e-10 s).
BOUNDARY_SEND_TIMES = [
    0.0,
    T / 3,
    T,
    5 * T + T / 3,
    7 * T - 1e-9,
    83_333 * T,
    83_333 * T + T / 3,
    1e6 - 4.0,
    1e6,
    150_000 * T + T / 3,
]


class TestSettledPhases:
    """Phase settling from latency bounds equals sampling every recipient."""

    @settings(max_examples=80, deadline=None)
    @given(
        degree=st.integers(2, 10),
        lo=st.floats(0.0, 3.0),
        spread=st.floats(0.0, 3.0),
        seed=st.integers(0, 2 ** 32 - 1),
        slot=st.integers(0, 100),
        offset=st.one_of(
            st.sampled_from([0.0, T / 3]), st.floats(0.0, T, exclude_max=True)
        ),
        gst_slot=st.integers(0, 100),
        partitioned=st.booleans(),
    )
    def test_gossip_matches_full_sampling(
        self, degree, lo, spread, seed, slot, offset, gst_slot, partitioned
    ):
        n = 150
        schedule = (
            wide_split_schedule(n, gst=gst_slot * T) if partitioned else flat_schedule()
        )
        model = GossipPropagation(
            degree=degree, hop_delay=(lo, lo + spread), seed=seed
        ).bind(schedule, range(n), seconds_per_slot=T)
        for message in phase_messages([slot * T + offset], n):
            assert_settled_matches_full_sampling(
                model, message, np.arange(n), message.sent_at
            )

    @pytest.mark.parametrize("partitioned", [False, True], ids=["flat", "split"])
    @pytest.mark.parametrize("hop_delay", BOUNDARY_HOP_DELAYS, ids=str)
    def test_gossip_on_boundary_grids(self, hop_delay, partitioned):
        # Degree 2 is the bare ring: hop counts run up to n/2.
        n = 97
        gst = 83_333 * T + T / 3
        schedule = wide_split_schedule(n, gst=gst) if partitioned else flat_schedule()
        for degree in (2, 6):
            model = GossipPropagation(degree=degree, hop_delay=hop_delay, seed=5).bind(
                schedule, range(n), seconds_per_slot=T
            )
            for message in phase_messages(BOUNDARY_SEND_TIMES, n):
                assert_settled_matches_full_sampling(
                    model, message, np.arange(n), message.sent_at
                )

    @pytest.mark.parametrize(
        "base,jitter",
        [(1.0, 3.0), (4.0, 0.0), (0.0, 4.0), (0.0, 12.0), (2.0, 10.0), (0.2, 0.4), (3.0, 9.0)],
    )
    def test_fixed_jitter_on_boundary_grids(self, base, jitter):
        model = FixedJitter(base=base, jitter=jitter, seed=3).bind(
            split_schedule(gst=83_333 * T), INDICES, seconds_per_slot=T
        )
        for message in phase_messages(BOUNDARY_SEND_TIMES, N):
            assert_settled_matches_full_sampling(
                model, message, np.arange(N), message.sent_at
            )

    @pytest.mark.parametrize("build", ALL_MODELS)
    def test_every_model_matches_full_sampling(self, build):
        # Uniform and log-normal state no bounds and take the sampled path.
        model = build().bind(split_schedule(gst=5 * T), INDICES, seconds_per_slot=T)
        for message in phase_messages([0.0, T / 3, 4 * T, 6 * T + T / 3], N):
            assert_settled_matches_full_sampling(
                model, message, np.arange(N), message.sent_at
            )

    def test_empty_audience(self):
        model = GossipPropagation(seed=1).bind(flat_schedule(), INDICES, seconds_per_slot=T)
        times, avail = model.delivery_times(block_message(), [], available_at=0.0)
        assert times.shape == avail.shape == (0,)

    @pytest.mark.parametrize(
        "hop_delay,send_times,sampled",
        [
            ((0.05, 0.2), [0.0, 2.0, 7 * T + 2.5], "none"),
            ((0.282, 0.846), [0.0, 2.0, 7 * T + 2.5], "some"),
            # Every arrival sits exactly on a boundary, inside the margin.
            ((T, T), [0.0, T / 3], "all"),
        ],
    )
    def test_only_straddling_recipients_are_sampled(self, hop_delay, send_times, sampled):
        n = 2000
        model = GossipPropagation(hop_delay=hop_delay, seed=11).bind(
            flat_schedule(), range(n), seconds_per_slot=T
        )
        rows = []
        sample = model._hop_latencies
        model._hop_latencies = lambda key, ids, hops: (
            rows.append(len(ids)) or sample(key, ids, hops)
        )
        messages = list(phase_messages(send_times, n))
        settled = [model.delivery_times(m, np.arange(n), m.sent_at)[0] for m in messages]
        sampled_rows = sum(rows)
        for message, times in zip(messages, settled):
            expected, _ = full_sampling(model, message, np.arange(n), message.sent_at)
            assert times.tobytes() == expected.tobytes()
        total = len(messages) * n
        if sampled == "none":
            assert sampled_rows == 0
        elif sampled == "all":
            assert sampled_rows == total
        else:
            assert 0 < sampled_rows < total
