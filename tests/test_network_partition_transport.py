"""Tests for repro.network.partition, transport and adversary."""

import pytest

from repro.network.adversary import Adversary
from repro.network.latency import FixedJitter, UniformDelay
from repro.network.message import Message
from repro.network.partition import Partition, PartitionSchedule
from repro.network.transport import Network
from repro.spec.block import BeaconBlock


def block_message(sender: int, sent_at: float = 0.0) -> Message:
    return Message.block(BeaconBlock.genesis(), sender=sender, sent_at=sent_at)


@pytest.fixture
def schedule():
    """Validators 0-3 in branch-1, 4-7 in branch-2, 8-9 Byzantine bridges, GST=1000."""
    return PartitionSchedule(
        partitions=(
            Partition("branch-1", frozenset({0, 1, 2, 3})),
            Partition("branch-2", frozenset({4, 5, 6, 7})),
        ),
        gst=1000.0,
        delta=2.0,
    )


class TestPartitionSchedule:
    def test_partition_of(self, schedule):
        assert schedule.partition_of(0) == "branch-1"
        assert schedule.partition_of(5) == "branch-2"
        assert schedule.partition_of(8) is None

    def test_is_bridge(self, schedule):
        assert schedule.is_bridge(9)
        assert not schedule.is_bridge(0)

    def test_communication_within_partition_before_gst(self, schedule):
        assert schedule.can_communicate(0, 1, time=10.0)

    def test_no_communication_across_partitions_before_gst(self, schedule):
        assert not schedule.can_communicate(0, 4, time=10.0)

    def test_bridge_reaches_both_sides_before_gst(self, schedule):
        assert schedule.can_communicate(8, 0, time=10.0)
        assert schedule.can_communicate(8, 4, time=10.0)
        assert schedule.can_communicate(0, 8, time=10.0)

    def test_everyone_communicates_after_gst(self, schedule):
        assert schedule.can_communicate(0, 4, time=1000.0)

    def test_delivery_time_within_partition(self, schedule):
        assert schedule.delivery_time(0, 1, sent_at=10.0) == pytest.approx(12.0)

    def test_delivery_time_across_partition_deferred_to_gst(self, schedule):
        assert schedule.delivery_time(0, 4, sent_at=10.0) == pytest.approx(1002.0)

    def test_rejects_overlapping_partitions(self):
        with pytest.raises(ValueError):
            PartitionSchedule(
                partitions=(
                    Partition("a", frozenset({0, 1})),
                    Partition("b", frozenset({1, 2})),
                ),
                gst=10.0,
            )

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            PartitionSchedule(partitions=(), gst=0.0, delta=0.0)

    def test_two_way_split_respects_fraction(self):
        schedule = PartitionSchedule.two_way_split(
            honest_indices=list(range(10)), active_fraction=0.3, gst=100.0
        )
        assert len(schedule.members_of("branch-1")) == 3
        assert len(schedule.members_of("branch-2")) == 7

    def test_two_way_split_excludes_bridges(self):
        schedule = PartitionSchedule.two_way_split(
            honest_indices=list(range(10)),
            active_fraction=0.5,
            gst=100.0,
            bridge_indices=[8, 9],
        )
        members = schedule.members_of("branch-1") | schedule.members_of("branch-2")
        assert 8 not in members and 9 not in members

    def test_fully_connected(self):
        schedule = PartitionSchedule.fully_connected()
        assert schedule.can_communicate(0, 99, time=0.0)

    def test_members_of_unknown_partition(self, schedule):
        with pytest.raises(KeyError):
            schedule.members_of("nope")


class TestNetwork:
    def test_broadcast_reaches_partition_members_quickly(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.broadcast(block_message(0, sent_at=0.0), exclude={0})
        deliveries = network.deliveries_until(schedule.delta)
        recipients = {d.recipient for d in deliveries}
        # Partition members and bridge nodes get it within delta.
        assert {1, 2, 3, 8, 9} <= recipients
        assert recipients.isdisjoint({4, 5, 6, 7})

    def test_cross_partition_messages_arrive_after_gst(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.broadcast(block_message(0, sent_at=0.0), exclude={0})
        network.deliveries_until(100.0)
        late = network.deliveries_until(schedule.gst + schedule.delta)
        assert {d.recipient for d in late} == {4, 5, 6, 7}

    def test_send_point_to_point(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.send(block_message(0, sent_at=5.0), recipient=2)
        deliveries = network.deliveries_until(10.0)
        assert len(deliveries) == 1
        assert deliveries[0].recipient == 2

    def test_restricted_broadcast(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.broadcast(block_message(8, sent_at=0.0), recipients=[0, 1], exclude={8})
        recipients = {d.recipient for d in network.deliveries_until(10.0)}
        assert recipients == {0, 1}

    def test_withhold_and_release(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        message = block_message(8, sent_at=0.0)
        network.withhold(message, recipient=0)
        assert network.withheld_count() == 1
        assert network.deliveries_until(100.0) == []
        released = network.release_withheld(release_time=50.0)
        assert released == 1
        deliveries = network.deliveries_until(60.0)
        assert [d.recipient for d in deliveries] == [0]

    def test_stats_counters(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.broadcast(block_message(0, sent_at=0.0), exclude={0})
        network.deliveries_until(2000.0)
        assert network.stats.sent == 1
        assert network.stats.delivered == 9
        assert network.stats.delayed_across_partition == 4

    def test_next_delivery_time(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        assert network.next_delivery_time() is None
        network.send(block_message(0, sent_at=3.0), recipient=1)
        assert network.next_delivery_time() == pytest.approx(5.0)

    @pytest.mark.parametrize("delta", [0.5, 2.0, 3.5])
    def test_uniform_delay_bound_is_the_schedule_delta(self, delta):
        # UniformDelay has no bound of its own: in-partition deliveries land
        # schedule.delta after the send, exactly as with no model at all.
        schedule = PartitionSchedule(
            partitions=(
                Partition("branch-1", frozenset({0, 1, 2, 3})),
                Partition("branch-2", frozenset({4, 5, 6, 7})),
            ),
            gst=1000.0,
            delta=delta,
        )
        deliveries = {}
        for model in (None, UniformDelay()):
            network = Network(schedule, participants=list(range(10)), latency_model=model)
            network.broadcast(block_message(0, sent_at=1.0), exclude={0})
            deliveries[model is None] = sorted(
                (d.recipient, d.deliver_at) for d in network.deliveries_until(2000.0)
            )
        assert deliveries[True] == deliveries[False]
        times = dict(deliveries[True])
        for recipient in (1, 2, 3, 8, 9):
            assert times[recipient] == pytest.approx(1.0 + delta)
        for recipient in (4, 5, 6, 7):
            assert times[recipient] == pytest.approx(schedule.gst + delta)


class TestDelayAccounting:
    """The delay counters are disjoint by cause.

    ``delayed_across_partition`` counts only deliveries the partition
    schedule held to GST; deliberate sender-side delays and latency-model
    delays have their own counters and never leak into it.
    """

    def test_send_delayed_counts_as_adversary_delay(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.send_delayed(block_message(0, sent_at=0.0), recipient=1, delay=5.0)
        assert network.stats.adversary_delayed == 1
        assert network.stats.delayed_across_partition == 0
        assert network.stats.lazy_delayed == 0
        # Partition rules apply from the delayed instant.
        assert network.next_delivery_time() == pytest.approx(5.0 + schedule.delta)

    def test_send_delayed_across_partition_counts_both_causes(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.send_delayed(block_message(0, sent_at=0.0), recipient=4, delay=5.0)
        assert network.stats.adversary_delayed == 1
        assert network.stats.delayed_across_partition == 1
        assert network.next_delivery_time() == pytest.approx(
            schedule.gst + schedule.delta
        )

    def test_lazy_broadcast_counts_once_per_publication(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        network.broadcast(block_message(0, sent_at=0.0), exclude={0}, delay=2.0)
        network.broadcast(block_message(1, sent_at=12.0), exclude={1})
        assert network.stats.lazy_delayed == 1
        assert network.stats.adversary_delayed == 0
        # The lazy copy still lands delta after its *effective* send time.
        in_partition = [
            d for d in network.deliveries_until(100.0) if d.message.sender == 0
        ]
        assert all(d.deliver_at == pytest.approx(2.0 + schedule.delta) for d in in_partition)

    def test_latency_model_delays_have_their_own_counter(self, schedule):
        # base=5s exceeds delta=2s for every recipient; an unbound model
        # is auto-bound without a phase grid, so delivery times are raw.
        network = Network(
            schedule,
            participants=list(range(10)),
            latency_model=FixedJitter(base=5.0, jitter=0.0, seed=1),
        )
        network.broadcast(block_message(0, sent_at=0.0), exclude={0}, recipients=[1, 2, 3])
        assert network.stats.latency_delayed == 3
        assert network.stats.delayed_across_partition == 0
        assert network.stats.adversary_delayed == 0
        deliveries = network.deliveries_until(100.0)
        assert all(d.deliver_at == pytest.approx(5.0) for d in deliveries)

    def test_modeled_cross_partition_still_held_to_gst(self, schedule):
        network = Network(
            schedule,
            participants=list(range(10)),
            latency_model=FixedJitter(base=0.1, jitter=0.0, seed=1),
        )
        network.broadcast(block_message(0, sent_at=0.0), exclude={0})
        assert network.stats.delayed_across_partition == 4  # branch-2
        assert network.stats.latency_delayed == 0  # 0.1s < delta
        late = [d for d in network.deliveries_until(10_000.0) if d.recipient in {4, 5, 6, 7}]
        assert all(d.deliver_at >= schedule.gst for d in late)

    def test_sub_delta_model_is_not_counted_as_delayed(self, schedule):
        network = Network(
            schedule,
            participants=list(range(10)),
            latency_model=FixedJitter(base=0.2, jitter=0.4, seed=1),
        )
        network.broadcast(block_message(0, sent_at=0.0), exclude={0}, recipients=[1, 2, 3])
        assert network.stats.latency_delayed == 0


class TestAdversary:
    @pytest.fixture
    def adversary(self, schedule):
        network = Network(schedule, participants=list(range(10)))
        return Adversary(byzantine_indices={8, 9}, network=network, schedule=schedule)

    def test_honest_members_of(self, adversary):
        assert adversary.honest_members_of("branch-1") == {0, 1, 2, 3}

    def test_controls(self, adversary):
        assert adversary.controls(8)
        assert not adversary.controls(0)

    def test_unaffected_by_partition(self, adversary):
        assert adversary.is_unaffected_by_partition()

    def test_send_to_partition_targets_one_side(self, adversary):
        # Senders receive their own messages through the network like any
        # other member of their view (uniform delivery keeps view groups
        # bit-identical), so 8 appears among the recipients.
        adversary.send_to_partition(block_message(8, sent_at=0.0), "branch-1")
        recipients = {d.recipient for d in adversary.network.deliveries_until(10.0)}
        assert recipients <= {0, 1, 2, 3, 8, 9}
        assert recipients.isdisjoint({4, 5, 6, 7})

    def test_broadcast_everywhere(self, adversary):
        adversary.broadcast_everywhere(block_message(8, sent_at=0.0))
        recipients = {d.recipient for d in adversary.network.deliveries_until(10.0)}
        assert {0, 1, 2, 3, 4, 5, 6, 7, 8, 9} == recipients

    def test_withhold_and_release_all(self, adversary):
        # Withholding is uniform too: the sender's own copy is withheld and
        # released along with everyone else's.
        adversary.withhold(block_message(8, sent_at=0.0), recipients=[0, 1, 8])
        assert adversary.network.withheld_count() == 3
        count = adversary.release_all(release_time=20.0)
        assert count == 3
        assert {d.recipient for d in adversary.network.deliveries_until(30.0)} == {0, 1, 8}

    def test_endpoint_resolver_collapses_audiences(self, adversary):
        # With a resolver mapping every validator of a side to one endpoint
        # (its view group's representative), targeted sends schedule one
        # delivery per group instead of one per validator.
        representative = {i: 0 for i in (0, 1, 2, 3)}
        representative.update({i: 4 for i in (4, 5, 6, 7)})
        representative.update({8: 8, 9: 8})
        adversary.set_endpoint_resolver(representative.__getitem__)
        adversary.send_to_partition(block_message(8, sent_at=0.0), "branch-1")
        recipients = [d.recipient for d in adversary.network.deliveries_until(10.0)]
        assert sorted(recipients) == [0, 8]

    def test_byzantine_count(self, adversary):
        assert adversary.byzantine_count() == 2
