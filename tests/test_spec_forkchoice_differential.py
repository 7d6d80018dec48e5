"""Position-indexed fork choice equals the dictionary fork choice it replaced.

The oracle here is the earlier implementation, kept verbatim in spirit:
vote weights as a ``Root -> float`` dict (weighted ``bincount``, voted
roots from ``np.unique``), subtree weights from one pass over the blocks
sorted by descending slot, and a GHOST walk over ``children_of`` lists.
Random forked trees with fractional stakes, blocks delivered late (their
descendants pend), justified-root moves, weight refreshes and
``split_clone`` calls drive a view node; after every step each live node's
head and the ``branch_weight`` of every block must equal the oracle's,
bit for bit.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np
import pytest

from repro.core.attestation_batch import AttestationBatch
from repro.network.message import Message
from repro.sim.node import Node
from repro.spec.block import BeaconBlock
from repro.spec.checkpoint import Checkpoint, GENESIS_CHECKPOINT
from repro.spec.config import SpecConfig
from repro.spec.forkchoice import Store
from repro.spec.types import GENESIS_ROOT, Root
from repro.spec.validator import make_registry

N_VALIDATORS = 24


# ----------------------------------------------------------------------
# The oracle: the dictionary fork choice
# ----------------------------------------------------------------------
def oracle_vote_weights(store: Store, eligible_stakes: np.ndarray) -> Dict[Root, float]:
    limit = min(store._latest_epoch.shape[0], eligible_stakes.shape[0])
    if limit == 0:
        return {}
    valid = store._latest_epoch[:limit] >= 0
    if not valid.any():
        return {}
    roots = store._latest_root[:limit][valid]
    totals = np.bincount(
        roots,
        weights=np.asarray(eligible_stakes, dtype=float)[:limit][valid],
        minlength=len(store._interner),
    )
    return {
        store._interner.root_of(int(root_id)): float(totals[int(root_id)])
        for root_id in np.unique(roots)
    }


def oracle_subtree_weights(store: Store, weights: Dict[Root, float]) -> Dict[Root, float]:
    subtree: Dict[Root, float] = {}
    for block in sorted(store.tree.blocks(), key=lambda b: b.slot, reverse=True):
        total = weights.get(block.root, 0.0)
        for child in store.tree.children_of(block.root):
            total += subtree[child]
        subtree[block.root] = total
    return subtree


def oracle_head(store: Store, subtree: Dict[Root, float]) -> Root:
    head = store.justified_checkpoint.root
    if head not in store.tree:
        head = store.tree.genesis_root
    while True:
        children = store.tree.children_of(head)
        if not children:
            return head
        head = max(children, key=lambda child: (subtree[child], child.hex))


def assert_matches_oracle(node: Node) -> None:
    store = node.store
    subtree = oracle_subtree_weights(store, oracle_vote_weights(store, node._fc_stakes))
    expected = oracle_head(store, subtree)
    assert node.head() == expected
    assert store.get_head_weighted(node._fc_stakes) == expected
    assert set(store.tree.roots) == set(subtree)
    for root, weight in subtree.items():
        # ``==`` on floats: equal bit for bit (no NaNs arise here).
        assert node.branch_weight(root) == weight


# ----------------------------------------------------------------------
# The random driver
# ----------------------------------------------------------------------
def make_node(rng: random.Random, ties: bool) -> Node:
    config = SpecConfig.minimal()
    registry = make_registry(N_VALIDATORS, config)
    for validator in registry:
        if ties:
            # Few distinct stakes: equal-weight siblings are common.
            validator.stake = float(rng.choice((16, 32)))
        else:
            # Fractional stakes of mixed magnitude: any reassociated sum
            # would differ in the last bits.
            validator.stake = rng.uniform(0.5, 32.0) + 1.0 / (validator.index + 3)
    return Node(0, registry, config=config, members=range(N_VALIDATORS))


class _Run:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.nodes: List[Node] = [make_node(self.rng, ties=seed % 3 == 0)]
        self.blocks: List[BeaconBlock] = []
        self.held: List[BeaconBlock] = []
        self.slot = 0
        self.target_epoch = 0
        self.justified_epoch = 0

    def new_block(self) -> BeaconBlock:
        self.slot += 1
        parents = [GENESIS_ROOT] + [b.root for b in self.blocks[-8:]]
        block = BeaconBlock.create(
            slot=self.slot,
            proposer_index=self.rng.randrange(N_VALIDATORS),
            parent_root=self.rng.choice(parents),
            branch_tag=str(len(self.blocks)),
        )
        self.blocks.append(block)
        return block

    def votes(self) -> AttestationBatch:
        if self.rng.random() < 0.3:
            self.target_epoch += 1
        roots = [GENESIS_ROOT] + [b.root for b in self.blocks]
        size = self.rng.randint(1, 8)
        return AttestationBatch(
            slot=self.slot,
            head_root=self.rng.choice(roots),
            source=GENESIS_CHECKPOINT,
            target=Checkpoint(epoch=self.target_epoch, root=GENESIS_ROOT),
            validators=np.asarray(self.rng.sample(range(N_VALIDATORS), size)),
        )

    def step(self) -> None:
        rng = self.rng
        roll = rng.random()
        messages: List[Message] = []
        if roll < 0.35:
            block = self.new_block()
            if rng.random() < 0.25:
                self.held.append(block)
            else:
                messages.append(Message.block(block, sender=0, sent_at=0.0))
        elif roll < 0.45 and self.held:
            block = self.held.pop(rng.randrange(len(self.held)))
            messages.append(Message.block(block, sender=0, sent_at=0.0))
        elif roll < 0.8:
            batch = self.votes()
            messages.append(Message.attestation_batch(batch, sender=0, sent_at=0.0))
        elif roll < 0.87:
            # Move the justified root to some block one node knows.
            node = rng.choice(self.nodes)
            known = list(node.store.tree.roots)
            self.justified_epoch += 1
            node.store.update_checkpoints(
                Checkpoint(epoch=self.justified_epoch, root=rng.choice(known)),
                GENESIS_CHECKPOINT,
            )
        elif roll < 0.93:
            # New justified balances: the weight version moves.
            node = rng.choice(self.nodes)
            node._justified_stakes = node._justified_stakes * rng.uniform(0.9, 1.0)
            node._refresh_view_arrays()
        elif len(self.nodes) < 3:
            parent = rng.choice(self.nodes)
            self.nodes.append(parent.split_clone(parent.members, parent.validator_index))
        for message in messages:
            # Each view hears a message or misses it, so views diverge.
            for node in self.nodes:
                if len(self.nodes) == 1 or rng.random() < 0.8:
                    node.receive(message)


@pytest.mark.parametrize("seed", range(24))
def test_heads_and_branch_weights_equal_the_dictionary_oracle(seed):
    run = _Run(seed)
    for _ in range(120):
        run.step()
        for node in run.nodes:
            assert_matches_oracle(node)
    # The run must have built a real fork, not a chain.
    assert any(len(node.store.tree.leaves()) > 1 for node in run.nodes)


def test_an_exact_tie_breaks_by_root_hex():
    rng = random.Random(7)
    node = make_node(rng, ties=True)
    for validator in node.state.validators:
        validator.stake = 32.0
    node._justified_stakes = node.state.validators.stake.copy()
    node._refresh_view_arrays()
    left = BeaconBlock.create(slot=1, proposer_index=1, parent_root=GENESIS_ROOT, branch_tag="l")
    right = BeaconBlock.create(slot=1, proposer_index=2, parent_root=GENESIS_ROOT, branch_tag="r")
    for block in (left, right):
        node.receive(Message.block(block, sender=0, sent_at=0.0))
    for head, validators in ((left.root, [0, 1]), (right.root, [2, 3])):
        batch = AttestationBatch(
            slot=1, head_root=head, source=GENESIS_CHECKPOINT,
            target=Checkpoint(epoch=0, root=GENESIS_ROOT), validators=np.asarray(validators),
        )
        node.receive(Message.attestation_batch(batch, sender=0, sent_at=0.0))
    assert node.branch_weight(left.root) == node.branch_weight(right.root)
    assert node.head() == max(left.root, right.root, key=lambda root: root.hex)
    assert_matches_oracle(node)
