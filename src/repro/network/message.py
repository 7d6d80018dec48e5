"""Message envelopes exchanged between validator nodes.

Votes have one wire format: an
:class:`~repro.core.attestation_batch.AttestationBatch`, whether it
carries a whole committee's identical votes or one validator's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from repro.core.attestation_batch import AttestationBatch
from repro.spec.block import BeaconBlock

_message_counter = itertools.count()


class MessageKind(str, Enum):
    """The payload kinds circulating on the gossip network.

    ``ATTESTATION_BATCH`` carries one cluster's identical votes as one
    flat-array payload: a committee's honest votes, the adversary's
    coordinated votes (one batch per branch), or a lone validator's vote
    as a one-row batch.  Slashing evidence has no kind of its own: it
    travels inside blocks (``block.slashing_evidence``).
    """

    BLOCK = "block"
    ATTESTATION_BATCH = "attestation_batch"


Payload = Union[BeaconBlock, AttestationBatch]


@dataclass(frozen=True)
class Message:
    """A signed message in flight on the network.

    ``sender`` is the validator index of the originator; the digital
    signature of the real protocol is modelled by the unforgeability
    assumption of the system model (Section 2), so the envelope simply
    carries the sender identity.
    """

    kind: MessageKind
    payload: Payload
    sender: int
    sent_at: float
    message_id: int = field(default_factory=lambda: next(_message_counter))

    @staticmethod
    def block(block: BeaconBlock, sender: int, sent_at: float) -> "Message":
        """Wrap a block proposal."""
        return Message(MessageKind.BLOCK, block, sender, sent_at)

    @staticmethod
    def attestation_batch(
        batch: AttestationBatch, sender: int, sent_at: float
    ) -> "Message":
        """Wrap an attestation batch (sender: any batch member)."""
        return Message(MessageKind.ATTESTATION_BATCH, batch, sender, sent_at)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Message(kind={self.kind.value}, sender={self.sender}, t={self.sent_at})"


@dataclass(frozen=True)
class Delivery:
    """A scheduled delivery of a message to a recipient."""

    message: Message
    recipient: int
    deliver_at: float

    def __lt__(self, other: "Delivery") -> bool:
        return (self.deliver_at, self.message.message_id, self.recipient) < (
            other.deliver_at,
            other.message.message_id,
            other.recipient,
        )
