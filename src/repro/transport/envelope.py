"""Typed envelopes: the wire unit of the transport contract.

An :class:`Envelope` carries a *batch* of ``(relation, row)`` deltas from
one address to another, plus the per-delta tracer message ids that let
causal traces survive batching (see :mod:`repro.metrics.trace`).  The
pre-envelope network sent one message per tuple; REX-style delta
shipping batches every tuple a fixpoint produces for the same
destination into a single envelope — the :class:`Outbox` implements that
flush-on-fixpoint policy for nodes.

Envelopes also know how to encode themselves to bytes so the asyncio
backend can run over real TCP sockets, not just in-process queues: the
versioned, type-tagged frame of :mod:`repro.transport.codec`, whose value
domain is ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and
nested ``tuple``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import codec
from .base import Address, Delta

_HEADER_BYTES = 16  # per-envelope framing overhead charged by the model


def estimate_row_size(row: tuple) -> int:
    """Rough serialized size of one row (strings/bytes by length,
    scalars as machine words, nested tuples recursively)."""
    size = 8
    for value in row:
        if isinstance(value, (str, bytes)):
            size += len(value)
        elif isinstance(value, tuple):
            size += estimate_row_size(value)
        else:
            size += 8
    return size


def estimate_delta_size(relation: str, row: tuple) -> int:
    return len(relation) + estimate_row_size(row)


@dataclass(frozen=True)
class Envelope:
    """A batch of deltas on one (src, dst) link.

    ``mids`` runs parallel to ``deltas``: the tracer message id captured
    at buffer time for each traced delta (None when untraced), consumed
    at delivery to reopen child spans.  ``seq`` is the sender's per-link
    sequence number — debugging aid and FIFO witness.
    """

    src: Address
    dst: Address
    deltas: tuple[Delta, ...]
    mids: tuple[Optional[int], ...] = ()
    seq: int = 0
    size_bytes: int = field(default=0, compare=False)

    @staticmethod
    def make(
        src: Address,
        dst: Address,
        deltas: Iterable[Delta],
        mids: Iterable[Optional[int]] = (),
        seq: int = 0,
    ) -> "Envelope":
        deltas = tuple(deltas)
        mids = tuple(mids)
        if mids and len(mids) != len(deltas):
            raise ValueError("mids must parallel deltas")
        size = _HEADER_BYTES + sum(
            estimate_delta_size(rel, row) for rel, row in deltas
        )
        return Envelope(src, dst, deltas, mids, seq, size)

    @staticmethod
    def single(
        src: Address,
        dst: Address,
        relation: str,
        row: tuple,
        mid: Optional[int] = None,
        seq: int = 0,
    ) -> "Envelope":
        return Envelope.make(src, dst, ((relation, row),), (mid,), seq)

    def __len__(self) -> int:
        return len(self.deltas)

    def items(self) -> Iterable[tuple[str, tuple, Optional[int]]]:
        """Yield ``(relation, row, mid)`` triples, padding absent mids."""
        mids = self.mids if self.mids else (None,) * len(self.deltas)
        for (relation, row), mid in zip(self.deltas, mids):
            yield relation, row, mid

    # -- wire codec (asyncio TCP endpoints) -----------------------------------

    def encode(self) -> bytes:
        """The frame body for a TCP link (:mod:`repro.transport.codec`).
        Every row value must lie in the codec's domain — ``None``,
        ``bool``, ``int``, ``float``, ``str``, ``bytes``, nested
        ``tuple`` — or this raises :class:`~repro.transport.codec.CodecError`."""
        return codec.encode(
            self.src, self.dst, self.seq, self.size_bytes, self.deltas, self.mids
        )

    @staticmethod
    def decode(data: bytes) -> "Envelope":
        """The envelope a frame body carries, with the sender's
        ``size_bytes``; raises :class:`~repro.transport.codec.CodecError`
        on any frame outside the wire format."""
        return Envelope(*codec.decode(data))


class Outbox:
    """Per-node send buffers keyed by destination (per-link buffering).

    Nodes buffer every ``send`` here; the substrate flushes once per
    fixpoint/delivery unit, producing one envelope per destination in
    first-use order (deterministic).
    """

    def __init__(self, src: Address):
        self.src = src
        self._buffers: dict[Address, list[tuple[str, tuple, Optional[int]]]] = {}
        self._seq: dict[Address, int] = {}

    def add(
        self,
        dst: Address,
        relation: str,
        row: tuple,
        mid: Optional[int] = None,
    ) -> None:
        self._buffers.setdefault(dst, []).append((relation, row, mid))

    def __len__(self) -> int:
        return sum(len(buf) for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop everything unsent (the node crashed mid-step)."""
        self._buffers.clear()

    def _next_seq(self, dst: Address) -> int:
        seq = self._seq.get(dst, 0) + 1
        self._seq[dst] = seq
        return seq

    def flush(self) -> list[Envelope]:
        """Drain the buffers into envelopes, one per destination."""
        if not self._buffers:
            return []
        envelopes = [
            Envelope.make(
                self.src,
                dst,
                [(rel, row) for rel, row, _ in entries],
                [mid for _, _, mid in entries],
                seq=self._next_seq(dst),
            )
            for dst, entries in self._buffers.items()
        ]
        self._buffers.clear()
        return envelopes
