"""The derivation ledger: ring-buffered why-provenance records.

Every head tuple the (compiled) evaluator produces while provenance is
enabled appends one record here: which rule fired, in which stratum and
semi-naive pass of which timestep, the body tuples the join matched, and
the trace context the step ran under (so cross-node provenance can be
stitched through :mod:`repro.metrics.trace`).

Tuples that *enter* the node rather than being derived — inbox inserts,
timer firings, bootstrap installs — get entries too (kind ``input`` /
``timer`` / ``install``), which is how ``why()`` recognises EDB leaves
and remote origins.

The buffer is a fixed-capacity ring: old entries are evicted FIFO (the
``dropped`` counter records how many), so memory stays bounded on
long-running nodes at the cost of provenance horizon.  Retraction does
not delete entries — deleted or displaced tuples have their live entries
*tombstoned* (``retracted`` set to the reason and step), so a ``why()``
on a stale reading reports "this was derived, then retracted at step N"
instead of dangling.

Recording is the evaluator's per-derivation hot path, so the ring
stores each record as a plain list (one ``BUILD_LIST`` beats a dozen
slot stores).  A record's body is the ``((relation, row), ...)`` the
join matched, as the evaluator hands it over: rows are interned tuples,
so storing one is a tuple of references, and nothing is rebuilt or
re-probed when the record is read.  Readers get :class:`Derivation`
views, thin attribute wrappers over the raw record.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

Row = tuple

# Entry kinds.
RULE = "rule"          # head tuple derived by a (non-deferred) rule
NEXT = "next"          # head tuple deferred to the next step by @next
SEND = "send"          # head tuple shipped to another node (dest set)
INPUT = "input"        # arrived through the inbox (network / client)
TIMER = "timer"        # timer firing
INSTALL = "install"    # bootstrap install() outside any timestep

# Default ring capacity: enough for every scenario in the repo while
# keeping a ledger under a few MB per node.
DEFAULT_CAPACITY = 65_536

# Raw record field offsets.
_SEQ = 0
_KIND = 1
_RULE = 2
_STRATUM = 3
_PASS = 4
_REL = 5
_ROW = 6
_BODY = 7
_CTX = 8
_STEP = 9
_NOW = 10
_DEST = 11
_RETRACTED = 12


class Derivation:
    """Read-only view over one raw provenance record.  ``body`` is the
    tuple of ``(relation, row)`` pairs the rule body joined (empty for
    external kinds); ``ctx`` is the trace context of the step that
    produced it; ``retracted`` is None while the tuple is live, else
    ``(reason, step)``."""

    __slots__ = ("_raw",)

    def __init__(self, raw: list):
        self._raw = raw

    @property
    def seq(self) -> int:
        return self._raw[_SEQ]

    @property
    def kind(self) -> str:
        return self._raw[_KIND]

    @property
    def rule(self) -> Optional[str]:
        return self._raw[_RULE]

    @property
    def stratum(self) -> int:
        return self._raw[_STRATUM]

    @property
    def passno(self) -> int:
        return self._raw[_PASS]

    @property
    def rel(self) -> str:
        return self._raw[_REL]

    @property
    def row(self) -> Row:
        return self._raw[_ROW]

    @property
    def body(self) -> tuple:
        return self._raw[_BODY]

    @property
    def ctx(self) -> tuple:
        return self._raw[_CTX]

    @property
    def step(self) -> int:
        return self._raw[_STEP]

    @property
    def now_ms(self) -> int:
        return self._raw[_NOW]

    @property
    def dest(self) -> Any:
        return self._raw[_DEST]

    @property
    def retracted(self) -> Optional[tuple[str, int]]:
        return self._raw[_RETRACTED]

    def to_dict(self) -> dict:
        d = {
            "seq": self.seq,
            "kind": self.kind,
            "rule": self.rule,
            "stratum": self.stratum,
            "pass": self.passno,
            "relation": self.rel,
            "row": list(self.row),
            "body": [[rel, list(row)] for rel, row in self.body],
            "step": self.step,
            "now_ms": self.now_ms,
        }
        if self.ctx:
            d["trace"] = [str(ref) for ref in self.ctx]
        if self.dest is not None:
            d["dest"] = self.dest
        if self.retracted is not None:
            d["retracted"] = {
                "reason": self.retracted[0],
                "step": self.retracted[1],
            }
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tomb = f" RETRACTED{self.retracted}" if self.retracted else ""
        return (
            f"<Derivation #{self.seq} {self.kind} {self.rel}{self.row!r} "
            f"rule={self.rule} step={self.step}{tomb}>"
        )


class DerivationLedger:
    """Fixed-capacity ring of provenance records with a ``(relation,
    row) -> records`` index for ``why()`` lookups and a separate index
    of send entries for cross-node stitching."""

    def __init__(self, node: Any = "local", capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("ledger capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        self._ring: list[list] = []
        self._head = 0  # next eviction slot once the ring is full
        self._seq = 0
        self.dropped = 0
        self._by_tuple: dict[tuple[str, Row], list[list]] = {}
        self._sends: dict[tuple[str, Row], list[list]] = {}
        # Per-step stamps, set by begin_step before the evaluator runs.
        self._step = 0
        self._now_ms = 0
        self._ctx: tuple = ()

    def __len__(self) -> int:
        return len(self._ring)

    # -- stamping ------------------------------------------------------------

    def begin_step(self, step: int, now_ms: int, ctx: tuple) -> None:
        """Stamp the step number, clock and trace context every entry
        recorded until the next ``begin_step`` carries."""
        self._step = step
        self._now_ms = now_ms
        self._ctx = ctx

    # -- recording (hot path) ------------------------------------------------

    def record(
        self,
        kind: str,
        rule: Optional[str],
        stratum: int,
        passno: int,
        rel: str,
        row: Row,
        body: tuple,
        dest: Any = None,
    ) -> list:
        """Record one derivation under the current step stamps; ``body``
        is the ``((relation, row), ...)`` the rule body matched."""
        self._seq = seq = self._seq + 1
        rec = [
            seq, kind, rule, stratum, passno, rel, row, body,
            self._ctx, self._step, self._now_ms, dest, None,
        ]
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(rec)
        else:
            old = ring[self._head]
            ring[self._head] = rec
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1
            self._evict(old)
        index = self._sends if kind == SEND else self._by_tuple
        bucket = index.get((rel, row))
        if bucket is None:
            index[rel, row] = [rec]
        else:
            bucket.append(rec)
        return rec

    def record_external(
        self, kind: str, rel: str, row: Row, ctx: tuple = ()
    ) -> None:
        """Record a tuple that entered from outside the fixpoint (inbox
        insert, timer firing, bootstrap install)."""
        rec = self.record(kind, None, -1, 0, rel, row, (), None)
        if ctx:
            rec[_CTX] = tuple(ctx)

    def _evict(self, rec: list) -> None:
        index = self._sends if rec[_KIND] == SEND else self._by_tuple
        key = (rec[_REL], rec[_ROW])
        bucket = index.get(key)
        if bucket is not None:
            try:
                bucket.remove(rec)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not bucket:
                del index[key]

    def retract(self, rel: str, row: Row, reason: str) -> int:
        """Tombstone every live entry for ``(rel, row)``; returns how
        many were tombstoned."""
        bucket = self._by_tuple.get((rel, tuple(row)))
        if not bucket:
            return 0
        n = 0
        mark = (reason, self._step)
        for rec in bucket:
            if rec[_RETRACTED] is None:
                rec[_RETRACTED] = mark
                n += 1
        return n

    # -- lookups -------------------------------------------------------------

    def derivations_of(
        self, rel: str, row: Iterable[Any], live_only: bool = False
    ) -> list[Derivation]:
        """All recorded derivations of ``(rel, row)``, oldest first."""
        bucket = self._by_tuple.get((rel, tuple(row)), [])
        return [
            Derivation(r)
            for r in bucket
            if not live_only or r[_RETRACTED] is None
        ]

    def sends_of(self, rel: str, row: Iterable[Any]) -> list[Derivation]:
        """All send entries for ``(rel, row)``, oldest first."""
        return [Derivation(r) for r in self._sends.get((rel, tuple(row)), [])]

    def entries(self) -> list[Derivation]:
        """Every live-in-ring entry in sequence order (test/debug aid)."""
        return [Derivation(r) for r in sorted(self._ring, key=lambda r: r[_SEQ])]

    def stats(self) -> dict:
        return {
            "node": str(self.node),
            "entries": len(self._ring),
            "capacity": self.capacity,
            "dropped": self.dropped,
            "recorded": self._seq,
        }
