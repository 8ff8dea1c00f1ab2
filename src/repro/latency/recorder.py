"""Per-node flight recorder: bounded rings of recent activity.

Traces answer *where did the time go* for requests you thought to trace;
the flight recorder answers *what was this node just doing* when
something went wrong.  It keeps a bounded ring per node of recent
envelope sends/deliveries/drops, trace span events and the monitor's
signals (alarm firings and clears, invariant violations), and dumps a
deterministic JSONL post-mortem when a node crashes, an alarm fires or a
cluster invariant is violated (docs/OBSERVABILITY.md).

Determinism: entries carry a global sequence number and the transport
clock's virtual milliseconds — never wall time — and dumps are key-sorted
JSON, so a fixed-seed simulator run produces byte-identical post-mortems.
Envelope payloads are summarised (relation counts plus capped row reprs),
keeping entries bounded regardless of batch size.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Optional

#: Default per-node ring capacity (entries, not bytes).
DEFAULT_CAPACITY = 512

#: Max row reprs kept per envelope summary.
_ROWS_PER_ENVELOPE = 4
#: Max characters kept per row repr.
_ROW_REPR_CAP = 120

#: What can trigger a dump, as named in ``dump_on``.
DUMP_REASONS = ("crash", "alarm", "violation")

#: The dump reason each dumping monitor signal kind triggers (a clear
#: dumps nothing).
_SIGNAL_REASON = {"alarm": "alarm", "invariant_violation": "violation"}


class FlightRecorder:
    """Bounded per-node rings of recent envelopes, span events and the
    monitor's signals.

    Wire-up (the cluster's ``enable_flight_recorder`` does all three):

    * ``transport.recorder = recorder`` — envelope lifecycle entries;
    * ``tracer.add_listener(recorder.on_trace_event)`` — span events;
    * the monitor's signal hook / ``cluster.crash`` — triggering dumps.

    ``dump_on`` names the triggers, any of :data:`DUMP_REASONS`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[str] = None,
        dump_on: Iterable[str] = ("crash", "alarm"),
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        self.dump_on = tuple(dump_on)
        unknown = sorted(set(self.dump_on) - set(DUMP_REASONS))
        if unknown:
            raise ValueError(
                f"unknown dump_on reason(s) {unknown}; "
                f"choose from {', '.join(DUMP_REASONS)}"
            )
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self._clock = clock if clock is not None else (lambda: 0)
        self._rings: dict[str, deque] = {}
        self._seq = 0
        self._dump_n = 0
        # (node, name, subject) of every violation dumped so far.
        self._violation_dumped: set[tuple] = set()
        # (reason, node, path-or-None, text) per dump, newest last.
        self.dumps: list[tuple[str, str, Optional[str], str]] = []

    # -- recording ------------------------------------------------------------

    def _ring(self, node: str) -> deque:
        ring = self._rings.get(node)
        if ring is None:
            ring = self._rings[node] = deque(maxlen=self.capacity)
        return ring

    def record(self, node: str, kind: str, **fields) -> None:
        """Append one entry to ``node``'s ring."""
        self._seq += 1
        entry = {"seq": self._seq, "ms": self._clock(), "kind": kind}
        entry.update(fields)
        self._ring(node).append(entry)

    def record_envelope(self, node: str, kind: str, env, **fields) -> None:
        """Append a summarised envelope lifecycle entry (env_out/env_in/
        env_drop) to ``node``'s ring."""
        relations: dict[str, int] = {}
        rows: list[str] = []
        for relation, row in env.deltas:
            relations[relation] = relations.get(relation, 0) + 1
            if len(rows) < _ROWS_PER_ENVELOPE:
                rows.append(f"{relation}{row!r}"[:_ROW_REPR_CAP])
        self.record(
            node,
            kind,
            src=env.src,
            dst=env.dst,
            env_seq=env.seq,
            deltas=len(env.deltas),
            bytes=env.size_bytes,
            relations=dict(sorted(relations.items())),
            rows=rows,
            **fields,
        )

    def on_trace_event(self, event: dict) -> None:
        """Tracer listener: mirror span events into the originating
        node's ring (events without a node land in the trace's ring
        under the sender recorded on the event, else ``"?"``)."""
        node = str(event.get("node") or event.get("src") or "?")
        entry = {k: v for k, v in event.items() if k not in ("node", "kind")}
        self.record(node, f"trace_{event['kind']}", **entry)

    def on_signal(self, node: str, kind: str, row: tuple) -> None:
        """Record one monitor signal (an ``alarm`` firing, its ``clear``
        or an ``invariant_violation``) from ``node``.  An alarm dumps
        when ``"alarm"`` is in ``dump_on``; a violation, which
        re-derives every export round while the bad state persists,
        dumps only its first occurrence per (node, name, subject) when
        ``"violation"`` is."""
        name, subject = str(row[0]), str(row[1])
        self.record(node, kind, name=name, subject=subject)
        reason = _SIGNAL_REASON.get(kind)
        if reason not in self.dump_on:
            return
        if reason == "violation":
            key = (node, name, subject)
            if key in self._violation_dumped:
                return
            self._violation_dumped.add(key)
        self.dump(f"{reason}:{name}", node=node)

    def on_crash(self, node: str) -> None:
        """Record a node crash; auto-dumps when ``"crash"`` is in
        ``dump_on``."""
        self.record(node, "crash")
        if "crash" in self.dump_on:
            self.dump("crash", node=node)

    # -- dumping --------------------------------------------------------------

    def snapshot(self, node: Optional[str] = None) -> list[dict]:
        """The current ring contents (one node, or all nodes merged in
        global sequence order)."""
        if node is not None:
            return list(self._rings.get(node, ()))
        merged: list[dict] = []
        for ring in self._rings.values():
            merged.extend(ring)
        merged.sort(key=lambda e: e["seq"])
        return merged

    def to_jsonl(self, reason: str, node: Optional[str] = None) -> str:
        """Key-sorted JSONL post-mortem: a header line, then every
        surviving ring entry in global order (the crashed/alarmed node's
        entries tagged ``focus``)."""
        header = {
            "kind": "flight_dump",
            "reason": reason,
            "node": node,
            "ms": self._clock(),
            "nodes": sorted(self._rings),
        }
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        for entry in self.snapshot():
            if node is not None:
                entry = dict(entry, focus=entry in self._rings.get(node, ()))
            lines.append(
                json.dumps(entry, sort_keys=True, separators=(",", ":"))
            )
        return "\n".join(lines) + "\n"

    def dump(self, reason: str, node: Optional[str] = None) -> str:
        """Produce a post-mortem dump; writes ``flight-<n>.jsonl`` under
        ``directory`` when one is configured.  Returns the dump text."""
        text = self.to_jsonl(reason, node=node)
        self._dump_n += 1
        path: Optional[str] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            target = self.directory / f"flight-{self._dump_n}.jsonl"
            target.write_text(text)
            path = str(target)
        self.dumps.append((reason, node or "", path, text))
        return text


__all__ = ["DEFAULT_CAPACITY", "DUMP_REASONS", "FlightRecorder"]
