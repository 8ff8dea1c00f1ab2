"""Outside-in layer tracing: spans and counters around public entry points.

Nothing under ``src/`` knows about this module.  :meth:`LayerTracer.install`
replaces class attributes (and re-binds the imported ``parse`` function)
*before* a cluster is built; :meth:`LayerTracer.uninstall` puts the
originals back.  Each wrapped call becomes a span — layer, name,
start_ns, end_ns, span id, parent id (the enclosing wrapped call), node
and the request ids visible in its arguments — kept in memory and written
as JSONL when the run ends.

Self time of a span is its duration minus the part covered by child
spans, so the per-layer self times partition the covered time and
``wall - sum(self times)`` is the event loop's own cost.  ``Table.insert``
and ``Table.delete`` are far too hot for span objects: they only add to
counters, and their time is charged to the ``catalog`` layer and
subtracted from the enclosing span like any child.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Optional

# At most this many span records are kept for the JSONL file (the first
# ones of the measured phase, i.e. whole requests from its start); the
# per-layer aggregates always cover every call.
MAX_SPAN_RECORDS = 100_000

LAYERS = (
    "overlog.parse",
    "overlog.install",
    "overlog.tick",
    "overlog.other_tick",
    "catalog",
    "transport.flush",
    "transport.send",
    "transport.deliver",
    "codec.encode",
    "codec.decode",
    "boomfs.client",
    "mapreduce.user_fn",
)


def _rid_of(relation: str, row: tuple) -> Optional[int]:
    """The request id a delta carries, if it is one of the RPC rows."""
    if relation == "request":
        return row[0]
    if relation == "response":
        return row[1]
    if relation == "client_op":
        return row[1][0]
    return None


def _rid_tuple(relation: str, row: tuple) -> Optional[tuple]:
    rid = _rid_of(relation, row)
    return None if rid is None else (rid,)


@dataclass
class Ledger:
    """What the tracer had accumulated when a phase ended."""

    self_ns: dict[str, int]  # layer -> self time
    calls: dict[str, int]  # layer -> spans closed
    counts: dict[str, int]
    ticks: list[tuple[int, Any, int]]
    spans: list[tuple]
    gc_ns: int
    gc_gen2: int

    def covered_ns(self) -> int:
        return sum(self.self_ns.values())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for layer, name, start, end, span_id, parent, node, rids in self.spans:
                out.write(
                    json.dumps(
                        {
                            "layer": layer,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "id": span_id,
                            "parent": parent,
                            "node": node,
                            "rids": rids,
                        }
                    )
                )
                out.write("\n")


class LayerTracer:
    def __init__(self, primary_nodes: frozenset) -> None:
        # Overlog nodes whose ticks are the workload's server under test;
        # ticks elsewhere go to ``overlog.other_tick``.
        self.primary_nodes = primary_nodes
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        # (ops completed when the tick ran, node, duration_ns) per tick
        self.ticks: list[tuple[int, Any, int]] = []
        self.progress = 0  # ops completed so far; set by the load client
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []
        self._gc_start = 0

    # -- phases -----------------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh accounting phase (set-up spans stay out of the
        measured phase's numbers)."""
        assert not self._stack, "phase boundary inside a span"
        for layer in LAYERS:
            self.self_ns[layer] = 0
            self.calls[layer] = 0
        self.counts.clear()
        self.spans.clear()
        self.ticks.clear()
        self.progress = 0
        self.gc_ns = 0
        self.gc_gen2 = 0

    def snapshot(self) -> Ledger:
        """Freeze the current phase's numbers; later calls (verification,
        failover, shutdown) keep flowing through the wrappers."""
        assert not self._stack, "phase boundary inside a span"
        return Ledger(
            dict(self.self_ns), dict(self.calls), dict(self.counts),
            list(self.ticks), list(self.spans), self.gc_ns, self.gc_gen2,
        )

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -----------------------------------------------------------------

    def span(
        self,
        layer: Any,
        name: str,
        fn: Callable,
        node_of: Callable[[tuple], Any] = lambda args: None,
        rids_of: Callable[[tuple, Any], Any] = lambda args, result: None,
        on_close: Optional[Callable[[tuple, Any, int], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call is a span.  ``layer`` is a layer name
        or a function of the call's arguments giving one.  ``rids_of`` and
        ``on_close(args, result, duration_ns)`` see the result, which is
        None if the call raised."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        layer_of = layer if callable(layer) else (lambda args: layer)

        def wrapper(*args, **kwargs):
            self._next_id = span_id = self._next_id + 1
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                in_layer = layer_of(args)
                self_ns[in_layer] += duration - frame[1]
                calls[in_layer] += 1
                if stack:
                    stack[-1][1] += duration
                if on_close is not None:
                    on_close(args, result, duration)
                if len(spans) < MAX_SPAN_RECORDS:
                    spans.append(
                        (in_layer, name, start, end, span_id, parent,
                         node_of(args), rids_of(args, result))
                    )

        return wrapper

    def _catalog_wrapper(self, fn: Callable, key: str, changed) -> Callable:
        """``Table.insert`` / ``Table.delete``: counters only."""
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        attempts_key = f"catalog.{key}"
        changed_key = f"catalog.{key}_changed"

        def call(table, row):
            start = perf_counter_ns()
            result = fn(table, row)
            duration = perf_counter_ns() - start
            self_ns["catalog"] += duration
            if stack:
                stack[-1][1] += duration
            counts[attempts_key] = counts.get(attempts_key, 0) + 1
            if changed(result):
                counts[changed_key] = counts.get(changed_key, 0) + 1
            return result

        return call

    def client_span(
        self, name: str, node: Any, rid: int, start_ns: int, end_ns: int
    ) -> None:
        """The client's issue -> callback interval.  It overlaps the
        server-side spans that carry the same rid, so it has no part in
        the self-time accounting."""
        if len(self.spans) < MAX_SPAN_RECORDS:
            self._next_id += 1
            self.spans.append(
                ("client", name, start_ns, end_ns, self._next_id, 0, node, (rid,))
            )

    # -- patching -------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Patch every layer's public entry points.  Call before the
        cluster is built: evaluators bind table methods at plan time."""
        from repro.boomfs.client import FSSession
        from repro.overlog import parser
        from repro.overlog.catalog import Table
        from repro.overlog.runtime import OverlogRuntime
        from repro.sim.node import Process
        from repro.transport.asyncio_backend import LocalAsyncTransport
        from repro.transport.envelope import Envelope, Outbox
        from repro.transport.sim_transport import SimTransport

        # ``parse`` is imported by name all over the package: re-bind
        # every module-level reference to the wrapper.
        parse = parser.parse
        traced_parse = self.span("overlog.parse", "parse", parse)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and getattr(module, "parse", None) is parse:
                self._patch(module, "parse", traced_parse)

        self._patch(
            OverlogRuntime,
            "__init__",
            self.span(
                "overlog.install",
                "OverlogRuntime.__init__",
                OverlogRuntime.__init__,
                node_of=lambda a: getattr(a[0], "address", None),
            ),
        )
        # A tick's layer depends on its node; every tick's duration is also
        # logged (p99, growth with log length).
        primary = self.primary_nodes
        self._patch(
            OverlogRuntime,
            "tick",
            self.span(
                lambda a: (
                    "overlog.tick" if a[0].address in primary else "overlog.other_tick"
                ),
                "tick",
                OverlogRuntime.tick,
                node_of=lambda a: a[0].address,
                on_close=lambda a, _, duration: self.ticks.append(
                    (self.progress, a[0].address, duration)
                ),
            ),
        )
        self._patch(
            Table,
            "insert",
            self._catalog_wrapper(Table.insert, "inserts", lambda r: r.inserted),
        )
        self._patch(
            Table,
            "delete",
            self._catalog_wrapper(Table.delete, "deletes", lambda r: r),
        )
        self._patch(
            Outbox,
            "flush",
            self.span(
                "transport.flush", "Outbox.flush", Outbox.flush,
                node_of=lambda a: a[0].src,
            ),
        )

        def envelope_rids(args, _result):
            rids = [
                rid
                for relation, row in args[1].deltas
                if (rid := _rid_of(relation, row)) is not None
            ]
            return tuple(rids) or None

        for transport in (SimTransport, LocalAsyncTransport):
            self._patch(
                transport,
                "send",
                self.span(
                    "transport.send", f"{transport.__name__}.send",
                    transport.__dict__["send"],
                    node_of=lambda a: a[1].src,
                    rids_of=envelope_rids,
                ),
            )

        # Every Process subclass that defines its own handle_message
        # (overlog nodes, DataNodes, TaskTrackers, the load client...).
        todo = [Process]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "handle_message" in cls.__dict__ and cls is not Process:
                traced = self.span(
                    "transport.deliver",
                    f"{cls.__name__}.handle_message",
                    cls.__dict__["handle_message"],
                    node_of=lambda a: a[0].address,
                    rids_of=lambda a, _: _rid_tuple(a[1], a[2]),
                    on_close=lambda a, *_: self.count(f"delivered.{a[1]}"),
                )
                self._patch(cls, "handle_message", traced)

        self._patch(
            Envelope,
            "encode",
            self.span(
                "codec.encode", "Envelope.encode", Envelope.encode,
                node_of=lambda a: a[0].src,
                on_close=lambda a, data, _: self.count("codec.wire_bytes", len(data)),
            ),
        )
        self._patch(
            Envelope,
            "decode",
            staticmethod(
                self.span("codec.decode", "Envelope.decode", Envelope.decode)
            ),
        )
        self._patch(
            FSSession,
            "rpc",
            self.span(
                "boomfs.client", "FSSession.rpc", FSSession.rpc,
                node_of=lambda a: a[0].host.address,
                rids_of=lambda a, rid: (rid,),
            ),
        )
        self._patch(
            FSSession,
            "on_message",
            self.span(
                "boomfs.client", "FSSession.on_message", FSSession.on_message,
                node_of=lambda a: a[0].host.address,
                rids_of=lambda a, _: _rid_tuple(a[1], a[2]),
            ),
        )
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_start
            if info["generation"] == 2:
                self.gc_gen2 += 1
