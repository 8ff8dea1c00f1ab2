"""Open/closed-loop load driver for BOOM-FS metadata operations.

This driver exists for *latency* work: it drives a seeded mix of
NameNode metadata operations (mkdir/create/exists/ls/mv/rm) against
either backend, optionally starting a causal trace per operation
so the latency accounting layer (:mod:`repro.latency`) can explain the
slow tail, and reports p50/p99/p999 CDFs per operation type.

Two arrival models, per the classic open-vs-closed distinction:

* **closed loop** (``arrival_ms=None``): a window of ``window``
  outstanding operations; each completion issues the next.  Measures
  best-case service latency — the system is never oversubscribed.
* **open loop** (``arrival_ms=k``): one new operation every ``k`` ms
  regardless of completions.  Queueing delay shows up honestly in the
  tail when arrivals outpace service.

The driver is a plain :class:`~repro.sim.node.Process` embedding an
:class:`~repro.boomfs.client.FSSession`, so the same instance runs
unmodified on the simulator and on the asyncio backend::

    driver = cluster.add(LoadDriver("loadgen", masters=["master"],
                                    total_ops=1000, seed=7))
    cluster.run_until(lambda: driver.done, max_time_ms=600_000)
    print(driver.render_report())
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..analysis.cdf import percentile, render_ascii_cdf
from ..boomfs.client import FSSession
from ..transport import Address
from ..sim.node import Process

#: Default operation mix (weights): read-mostly metadata traffic.
DEFAULT_MIX = {
    "mkdir": 2,
    "create": 4,
    "exists": 5,
    "ls": 3,
    "mv": 1,
    "rm": 1,
}


@dataclass
class OpRecord:
    """One completed operation."""

    op: str
    path: str
    start_ms: int
    end_ms: int
    ok: bool
    retried: bool
    trace_id: Optional[str] = None

    @property
    def latency_ms(self) -> int:
        return self.end_ms - self.start_ms


class LoadDriver(Process):
    """Drives a seeded metadata-op mix against BOOM-FS masters."""

    def __init__(
        self,
        address: Address = "loadgen",
        masters: list[Address] | str = "master",
        total_ops: int = 1000,
        window: int = 8,
        arrival_ms: Optional[int] = None,
        mix: Optional[dict[str, int]] = None,
        seed: int = 0,
        trace: bool = True,
        rpc_timeout_ms: int = 400,
    ):
        super().__init__(address)
        if isinstance(masters, str):
            masters = [masters]
        self.session = FSSession(self, masters, rpc_timeout_ms=rpc_timeout_ms)
        self.total_ops = total_ops
        self.window = window
        self.arrival_ms = arrival_ms
        self.trace = trace
        mix = dict(DEFAULT_MIX if mix is None else mix)
        self._ops = sorted(mix)
        self._weights = [mix[op] for op in self._ops]
        self._rng = random.Random(seed)
        self.records: list[OpRecord] = []
        self._issued = 0
        self._completed = 0
        self._name_n = 0
        # Namespace pools the generator draws targets from ("/" is the
        # pre-existing root, always a valid ls/exists target).
        self._dirs: list[str] = ["/"]
        self._files: list[str] = []

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.arrival_ms is None:
            for _ in range(min(self.window, self.total_ops)):
                self._issue()
        else:
            self._arrival()

    def handle_message(self, relation: str, row: tuple) -> None:
        if self.session.handles(relation):
            self.session.on_message(relation, row)

    @property
    def done(self) -> bool:
        return self._completed >= self.total_ops

    # -- op generation --------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._name_n += 1
        return f"/{prefix}{self._name_n}"

    def _pick(self) -> tuple[str, str, Optional[str]]:
        """Choose (op, path, arg) from the mix, adjusting the namespace
        pools optimistically at issue time (seeded, so the op sequence is
        reproducible for a given seed regardless of backend timing)."""
        (op,) = self._rng.choices(self._ops, weights=self._weights)
        if op == "mkdir":
            path = self._fresh("d")
            self._dirs.append(path)
            return op, path, None
        if op == "create":
            path = self._fresh("f")
            self._files.append(path)
            return op, path, None
        if op == "exists":
            pool = self._files + self._dirs
            return op, self._rng.choice(pool), None
        if op == "ls":
            return op, self._rng.choice(self._dirs), None
        if op == "mv" and self._files:
            index = self._rng.randrange(len(self._files))
            old = self._files[index]
            new = self._fresh("f")
            self._files[index] = new
            return op, old, new
        if op == "rm" and self._files:
            index = self._rng.randrange(len(self._files))
            return op, self._files.pop(index), None
        # mv/rm with an empty file pool degrade to a namespace probe.
        return "exists", "/", None

    def _issue(self) -> None:
        if self._issued >= self.total_ops:
            return
        self._issued += 1
        op, path, arg = self._pick()
        start_ms = self.now
        tracer = self.tracer
        ref = None
        if self.trace and tracer is not None:
            ref = tracer.start_trace(f"{op} {path}", node=str(self.address))

        def done(ok: bool, payload, retried: bool) -> None:
            # The pools are adjusted optimistically at issue time, so a
            # concurrent window can probe a path whose create has not
            # landed yet (or mkdir a name a retried attempt already
            # made).  Those answers are correct service, not errors.
            self.records.append(
                OpRecord(
                    op=op,
                    path=path,
                    start_ms=start_ms,
                    end_ms=self.now,
                    ok=ok or payload in ("noent", "exists"),
                    retried=retried,
                    trace_id=ref.trace_id if ref is not None else None,
                )
            )
            self._completed += 1
            if self.arrival_ms is None:
                self._issue()

        def starter() -> None:
            if op == "mv":
                self.session.mv(path, arg, done)
            else:
                getattr(self.session, op)(path, done)

        # Issue under exactly this op's context: callbacks run inside a
        # *response* delivery whose ambient context belongs to the
        # previous op — inheriting it would chain unrelated traces.
        if tracer is not None:
            with tracer.activate((ref,) if ref is not None else ()):
                starter()
        else:
            starter()

    def _arrival(self) -> None:
        if self._issued >= self.total_ops:
            return
        self._issue()
        if self._issued < self.total_ops:
            self.after(self.arrival_ms, self._arrival)

    # -- reporting ------------------------------------------------------------

    def latencies(self, op: Optional[str] = None) -> list[int]:
        return [
            r.latency_ms for r in self.records if op is None or r.op == op
        ]

    def slowest(self, fraction: float = 0.1) -> list[OpRecord]:
        """The slowest ``fraction`` of completed ops, slowest first."""
        ranked = sorted(
            self.records, key=lambda r: r.latency_ms, reverse=True
        )
        keep = max(1, int(len(ranked) * fraction))
        return ranked[:keep]

    def percentile_report(self) -> dict:
        """Per-op and overall latency percentiles (p50/p99/p999)."""
        report: dict = {}
        ops = sorted({r.op for r in self.records})
        for key in ["all"] + ops:
            values = self.latencies(None if key == "all" else key)
            if not values:
                continue
            report[key] = {
                "count": len(values),
                "errors": sum(
                    1
                    for r in self.records
                    if not r.ok and (key == "all" or r.op == key)
                ),
                "p50": percentile(values, 50),
                "p99": percentile(values, 99),
                "p999": percentile(values, 99.9),
                "max": max(values),
                "mean": sum(values) / len(values),
            }
        return report

    def render_report(self, width: int = 48) -> str:
        """Percentile table plus per-op ASCII CDFs."""
        report = self.percentile_report()
        lines = [
            f"{self.total_ops} ops, "
            f"{'closed' if self.arrival_ms is None else 'open'}-loop "
            f"({'window=' + str(self.window) if self.arrival_ms is None else 'arrival=' + str(self.arrival_ms) + 'ms'})"
        ]
        lines.append(
            f"  {'op':<8} {'count':>6} {'err':>4} {'p50':>7} {'p99':>7} "
            f"{'p999':>7} {'max':>7}"
        )
        for key, row in report.items():
            lines.append(
                f"  {key:<8} {row['count']:>6} {row['errors']:>4} "
                f"{row['p50']:>7.0f} {row['p99']:>7.0f} "
                f"{row['p999']:>7.0f} {row['max']:>7.0f}"
            )
        series = {
            op: self.latencies(op)
            for op in sorted({r.op for r in self.records})
        }
        lines.append(
            render_ascii_cdf(series, width=width, title="latency CDFs (ms):")
        )
        return "\n".join(lines)


def run_driver(cluster, driver: LoadDriver, max_time_ms: int = 600_000) -> LoadDriver:
    """Add ``driver`` to ``cluster`` (if needed) and run it to completion."""
    if driver.address not in cluster.processes:
        cluster.add(driver)
    finished = cluster.run_until(
        lambda: driver.done, max_time_ms=cluster.now + max_time_ms
    )
    if not finished:
        raise RuntimeError(
            f"load driver finished only {driver._completed}/{driver.total_ops}"
            f" ops within {max_time_ms} ms"
        )
    return driver


__all__ = ["DEFAULT_MIX", "LoadDriver", "OpRecord", "run_driver"]
