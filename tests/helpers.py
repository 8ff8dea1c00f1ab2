"""Node classes shared by several test modules."""

from repro.boomfs import BoomFSMaster
from repro.monitoring import (
    InvariantMonitor,
    boomfs_invariants_program,
    with_invariants,
)
from repro.overlog import OverlogRuntime


class CheckedMaster(BoomFSMaster):
    """NameNode with the invariant rules merged in and a strict monitor."""

    def __init__(self, address: str, replication: int = 2):
        super().__init__(address, replication=replication)
        # Swap in the instrumented program and rebuild; the monitor is
        # (re)attached by _make_runtime, including after crash-restarts.
        self._program = with_invariants(
            self._program, boomfs_invariants_program()
        )
        self.monitor = InvariantMonitor(strict=True)
        self.runtime = self._make_runtime()

    def _make_runtime(self) -> OverlogRuntime:
        runtime = super()._make_runtime()
        if hasattr(self, "monitor"):
            self.monitor.attach(runtime)
        return runtime
