"""Real asyncio backend: the same contract, actual concurrency.

:class:`LocalAsyncTransport` implements the
:class:`~repro.transport.base.Transport` contract over a live asyncio
event loop instead of virtual time:

* every registered endpoint owns a **bounded inbox queue** and a real
  consumer task that delivers arriving envelopes;
* every (src, dst) link owns a **send buffer** and a sender task that
  moves envelopes onto the destination queue in FIFO order — when the
  bounded queue is full the sender task *blocks* (``await put``) and a
  ``backpressure_stalls`` counter increments; no delta is ever dropped;
* endpoints are **queue- or TCP-backed**: with ``tcp=True`` each
  endpoint listens on a real 127.0.0.1 socket and links ship
  length-prefixed encoded envelopes through StreamWriter/StreamReader
  (:mod:`repro.transport.codec`); a reader refuses and counts any frame
  that is oversized, malformed or addressed elsewhere, then closes that
  connection, and a sender drops an envelope it cannot encode;
* ``drain()`` gracefully quiesces the wire before shutdown.

The clock is real time scaled by ``time_scale`` (virtual-ms = elapsed
real ms x scale), so programs written against simulator timings — Paxos
election timeouts, heartbeat periods — run unmodified, just faster if
you ask for it.  :class:`AsyncCluster` wraps the transport in the
cluster surface, so ``Cluster``-based experiment scripts port by
swapping one constructor.
"""

from __future__ import annotations

import asyncio
import random
import struct
from collections import deque
from typing import Callable, Optional

from .base import Address, DeliverFn, Transport
from .base_cluster import BaseCluster
from .codec import MAX_FRAME_BYTES, CodecError
from .envelope import Envelope
from .sim_transport import LatencyModel

_FRAME_HEADER = struct.Struct(">I")  # 4-byte big-endian length prefix


class _AsyncTimerHandle:
    """Adapter: asyncio TimerHandle -> the transport TimerHandle contract."""

    __slots__ = ("_handle", "time", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle, fire_time_ms: int):
        self._handle = handle
        self.time = fire_time_ms
        self._cancelled = False

    def cancel(self) -> None:
        self._handle.cancel()
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class _Endpoint:
    """One registered address: bounded inbox + consumer task (+ server)."""

    def __init__(
        self,
        address: Address,
        deliver: DeliverFn,
        queue_size: int,
        min_dispatch_interval_s: float = 0.0,
    ):
        self.address = address
        self.deliver = deliver
        self.queue: asyncio.Queue[Envelope] = asyncio.Queue(maxsize=queue_size)
        # Slow-consumer knob (tests): minimum pause between deliveries.
        self.min_dispatch_interval_s = min_dispatch_interval_s
        self.task: Optional[asyncio.Task] = None
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None


class _Link:
    """One (src, dst) wire: FIFO send buffer + sender task."""

    def __init__(self, src: Address, dst: Address):
        self.src = src
        self.dst = dst
        self.buffer: deque[Envelope] = deque()
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None


class LocalAsyncTransport(Transport):
    """Envelope routing over an asyncio loop (queue or TCP endpoints)."""

    backend = "async"

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        queue_size: int = 1024,
        time_scale: float = 1.0,
        tcp: bool = False,
    ):
        super().__init__()
        self._loop = loop
        self._t0 = loop.time()
        self.time_scale = time_scale
        self.latency = latency  # None = whatever the loop/wire costs
        self.loss_rate = loss_rate
        self.rng = random.Random(seed)
        self.queue_size = queue_size
        self.tcp = tcp
        self._endpoints: dict[Address, _Endpoint] = {}
        self._links: dict[tuple[Address, Address], _Link] = {}
        # Wire-level conservation counters: drain() waits until every
        # envelope put on the wire has come off it.
        self._wire_out = 0
        self._wire_in = 0
        self._closed = False

    # -- clock & timers -------------------------------------------------------

    @property
    def now(self) -> int:
        return int((self._loop.time() - self._t0) * 1000 * self.time_scale)

    def _to_real_s(self, virtual_ms: float) -> float:
        return virtual_ms / 1000.0 / self.time_scale

    def call_later(self, delay_ms: int, action: Callable[[], None]):
        handle = self._loop.call_later(
            self._to_real_s(max(0, delay_ms)), action
        )
        return _AsyncTimerHandle(handle, self.now + max(0, delay_ms))

    # -- membership -----------------------------------------------------------

    def register(
        self,
        address: Address,
        deliver: DeliverFn,
        queue_size: Optional[int] = None,
        min_dispatch_interval_ms: float = 0.0,
    ) -> None:
        if address in self._endpoints:
            self.unregister(address)
        endpoint = _Endpoint(
            address,
            deliver,
            queue_size if queue_size is not None else self.queue_size,
            self._to_real_s(min_dispatch_interval_ms),
        )
        self._endpoints[address] = endpoint
        self._deliver_fns[address] = deliver
        endpoint.task = self._loop.create_task(
            self._consume(endpoint), name=f"endpoint:{address}"
        )
        if self.tcp:
            if self._loop.is_running():
                # Restart while the loop runs (e.g. restart_at timer):
                # bring the listener up as a task; links wait for the port.
                self._loop.create_task(self._start_server(endpoint))
            else:
                self._loop.run_until_complete(self._start_server(endpoint))

    async def _start_server(self, endpoint: _Endpoint) -> None:
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(endpoint, r, w),
            host="127.0.0.1",
            port=0,
        )
        endpoint.server = server
        endpoint.port = server.sockets[0].getsockname()[1]

    def unregister(self, address: Address) -> None:
        endpoint = self._endpoints.pop(address, None)
        self._deliver_fns.pop(address, None)
        if endpoint is None:
            return
        if endpoint.task is not None:
            endpoint.task.cancel()
        if endpoint.server is not None:
            endpoint.server.close()
        # Envelopes still queued for a dead endpoint are lost, like
        # messages in flight to a crashed simulator node.
        while not endpoint.queue.empty():
            env = endpoint.queue.get_nowait()
            self._wire_in += 1
            self._account_dropped(env, "dead")
        # Sender tasks blocked on the dead queue stay parked until their
        # link delivers to a fresh registration (restart) or is closed.

    # -- sending --------------------------------------------------------------

    def send(self, env: Envelope) -> None:
        """Synchronous enqueue onto the (src, dst) link; the link's
        sender task moves it to the destination, blocking on a full
        bounded queue (backpressure) rather than ever dropping."""
        if self._closed:
            return
        self._account_sent(env)
        if not self.can_reach(env.src, env.dst):
            self._account_dropped(env, "partition")
            return
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self._account_dropped(env, "loss")
            return
        if not self.same_machine(env.src, env.dst):
            self.stats.remote_bytes += env.size_bytes
        link = self._links.get((env.src, env.dst))
        if link is None:
            link = _Link(env.src, env.dst)
            self._links[(env.src, env.dst)] = link
            link.task = self._loop.create_task(
                self._pump_link(link), name=f"link:{env.src}->{env.dst}"
            )
        self._wire_out += 1
        link.buffer.append(env)
        link.wakeup.set()

    async def _pump_link(self, link: _Link) -> None:
        """Sender task: drain the link buffer in FIFO order."""
        while True:
            await link.wakeup.wait()
            link.wakeup.clear()
            while link.buffer:
                env = link.buffer[0]
                if self.latency is not None:
                    delay = self.latency.sample(
                        self.rng, size_bytes=env.size_bytes
                    )
                    if delay > 0:
                        await asyncio.sleep(self._to_real_s(delay))
                # Delivery-time checks mirror the simulator: an envelope
                # in flight when the link partitions is lost; one in
                # flight when the partition heals goes through.
                if not self.can_reach(env.src, env.dst):
                    link.buffer.popleft()
                    self._wire_in += 1
                    self._account_dropped(env, "partition")
                    continue
                endpoint = self._endpoints.get(env.dst)
                if endpoint is None:
                    link.buffer.popleft()
                    self._wire_in += 1
                    self._account_dropped(env, "dead")
                    continue
                if self.tcp:
                    try:
                        payload = env.encode()
                    except CodecError:
                        link.buffer.popleft()
                        self._wire_in += 1
                        self._account_dropped(env, "unencodable")
                        continue
                    await self._transmit_tcp(link, endpoint, payload)
                else:
                    await self._transmit_queue(endpoint, env)
                link.buffer.popleft()

    async def _transmit_queue(
        self, endpoint: _Endpoint, env: Envelope
    ) -> None:
        if endpoint.queue.full():
            # Bounded-queue backpressure: the sender blocks until the
            # consumer makes room; the stall is visible in the metrics
            # registry (and on the blocked deltas' trace spans as a
            # stall_begin/stall_end pair) and nothing is dropped.
            self._account_stall(env.src, env.dst)
            self._note_stall(env, "begin")
            await endpoint.queue.put(env)
            self._note_stall(env, "end")
        else:
            await endpoint.queue.put(env)

    async def _transmit_tcp(
        self, link: _Link, endpoint: _Endpoint, payload: bytes
    ) -> None:
        while endpoint.port is None:
            await asyncio.sleep(0.001)  # listener still coming up
        if link.writer is None or link.writer.is_closing():
            _reader, link.writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
        link.writer.write(_FRAME_HEADER.pack(len(payload)) + payload)
        # drain() applies TCP flow control: a receiver that stops
        # reading (full bounded queue) eventually blocks us here.
        await link.writer.drain()

    async def _serve_connection(
        self,
        endpoint: _Endpoint,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                header = await reader.readexactly(_FRAME_HEADER.size)
                (length,) = _FRAME_HEADER.unpack(header)
                # A refused frame leaves the stream out of step (or it
                # is hostile): count it and hang up on this connection.
                if length > MAX_FRAME_BYTES:
                    self._account_rejected("oversize")
                    return
                body = await reader.readexactly(length)
                try:
                    env = Envelope.decode(body)
                except CodecError as err:
                    self._account_rejected(err.reason)
                    return
                if env.dst != endpoint.address:
                    self._account_rejected("misaddressed")
                    return
                if endpoint.queue.full():
                    self._account_stall(env.src, env.dst)
                    self._note_stall(env, "begin")
                    await endpoint.queue.put(env)
                    self._note_stall(env, "end")
                else:
                    await endpoint.queue.put(env)
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionResetError,
        ):
            pass
        finally:
            writer.close()

    async def _consume(self, endpoint: _Endpoint) -> None:
        """Consumer task: one per endpoint, delivers envelopes in order."""
        while True:
            env = await endpoint.queue.get()
            self._wire_in += 1
            if endpoint.min_dispatch_interval_s > 0:
                await asyncio.sleep(endpoint.min_dispatch_interval_s)
            self._account_delivered(env)
            endpoint.deliver(env)

    # -- lifecycle ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Envelopes on the wire: link buffers + queues + TCP frames."""
        return self._wire_out - self._wire_in

    async def drain(self, timeout_ms: float = 5000.0, settle: int = 3) -> bool:
        """Graceful drain: wait until the wire has been quiet (no
        in-flight envelopes) for ``settle`` consecutive polls.  Returns
        False on timeout with traffic still moving."""
        deadline = self._loop.time() + timeout_ms / 1000.0
        quiet = 0
        while quiet < settle:
            if self._loop.time() > deadline:
                return False
            if self.in_flight == 0:
                quiet += 1
            else:
                quiet = 0
            await asyncio.sleep(0.002)
        return True

    def close(self) -> None:
        """Tear down every task, server and connection."""
        if self._closed:
            return
        self._closed = True
        for endpoint in self._endpoints.values():
            if endpoint.task is not None:
                endpoint.task.cancel()
            if endpoint.server is not None:
                endpoint.server.close()
        for link in self._links.values():
            if link.task is not None:
                link.task.cancel()
            if link.writer is not None:
                link.writer.close()
        self._endpoints.clear()
        self._links.clear()
        self._deliver_fns.clear()


class AsyncCluster(BaseCluster):
    """A cluster of processes over :class:`LocalAsyncTransport`.

    The same surface as :class:`repro.sim.cluster.Cluster` — ``add``,
    ``run_for``, ``run_until``, crash/partition controls, observability
    — but nodes execute as live asyncio tasks over queue or TCP
    endpoints.  ``run_*`` drive the loop from synchronous code, so
    experiment scripts stay imperative; call :meth:`shutdown` when done.

    ``time_scale`` compresses real time: at ``time_scale=20`` a program
    whose election timeout is 1000 (virtual) ms fires after 50 real ms.
    """

    backend = "async"

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        queue_size: int = 1024,
        time_scale: float = 1.0,
        tcp: bool = False,
    ):
        self._loop = asyncio.new_event_loop()
        transport = LocalAsyncTransport(
            self._loop,
            latency=latency,
            loss_rate=loss_rate,
            seed=seed,
            queue_size=queue_size,
            time_scale=time_scale,
            tcp=tcp,
        )
        super().__init__(transport)
        self.seed = seed
        self._closed = False

    # -- running --------------------------------------------------------------

    def run_for(self, duration_ms: int) -> None:
        self._loop.run_until_complete(
            asyncio.sleep(self.transport._to_real_s(duration_ms))
        )

    def run_until(
        self, condition: Callable[[], bool], max_time_ms: int
    ) -> bool:
        async def waiter() -> bool:
            deadline = self._loop.time() + self.transport._to_real_s(
                max_time_ms - self.now
            )
            while not condition():
                if self._loop.time() >= deadline:
                    return condition()
                await asyncio.sleep(0.001)
            return True

        return self._loop.run_until_complete(waiter())

    def drain(self, timeout_ms: float = 5000.0) -> bool:
        """Run the loop until in-flight envelopes settle to zero."""
        return self._loop.run_until_complete(
            self.transport.drain(timeout_ms=timeout_ms)
        )

    def shutdown(self) -> None:
        """Graceful drain, then tear the loop down."""
        if self._closed:
            return
        self._closed = True
        try:
            self._loop.run_until_complete(self.transport.drain())
        finally:
            self.transport.close()
            # Let task cancellations unwind before closing the loop.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    def __enter__(self) -> "AsyncCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
