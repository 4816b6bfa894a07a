"""The asyncio daemon: socket accept loop, dispatch, backpressure,
graceful drain.

One :class:`HealersService` owns a TCP listener speaking the
line-delimited JSON protocol of :mod:`repro.service.protocol`.  Each
connection processes one request at a time (responses are in order);
concurrency comes from many connections.  The dispatch path is:

1. decode the envelope (framing errors answer ``BAD_REQUEST``);
2. control-plane ops (``status``, ``metrics``) run immediately — the
   operator can always see an overloaded or draining server;
3. work ops pass the admission controller (``RETRY_LATER`` with a
   backpressure hint on overload) and then run under the request
   deadline via :func:`asyncio.wait_for` — the deadline covers queue
   wait and execution together;
4. CPU-heavy work runs on the state's bounded thread pool; identical
   concurrent injections collapse in the single-flight table.

A deadline-cancelled waiter does not cancel the shared flight: the
injection finishes on its worker thread and lands in the outcome
store, so the retry the client was told to make is a cache hit.

Shutdown (:meth:`HealersService.stop`) stops accepting, answers new
work with ``SHUTTING_DOWN``, drains in-flight requests up to
``drain_seconds``, lets unfinished single-flight injections checkpoint
into the store, then closes the worker pool.

:func:`serve_in_thread` runs a service on a background thread with its
own event loop — the harness used by tests, benchmarks, and anyone
embedding the daemon in a synchronous program.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs import Telemetry
from repro.service.admission import Overloaded
from repro.service.handlers import CONTROL_OPS, HANDLERS, ServiceState
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ProtocolError,
    Request,
    Response,
    ServiceError,
)

#: How long ``stop(drain=True)`` waits for in-flight requests.
DEFAULT_DRAIN_SECONDS = 10.0


@dataclass(frozen=True)
class ServiceConfig:
    """All daemon knobs in one place (mirrors the ``serve`` CLI verb)."""

    host: str = "127.0.0.1"
    port: int = 0                        # 0 = ephemeral, see .address
    workers: int = 2                     # injection worker threads
    max_queue: int = 32                  # admitted requests beyond the workers
    rate: float = 0.0                    # token-bucket refill/s (0 = off)
    burst: float = 1.0                   # token-bucket size
    default_deadline_ms: float = 60_000  # when the request names none
    cache_dir: Optional[Path] = None     # content-addressed outcome store
    drain_seconds: float = DEFAULT_DRAIN_SECONDS
    ledger: Optional[Path] = None        # results ledger (history op +
                                         # rollup on graceful shutdown)


class HealersService:
    """The hardening-as-a-service daemon."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config
        self.state = ServiceState(
            cache_dir=config.cache_dir,
            workers=config.workers,
            max_queue=config.max_queue,
            rate=config.rate,
            burst=config.burst,
            telemetry=telemetry,
            ledger=config.ledger,
        )
        self.telemetry = self.state.telemetry
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatching = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> "HealersService":
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        host, port = self.address
        self.telemetry.event("service.started", host=host, port=port)
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, checkpoint, close."""
        self.state.shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_seconds
                )
            except asyncio.TimeoutError:
                self.telemetry.event(
                    "service.drain_timeout", inflight=self._dispatching
                )
            # In-progress injections persist to the store on completion;
            # give them the remainder of the drain budget to checkpoint.
            flights = self.state.singleflight.drain()
            if flights:
                await asyncio.wait(flights, timeout=self.config.drain_seconds)
        self._ingest_rollup()
        self.state.close()
        self.telemetry.event("service.stopped")

    def _ingest_rollup(self) -> None:
        """Roll this lifetime's request/latency metrics into the ledger.

        Best-effort: a broken ledger must never turn a graceful
        shutdown into a crash — it degrades to a telemetry event.
        """
        if self.config.ledger is None:
            return
        try:
            from repro.obs.ledger import Ledger

            ledger = Ledger(self.config.ledger)
            run = ledger.ingest_service_rollup(
                self.telemetry.registry.collect()
            )
            ledger.publish_gauges(self.telemetry)
            self.telemetry.event(
                "service.ledger", run=run.id, deduped=run.deduped
            )
        except Exception as exc:  # noqa: BLE001 - ledger is best-effort
            self.telemetry.event("service.ledger_error", error=repr(exc))

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.telemetry.counter("service.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        Response.failure(
                            None,
                            ErrorCode.BAD_REQUEST,
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ).encode()
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._respond(line)
                writer.write(response.encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(self, line: bytes) -> Response:
        try:
            request = Request.decode(line)
        except ProtocolError as exc:
            self.telemetry.counter(
                "service.requests", op="?", code=exc.code
            ).inc()
            return Response.failure(None, exc.code, exc.message)
        response = await self._dispatch(request)
        return response

    async def _dispatch(self, request: Request) -> Response:
        started = time.perf_counter()
        op = request.op
        response = await self._execute(request)
        code = "OK" if response.ok else (response.code or ErrorCode.INTERNAL)
        self.telemetry.counter("service.requests", op=op, code=code).inc()
        self.telemetry.timer("service.request_seconds", op=op).observe(
            time.perf_counter() - started
        )
        flights = self.state.singleflight.stats()
        self.telemetry.gauge("service.singleflight_inflight").set(
            flights["inflight"]
        )
        return response

    async def _execute(self, request: Request) -> Response:
        state = self.state
        handler = HANDLERS.get(request.op)
        if handler is None:
            return Response.failure(
                request.id,
                ErrorCode.UNKNOWN_OP,
                f"unknown op {request.op!r} (known: {', '.join(sorted(HANDLERS))})",
            )
        if request.op in CONTROL_OPS:
            try:
                return Response.success(
                    request.id, await handler(state, request.params)
                )
            except ServiceError as exc:
                return Response.from_error(request.id, exc)
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                return self._internal_error(request, exc)
        if state.shutting_down:
            return Response.failure(
                request.id, ErrorCode.SHUTTING_DOWN, "server is draining"
            )
        try:
            state.admission.acquire()
        except Overloaded as exc:
            return Response.failure(
                request.id,
                ErrorCode.RETRY_LATER,
                exc.reason,
                retry_after_ms=exc.retry_after_ms,
            )
        admission = state.admission
        self._dispatching += 1
        self._idle.clear()
        self.telemetry.gauge("service.inflight").set(admission.inflight)
        deadline_ms = request.deadline_ms or self.config.default_deadline_ms
        try:
            result = await asyncio.wait_for(
                handler(state, request.params), timeout=deadline_ms / 1000.0
            )
            return Response.success(request.id, result)
        except asyncio.TimeoutError:
            self.telemetry.counter("service.deadline_exceeded", op=request.op).inc()
            return Response.failure(
                request.id,
                ErrorCode.DEADLINE_EXCEEDED,
                f"request exceeded its {deadline_ms:.0f}ms deadline",
            )
        except ServiceError as exc:
            return Response.from_error(request.id, exc)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return self._internal_error(request, exc)
        finally:
            admission.release()
            self._dispatching -= 1
            if self._dispatching == 0:
                self._idle.set()
            self.telemetry.gauge("service.inflight").set(admission.inflight)

    def _internal_error(self, request: Request, exc: Exception) -> Response:
        self.telemetry.event(
            "service.internal_error", op=request.op, error=repr(exc)
        )
        return Response.failure(
            request.id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
        )


# ----------------------------------------------------------------------
# synchronous embedding harness
# ----------------------------------------------------------------------


class ServiceHandle:
    """A running service on a background thread; ``stop()`` to finish."""

    def __init__(
        self,
        service: HealersService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.service.address

    @property
    def telemetry(self) -> Telemetry:
        return self.service.telemetry

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(drain=drain), self._loop
        )
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    config: ServiceConfig = ServiceConfig(),
    telemetry: Optional[Telemetry] = None,
    start_timeout: float = 30.0,
) -> ServiceHandle:
    """Start a :class:`HealersService` on a dedicated event-loop thread
    and return once it is accepting connections."""
    service = HealersService(config, telemetry=telemetry)
    started = threading.Event()
    failure: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def main() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            try:
                await service.start()
            except BaseException as exc:  # pragma: no cover - startup failure
                failure.append(exc)
            finally:
                started.set()

        loop.run_until_complete(boot())
        if not failure:
            loop.run_forever()
        loop.close()

    thread = threading.Thread(target=main, name="healers-service", daemon=True)
    thread.start()
    if not started.wait(start_timeout):  # pragma: no cover - defensive
        raise RuntimeError("service failed to start in time")
    if failure:  # pragma: no cover - startup failure
        raise failure[0]
    return ServiceHandle(service, loop, thread)
