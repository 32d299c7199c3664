"""The gateway core and its asyncio HTTP/1.1 front end.

:class:`Gateway` is the transport-independent serving brain: it owns the
per-function :class:`~repro.gateway.batching.FunctionBatcher` windows,
the :class:`~repro.gateway.admission.AdmissionController`, and the
:class:`~repro.gateway.degradation.DegradationMonitor`, and bridges
asyncio request futures onto :class:`~repro.local.LocalPlatform` runner
threads via ``submit_group(on_resolved=...)`` + ``call_soon_threadsafe``.
The in-proc load generator drives it directly as coroutines (tens of
thousands of RPS, no socket overhead); :class:`GatewayServer` adds a
hand-rolled HTTP/1.1 layer over ``asyncio.start_server`` — stdlib only,
keep-alive connections, bounded request sizes.

Routes::

    POST /invoke/<function>   body = JSON payload (empty body -> null)
    GET  /healthz             liveness, uptime + current dispatch mode
    GET  /stats               gateway counters, admission + flip history,
                              the per-request stage split (``stages``)
    GET  /metrics             platform metrics registry snapshot (JSON by
                              default; Prometheus text exposition under
                              ``Accept: text/plain`` or
                              ``?format=prometheus``)

Every response carries an ``X-Request-Id`` header; ids are derived from
``GatewayConfig.seed`` plus an arrival counter, so a seeded run assigns
the same id to the same request every time (the inproc harness relies on
this for reproducible traces).

Status mapping: 200 ok · 400 malformed · 404 unknown function ·
413 body too large (then the connection closes) · 429 shed (with
``Retry-After``) · 500 handler error · 503 platform draining or stopped ·
504 gateway deadline exceeded.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.errors import (
    ConfigurationError,
    FunctionNotRegistered,
    GatewayOverloaded,
    InvocationTimeout,
    PlatformStateError,
)
from repro.gateway.admission import (
    SHED_INFLIGHT,
    SHED_QUEUE_DEPTH,
    AdmissionConfig,
    AdmissionController,
)
from repro.core.config import WINDOW_POLICIES
from repro.core.windowing import AdaptiveWindow, WindowPolicy
from repro.gateway.batching import FunctionBatcher, PendingRequest
from repro.gateway.degradation import (
    MODE_BATCH,
    MODE_VANILLA,
    DegradationConfig,
    DegradationMonitor,
)
from repro.local import LocalInvocation, LocalPlatform
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    render_gateway_stats,
    render_registry,
)

_GATEWAY_POLICIES = ("faasbatch", "vanilla")

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: HTTP parsing bounds (hand-rolled parser, so belts and braces).
MAX_HEADER_LINES = 64
MAX_LINE_BYTES = 8192
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(ValueError):
    """A declared ``Content-Length`` above :data:`MAX_BODY_BYTES`."""


#: Where a served request's latency went, in pipeline order: held in its
#: dispatch window, waiting on the ready queue for a runner, inside the
#: handler (slot wait excluded), and on the way back to the event loop.
STAGES = ("window_wait", "queue_for_runner", "execute", "respond")
#: Stage histogram edges (ms): an echo's stages are tens of microseconds,
#: a loaded window tens of milliseconds.
STAGE_EDGES_MS = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
                  50.0, 100.0, 200.0, 500.0, 1_000.0, 5_000.0)


@dataclass(frozen=True)
class GatewayConfig:
    """Serving knobs layered over the platform's own config."""

    policy: str = "faasbatch"
    #: Request-id seed: ids are ``req-<seed hex>-<arrival index>``, so a
    #: seeded run hands out the same ids in the same order every time.
    seed: int = 0
    #: The live dispatch window (seconds).  0 disables holding entirely.
    #: Under the adaptive policy this is the maximum window / SLO budget.
    window_seconds: float = 0.02
    #: Window-sizing policy ("fixed" | "adaptive") — the same
    #: :mod:`repro.core.windowing` policies the simulator uses, keyed per
    #: function on the gateway.
    window_policy: str = "fixed"
    #: End-to-end budget per request as seen by the caller.
    deadline_seconds: float = 10.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    degradation: DegradationConfig = field(
        default_factory=lambda: DegradationConfig(enabled=False))

    def __post_init__(self) -> None:
        if self.policy not in _GATEWAY_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_GATEWAY_POLICIES}, "
                f"got {self.policy!r}")
        if self.window_seconds < 0:
            raise ConfigurationError(
                f"window_seconds must be >= 0, got {self.window_seconds}")
        if self.window_policy not in WINDOW_POLICIES:
            raise ConfigurationError(
                f"window_policy must be one of {WINDOW_POLICIES}, "
                f"got {self.window_policy!r}")
        if self.window_policy == "adaptive" and self.window_seconds <= 0:
            raise ConfigurationError(
                "the adaptive window policy needs a positive window_seconds "
                "to use as its maximum window / SLO budget")
        if self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}")


@dataclass
class GatewayResponse:
    """Transport-independent outcome of one request."""

    status: int
    body: dict
    mode: Optional[str] = None
    retry_after_seconds: Optional[float] = None
    latency_ms: float = 0.0
    #: Assigned by the gateway to every arrival (404s and sheds included);
    #: surfaced over HTTP as the ``X-Request-Id`` response header.
    request_id: Optional[str] = None
    #: When set, the HTTP layer sends this instead of the JSON body,
    #: with ``content_type`` (used by the Prometheus exposition).
    text: Optional[str] = None
    content_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


class Gateway:
    """Batching + admission + degradation over one LocalPlatform."""

    def __init__(self, platform: LocalPlatform,
                 config: Optional[GatewayConfig] = None,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self.platform = platform
        self.config = config if config is not None else GatewayConfig()
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self.admission = AdmissionController(self.config.admission)
        self.monitor = DegradationMonitor(self.config.degradation)
        self.requests_total = 0
        self.responses_by_status: Dict[int, int] = {}
        self.batches_dispatched = 0
        self.batched_requests = 0
        #: Wall-clock construction instant (epoch seconds) for /healthz
        #: and /stats; uptime is measured on the loop's monotonic clock.
        self.started_at = time.time()
        self._started_loop = self.loop.time()
        #: The stage split of every request answered from a platform
        #: outcome, built from timestamps both tiers take anyway.  Loop
        #: confined (observed in :meth:`_drain_done`), so it needs no lock
        #: and stays apart from the platform's lock-guarded registry.
        self.stage_metrics = MetricsRegistry()
        self._stage_histograms = tuple(
            self.stage_metrics.histogram(f"gateway.stage.{stage}_ms",
                                         STAGE_EDGES_MS)
            for stage in STAGES)
        self._request_ids = itertools.count()
        self._id_prefix = f"req-{self.config.seed:x}"
        self._batchers: Dict[str, FunctionBatcher] = {}
        # One shared window policy for every function's batcher (keyed by
        # function name), mirroring the simulator's single policy object.
        self._window_policy: Optional[WindowPolicy] = None
        if (self.config.window_policy == "adaptive"
                and self.config.window_seconds > 0):
            max_ms = self.config.window_seconds * 1000.0
            self._window_policy = AdaptiveWindow(
                min_ms=max_ms / 20.0, max_ms=max_ms, slo_budget_ms=max_ms)
        # Completions arrive on platform runner threads; they are buffered
        # and drained with ONE call_soon_threadsafe per wakeup instead of
        # one per invocation — at 10k+ RPS the per-request loop wakeups
        # were a measurable share of the single core this serves on.
        self._done_buffer: List[tuple] = []
        self._done_lock = threading.Lock()
        self._drain_scheduled = False

    # -- request path ------------------------------------------------------------

    def next_request_id(self) -> str:
        """Mint the next deterministic request id (seeded arrival order)."""
        return f"{self._id_prefix}-{next(self._request_ids)}"

    @property
    def uptime_s(self) -> float:
        return self.loop.time() - self._started_loop

    async def invoke(self, function: str,
                     payload: Any = None) -> GatewayResponse:
        """Serve one request end to end; never raises."""
        start = self.loop.time()
        self.requests_total += 1
        request_id = self.next_request_id()
        if not self.platform.has_function(function):
            return self._finish(start, GatewayResponse(
                404, {"error": "unknown function", "function": function},
                request_id=request_id))
        mode = self._choose_mode()
        shed = self._admit(function, mode)
        if shed is not None:
            shed.request_id = request_id
            return self._finish(start, shed)
        request = PendingRequest(
            request_id=request_id,
            function=function, payload=payload,
            future=self.loop.create_future(),
            enqueued_at=start, mode=mode)
        if mode == MODE_BATCH and self.config.window_seconds > 0:
            self._batcher(function).enqueue(request)
            self.batched_requests += 1
        else:
            self._dispatch(function, [request])
        # A plain timer + bare await instead of asyncio.wait_for: wait_for
        # wraps the future in a Task per request, which is real money at
        # five-digit RPS on one core.
        deadline = self.loop.call_later(
            self.config.deadline_seconds, self._expire, request)
        try:
            result = await request.future
            response = GatewayResponse(200, {"result": result}, mode=mode)
        except asyncio.TimeoutError:
            response = GatewayResponse(
                504, {"error": "deadline exceeded",
                      "deadline_s": self.config.deadline_seconds},
                mode=mode)
        except GatewayOverloaded as error:
            self.admission.record_shed(SHED_QUEUE_DEPTH)
            response = GatewayResponse(
                429, {"error": "shed", "cause": SHED_QUEUE_DEPTH},
                mode=mode,
                retry_after_seconds=error.retry_after_seconds)
        except PlatformStateError as error:
            response = GatewayResponse(
                503, {"error": type(error).__name__}, mode=mode)
        except InvocationTimeout as error:
            response = GatewayResponse(
                504, {"error": "invocation timeout",
                      "detail": str(error)}, mode=mode)
        except FunctionNotRegistered:
            response = GatewayResponse(
                404, {"error": "unknown function", "function": function},
                mode=mode)
        except Exception as error:
            response = GatewayResponse(
                500, {"error": type(error).__name__,
                      "detail": str(error)}, mode=mode)
        finally:
            deadline.cancel()
            self.admission.release()
        response.request_id = request_id
        if response.ok:
            self.monitor.record(mode, (self.loop.time() - start) * 1000.0)
        return self._finish(start, response)

    def _choose_mode(self) -> str:
        if self.config.policy == "vanilla":
            return MODE_VANILLA
        if self.config.degradation.enabled:
            return self.monitor.choose()
        return MODE_BATCH

    def _admit(self, function: str,
               mode: str) -> Optional[GatewayResponse]:
        """Apply the bounds; returns a 429 response when shedding."""
        retry_after = self.config.admission.retry_after_seconds
        if self.admission.over_inflight():
            self.admission.record_shed(SHED_INFLIGHT)
            return GatewayResponse(
                429, {"error": "shed", "cause": SHED_INFLIGHT}, mode=mode,
                retry_after_seconds=retry_after)
        if mode == MODE_BATCH and self.config.window_seconds > 0:
            batcher = self._batcher(function)
            if self.admission.queue_full(batcher.depth):
                if self.config.admission.shed_policy == "newest":
                    self.admission.record_shed(SHED_QUEUE_DEPTH)
                    return GatewayResponse(
                        429, {"error": "shed", "cause": SHED_QUEUE_DEPTH},
                        mode=mode, retry_after_seconds=retry_after)
                victim = batcher.evict_oldest()
                if not victim.future.done():
                    victim.future.set_exception(GatewayOverloaded(
                        f"{victim.request_id} evicted (oldest-first shed)",
                        retry_after_seconds=retry_after))
        self.admission.admit()
        return None

    def _batcher(self, function: str) -> FunctionBatcher:
        batcher = self._batchers.get(function)
        if batcher is None:
            batcher = FunctionBatcher(
                function=function,
                window_seconds=self.config.window_seconds,
                dispatch=self._dispatch, loop=self.loop,
                policy=self._window_policy)
            self._batchers[function] = batcher
        return batcher

    def _dispatch(self, function: str,
                  requests: List[PendingRequest]) -> None:
        """Hand a closed window (or a vanilla singleton) to the platform."""
        now = self.loop.time()
        for request in requests:
            request.dispatched_at = now

        def on_resolved(position: int, invocation: LocalInvocation) -> None:
            self._on_platform_done(requests[position], invocation)

        try:
            self.platform.submit_group(
                function, [request.payload for request in requests],
                on_resolved)
        except Exception as error:
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(error)
            return
        self.batches_dispatched += 1

    def _expire(self, request: PendingRequest) -> None:
        if not request.future.done():
            request.future.set_exception(asyncio.TimeoutError())

    def _on_platform_done(self, request: PendingRequest,
                          invocation: LocalInvocation) -> None:
        # Runs on a platform thread: buffer, wake the loop once.
        with self._done_lock:
            self._done_buffer.append((request, invocation))
            schedule = not self._drain_scheduled
            if schedule:
                self._drain_scheduled = True
        if schedule:
            try:
                self.loop.call_soon_threadsafe(self._drain_done)
            except RuntimeError:
                pass  # loop already closed (shutdown race)

    def _drain_done(self) -> None:
        with self._done_lock:
            buffer, self._done_buffer = self._done_buffer, []
            self._drain_scheduled = False
        now = self.loop.time()
        for request, invocation in buffer:
            self._complete(request, invocation, now)

    def _complete(self, request: PendingRequest,
                  invocation: LocalInvocation, now: float) -> None:
        if request.future.done():
            return  # deadline or eviction already answered the caller
        if invocation.error is not None:
            request.future.set_exception(invocation.error)
        else:
            request.future.set_result(invocation.result)
        if invocation.started_at is None:
            return  # failed before any handler ran: no stages to split
        # ``loop.time()`` and the platform's ``time.monotonic()`` are one
        # clock.  Of a retried request these are the final attempt's
        # stages; its earlier attempts show up as runner-queue time.
        window, runner, execute, respond = self._stage_histograms
        window.observe((request.dispatched_at - request.enqueued_at) * 1e3)
        runner.observe(
            (invocation.dispatched_at - request.dispatched_at) * 1e3)
        execute.observe(
            (invocation.completed_at - invocation.started_at) * 1e3)
        respond.observe((now - invocation.completed_at) * 1e3)

    def _finish(self, start: float,
                response: GatewayResponse) -> GatewayResponse:
        response.latency_ms = (self.loop.time() - start) * 1000.0
        self.responses_by_status[response.status] = \
            self.responses_by_status.get(response.status, 0) + 1
        return response

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        degradation = self.monitor.stats()
        if self.config.policy == "vanilla":
            # The monitor never runs under a vanilla policy; report the
            # dispatch mode actually in force, not the monitor default.
            degradation["mode"] = MODE_VANILLA
        return {
            "policy": self.config.policy,
            "window_seconds": self.config.window_seconds,
            "window_policy": self.config.window_policy,
            "started_at": self.started_at,
            "uptime_s": self.uptime_s,
            "requests_total": self.requests_total,
            "responses_by_status": {
                str(code): count for code, count
                in sorted(self.responses_by_status.items())},
            "batches_dispatched": self.batches_dispatched,
            "batched_requests": self.batched_requests,
            "queue_depths": {name: batcher.depth for name, batcher
                             in sorted(self._batchers.items())},
            "admission": self.admission.stats(),
            "degradation": degradation,
            "platform_state": self.platform.state,
            "runners_started": self.platform.runners_started,
            "runners_idle": self.platform.runners_idle,
            "stages": self.stage_metrics.snapshot(),
        }

    def close(self) -> None:
        """Flush every open window (pending requests still complete)."""
        for batcher in self._batchers.values():
            batcher.close()


class GatewayServer:
    """Hand-rolled HTTP/1.1 keep-alive server over asyncio streams."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 8080) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self.connections_served = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        # Port 0 asks the OS for an ephemeral port; reflect the real one.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.gateway.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling -----------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.connections_served += 1
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as error:
                    status, reason = ((413, "body too large")
                                      if isinstance(error, _BodyTooLarge)
                                      else (400, "malformed request"))
                    await self._write_response(
                        writer, GatewayResponse(
                            status, {"error": reason,
                                     "detail": str(error)}), {}, False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                response, extra = await self._route(method, path, headers,
                                                    body)
                keep_alive = headers.get("connection", "") != "close"
                await self._write_response(writer, response, extra,
                                           keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; None on clean EOF; raises ValueError → 400
        (:class:`_BodyTooLarge` → 413)."""
        try:
            request_line = await reader.readline()
        except ValueError:  # line longer than the stream limit
            raise
        if not request_line:
            return None
        parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line: {parts!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > MAX_LINE_BYTES:
                raise ValueError("header line too long")
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        else:
            raise ValueError("too many header lines")
        length = int(headers.get("content-length", "0") or "0")
        if length < 0:
            raise ValueError(f"bad content length {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"content length {length} exceeds {MAX_BODY_BYTES}")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _render_metrics(self, prometheus: bool) -> GatewayResponse:
        """The /metrics body: JSON snapshot or Prometheus exposition."""
        obs = self.gateway.platform.obs
        if prometheus:
            page = render_registry(obs.metrics) if obs is not None else ""
            page += render_gateway_stats(self.gateway.stats())
            return GatewayResponse(200, {}, text=page,
                                   content_type=PROMETHEUS_CONTENT_TYPE)
        if obs is None:
            # Explicit marker rather than a silent empty snapshot: an
            # empty dict is indistinguishable from "no samples yet".
            return GatewayResponse(200, {"obs": "disabled"})
        return GatewayResponse(200, obs.metrics.snapshot())

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes):
        """Dispatch to a handler; returns (GatewayResponse, extra headers)."""
        path, _, query = path.partition("?")
        if method == "POST" and path.startswith("/invoke/"):
            function = path[len("/invoke/"):]
            if body:
                try:
                    payload = json.loads(body)
                except json.JSONDecodeError as error:
                    return GatewayResponse(
                        400, {"error": "invalid JSON body",
                              "detail": str(error)}), {}
            else:
                payload = None
            response = await self.gateway.invoke(function, payload)
            extra = {}
            if response.request_id is not None:
                extra["X-Request-Id"] = response.request_id
            if response.mode is not None:
                extra["X-Dispatch-Mode"] = response.mode
            if response.retry_after_seconds is not None:
                extra["Retry-After"] = format(
                    max(response.retry_after_seconds, 0.001), ".3f")
            return response, extra
        if method == "GET" and path == "/healthz":
            response = GatewayResponse(200, {
                "status": "ok",
                "platform_state": self.gateway.platform.state,
                "mode": self.gateway.monitor.mode,
                "inflight": self.gateway.admission.inflight,
                "started_at": self.gateway.started_at,
                "uptime_s": self.gateway.uptime_s})
        elif method == "GET" and path == "/stats":
            response = GatewayResponse(200, self.gateway.stats())
        elif method == "GET" and path == "/metrics":
            prometheus = ("format=prometheus" in query.split("&")
                          or "text/plain" in headers.get("accept", ""))
            response = self._render_metrics(prometheus)
        else:
            known = (path.startswith("/invoke/")
                     or path in ("/healthz", "/stats", "/metrics"))
            if known or method not in ("GET", "POST", "HEAD"):
                return GatewayResponse(
                    405, {"error": "method not allowed",
                          "method": method}), {}
            return GatewayResponse(404, {"error": "no such route",
                                         "path": path}), {}
        # Ops endpoints get request ids from the same seeded stream, so
        # "every response carries X-Request-Id" holds on every route.
        response.request_id = self.gateway.next_request_id()
        return response, {"X-Request-Id": response.request_id}

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: GatewayResponse,
                              extra: Dict[str, str],
                              keep_alive: bool) -> None:
        if response.text is not None:
            payload = response.text.encode("utf-8")
            content_type = response.content_type or "text/plain"
        else:
            payload = json.dumps(response.body,
                                 separators=(",", ":")).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(response.status, "Unknown")
        headers = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{key}: {value}" for key, value in extra.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()
