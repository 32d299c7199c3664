"""The gateway core and its asyncio HTTP/1.1 front end.

:class:`Gateway` is the transport-independent serving brain: it owns the
per-function :class:`~repro.gateway.batching.FunctionBatcher` windows,
the :class:`~repro.gateway.admission.AdmissionController`, and the
:class:`~repro.gateway.degradation.DegradationMonitor`.  Its one request
path is ``submit(function, payload, on_response)``: admission, dispatch
onto :class:`~repro.local.LocalPlatform` runner threads via
``submit_group(on_resolved=...)``, one report per finished group woken
onto the loop with ``call_soon_threadsafe``, and a settle step that calls
``on_response`` exactly once, on the event loop.
``invoke`` awaits that core (the in-proc load generator's path).  Every
request has the same deadline budget, so deadlines fall due in arrival
order: one FIFO and one ``call_at`` timer for its head answer 504.

:class:`GatewayServer` is one :class:`asyncio.Protocol` per connection,
stdlib only: it parses HTTP/1.1 from a ``bytearray`` in ``data_received``,
answers pipelined requests in order, and answers ``/invoke`` from the
gateway's callback with one ``transport.write`` (no task per request).
A connection has at most one request in flight: reading pauses while
bytes wait behind it or behind a full write buffer, and resumes once it
is answered.  So a connection holds its own request, at most one socket
read ahead and the transport's write high-water mark; the kernel's socket
buffers hold the rest.  400 and a close: a malformed head, a line over
``MAX_LINE_BYTES``, more than ``MAX_HEADER_LINES`` lines, or any
``Transfer-Encoding`` (bodies are ``Content-Length`` only).  413 and a
close: a declared body over ``MAX_BODY_BYTES``.  HTTP/1.1 keeps the
connection open unless ``Connection: close``; HTTP/1.0 closes it unless
``Connection: keep-alive`` (tokens are case-insensitive).

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
import collections
import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Deque, Dict, List, Optional, Set

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

#: Most bytes one socket read asks for, on both ends of the gateway's
#: connections.  asyncio's selector transports read up to 256 KiB into a
#: fresh buffer each time; when that block sits at the top of the heap,
#: freeing it hands the memory back to the OS, and the next read faults
#: it in again.  Whether it sits there depends on the heap's layout, so
#: keep-alive echo throughput flipped between two modes from build to
#: build (4.4 page faults per request in the slow one, 0.4 in the fast).
#: A 16 KiB block is never handed back that way.
READ_CHUNK_BYTES = 16 * 1024


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
    window_seconds: float = 0.02
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
        if self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}")


@dataclass(slots=True)
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
        #: Requests that waited in a dispatch window (batch mode only).
        self.batched_requests = 0
        #: Requests handed to the platform, windowed or not.
        self.dispatched_requests = 0
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
        # Completions arrive on platform runner threads; they are buffered
        # and drained with ONE call_soon_threadsafe per wakeup instead of
        # one per invocation — at 10k+ RPS the per-request loop wakeups
        # were a measurable share of the single core this serves on.
        self._done_buffer: List[tuple] = []
        self._done_lock = threading.Lock()
        self._drain_scheduled = False
        #: Admitted requests in arrival (= deadline) order; settled ones
        #: are popped off the head as they settle.
        self._deadlines: Deque[PendingRequest] = collections.deque()
        self._deadline_timer: Optional[asyncio.TimerHandle] = None

    # -- request path ------------------------------------------------------------

    def next_request_id(self) -> str:
        """Mint the next deterministic request id (seeded arrival order)."""
        return f"{self._id_prefix}-{next(self._request_ids)}"

    @property
    def uptime_s(self) -> float:
        return self.loop.time() - self._started_loop

    def submit(self, function: str, payload: Any,
               on_response: Callable[[GatewayResponse], None]) -> None:
        """Serve one request; *on_response* gets its answer exactly once.

        The answer comes on the event loop: at once for a 404 or a shed,
        otherwise from the completion drain, the deadline sweep or an
        eviction.  Never raises for anything the request itself did.
        """
        start = self.loop.time()
        self.requests_total += 1
        request_id = self.next_request_id()
        if not self.platform.has_function(function):
            on_response(self._finish(start, GatewayResponse(
                404, {"error": "unknown function", "function": function},
                request_id=request_id)))
            return
        mode = self._choose_mode()
        shed = self._admit(function, mode)
        if shed is not None:
            shed.request_id = request_id
            on_response(self._finish(start, shed))
            return
        request = PendingRequest(
            request_id=request_id, function=function, payload=payload,
            on_response=on_response, enqueued_at=start, mode=mode)
        # Every request has the same budget, so deadlines fall due in
        # arrival order: one FIFO and one timer for its head.
        self._deadlines.append(request)
        if self._deadline_timer is None:
            self._deadline_timer = self.loop.call_at(
                start + self.config.deadline_seconds, self._expire_due)
        if mode == MODE_BATCH and self.config.window_seconds > 0:
            self._batcher(function).enqueue(request)
            self.batched_requests += 1
        else:
            self._dispatch(function, [request])

    async def invoke(self, function: str,
                     payload: Any = None) -> GatewayResponse:
        """Serve one request end to end; never raises."""
        future = self.loop.create_future()
        self.submit(function, payload, functools.partial(_answer, future))
        return await future

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
                # Answered on the next turn, not inside this admission:
                # the victim's connection may go on to its next request.
                self.loop.call_soon(self._fail, victim, GatewayOverloaded(
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
                dispatch=self._dispatch, loop=self.loop)
            self._batchers[function] = batcher
        return batcher

    def _dispatch(self, function: str,
                  requests: List[PendingRequest]) -> None:
        """Hand a closed window (or a vanilla singleton) to the platform."""
        now = self.loop.time()
        for request in requests:
            request.dispatched_at = now
        try:
            self.platform.submit_group(
                function, [request.payload for request in requests],
                functools.partial(self._on_platform_done, requests))
        except Exception as error:
            for request in requests:
                self._fail(request, error)
            return
        self.batches_dispatched += 1
        self.dispatched_requests += len(requests)

    def _expire_due(self) -> None:
        """Answer 504 to every request whose budget ran out; re-arm."""
        deadlines, budget = self._deadlines, self.config.deadline_seconds
        now = self.loop.time()
        # The head is never a settled request: settling pops those.
        while deadlines and deadlines[0].enqueued_at + budget <= now:
            self._settle(deadlines[0], GatewayResponse(
                504, {"error": "deadline exceeded", "deadline_s": budget}))
        self._deadline_timer = self.loop.call_at(
            deadlines[0].enqueued_at + budget,
            self._expire_due) if deadlines else None

    def _fail(self, request: PendingRequest, error: BaseException) -> None:
        """Settle *request* with the status its error maps to."""
        if isinstance(error, GatewayOverloaded):
            self.admission.record_shed(SHED_QUEUE_DEPTH)
            response = GatewayResponse(
                429, {"error": "shed", "cause": SHED_QUEUE_DEPTH},
                retry_after_seconds=error.retry_after_seconds)
        elif isinstance(error, PlatformStateError):
            response = GatewayResponse(503, {"error": type(error).__name__})
        elif isinstance(error, InvocationTimeout):
            response = GatewayResponse(
                504, {"error": "invocation timeout", "detail": str(error)})
        elif isinstance(error, FunctionNotRegistered):
            response = GatewayResponse(
                404, {"error": "unknown function",
                      "function": request.function})
        else:
            response = GatewayResponse(
                500, {"error": type(error).__name__, "detail": str(error)})
        self._settle(request, response)

    def _settle(self, request: PendingRequest,
                response: GatewayResponse) -> None:
        """Hand an admitted request its answer, unless it already has one."""
        on_response = request.on_response
        if on_response is None:
            return
        request.on_response = None
        self.admission.release()
        response.request_id = request.request_id
        response.mode = request.mode
        self._finish(request.enqueued_at, response)
        if response.ok:
            self.monitor.record(request.mode, response.latency_ms)
        # Settled heads leave now, so the FIFO holds about the in-flight
        # set rather than one entry per request of the last budget.
        deadlines = self._deadlines
        while deadlines and deadlines[0].on_response is None:
            deadlines.popleft()
        try:
            on_response(response)
        except Exception as error:
            # It runs inside the completion drain or the deadline sweep,
            # which must go on for every other request.
            self.loop.call_exception_handler({
                "message": f"answering {request.request_id} raised",
                "exception": error})

    def _on_platform_done(self, requests: List[PendingRequest],
                          invocations: List[LocalInvocation]) -> None:
        # Runs on a platform thread, once per finished group: buffer it,
        # wake the loop once.
        with self._done_lock:
            self._done_buffer.append((requests, invocations))
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
        for requests, invocations in buffer:
            for invocation in invocations:
                self._complete(requests[invocation.position], invocation, now)

    def _complete(self, request: PendingRequest,
                  invocation: LocalInvocation, now: float) -> None:
        answered = request.on_response is None  # by a deadline or eviction
        if not answered:
            if invocation.error is not None:
                self._fail(request, invocation.error)
            else:
                self._settle(request, GatewayResponse(
                    200, {"result": invocation.result}))
        # The caller has its answer: a retained invocation must not pin
        # the decoded request or the handler's result.
        invocation.payload = invocation.result = None
        if answered or invocation.started_at is None:
            return  # answered elsewhere, or no handler ran: no stages
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
            "started_at": self.started_at,
            "uptime_s": self.uptime_s,
            "requests_total": self.requests_total,
            "responses_by_status": {
                str(code): count for code, count
                in sorted(self.responses_by_status.items())},
            "batches_dispatched": self.batches_dispatched,
            "batched_requests": self.batched_requests,
            "dispatched_requests": self.dispatched_requests,
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


def _answer(future: "asyncio.Future[GatewayResponse]",
            response: GatewayResponse) -> None:
    if not future.done():  # the awaiting task may have been cancelled
        future.set_result(response)


#: What ``json.dumps(obj, separators=(",", ":"))`` runs, built once:
#: ``dumps`` builds an encoder per call.  It checks no circular reference,
#: so a cycle raises RecursionError instead of ValueError.
_ENCODE_CHUNKS = c_make_encoder(None, json.JSONEncoder().default,
                                encode_basestring_ascii, None, ":", ",",
                                False, False, True)


def encode_json(obj: Any) -> str:
    """*obj* as compact JSON, as ``json.dumps`` writes it."""
    return "".join(_ENCODE_CHUNKS(obj, 0))


_SCAN_JSON = json.JSONDecoder().scan_once


def decode_json(body: bytes) -> Any:
    """``json.loads(body)``, straight to the C scanner when *body* is UTF-8
    JSON with nothing around it; anything else goes to ``json.loads``
    itself, so every value and every error is its own."""
    try:
        text = body.decode()
        value, end = _SCAN_JSON(text, 0)
        if end == len(text):
            return value
    except Exception:  # StopIteration, UnicodeDecodeError, RecursionError
        pass
    return json.loads(body)


def _head(status: int, content_type: str) -> str:
    """The part of a response head that depends on nothing else."""
    return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: ")


#: Built once per status: every answer but the Prometheus page is JSON.
_JSON_HEADS = {status: _head(status, "application/json")
               for status in _REASONS}


def _encode_response(response: GatewayResponse, keep_alive: bool) -> bytes:
    """Status line, headers and body of *response* as one buffer."""
    if response.text is not None:
        payload = response.text.encode("utf-8")
        head = _head(response.status, response.content_type or "text/plain")
    else:
        payload = encode_json(response.body).encode()  # ASCII
        head = (_JSON_HEADS.get(response.status)
                or _head(response.status, "application/json"))
    head = (f"{head}{len(payload)}\r\nConnection: "
            f"{'keep-alive' if keep_alive else 'close'}\r\n")
    if response.request_id is not None:
        head += f"X-Request-Id: {response.request_id}\r\n"
    if response.mode is not None:
        head += f"X-Dispatch-Mode: {response.mode}\r\n"
    if response.retry_after_seconds is not None:
        head += (f"Retry-After: "
                 f"{max(response.retry_after_seconds, 0.001):.3f}\r\n")
    return (head + "\r\n").encode("latin-1") + payload


def take_message(buffer: bytearray, start_line: Callable[[str], Any]):
    """Take one whole message off *buffer* (both ends frame with this):
    ``(start_line(first line), lower-cased headers, body)``, ``None`` while
    incomplete; ValueError if malformed (:class:`_BodyTooLarge`: 413)."""
    end = buffer.find(b"\n\r\n")
    bare = buffer.find(b"\n\n", 0, end if end >= 0 else len(buffer))
    if bare >= 0:
        end, body_at = bare, bare + 2
    elif end >= 0:
        body_at = end + 3
    elif len(buffer) > MAX_LINE_BYTES * (MAX_HEADER_LINES + 1):
        raise ValueError("message head too long")
    else:
        return None
    lines = buffer[:end].decode("latin-1").split("\n")
    if len(lines) > MAX_HEADER_LINES + 1:
        raise ValueError("too many header lines")
    if end > MAX_LINE_BYTES and max(map(len, lines)) > MAX_LINE_BYTES:
        raise ValueError("header line too long")
    start = start_line(lines[0].rstrip("\r"))
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        # Without chunked decoding the chunks would be read as messages.
        raise ValueError("Transfer-Encoding is not supported")
    length = int(headers.get("content-length", "0") or "0")
    if length < 0:
        raise ValueError(f"bad content length {length}")
    if length > MAX_BODY_BYTES:
        raise _BodyTooLarge(
            f"content length {length} exceeds {MAX_BODY_BYTES}")
    if len(buffer) < body_at + length:
        return None
    body = bytes(buffer[body_at:body_at + length])
    del buffer[:body_at + length]
    return start, headers, body


def _request_line(line: str) -> List[str]:
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line: {parts!r}")
    return parts


def status_line(line: str) -> int:
    """The status code of a response's first line."""
    version, status, *_ = line.split(" ", 2)
    if not version.startswith("HTTP/1.") or len(status) != 3:
        raise ValueError(f"malformed status line: {line!r}")
    return int(status)


def _parse_request(buffer: bytearray):
    """Take one whole request off the front of *buffer*.

    Returns ``(method, path, headers, body, keep_alive)``, or ``None`` while
    the request is still incomplete; raises ValueError → 400
    (:class:`_BodyTooLarge` → 413).
    """
    message = take_message(buffer, _request_line)
    if message is None:
        return None
    (method, path, version), headers, body = message
    tokens = {token.strip()
              for token in headers.get("connection", "").lower().split(",")}
    keep_alive = ("keep-alive" in tokens if version == "HTTP/1.0"
                  else "close" not in tokens)
    return method, path, headers, body, keep_alive


class _Connection(asyncio.Protocol):
    """One client connection: parse, answer in order, push back."""

    def __init__(self, server: "GatewayServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self.owed = False          # a request is waiting for its answer
        self.keep_alive = True     # of the request being answered
        self.write_paused = self.read_paused = False
        self.eof = False           # no more requests will be read
        self.closing = False
        self._serving = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        transport.max_size = READ_CHUNK_BYTES  # type: ignore[attr-defined]
        self.server._connections.add(self)
        self.server._no_connections.clear()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closing = True
        self.buffer.clear()
        self.server._connections.discard(self)
        if not self.server._connections:
            self.server._no_connections.set()

    def data_received(self, data: bytes) -> None:
        if not self.eof:  # once stopping, what is buffered is all
            self.buffer += data
            self._serve()

    def eof_received(self) -> bool:
        self.finish()
        return True  # keep the write side open for the answers owed

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._serve()

    def finish(self) -> None:
        """Read no more: answer the requests already buffered, then close."""
        self.eof = True
        self._serve()

    def _serve(self) -> None:
        """Answer buffered requests in order until one must wait."""
        if self._serving or self.closing:
            return  # re-entered by an answer given inside the loop below
        self._serving = True
        try:
            while self.buffer and not (self.owed or self.write_paused
                                       or self.closing):
                try:
                    request = _parse_request(self.buffer)
                except ValueError as error:
                    status, reason = ((413, "body too large")
                                      if isinstance(error, _BodyTooLarge)
                                      else (400, "malformed request"))
                    self.keep_alive = False
                    self._write(GatewayResponse(
                        status, {"error": reason, "detail": str(error)}))
                    return
                if request is None:
                    break
                method, path, headers, body, self.keep_alive = request
                self.owed = True
                response = self.server._route(method, path, headers, body,
                                              self._answer)
                if response is not None:
                    self._answer(response)
        finally:
            self._serving = False
        if self.closing:
            return
        blocked = self.owed or self.write_paused
        if self.eof and not blocked:
            self._close()
        elif blocked and self.buffer and not self.read_paused:
            self.read_paused = True
            self.transport.pause_reading()
        elif not blocked and self.read_paused:
            self.read_paused = False
            self.transport.resume_reading()

    def _answer(self, response: GatewayResponse) -> None:
        """Write the owed answer; go on with the next buffered request."""
        self.owed = False
        if not self.closing:  # else the client left while it ran
            self._write(response)
            self._serve()

    def _write(self, response: GatewayResponse) -> None:
        self.transport.write(_encode_response(response, self.keep_alive))
        if not self.keep_alive:
            self._close()

    def _close(self) -> None:
        self.closing = True
        self.transport.close()


class GatewayServer:
    """Hand-rolled HTTP/1.1 keep-alive server: one ``asyncio.Protocol``
    per connection, answered from the gateway's completion callback."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 8080) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._no_connections = asyncio.Event()

    async def start(self) -> None:
        self._server = await self.gateway.loop.create_server(
            functools.partial(_Connection, self), self.host, self.port)
        # Port 0 asks the OS for an ephemeral port; reflect the real one.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and flush the windows.  Each connection closes
        once its buffered requests are answered; one still open a deadline
        budget later (its client stopped reading) is aborted."""
        if self._server is not None:
            self._server.close()
        self.gateway.close()
        for connection in list(self._connections):
            connection.finish()
        if self._connections:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._no_connections.wait(),
                                       self.gateway.config.deadline_seconds)
        for connection in list(self._connections):
            connection.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- routing -------------------------------------------------------------

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

    def _route(self, method: str, path: str, headers: Dict[str, str],
               body: bytes, on_response: Callable[[GatewayResponse], None]
               ) -> Optional[GatewayResponse]:
        """Answer an ops route or a bad request now (the response); hand
        ``/invoke`` to the gateway, which answers *on_response* (None)."""
        path, _, query = path.partition("?")
        if method == "POST" and path.startswith("/invoke/"):
            if body:
                try:
                    payload = decode_json(body)
                except (ValueError, RecursionError) as error:
                    return GatewayResponse(
                        400, {"error": "invalid JSON body",
                              "detail": str(error)})
            else:
                payload = None
            self.gateway.submit(path[len("/invoke/"):], payload, on_response)
            return None
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
                    405, {"error": "method not allowed", "method": method})
            return GatewayResponse(404, {"error": "no such route",
                                         "path": path})
        # Ops endpoints get request ids from the same seeded stream, so
        # "every response carries X-Request-Id" holds on every route.
        response.request_id = self.gateway.next_request_id()
        return response
