"""Seeded open-loop load generation against the gateway.

**Open loop** is the property that matters: arrivals follow the seeded
schedule regardless of how the server is doing, exactly like real users.
A closed-loop driver (fire, wait, fire) self-throttles under overload
and hides every queueing pathology the admission layer exists to handle.

Two transports share one schedule format:

* ``inproc`` — drives :meth:`Gateway.invoke` directly as coroutines on
  the event loop.  No sockets, no serialisation: this is how the bench
  sustains tens of thousands of RPS on one machine.
* ``http``   — a minimal stdlib HTTP/1.1 client over a pool of
  keep-alive connections, exercising the full wire path.

Results roll up into a ``gateway_cells`` bench row (schema v4) and a
record stream (``gateway-cell`` / ``gateway-cdf`` / ``gateway-series`` /
``gateway-flip``) that :mod:`repro.obs.report` renders as per-policy
latency CDFs and goodput-over-time panels.
"""

from __future__ import annotations

import asyncio
import collections
import random
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.stats import percentile
from repro.gateway.server import (READ_CHUNK_BYTES, Gateway, GatewayServer,
                                  encode_json, status_line, take_message)

DEFAULT_MIX: Mapping[str, float] = {"io": 0.6, "echo": 0.3, "fib": 0.1}


@dataclass(frozen=True)
class LoadgenConfig:
    """One load cell: Poisson arrivals at a rate, for a duration, over a
    mix — all derived from one seed."""

    rps: float
    duration_seconds: float
    seed: int = 13
    mix: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX))
    #: Goodput-over-time bucketing for the report series.
    bucket_seconds: float = 0.25
    #: HTTP transport: size of the keep-alive connection pool.
    max_connections: int = 32

    def __post_init__(self) -> None:
        if self.rps <= 0:
            raise ConfigurationError(f"rps must be > 0, got {self.rps}")
        if self.duration_seconds <= 0:
            raise ConfigurationError(
                f"duration_seconds must be > 0, got {self.duration_seconds}")
        if not self.mix or any(w <= 0 for w in self.mix.values()):
            raise ConfigurationError("mix needs positive weights")
        if self.bucket_seconds <= 0:
            raise ConfigurationError(
                f"bucket_seconds must be > 0, got {self.bucket_seconds}")
        if self.max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, got {self.max_connections}")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, which function, what payload."""

    offset_seconds: float
    function: str
    payload: Any


def _payload_for(function: str, rng: random.Random) -> Any:
    if function == "echo":
        return {"n": rng.randrange(1000)}
    if function == "sleep":
        return {"ms": round(rng.uniform(0.5, 2.0), 3)}
    if function == "fib":
        return {"n": rng.randrange(150, 400)}
    if function == "io":
        return {"key": f"k{rng.randrange(64)}"}
    return None


def build_schedule(config: LoadgenConfig,
                   start_offset_seconds: float = 0.0) -> List[Arrival]:
    """The full arrival schedule — a pure function of the config."""
    rng = random.Random(config.seed)
    functions = sorted(config.mix)
    weights = [config.mix[name] for name in functions]
    arrivals: List[Arrival] = []
    now = 0.0
    while True:
        now += rng.expovariate(config.rps)
        if now >= config.duration_seconds:
            break
        [function] = rng.choices(functions, weights=weights)
        arrivals.append(Arrival(now + start_offset_seconds, function,
                                _payload_for(function, rng)))
    return arrivals


def build_phased_schedule(phases: List[LoadgenConfig]) -> List[Arrival]:
    """Concatenate per-phase schedules back to back.

    Traffic that *changes shape* mid-run is what exercises the
    degradation monitor: e.g. an io-heavy phase (batching wins), an
    echo-only phase (the window is pure tax → flip to vanilla), then
    io again (probes rediscover the batching edge → flip back).
    """
    if not phases:
        raise ConfigurationError("at least one phase required")
    arrivals: List[Arrival] = []
    offset = 0.0
    for phase in phases:
        arrivals.extend(build_schedule(phase, start_offset_seconds=offset))
        offset += phase.duration_seconds
    return arrivals


@dataclass
class RequestSample:
    """Measured outcome of one fired request."""

    offset_seconds: float
    lateness_ms: float
    status: int
    latency_ms: float
    mode: Optional[str]


class LoadResult:
    """All samples of one cell plus the gateway's own counters."""

    def __init__(self, label: str, policy: str, transport: str,
                 config: LoadgenConfig,
                 samples: List[RequestSample],
                 wall_seconds: float,
                 gateway_stats: dict) -> None:
        self.label = label
        self.policy = policy
        self.transport = transport
        self.config = config
        self.samples = samples
        self.wall_seconds = wall_seconds
        self.gateway_stats = gateway_stats

    # -- aggregation -------------------------------------------------------------

    def _ok(self) -> List[RequestSample]:
        return [s for s in self.samples if s.status == 200]

    @staticmethod
    def _latency_summary(latencies: List[float]) -> dict:
        if not latencies:
            return {"count": 0}
        ordered = sorted(latencies)
        summary = {"count": len(ordered),
                   "mean": round(sum(ordered) / len(ordered), 3)}
        for q in (50, 95, 99):
            summary[f"p{q}"] = round(percentile(ordered, q), 3)
        summary["max"] = round(ordered[-1], 3)
        return summary

    def cell(self) -> dict:
        """The ``gateway_cells`` bench row for this run."""
        ok = self._ok()
        shed = sum(1 for s in self.samples if s.status == 429)
        timeouts = sum(1 for s in self.samples if s.status == 504)
        errors = sum(1 for s in self.samples
                     if s.status not in (200, 429, 504))
        requests = len(self.samples)
        wall = max(self.wall_seconds, 1e-9)
        degradation = self.gateway_stats.get("degradation", {})
        batches = self.gateway_stats.get("batches_dispatched", 0)
        dispatched = self.gateway_stats.get("dispatched_requests", 0)
        return {
            "cell": self.label,
            "policy": self.policy,
            "transport": self.transport,
            "config": {
                "rps": self.config.rps,
                "duration_s": self.config.duration_seconds,
                "seed": self.config.seed,
                "mix": dict(sorted(self.config.mix.items())),
            },
            "offered_rps": round(self.config.rps, 3),
            "requests": requests,
            "completed": len(ok),
            "shed": shed,
            "timeouts": timeouts,
            "errors": errors,
            "achieved_rps": round(requests / wall, 3),
            "goodput_rps": round(len(ok) / wall, 3),
            "goodput_ratio": (round(len(ok) / requests, 6)
                              if requests else 0.0),
            "latency_ms": self._latency_summary(
                [s.latency_ms for s in ok]),
            "lateness_ms": self._latency_summary(
                [s.lateness_ms for s in self.samples]),
            "mode_flips": list(degradation.get("flips", [])),
            "final_mode": degradation.get("mode"),
            "batches_dispatched": batches,
            "mean_batch_size": (round(dispatched / batches, 3)
                                if batches else 0.0),
        }

    def cdf_points(self, max_points: int = 128) -> List[List[float]]:
        """Downsampled empirical CDF of successful-response latency."""
        ordered = sorted(s.latency_ms for s in self._ok())
        if not ordered:
            return []
        n = len(ordered)
        step = max(1, n // max_points)
        points = [[round(ordered[i], 3), round((i + 1) / n, 5)]
                  for i in range(0, n, step)]
        if points[-1][1] != 1.0:
            points.append([round(ordered[-1], 3), 1.0])
        return points

    def goodput_series(self) -> Dict[str, List[List[float]]]:
        """Per-bucket offered/goodput/shed rates over the run."""
        bucket = self.config.bucket_seconds
        buckets: Dict[int, Dict[str, int]] = {}
        for sample in self.samples:
            index = int(sample.offset_seconds / bucket)
            row = buckets.setdefault(index, {"offered": 0, "ok": 0,
                                             "shed": 0})
            row["offered"] += 1
            if sample.status == 200:
                row["ok"] += 1
            elif sample.status == 429:
                row["shed"] += 1
        series: Dict[str, List[List[float]]] = {
            "offered_rps": [], "goodput_rps": [], "shed_rps": []}
        for index in sorted(buckets):
            t = round((index + 0.5) * bucket, 3)
            row = buckets[index]
            series["offered_rps"].append([t, round(row["offered"] / bucket, 3)])
            series["goodput_rps"].append([t, round(row["ok"] / bucket, 3)])
            series["shed_rps"].append([t, round(row["shed"] / bucket, 3)])
        return series

    def report_records(self) -> List[dict]:
        """Record stream consumed by :mod:`repro.obs.report`."""
        records: List[dict] = [{"type": "gateway-cell", "cell": self.cell()}]
        points = self.cdf_points()
        if points:
            records.append({"type": "gateway-cdf", "policy": self.label,
                            "points": points})
        for name, points in self.goodput_series().items():
            records.append({"type": "gateway-series", "policy": self.label,
                            "name": name, "points": points})
        for flip in self.gateway_stats.get(
                "degradation", {}).get("flips", []):
            records.append({"type": "gateway-flip", "policy": self.label,
                            "seq": flip["seq"], "from": flip["from"],
                            "to": flip["to"]})
        return records


# -- drivers ---------------------------------------------------------------------


async def run_inproc(gateway: Gateway, schedule: List[Arrival],
                     label: str, policy: str,
                     config: LoadgenConfig) -> LoadResult:
    """Fire *schedule* at the gateway core directly (no sockets)."""

    loop = gateway.loop
    samples: List[RequestSample] = []
    start = loop.time()

    async def fire(arrival: Arrival, fired_at: float) -> None:
        response = await gateway.invoke(arrival.function, arrival.payload)
        samples.append(RequestSample(
            offset_seconds=arrival.offset_seconds,
            lateness_ms=(fired_at - start
                         - arrival.offset_seconds) * 1000.0,
            status=response.status,
            latency_ms=response.latency_ms,
            mode=response.mode))

    await _pace(loop, schedule, start, fire)
    wall = loop.time() - start
    return LoadResult(label, policy, "inproc", config, samples, wall,
                      gateway.stats())


async def run_http(server: GatewayServer, schedule: List[Arrival],
                   label: str, policy: str,
                   config: LoadgenConfig) -> LoadResult:
    """Fire *schedule* through real HTTP connections (keep-alive pool)."""

    loop = asyncio.get_event_loop()
    pool = HttpPool(server.host, server.port,
                    size=config.max_connections)
    await pool.start()
    samples: List[RequestSample] = []
    start = loop.time()

    async def fire(arrival: Arrival, fired_at: float) -> None:
        t0 = loop.time()
        status, headers, _body = await pool.request(
            f"/invoke/{arrival.function}", arrival.payload)
        samples.append(RequestSample(
            offset_seconds=arrival.offset_seconds,
            lateness_ms=(fired_at - start
                         - arrival.offset_seconds) * 1000.0,
            status=status,
            latency_ms=(loop.time() - t0) * 1000.0,
            mode=headers.get("x-dispatch-mode")))

    try:
        await _pace(loop, schedule, start, fire)
    finally:
        wall = loop.time() - start
        await pool.close()
    return LoadResult(label, policy, "http", config, samples, wall,
                      server.gateway.stats())


async def _pace(loop: asyncio.AbstractEventLoop, schedule: List[Arrival],
                start: float, fire) -> None:
    """Open-loop pacing: spawn each request at its scheduled offset."""
    tasks = []
    for arrival in schedule:
        delay = start + arrival.offset_seconds - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(fire(arrival, loop.time())))
    if tasks:
        await asyncio.gather(*tasks)


class _PoolConnection(asyncio.Protocol):
    """One keep-alive connection of an :class:`HttpPool`: one request in
    flight, its answer framed straight out of the receive buffer."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.closed = asyncio.get_running_loop().create_future()
        self.answer: Optional[asyncio.Future] = None  # the owed answer

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        try:
            response = take_message(self.buffer, status_line)
        except ValueError:
            self.transport.abort()  # connection_lost fails the answer
            return
        answer = self.answer
        if response is not None and answer is not None \
                and not answer.done():
            answer.set_result(response)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed.set_result(None)
        if self.answer is not None and not self.answer.done():
            self.answer.set_exception(ConnectionResetError("dropped"))


class HttpPool:
    """A fixed pool of keep-alive HTTP/1.1 connections (stdlib only)."""

    def __init__(self, host: str, port: int, size: int = 32) -> None:
        self.host = host
        self.port = port
        self.size = size
        #: Idle connections; ``None`` is a slot whose connection dropped.
        self._free: Deque[Optional[_PoolConnection]] = collections.deque()
        #: Requests waiting for a slot, first come first served.
        self._waiting: Deque[asyncio.Future] = collections.deque()
        self._all: List[_PoolConnection] = []
        #: Every request's headers but its ``Content-Length`` value.
        self._headers = (f"Host: {host}:{port}\r\nContent-Type: "
                         f"application/json\r\nConnection: keep-alive\r\n"
                         f"Content-Length: ").encode("latin-1")

    async def start(self) -> None:
        for _ in range(self.size):
            self._put(await self._connect())

    def _put(self, connection: Optional[_PoolConnection]) -> None:
        """Hand a slot to the first live waiter, or park it."""
        while self._waiting:
            waiter = self._waiting.popleft()
            if not waiter.done():
                waiter.set_result(connection)
                return
        self._free.append(connection)

    async def _wait(self) -> Optional[_PoolConnection]:
        """Wait for a slot (none is idle)."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiting.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                self._put(waiter.result())  # handed over as it was cancelled
            raise

    async def _connect(self) -> _PoolConnection:
        transport, connection = await asyncio.get_running_loop(
            ).create_connection(_PoolConnection, self.host, self.port)
        transport.max_size = READ_CHUNK_BYTES  # type: ignore[attr-defined]
        connection.transport = transport
        self._all.append(connection)
        return connection

    async def _discard(self, connection: _PoolConnection) -> None:
        self._all.remove(connection)
        connection.transport.close()
        await connection.closed

    async def close(self) -> None:
        for connection in list(self._all):
            await self._discard(connection)

    async def request(self, path: str, payload: Any
                      ) -> Tuple[int, Dict[str, str], bytes]:
        """POST *payload* as JSON; returns (status, headers, body).

        A dropped or refused connection is a transport-level 503; the slot
        reconnects on its next request.
        """
        body = b"" if payload is None else encode_json(payload).encode()
        connection = (self._free.popleft() if self._free
                      else await self._wait())
        try:
            if connection is None:
                connection = await self._connect()
            if connection.closed.done():
                raise ConnectionResetError("dropped while idle")
            connection.answer = asyncio.get_running_loop().create_future()
            connection.transport.write(b"POST %s HTTP/1.1\r\n%s%d\r\n\r\n%s"
                                       % (path.encode("latin-1"),
                                          self._headers, len(body), body))
            return await connection.answer
        except OSError:
            if connection is not None:
                await self._discard(connection)
                connection = None
            return 503, {}, b""
        except asyncio.CancelledError:
            if connection is not None:  # its late answer is no one's
                self._all.remove(connection)
                connection.transport.abort()
                connection = None
            raise
        finally:
            self._put(connection)
