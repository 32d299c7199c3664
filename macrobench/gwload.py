"""The live family: the gateway under an open loop and under a closed loop.

Everything here is *host* wall-clock.  ``gw-inproc-mix`` offers a seeded
Poisson schedule to ``Gateway.invoke`` whether or not the gateway keeps up
and times each request from the instant it was **due**; ``gw-http-echo``
keeps one request in flight per keep-alive connection and measures the
capacity of the HTTP path.  One event-loop thread generates all load.

The pacing loop is the benchmark's own: ``repro.gateway.loadgen.run_inproc``
times from the instant a request was fired, which hides a stalled
generator's delay from the requests queued behind the stall.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from macrobench.measure import (
    Outcome,
    RequestLog,
    goodput_ratio,
    no_span,
    percentile,
)

#: Requests fired and awaited before the timed window.  The HTTP path
#: answers in under a millisecond, so it gets more of them: a set-up
#: shorter than half a second does not repeat within a tenth.
WARMUP_REQUESTS = 400
HTTP_WARMUP_REQUESTS = 1000

INPROC_RPS = 1000.0
INPROC_WINDOW_S = 0.02
INPROC_LIMIT_MS = 100.0
HTTP_LIMIT_MS = 10.0
#: Admission bounds far above anything 1 000 rps can queue.  At the default
#: 256 per function a half-second stall of the *host* sheds a few hundred
#: requests (1 run in 120 here); with room, the stall shows as latency and
#: missed goodput and ``gateway.admission.shed`` stays a genuine alarm.
ADMISSION_ROOM = 100_000
#: A window is cut into slices this long; each workload's ``_metrics``
#: says what it takes from them.
SLICE_S = 0.5
HTTP_PROBE_REQUESTS = 500

#: One sent request as the generator leaves it: due, fired, done (loop
#: seconds), status, response body, and what the body is checked against.
Row = Tuple[float, float, float, int, object, str, object]
#: The same once its body has been checked: ..., status, body was right.
Checked = Tuple[float, float, float, int, bool]

_FIB_DIGITS: Dict[int, int] = {}


def fib_digits(n: int) -> int:
    """Decimal length of fib(n), computed apart from the demo handler."""
    if n not in _FIB_DIGITS:
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        _FIB_DIGITS[n] = len(str(a))
    return _FIB_DIGITS[n]


def body_is_right(function: str, payload, body) -> bool:
    """Does a 200 body carry the demo function's answer for *payload*?"""
    if function == "echo":
        return body == {"result": payload}
    if function == "fib":
        n = payload["n"]
        return body == {"result": {"n": n, "fib_len": fib_digits(n)}}
    if function == "io":
        return body == {"result": {"stored": payload["key"]}}
    return False


def check(rows: Sequence[Row]) -> List[Checked]:
    return [(due, fired, done, status,
             status == 200 and body_is_right(function, payload, body))
            for due, fired, done, status, body, function, payload in rows]


def to_log(rows: Sequence[Checked]) -> RequestLog:
    log = RequestLog()
    if rows:
        log.due, log.fired, log.done, log.status, log.body_ok = (
            list(column) for column in zip(*rows))
    return log


def conservation_problems(before: dict, after: dict,
                          log: RequestLog) -> List[str]:
    """``Gateway.stats()`` must account for every request exactly once."""
    sent = len(log)
    by_status: Dict[str, int] = {}
    for status in log.status:
        by_status[str(status)] = by_status.get(str(status), 0) + 1
    served = {code: count - before["responses_by_status"].get(code, 0)
              for code, count in after["responses_by_status"].items()}
    served = {code: count for code, count in served.items() if count}
    problems = []
    if after["requests_total"] - before["requests_total"] != sent:
        problems.append(
            f"gateway counted "
            f"{after['requests_total'] - before['requests_total']} "
            f"requests, {sent} were sent")
    if served != by_status:
        problems.append(f"gateway answered {served}, "
                        f"clients saw {by_status}")
    return problems


def live_problems(log: RequestLog) -> List[str]:
    wrong = sum(1 for status, ok in zip(log.status, log.body_ok)
                if status == 200 and not ok)
    refused = sum(1 for status in log.status if status != 200)
    problems = []
    if wrong:
        problems.append(f"{wrong} responses carried the wrong body")
    if refused:
        problems.append(f"{refused} of {len(log)} requests were not "
                        "answered 200")
    return problems


@dataclass
class Slice:
    """The requests answered within one ``SLICE_S`` stretch of a window."""

    seconds: float
    cpu_s: float
    log: RequestLog

    @property
    def ops(self) -> int:
        return len(self.log) - self.log.failed()

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds

    @property
    def cpu_ms_per_op(self) -> float:
        return self.cpu_s * 1000.0 / self.ops


@dataclass
class Window:
    """One measured window: every request, and the same cut into slices."""

    log: RequestLog
    cpu_s: float
    slices: List[Slice]
    problems: List[str]

    @property
    def wall_s(self) -> float:
        return max(self.log.done) - min(self.log.due)

    def median_over_slices(self, q: float) -> float:
        """Median of the slices' q-th latency percentiles.

        One stall — a collector pause, a neighbour on the host — puts
        half a second of an open loop's arrivals in the tail and moved
        the whole window's p95 from 24 ms to 90 ms in 3 runs of 20; it
        moves one or two slices' p95 and leaves the median slice alone.
        """
        return statistics.median(percentile(piece.log.latencies_ms(), q)
                                 for piece in self.slices)


def cut(rows: Sequence[Checked], marks: Sequence[Tuple[float, float]]
        ) -> List[Slice]:
    """Slices between consecutive ``(instant, cpu)`` marks.

    A request belongs to the slice its response arrived in.  The stub
    after the last whole slice is dropped: too few requests to compare.
    """
    by_done = sorted(rows, key=lambda row: row[2])
    slices = []
    at = 0
    for (t0, cpu0), (t1, cpu1) in zip(marks, marks[1:]):
        upto = at
        while upto < len(by_done) and by_done[upto][2] < t1:
            upto += 1
        if t1 - t0 >= SLICE_S / 2.0 and upto > at:
            slices.append(Slice(t1 - t0, cpu1 - cpu0,
                                to_log(by_done[at:upto])))
        at = upto
    return slices


def pin_to_one_cpu() -> set:
    """Keep every thread of this process on one processor.

    The gateway serves from one event-loop thread and hands work to
    threads that all contend for the interpreter lock, so a second
    processor buys nothing — but where the kernel happens to place those
    threads decides whether a hand-over is a same-core switch or a
    cross-core wake-up, and unpinned runs of ``gw-http-echo`` came out at
    either ~2 900 or ~1 100 requests/s for a whole run at a time.
    Returns the processors the process was allowed before.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class _LiveWorkload:
    """Loop, stack, window and teardown shared by the gateway workloads."""

    policy = "faasbatch"
    window_seconds = INPROC_WINDOW_S
    limit_ms = INPROC_LIMIT_MS
    warmup = WARMUP_REQUESTS
    request_span = "gateway.invoke"

    def __init__(self, name: str, seed: int, seconds: float, scale: float,
                 span: Callable = no_span) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.warmup_requests = max(20, int(self.warmup * scale))
        self._allowed_cpus = pin_to_one_cpu()
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        with span("workload.synth"):
            self._synthesise()
        self.loop.run_until_complete(self._start())

    def _synthesise(self) -> None:
        pass

    async def _start(self) -> None:
        from repro.gateway.admission import AdmissionConfig
        from repro.gateway.harness import CellSpec, build_stack
        from repro.gateway.loadgen import LoadgenConfig

        self.platform, self.gateway = build_stack(CellSpec(
            label=self.name, policy=self.policy,
            load=LoadgenConfig(rps=INPROC_RPS,
                               duration_seconds=self.seconds,
                               seed=self.seed),
            window_seconds=self.window_seconds,
            admission=AdmissionConfig(max_queue_depth=ADMISSION_ROOM,
                                      max_inflight=ADMISSION_ROOM)))

    async def _load(self, first_half: Optional[bool]) -> List[Row]:
        """Generate the window's load; ``None`` means the whole window."""
        raise NotImplementedError

    def _metrics(self, window: Window) -> Dict[str, float]:
        """Host-time end-to-end metrics, plus ``latency_samples``."""
        raise NotImplementedError

    @staticmethod
    def _spread(window: Window) -> float:
        """(median - best) / best slice CPU per op: the host-noise gauge."""
        costs = [piece.cpu_ms_per_op for piece in window.slices]
        return (statistics.median(costs) - min(costs)) / min(costs)

    def _window(self, first_half: Optional[bool] = None) -> Window:
        loop = self.loop

        async def marked():
            marks = []

            async def tick():
                while True:
                    marks.append((loop.time(), time.process_time()))
                    await asyncio.sleep(SLICE_S)

            ticker = loop.create_task(tick())
            try:
                rows = await self._load(first_half)
            finally:
                ticker.cancel()
                await asyncio.gather(ticker, return_exceptions=True)
            marks.append((loop.time(), time.process_time()))
            return rows, marks

        before = self.gateway.stats()
        rows, marks = loop.run_until_complete(marked())
        checked = check(rows)
        log = to_log(checked)
        problems = live_problems(log) + conservation_problems(
            before, self.gateway.stats(), log)
        return Window(log, marks[-1][1] - marks[0][1], cut(checked, marks),
                      problems)

    def measure(self) -> Outcome:
        window = self._window()
        log = window.log
        metrics = self._metrics(window)
        samples = int(metrics.pop("latency_samples"))
        metrics["slo_goodput_ratio"] = goodput_ratio(
            log.latencies_ms(), self.limit_ms, len(log))
        return Outcome(attempted=len(log), failed=log.failed(),
                       metrics=metrics, problems=window.problems,
                       samples=samples,
                       notes={"host.rep_spread": self._spread(window)})

    def trace_layers(self, tracer) -> Outcome:
        """Half the window untraced, then half with the sampler on."""
        plain = self._window(True)
        completed_before = len(self.platform.completed)
        containers_before = self.platform.containers_created
        stats_before = self.gateway.stats()
        with tracer.sampling():
            with tracer.span("loadgen.pace") as pace:
                traced = self._window(False)
        log = traced.log
        for index, (fired, done) in enumerate(zip(log.fired, log.done)):
            tracer.record(self.request_span, fired, done, pace,
                          trace_id=index)
        stats = self.gateway.stats()
        served = self.platform.completed[completed_before:]
        batches = (stats["batches_dispatched"]
                   - stats_before["batches_dispatched"])
        batched = stats["batched_requests"] - stats_before["batched_requests"]
        invoke = log.invoke_ms()
        lateness = log.lateness_ms()
        in_platform = sorted(inv.latency_seconds * 1000.0 for inv in served)
        execution = sorted(inv.execution_seconds * 1000.0 for inv in served)
        windows = len({inv.window_seq for inv in served})
        layers = tracer.self_seconds()
        layers.update({
            "workload.synth_s": tracer.total("workload.synth"),
            "workload.records_synthesised": len(plain.log) + len(log),
            "loadgen.lateness_p50_ms": percentile(lateness, 50.0),
            "loadgen.lateness_p95_ms": percentile(lateness, 95.0),
            "gateway.invoke_p50_ms": percentile(invoke, 50.0),
            "gateway.latency_p99_ms": percentile(log.latencies_ms(), 99.0),
            "gateway.batches_dispatched": batches,
            "gateway.mean_batch_size": batched / batches if batched else 1.0,
            "gateway.window_wait_p50_ms": (percentile(invoke, 50.0)
                                           - percentile(in_platform, 50.0)),
            "gateway.admission.shed": (
                sum(stats["admission"]["shed"].values())
                - sum(stats_before["admission"]["shed"].values())),
            "local.exec_p50_ms": percentile(execution, 50.0),
            "local.cold_starts": (self.platform.containers_created
                                  - containers_before),
            "local.batch_size_mean": len(served) / windows,
            "local.multiplexer.hit_ratio":
                self.platform.multiplexer_reuse_ratio(),
            "host.rep_spread": self._spread(plain),
            "trace.overhead_ratio": (
                self._metrics(traced)["cpu_ms_per_op"]
                / self._metrics(plain)["cpu_ms_per_op"]),
        })
        layers.update(self._extra_layers(log))
        return Outcome(attempted=len(plain.log) + len(log),
                       failed=plain.log.failed() + log.failed(),
                       metrics=layers,
                       problems=plain.problems + traced.problems,
                       samples=len(log) - log.failed())

    def _extra_layers(self, log: RequestLog) -> Dict[str, float]:
        return {}

    async def _stop(self) -> None:
        self.gateway.close()

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.platform.shutdown()
        self.loop.close()
        os.sched_setaffinity(0, self._allowed_cpus)


class InprocMix(_LiveWorkload):
    """Open loop: 1 000 rps Poisson, io 0.6 / echo 0.3 / fib 0.1."""

    def _synthesise(self) -> None:
        from repro.gateway.loadgen import LoadgenConfig, build_schedule

        self.schedule = build_schedule(LoadgenConfig(
            rps=INPROC_RPS, duration_seconds=self.seconds, seed=self.seed))
        self.warmup_schedule = build_schedule(LoadgenConfig(
            rps=INPROC_RPS, duration_seconds=1.0,
            seed=self.seed + 7919))[:self.warmup_requests]

    async def _start(self) -> None:
        await super()._start()
        await self._offer(self.warmup_schedule, 0.0)

    async def _offer(self, arrivals, origin_s: float) -> List[Row]:
        """Send each arrival at its offset; never wait for a response."""
        loop = self.loop
        invoke = self.gateway.invoke
        rows: List[Row] = []

        async def fire(arrival, due: float, fired: float) -> None:
            response = await invoke(arrival.function, arrival.payload)
            rows.append((due, fired, loop.time(), response.status,
                         response.body, arrival.function, arrival.payload))

        tasks = []
        start = loop.time() - origin_s
        for arrival in arrivals:
            due = start + arrival.offset_seconds
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(fire(arrival, due, loop.time())))
        await asyncio.gather(*tasks)
        return rows

    async def _load(self, first_half: Optional[bool]) -> List[Row]:
        if first_half is None:
            return await self._offer(self.schedule, 0.0)
        half = self.seconds / 2.0
        if first_half:
            return await self._offer(
                [a for a in self.schedule if a.offset_seconds < half], 0.0)
        return await self._offer(
            [a for a in self.schedule if a.offset_seconds >= half], half)

    def _metrics(self, window: Window) -> Dict[str, float]:
        """An open loop does the schedule's work whatever happens, so the
        whole window is one sample of throughput and of CPU per request;
        latency is the median slice's, which a single stall cannot move."""
        good = len(window.log) - window.log.failed()
        return {
            "ops_per_s": good / window.wall_s,
            "cpu_ms_per_op": window.cpu_s * 1000.0 / good,
            "latency_p50_ms": window.median_over_slices(50.0),
            "latency_p95_ms": window.median_over_slices(95.0),
            "latency_samples": good,
        }


class HttpEcho(_LiveWorkload):
    """Closed loop: one client per keep-alive connection, echo, no window."""

    policy = "vanilla"
    window_seconds = 0.0
    limit_ms = HTTP_LIMIT_MS
    warmup = HTTP_WARMUP_REQUESTS
    request_span = "gateway.http.request"

    async def _start(self) -> None:
        from repro.gateway.loadgen import HttpPool
        from repro.gateway.server import GatewayServer

        await super()._start()
        self.clients = min(2, os.cpu_count() or 1)
        self.server = GatewayServer(self.gateway, port=0)
        await self.server.start()
        self.pool = HttpPool(self.server.host, self.server.port,
                             size=self.clients)
        await self.pool.start()
        await self._clients(self.seed + 7919, None,
                            self.warmup_requests // self.clients)

    async def _clients(self, seed: int, seconds: Optional[float],
                       requests_each: Optional[int]) -> List[Row]:
        loop = self.loop
        request = self.pool.request
        rows: List[Row] = []
        stop_at = None if seconds is None else loop.time() + seconds

        async def client(rng: random.Random) -> None:
            sent = 0
            while requests_each is None or sent < requests_each:
                fired = loop.time()
                if stop_at is not None and fired >= stop_at:
                    break
                n = rng.randrange(1000)
                status, _headers, body = await request("/invoke/echo",
                                                       {"n": n})
                rows.append((fired, fired, loop.time(), status, body,
                             "echo", n))
                sent += 1

        await asyncio.gather(*(
            client(random.Random(seed * 1_000_003 + index))
            for index in range(self.clients)))
        return [row[:4] + (_decoded(row[4]), "echo", {"n": row[6]})
                for row in rows]

    async def _load(self, first_half: Optional[bool]) -> List[Row]:
        if first_half is None:
            return await self._clients(self.seed, self.seconds, None)
        return await self._clients(self.seed + (0 if first_half else 1),
                                   self.seconds / 2.0, None)

    def _metrics(self, window: Window) -> Dict[str, float]:
        """A closed loop slows down whenever anything gets in its way, so
        the slice that answered the most requests was disturbed least:
        every host number is that slice's, as a batch workload's are its
        fastest repetition's.  (Over 12 runs here the fastest slice's
        throughput spread 3 %, the median slice's 10 %.)"""
        fastest = max(window.slices, key=lambda piece: piece.ops_per_s)
        latencies = fastest.log.latencies_ms()
        return {
            "ops_per_s": fastest.ops_per_s,
            "cpu_ms_per_op": fastest.cpu_ms_per_op,
            "latency_p50_ms": percentile(latencies, 50.0),
            "latency_p95_ms": percentile(latencies, 95.0),
            "latency_samples": len(latencies),
        }

    def _extra_layers(self, log: RequestLog) -> Dict[str, float]:
        """HTTP p50 less the same request made without a socket."""

        async def probe() -> List[float]:
            loop = self.loop
            rng = random.Random(self.seed)
            took = []
            for _ in range(HTTP_PROBE_REQUESTS):
                fired = loop.time()
                await self.gateway.invoke("echo", {"n": rng.randrange(1000)})
                took.append((loop.time() - fired) * 1000.0)
            return sorted(took)

        inproc = self.loop.run_until_complete(probe())
        return {"gateway.server.http_overhead_p50_ms":
                percentile(log.invoke_ms(), 50.0) - percentile(inproc, 50.0)}

    async def _stop(self) -> None:
        await self.pool.close()
        await self.server.stop()
        # The server's per-connection tasks see the close on their next
        # turn; let them finish before the loop goes away.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)


def _decoded(body: bytes):
    """The JSON a response body carries; ``None`` when it is not JSON."""
    try:
        return json.loads(body)
    except ValueError:
        return None
