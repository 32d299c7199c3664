"""Spans around the benchmark's own calls, and a sampler for what is under them.

Imported only by ``--trace 1`` runs.  Nothing in ``repro`` is wrapped or
patched: a span brackets a call the benchmark itself makes into a layer,
and the time *inside* that call is split by a sampler that looks at every
program thread's Python stack every couple of milliseconds and charges the
CPU the thread used since the last look to the innermost ``repro`` module
on the stack.  Charging per-thread CPU clocks rather than
ticks means a thread that is parked — in ``select``, on a lock, in a
handler's ``sleep`` — is charged nothing, whatever its stack says.

All instants are ``time.monotonic()`` seconds, the asyncio loop's clock,
so request spans built from a live window line up with the rest.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from macrobench.measure import PER_LAYER

#: Seconds between sampler ticks (wall-clock interval timer).
SAMPLE_INTERVAL_S = 0.004
#: Threads other than the main one are looked at every so many ticks: a
#: look at the gateway's hundred-odd threads costs 0.2 ms.
OTHERS_EVERY = 12
#: A main thread found in this file is waiting for I/O, not working.
_BLOCKED_IN = os.path.join("", "selectors.py")

BENCH = "loadgen"
EVENTLOOP = "host.eventloop"
OTHER = "host.other"

_SELF_SUFFIX = ".self_s"
#: ``<layer>.self_s`` metric -> module-path prefix it sums.
_LAYER_PREFIXES = {name[:-len(_SELF_SUFFIX)] for name, _unit, _better
                   in PER_LAYER if name.endswith(_SELF_SUFFIX)}
#: The load generator is the benchmark's pacing code plus the program's
#: HTTP client pool.
_ALIASES = {"gateway.loadgen": BENCH}


class ModuleMap:
    """Stack frame -> the layer that pays for it."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self._repro = os.path.join(repro_dir, "")
        self._bench = os.path.join(bench_dir, "")
        self._loop = os.path.join("asyncio", "base_events.py")
        self._files: Dict[str, Optional[str]] = {}

    def of_file(self, filename: str) -> Optional[str]:
        """Module path of a ``repro`` file, a marker for the benchmark's
        own files and the event loop, ``None`` for anything else."""
        if filename.startswith(self._repro):
            module = filename[len(self._repro):].rsplit(".", 1)[0]
            module = module.replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[:-len(".__init__")]
            return _ALIASES.get(module, module)
        if filename.startswith(self._bench):
            return BENCH
        if filename.endswith(self._loop):
            return EVENTLOOP
        return None

    def of_frame(self, frame) -> str:
        """Innermost frame that belongs to someone, walking outwards.

        Library code is paid for by whoever called it; the event loop's
        own bookkeeping stops the walk so it is not billed to the
        benchmark file that started the loop.
        """
        files = self._files
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                owner = files[filename]
            except KeyError:
                owner = files[filename] = self.of_file(filename)
            if owner is not None:
                return owner
            frame = frame.f_back
        return OTHER


def layer_of(module: str) -> str:
    """The ``<layer>.self_s`` metric a module's time is reported under."""
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        prefix = ".".join(parts[:length])
        if prefix in _LAYER_PREFIXES:
            return prefix
    return OTHER


class Sampler:
    """Splits each thread's CPU over the modules it was seen running in.

    The tick is an interval-timer signal, whose Python handler runs on
    the main thread at its next bytecode and is handed the frame it
    interrupted.  That matters because the main thread is where the
    simulator and the gateway's event loop run: a sampler *thread* gets
    to look only when the interpreter lock is handed over, which a loop
    that works in sub-millisecond bursts does only as it blocks in
    ``select`` — it would never be seen at work.

    Main thread: its CPU (exact, from its clock) is split in proportion
    to the ticks that found it in each module, leaving out ticks that
    found it blocked in ``select``.  Other threads (the gateway's
    container workers) are looked at every ``OTHERS_EVERY`` ticks, where
    they last gave up the lock, and charged the CPU they used since:
    good to the package, not to the line.
    """

    def __init__(self, modules: ModuleMap) -> None:
        self.modules = modules
        self.main_cpu_s = 0.0
        self.main_ticks: Dict[str, int] = {}
        self.others_cpu_by_module: Dict[str, float] = {}
        self.ticks = 0
        self._main = threading.main_thread().ident
        self._main_clock = 0.0
        #: thread id -> (CPU seconds charged so far, frame, instruction)
        self._others: Dict[int, Tuple[float, object, int]] = {}
        self._previous = None

    def start(self) -> None:
        if threading.get_ident() != self._main:
            raise RuntimeError("the sampler ticks on the main thread")
        self._main_clock = time.thread_time()
        self._look_at_others(charge=False)
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.main_cpu_s = time.thread_time() - self._main_clock
        self._look_at_others(charge=True)

    def cpu_by_module(self) -> Dict[str, float]:
        """CPU seconds per module over the sampled stretch."""
        cpu = dict(self.others_cpu_by_module)
        seen_running = sum(self.main_ticks.values())
        for module, ticks in self.main_ticks.items():
            cpu[module] = (cpu.get(module, 0.0)
                           + self.main_cpu_s * ticks / seen_running)
        return cpu

    def _on_tick(self, _signum: int, frame) -> None:
        self.ticks += 1
        if not frame.f_code.co_filename.endswith(_BLOCKED_IN):
            module = self.modules.of_frame(frame)
            self.main_ticks[module] = self.main_ticks.get(module, 0) + 1
        if self.ticks % OTHERS_EVERY == 0:
            self._look_at_others(charge=True)

    def _look_at_others(self, charge: bool) -> None:
        seen: Dict[int, Tuple[float, object, int]] = {}
        for ident, frame in sys._current_frames().items():
            if ident == self._main:
                continue
            before = self._others.get(ident)
            if (before is not None and before[1] is frame
                    and before[2] == frame.f_lasti):
                # Parked where it was (the gateway keeps a hundred pooled
                # workers): skip the clock read.  Whatever it did use is
                # charged the next time it is seen to have moved.
                seen[ident] = before
                continue
            try:
                cpu = time.clock_gettime(time.pthread_getcpuclockid(ident))
            except OSError:
                continue
            seen[ident] = (cpu, frame, frame.f_lasti)
            charged = before[0] if before is not None else 0.0
            # A thread id is reused once its thread has ended; a clock
            # that went backwards is a new thread's.
            used = cpu - charged if cpu >= charged else cpu
            if charge and used > 0.0:
                module = self.modules.of_frame(frame)
                self.others_cpu_by_module[module] = (
                    self.others_cpu_by_module.get(module, 0.0) + used)
        self._others = seen


class Tracer:
    """In-memory spans plus the sampler's totals for one traced run."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.spans: List[Dict[str, object]] = []
        self.cpu_by_module: Dict[str, float] = {}
        self.sampled_process_cpu_s = 0.0
        self._modules = ModuleMap(repro_dir, bench_dir)
        self._ids = itertools.count(1)
        self._open: List[int] = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[int]:
        """Bracket one call made from the benchmark's main thread."""
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            self._open.pop()
            self.spans.append({"id": span_id, "parent": parent,
                               "name": name, "start_s": start,
                               "end_s": end, **attrs})

    def record(self, name: str, start_s: float, end_s: float,
               parent: Optional[int], **attrs: object) -> None:
        """Add a span whose instants were taken elsewhere (a request)."""
        self.spans.append({"id": next(self._ids), "parent": parent,
                           "name": name, "start_s": start_s,
                           "end_s": end_s, **attrs})

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(span["end_s"] - span["start_s"]  # type: ignore[operator]
                   for span in self.spans if span["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda row: row["start_s"]):
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps(
                {"name": "sampler.cpu_by_module",
                 "seconds": dict(sorted(self.cpu_by_module.items()))}) + "\n")

    # -- sampling ------------------------------------------------------------

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample every program thread while the block runs."""
        sampler = Sampler(self._modules)
        cpu0 = time.process_time()
        sampler.start()
        try:
            yield
        finally:
            sampler.stop()
            self.sampled_process_cpu_s += time.process_time() - cpu0
            for module, cpu in sampler.cpu_by_module().items():
                self.cpu_by_module[module] = (
                    self.cpu_by_module.get(module, 0.0) + cpu)

    def self_seconds(self, per: int = 1) -> Dict[str, float]:
        """Every ``*.self_s`` layer metric, divided over *per* repetitions.

        ``host.unsampled_cpu_s`` is the process CPU the sampler could not
        place: threads that lived and died between two looks.
        """
        layers = {prefix + _SELF_SUFFIX: 0.0 for prefix in _LAYER_PREFIXES}
        for module, cpu in self.cpu_by_module.items():
            layers[layer_of(module) + _SELF_SUFFIX] += cpu / per
        layers["host.unsampled_cpu_s"] = max(
            0.0, self.sampled_process_cpu_s
            - sum(self.cpu_by_module.values())) / per
        return layers
