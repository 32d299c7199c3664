"""Sharded cluster sim: shard == single-process identity, merge safety."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import sharded
from repro.cluster.sharded import (
    SHARD_SCHEDULERS,
    ShardResult,
    ShardedClusterConfig,
    merge_shard_results,
    run_shard,
    run_sharded_cluster,
    stable_hash,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.workload.generator import tiled_fib_stream

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SMALL = ShardedClusterConfig(invocations=3000, functions=8, seed=13,
                             tile_invocations=1000, workers=4, shards=2)


def _optimal_makespan(loads, shards, upper):
    """Smallest heaviest-shard load over every split of *loads*
    (exact branch and bound; *upper* is any achievable value)."""
    jobs = sorted((load for load in loads if load), reverse=True)
    best = [upper]

    def place(index, totals):
        if index == len(jobs):
            best[0] = min(best[0], max(totals))
            return
        tried = set()
        for shard, total in enumerate(totals):
            if total in tried or total + jobs[index] >= best[0]:
                continue
            tried.add(total)
            totals[shard] += jobs[index]
            place(index + 1, totals)
            totals[shard] -= jobs[index]

    place(0, [0] * shards)
    return best[0]


class TestShardedClusterConfig:
    def test_rejects_more_shards_than_workers(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedClusterConfig(workers=2, shards=3)

    def test_rejects_unknown_scheduler(self):
        # Kraken is deliberately unsupported: its learned parameters have
        # no side channel in the shard protocol.
        assert "Kraken" not in SHARD_SCHEDULERS
        with pytest.raises(ConfigurationError, match="scheduler"):
            ShardedClusterConfig(scheduler="Kraken")

    def test_worker_indices_stripe_and_partition(self):
        # Packed by load, not striped: the stripe would give 7 500 and
        # 12 500 here; LPT splits the 20 000 invocations evenly.
        config = ShardedClusterConfig(workers=5, shards=2)
        assert config.worker_loads() == [0, 7500, 5000, 5000, 2500]
        assert config.worker_indices(0) == [0, 1, 4]
        assert config.worker_indices(1) == [2, 3]
        smoke = ShardedClusterConfig(workers=4, shards=2)
        assert smoke.worker_loads() == [2500, 2500, 5000, 10000]
        assert smoke.worker_indices(0) == [3]
        assert smoke.worker_indices(1) == [0, 1, 2]
        with pytest.raises(ConfigurationError):
            config.worker_indices(2)

    def test_zero_load_workers_leave_no_shard_empty(self):
        # One function: a single loaded worker; the idle ones still
        # spread so every shard (and subprocess) owns a worker.
        config = ShardedClusterConfig(invocations=100, functions=1,
                                      workers=4, shards=3)
        owned = [config.worker_indices(s) for s in range(3)]
        assert sorted(sum(owned, [])) == [0, 1, 2, 3]
        assert all(owned)

    @settings(max_examples=200, deadline=None)
    @given(invocations=st.integers(1, 10**7), functions=st.integers(1, 64),
           workers=st.integers(1, 12), data=st.data())
    def test_lpt_packing_partitions_and_meets_graham_bound(
            self, invocations, functions, workers, data):
        shards = data.draw(st.integers(1, workers), label="shards")
        config = ShardedClusterConfig(invocations=invocations,
                                      functions=functions,
                                      workers=workers, shards=shards)
        owned = [config.worker_indices(s) for s in range(shards)]
        assert sorted(sum(owned, [])) == list(range(workers))
        assert all(part == sorted(part) for part in owned)
        assert owned == [config.worker_indices(s) for s in range(shards)]
        loads = config.worker_loads()
        assert sum(loads) == invocations
        heaviest = max(sum(loads[w] for w in part) for part in owned)
        # Graham: LPT <= (4/3 - 1/(3m)) x the best split.  The best split
        # is solved exactly: max(largest, total/m) is not a valid
        # stand-in — 74 invocations, 57 functions, 8 workers, 6 shards
        # packs to 17, which is optimal, against 4/3 x 12.33.
        best = _optimal_makespan(loads, shards, upper=heaviest)
        assert max(max(loads), invocations / shards) <= best <= heaviest
        assert 3 * shards * heaviest <= (4 * shards - 1) * best

    def test_round_trips_through_dict(self):
        assert ShardedClusterConfig(**SMALL.to_dict()) == SMALL

    @settings(max_examples=40, deadline=None)
    @given(invocations=st.integers(1, 1500), functions=st.integers(1, 12),
           workers=st.integers(1, 6), tile=st.integers(50, 600),
           seed=st.integers(0, 99), data=st.data())
    def test_shard_streams_are_the_full_stream_routed(
            self, invocations, functions, workers, tile, seed, data):
        shards = data.draw(st.integers(1, workers), label="shards")
        config = ShardedClusterConfig(
            invocations=invocations, functions=functions, seed=seed,
            tile_invocations=tile, workers=workers, shards=shards)
        full = [(r.arrival_ms, r.function_id, r.payload)
                for r in tiled_fib_stream(invocations=invocations,
                                          functions=functions, seed=seed,
                                          tile_invocations=tile)]
        loads = config.worker_loads()
        streamed = 0
        for shard in range(shards):
            owned = config.worker_indices(shard)
            stream = config.shard_stream(shard)
            mine = [(r.arrival_ms, r.function_id, r.payload)
                    for r in (stream or ())]
            assert mine == [record for record in full
                            if stable_hash(record[1]) % workers in owned]
            assert (len(stream) if stream else 0) \
                == sum(loads[worker] for worker in owned)
            streamed += len(mine)
        assert streamed == invocations


class TestShardIdentity:
    """The headline claim: sharded == single-process, exactly."""

    @pytest.fixture(scope="class")
    def sharded(self):
        return run_sharded_cluster(SMALL, isolate=False)

    @pytest.fixture(scope="class")
    def single(self):
        return run_sharded_cluster(dataclasses.replace(SMALL, shards=1),
                                   isolate=False)

    def test_per_worker_counts_identical(self, sharded, single):
        assert sharded.per_worker_invocations() \
            == single.per_worker_invocations()
        assert sharded.completed == SMALL.invocations

    def test_latency_percentiles_identical(self, sharded, single):
        for q in (50.0, 95.0, 99.0, 100.0):
            assert sharded.sink.latency_percentile(q) \
                == single.sink.latency_percentile(q)

    def test_completion_time_identical(self, sharded, single):
        assert sharded.completion_ms == single.completion_ms

    def test_cluster_result_view(self, sharded, single):
        view = sharded.to_cluster_result()
        solo = single.to_cluster_result()
        assert view.per_worker_invocations == solo.per_worker_invocations
        assert view.per_worker_containers == solo.per_worker_containers
        assert view.per_worker_memory_mb == solo.per_worker_memory_mb

    def test_one_shard_equals_unsharded(self):
        solo = dataclasses.replace(SMALL, invocations=1000, shards=1)
        result = run_sharded_cluster(solo, isolate=False)
        assert result.completed == 1000
        assert sum(result.per_worker_invocations()) == 1000


class TestPackedPartition:
    """The partition cannot move a simulated number (the macrobench pin)."""

    CONFIG = ShardedClusterConfig(invocations=20_000, functions=8, seed=13,
                                  tile_invocations=4000, workers=4, shards=2,
                                  scheduler="FaaSBatch", window_ms=200.0)

    @pytest.fixture(scope="class")
    def packed(self):
        return run_sharded_cluster(self.CONFIG, isolate=False)

    @pytest.fixture(scope="class")
    def striped(self):
        def stripe(config, shard_index):
            return list(range(shard_index, config.workers, config.shards))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ShardedClusterConfig, "worker_indices", stripe)
            return run_sharded_cluster(self.CONFIG, isolate=False)

    def test_partitions_differ(self, packed, striped):
        assert [s.worker_indices for s in packed.shard_results] \
            == [[3], [0, 1, 2]]
        assert [s.worker_indices for s in striped.shard_results] \
            == [[0, 2], [1, 3]]
        assert [s.submitted for s in packed.shard_results] \
            == [10_000, 10_000]

    #: sha256 of ``json.dumps(shard.sink.to_dict())`` for each shard of
    #: CONFIG, recorded with the one-sample-at-a-time accounting that the
    #: columnar fold replaced: the fold must not move a bit.
    SINK_SHA256 = [
        "16d4bc7e00fce2f45b91a8b8d966b8b64d6dcbd8ac49e47271f9c586e3d69d9b",
        "0ee8ad6e8c5933a5b0bb7d547eeae46f1022e04edb4d88025f3502fc5d6d3f67",
    ]

    def test_shard_sink_payloads_are_pinned(self, packed):
        assert [hashlib.sha256(json.dumps(shard.sink.to_dict()).encode())
                .hexdigest() for shard in packed.shard_results] \
            == self.SINK_SHA256

    def test_simulated_outputs_identical(self, packed, striped):
        assert packed.kernel_events == striped.kernel_events == 231_216
        assert packed.sink.summary() == striped.sink.summary()
        assert packed.per_worker_invocations() \
            == striped.per_worker_invocations() \
            == self.CONFIG.worker_loads()
        assert packed.completion_ms == striped.completion_ms
        assert packed.to_cluster_result().per_worker_containers \
            == striped.to_cluster_result().per_worker_containers


def _fake_spawner(scripts, spawned):
    """A ``_spawn_shard`` stand-in: shard *i* runs Python source
    ``scripts[i]`` with the real coordinator's pipes."""
    def spawn(_config, shard_index):
        proc = subprocess.Popen(
            [sys.executable, "-c", scripts[shard_index]],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        proc.stdin.close()
        spawned.append(proc)
        return proc
    return spawn


def _run_with_deadline(config, seconds):
    """Run the coordinator on a thread; return (error, elapsed, alive)."""
    outcome = {}

    def target():
        try:
            run_sharded_cluster(config)
        except Exception as exc:  # the caller's assertions inspect it
            outcome["error"] = exc

    started = time.monotonic()
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    return outcome.get("error"), time.monotonic() - started, \
        thread.is_alive()


class TestSubprocessFailures:
    CONFIG = ShardedClusterConfig(invocations=100, workers=2, shards=2)

    def test_stderr_flood_does_not_hang_the_coordinator(self, monkeypatch):
        flood = ("import sys; sys.stderr.write('x' * 1_000_000 + "
                 "'\\nshard exploded\\n'); sys.exit(3)")
        spawned = []
        monkeypatch.setattr(sharded, "_spawn_shard",
                            _fake_spawner([flood, flood], spawned))
        error, elapsed, alive = _run_with_deadline(self.CONFIG, 10.0)
        assert not alive, "coordinator hung on a full stderr pipe"
        assert isinstance(error, SimulationError)
        assert re.search(r"shard [01] failed \(exit 3\)", str(error))
        assert "shard exploded" in str(error)
        assert elapsed < 10.0
        assert all(proc.poll() is not None for proc in spawned)

    def test_first_failure_kills_and_reaps_the_rest(self, monkeypatch):
        spawned = []
        monkeypatch.setattr(sharded, "_spawn_shard", _fake_spawner(
            ["import sys; sys.exit(1)", "import time; time.sleep(60)"],
            spawned))
        error, elapsed, alive = _run_with_deadline(self.CONFIG, 20.0)
        assert not alive
        assert isinstance(error, SimulationError)
        assert "shard 0 failed (exit 1)" in str(error)
        assert elapsed < 5.0
        assert len(spawned) == 2
        assert all(proc.poll() is not None for proc in spawned)


class TestForkedShards:
    """The real spawn path: children forked from the coordinator."""

    CONFIG = dataclasses.replace(SMALL, invocations=1000,
                                 tile_invocations=500)

    def test_raise_in_child_fails_fast_and_reaps(self, monkeypatch):
        real_run_shard, real_spawn = sharded.run_shard, sharded._spawn_shard

        def flaky_run_shard(config, shard_index, **kwargs):
            if shard_index == 0:
                raise RuntimeError("shard zero exploded on purpose")
            time.sleep(60)  # killed by the coordinator, never finishes
            return real_run_shard(config, shard_index, **kwargs)

        spawned = []

        def recording_spawn(config, shard_index):
            spawned.append(real_spawn(config, shard_index))
            return spawned[-1]

        # Patched in the parent, so every forked child inherits it.
        monkeypatch.setattr(sharded, "run_shard", flaky_run_shard)
        monkeypatch.setattr(sharded, "_spawn_shard", recording_spawn)
        started = time.monotonic()
        with pytest.raises(SimulationError) as caught:
            run_sharded_cluster(self.CONFIG)
        assert time.monotonic() - started < 10.0
        message = str(caught.value)
        assert "shard 0 failed (exit 1)" in message
        assert "RuntimeError: shard zero exploded on purpose" in message
        assert len(spawned) == 2
        assert all(proc.poll() is not None for proc in spawned)

    def test_buffered_parent_stdout_is_written_once(self):
        # A piped stdout is block-buffered, so "before" is still in the
        # parent's buffer at fork time.  A shard that prints flushes its
        # inherited copy of that buffer; only the pre-fork flush keeps
        # "before" from reaching fd 1 once per child as well.
        script = ("import sys\n"
                  "from repro.cluster import sharded\n"
                  "real = sharded.run_shard\n"
                  "def noisy(*args, **kwargs):\n"
                  "    print('child', flush=True)\n"
                  "    return real(*args, **kwargs)\n"
                  "sharded.run_shard = noisy\n"
                  "sys.stdout.write('before\\n')\n"
                  "sharded.run_sharded_cluster("
                  "sharded.ShardedClusterConfig(**%r))\n"
                  "sys.stdout.write('after\\n')\n"
                  % self.CONFIG.to_dict())
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.pop("PYTHONUNBUFFERED", None)  # it would hide the buffer
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # The two children's lines may interleave; the counts may not.
        assert done.stdout.count("before") == 1
        assert done.stdout.count("child") == 2
        assert done.stdout.endswith("after\n")

    def test_forked_run_equals_in_process(self):
        forked = run_sharded_cluster(self.CONFIG)
        inline = run_sharded_cluster(self.CONFIG, isolate=False)
        assert forked.sink.summary() == inline.sink.summary()
        assert forked.kernel_events == inline.kernel_events
        assert forked.completion_ms == inline.completion_ms
        assert forked.per_worker_invocations() \
            == inline.per_worker_invocations()
        assert [s.submitted for s in forked.shard_results] \
            == [s.submitted for s in inline.shard_results]
        forked_view = forked.to_cluster_result()
        inline_view = inline.to_cluster_result()
        assert forked_view.per_worker_containers \
            == inline_view.per_worker_containers
        assert forked_view.per_worker_memory_mb \
            == inline_view.per_worker_memory_mb
        assert forked.obs is not None and inline.obs is not None
        assert forked.obs.counters == inline.obs.counters
        assert forked.obs.clocks == inline.obs.clocks
        assert comparable_histograms(forked.obs) \
            == comparable_histograms(inline.obs)


class TestSubprocessCoordinator:
    def test_subprocess_run_matches_in_process(self):
        config = dataclasses.replace(SMALL, invocations=1000,
                                     tile_invocations=500)
        lines = []
        isolated = run_sharded_cluster(config, isolate=True,
                                       log=lines.append)
        inline = run_sharded_cluster(config, isolate=False)
        assert isolated.per_worker_invocations() \
            == inline.per_worker_invocations()
        assert isolated.completion_ms == inline.completion_ms
        for q in (50.0, 99.0):
            assert isolated.sink.latency_percentile(q) \
                == inline.sink.latency_percentile(q)
        # Each child reports its own ru_maxrss over the protocol.
        assert 0 < isolated.max_shard_rss_mb


class TestMergeShardResults:
    @pytest.fixture(scope="class")
    def parts(self):
        config = dataclasses.replace(SMALL, invocations=600,
                                     tile_invocations=300)
        return config, [run_shard(config, index)
                        for index in range(config.shards)]

    def test_merge_validates_shard_count(self, parts):
        config, results = parts
        with pytest.raises(SimulationError, match="expected 2"):
            merge_shard_results(config, results[:1], wall_clock_s=0.0)

    def test_merge_rejects_duplicate_indices(self, parts):
        config, results = parts
        with pytest.raises(SimulationError, match="permutation"):
            merge_shard_results(config, [results[0], results[0]],
                                wall_clock_s=0.0)

    def test_merge_rejects_submission_leak(self, parts):
        config, results = parts
        tampered = dataclasses.replace(results[1],
                                       submitted=results[1].submitted + 1)
        with pytest.raises(SimulationError, match="overlap or leak"):
            merge_shard_results(config, [results[0], tampered],
                                wall_clock_s=0.0)

    def test_shard_result_payload_round_trip(self, parts):
        _config, results = parts
        clone = ShardResult.from_payload(results[0].to_payload())
        assert clone.per_worker_invocations \
            == results[0].per_worker_invocations
        assert clone.sink.completed == results[0].sink.completed
        assert clone.sink.summary() == results[0].sink.summary()


def comparable_histograms(snapshot):
    """Histogram fields under the exactness contract.

    The float ``sum`` is excluded: ``fsum`` over shard totals and the
    single process's incremental adds can differ in the last ulp.
    """
    return {name: {key: hist[key]
                   for key in ("edges", "counts", "count", "min", "max")}
            for name, hist in snapshot.histograms.items()}


class TestShardTelemetry:
    """Merged shard telemetry == the single-process registry, exactly.

    Gauges are deliberately absent: ``pool.idle`` is last-writer-wins
    per pool instance, the one map without a merge guarantee.
    """

    @pytest.fixture(scope="class")
    def config(self):
        return dataclasses.replace(SMALL, invocations=1000,
                                   tile_invocations=500)

    @pytest.fixture(scope="class")
    def merged(self, config):
        return run_sharded_cluster(config, isolate=False).obs

    @pytest.fixture(scope="class")
    def single(self, config):
        solo = dataclasses.replace(config, shards=1)
        return run_sharded_cluster(solo, isolate=False).obs

    def test_counters_byte_identical(self, merged, single):
        assert merged is not None and single is not None
        assert merged.counters  # the merge must carry real signal
        assert merged.counters == single.counters

    def test_clocks_identical(self, merged, single):
        assert merged.clocks == single.clocks

    def test_histogram_buckets_byte_identical(self, merged, single):
        assert merged.histograms
        assert comparable_histograms(merged) \
            == comparable_histograms(single)

    def test_merge_is_shard_order_independent(self, config):
        results = [run_shard(config, index)
                   for index in range(config.shards)]
        # Round-trip through the subprocess wire format, both orders.
        wire = [ShardResult.from_payload(r.to_payload()) for r in results]
        forward = merge_shard_results(config, wire, wall_clock_s=0.0)
        backward = merge_shard_results(config, list(reversed(wire)),
                                       wall_clock_s=0.0)
        assert forward.obs is not None
        assert forward.obs.to_dict() == backward.obs.to_dict()

    def test_payload_without_obs_stays_loadable(self, config):
        result = run_shard(config, 0)
        payload = result.to_payload()
        payload.pop("obs")  # a pre-telemetry shard's payload
        clone = ShardResult.from_payload(payload)
        assert clone.obs is None
        assert clone.sink.completed == result.sink.completed

    def test_merge_with_missing_obs_yields_none(self, config):
        results = [run_shard(config, index)
                   for index in range(config.shards)]
        legacy = dataclasses.replace(results[1], obs=None)
        merged = merge_shard_results(config, [results[0], legacy],
                                     wall_clock_s=0.0)
        assert merged.obs is None
