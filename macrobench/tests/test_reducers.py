"""The arithmetic between raw samples and a reported number."""

import pytest

from macrobench import gwload, measure, simload
from macrobench.measure import Repetition, RequestLog


def reps(*walls):
    return [Repetition(wall, wall / 2.0, {"p50_ms": 7.0}) for wall in walls]


def test_best_of_takes_the_fastest_repetition():
    assert measure.best_of(reps(3.0, 2.0, 2.5)).wall_s == 2.0
    with pytest.raises(ValueError):
        measure.best_of([])


def test_rep_spread_is_median_over_best():
    assert measure.rep_spread(reps(2.0, 3.0, 2.5)) == pytest.approx(0.25)
    assert measure.rep_spread(reps(2.0, 2.0, 2.0)) == 0.0


def test_repeat_runs_until_the_seconds_are_measured():
    made = measure.repeat(lambda index: reps(0.4)[0], 1.0, min_reps=2)
    assert len(made) == 3
    made = measure.repeat(lambda index: reps(5.0)[0], 1.0, min_reps=3)
    assert len(made) == 3


def test_summaries_must_be_identical():
    same = reps(1.0, 2.0)
    assert measure.summaries_identical(same)
    same[1].summary = {"p50_ms": 7.000001}
    assert not measure.summaries_identical(same)


def test_batch_metrics_come_from_the_fastest_repetition():
    summary = {"p50_ms": 10.0, "p95_ms": 20.0, "within_limit": 90}
    made = [Repetition(4.0, 3.0, summary), Repetition(2.0, 1.0, summary)]
    metrics = simload.batch_metrics(made, ops=100)
    assert metrics["ops_per_s"] == 50.0
    assert metrics["cpu_ms_per_op"] == 10.0
    assert metrics["slo_goodput_ratio"] == 0.9


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 50.0) == 50.0
    assert measure.percentile(values, 95.0) == 95.0
    assert measure.percentile(values, 100.0) == 100.0
    assert measure.percentile([4.0], 50.0) == 4.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


def test_latency_is_timed_from_due_not_from_fired():
    # The generator stalled 30 ms before sending the second request.
    log = RequestLog(due=[0.000, 0.010], fired=[0.000, 0.040],
                     done=[0.005, 0.045], status=[200, 200],
                     body_ok=[True, True])
    assert log.latencies_ms() == pytest.approx([5.0, 35.0])
    assert log.invoke_ms() == pytest.approx([5.0, 5.0])
    assert log.lateness_ms() == pytest.approx([0.0, 30.0])


def test_failed_and_wrong_bodies_miss_the_limit():
    log = RequestLog(due=[0.0] * 4, fired=[0.0] * 4,
                     done=[0.001, 0.001, 0.001, 0.5],
                     status=[200, 429, 200, 200],
                     body_ok=[True, False, False, True])
    assert log.failed() == 2
    latencies = log.latencies_ms()
    assert len(latencies) == 2
    assert measure.goodput_ratio(latencies, 100.0, len(log)) == 0.25


def test_bodies_are_checked_per_function():
    assert gwload.body_is_right("echo", {"n": 3}, {"result": {"n": 3}})
    assert not gwload.body_is_right("echo", {"n": 3}, {"result": {"n": 4}})
    assert gwload.fib_digits(150) == len(str(9969216677189303386214405760200))
    assert gwload.body_is_right(
        "fib", {"n": 150}, {"result": {"n": 150, "fib_len": 31}})
    assert not gwload.body_is_right(
        "fib", {"n": 150}, {"result": {"n": 150, "fib_len": 30}})
    assert gwload.body_is_right("io", {"key": "k7"},
                                {"result": {"stored": "k7"}})
    assert not gwload.body_is_right("sleep", None, {"result": None})


def row(done):
    return (done - 0.001, done - 0.001, done, 200, True)


def test_bodies_are_checked_once_per_row():
    rows = [(0.0, 0.0, 0.1, 200, {"result": 1}, "echo", 1),
            (0.0, 0.0, 0.1, 200, {"result": 2}, "echo", 1),
            (0.0, 0.0, 0.1, 429, {"error": "shed"}, "echo", 1)]
    log = gwload.to_log(gwload.check(rows))
    assert log.body_ok == [True, False, False]
    assert log.status == [200, 200, 429]
    assert len(gwload.to_log([])) == 0


def test_a_window_is_cut_where_the_marks_fall():
    rows = [row(0.1), row(0.2), row(0.6), row(0.7), row(0.8), row(1.05)]
    marks = [(0.0, 10.0), (0.5, 10.2), (1.0, 10.5), (1.1, 10.6)]
    first, second = gwload.cut(rows, marks)   # the 0.1 s stub is dropped
    assert (first.ops, second.ops) == (2, 3)
    assert first.cpu_ms_per_op == pytest.approx(100.0)
    assert second.ops_per_s == pytest.approx(6.0)


def test_conservation_compares_gateway_and_client_counts():
    log = RequestLog(due=[0.0, 0.0], fired=[0.0, 0.0], done=[0.1, 0.1],
                     status=[200, 429], body_ok=[True, False])
    before = {"requests_total": 5, "responses_by_status": {"200": 5}}
    after = {"requests_total": 7,
             "responses_by_status": {"200": 6, "429": 1}}
    assert gwload.conservation_problems(before, after, log) == []
    after["requests_total"] = 8
    assert len(gwload.conservation_problems(before, after, log)) == 1


def test_seed_moves_the_density_and_13_is_the_reference():
    assert simload.tile_invocations(13, 1.0) == 4000
    assert simload.tile_invocations(14, 1.0) == 3999
    assert simload.tile_invocations(12, 1.0) == 4000 - 31
    assert simload.tile_invocations(13 + 32, 1.0) == 4000
    assert simload.tile_invocations(13, 0.1) == 400
