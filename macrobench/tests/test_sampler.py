"""Which layer pays for a stack: the sampler's mapping, on made-up frames."""

from types import SimpleNamespace

from macrobench import tracing

REPRO = "/checkout/src/repro"
BENCH = "/checkout/macrobench"


def chain(*filenames):
    """Frames innermost first, linked through ``f_back`` like real ones."""
    frame = None
    for filename in reversed(filenames):
        frame = SimpleNamespace(
            f_code=SimpleNamespace(co_filename=filename), f_back=frame)
    return frame


def owner(*filenames):
    return tracing.ModuleMap(REPRO, BENCH).of_frame(chain(*filenames))


def test_innermost_repro_frame_pays():
    assert owner(f"{REPRO}/sim/fair_share.py", f"{REPRO}/sim/kernel.py",
                 f"{BENCH}/simload.py") == "sim.fair_share"


def test_library_code_is_paid_for_by_its_caller():
    assert owner("/usr/lib/python3.11/heapq.py",
                 f"{REPRO}/sim/calendar_queue.py",
                 f"{BENCH}/run.py") == "sim.calendar_queue"


def test_package_init_maps_to_the_package():
    assert owner(f"{REPRO}/obs/__init__.py") == "obs"


def test_event_loop_bookkeeping_is_not_billed_to_the_benchmark():
    assert owner("/usr/lib/python3.11/selectors.py",
                 "/usr/lib/python3.11/asyncio/base_events.py",
                 f"{BENCH}/gwload.py") == tracing.EVENTLOOP


def test_benchmark_code_and_the_http_pool_are_the_load_generator():
    assert owner(f"{BENCH}/gwload.py",
                 "/usr/lib/python3.11/asyncio/base_events.py"
                 ) == tracing.BENCH
    assert owner(f"{REPRO}/gateway/loadgen.py") == tracing.BENCH


def test_a_stack_nobody_owns_is_other():
    assert owner("/usr/lib/python3.11/threading.py") == tracing.OTHER


def test_modules_roll_up_to_the_reported_layers():
    assert tracing.layer_of("sim.fair_share") == "sim.fair_share"
    assert tracing.layer_of("model.pool") == "model"
    assert tracing.layer_of("obs") == "obs"
    assert tracing.layer_of("obs.trace") == "obs"
    assert tracing.layer_of("gateway.server") == "gateway.server"
    assert tracing.layer_of("gateway.degradation") == tracing.OTHER
    assert tracing.layer_of("sim.machine") == tracing.OTHER
    assert tracing.layer_of(tracing.BENCH) == "loadgen"


def test_self_seconds_cover_every_layer_and_the_remainder():
    tracer = tracing.Tracer(REPRO, BENCH)
    tracer.cpu_by_module = {"sim.kernel": 1.0, "model.pool": 0.5,
                            "model.container": 0.25, "faults.plan": 0.25}
    tracer.sampled_process_cpu_s = 2.5
    layers = tracer.self_seconds(per=2)
    assert layers["sim.kernel.self_s"] == 0.5
    assert layers["model.self_s"] == 0.375
    assert layers["host.other.self_s"] == 0.125
    assert layers["host.unsampled_cpu_s"] == 0.25
    assert layers["sim.fair_share.self_s"] == 0.0
