"""The execution engine's six public entry points keep their names and
never call one another.

Tracing tools wrap each entry point on the class and count one engine
call per wrapped call.  A renamed entry point would leave its wrapper
timing nothing, and an entry point calling another would count one
request twice, so both are pinned here.
"""

from repro.memsim.subsystem import pmem6_system
from repro.runtime.engine import ExecutionEngine
from repro.runtime.traffic import PlacementTraffic

from tests.conftest import make_toy_workload

ENTRY_POINTS = ("run", "run_batch", "predict_times", "run_delta",
                "run_incremental", "predict_times_incremental")


def test_each_entry_point_is_one_call(monkeypatch):
    calls = dict.fromkeys(ENTRY_POINTS, 0)

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    for name in ENTRY_POINTS:
        monkeypatch.setattr(ExecutionEngine, name,
                            counting(name, getattr(ExecutionEngine, name)))

    wl = make_toy_workload()
    engine = ExecutionEngine(wl, pmem6_system())
    sites = [obj.site.name for obj in wl.objects]
    before = {s: "pmem" for s in sites}
    after = {s: "dram" for s in sites}
    s0 = engine._segment_arrays.num_segments // 2

    engine.run(PlacementTraffic(wl, before))
    engine.run_batch([before, after])
    engine.predict_times([before, after])
    state = engine.run_delta(PlacementTraffic(wl, before))
    engine.run_incremental(state, after, s0)
    engine.predict_times_incremental(state, [before, after], s0)

    assert calls == dict.fromkeys(ENTRY_POINTS, 1)
