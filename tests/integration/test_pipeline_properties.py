"""Property-based tests over randomly generated workloads.

Hypothesis builds small random workloads and pushes them through the
complete pipeline; the assertions are *invariants* of the system, not
calibration values:

- the pipeline never crashes on a structurally valid workload;
- DRAM capacity is respected by the knapsack (node-level weights);
- the production run places every instance somewhere;
- timing is at least the compute time;
- traffic is conserved between the engine's phase accounting and the
  bandwidth timeline;
- the baselines' native traffic packs equal their scalar oracles.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.workload import AccessStats, AllocationSite, ObjectSpec, Phase, Workload
from repro.baselines.memory_mode import run_memory_mode
from repro.experiments.harness import run_ecohmem
from repro.memsim.subsystem import pmem6_system
from repro.units import MiB


@st.composite
def workloads(draw):
    n_objects = draw(st.integers(min_value=1, max_value=6))
    n_phases = draw(st.integers(min_value=1, max_value=3))
    phase_names = [f"p{i}" for i in range(n_phases)]
    phases = [
        Phase(name, compute_time=draw(st.floats(min_value=0.5, max_value=2.0)))
        for name in phase_names
    ]
    duration = sum(p.compute_time for p in phases)

    objects = []
    for i in range(n_objects):
        size = draw(st.integers(min_value=1, max_value=64)) * MiB
        repeated = draw(st.booleans())
        access = {}
        for name in draw(st.lists(st.sampled_from(phase_names), min_size=1,
                                  max_size=n_phases, unique=True)):
            access[name] = AccessStats(
                load_rate=draw(st.floats(min_value=0, max_value=5e6)),
                store_rate=draw(st.floats(min_value=0, max_value=2e6)),
            )
        kwargs = {}
        if repeated:
            life = draw(st.floats(min_value=0.1, max_value=1.0))
            kwargs = dict(
                alloc_count=draw(st.integers(min_value=2, max_value=5)),
                lifetime=life,
                period=life + draw(st.floats(min_value=0.0, max_value=0.5)),
                first_alloc=draw(st.floats(min_value=0.0,
                                           max_value=duration * 0.4)),
            )
        objects.append(ObjectSpec(
            site=AllocationSite(name=f"rand::o{i}", image="rand.x",
                                stack=(f"alloc{i}", "main")),
            size=size,
            access=access,
            **kwargs,
        ))
    return Workload(
        name="rand",
        phases=phases,
        objects=objects,
        ranks=draw(st.integers(min_value=1, max_value=4)),
        mlp=draw(st.floats(min_value=1.5, max_value=8.0)),
        locality=draw(st.floats(min_value=0.3, max_value=0.95)),
        conflict_pressure=draw(st.floats(min_value=0.0, max_value=0.5)),
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=workloads(), limit_mb=st.integers(min_value=16, max_value=512))
def test_pipeline_invariants(wl, limit_mb):
    system = pmem6_system()
    limit = limit_mb * MiB
    eco = run_ecohmem(wl, system, dram_limit=limit)

    # every site got a placement
    assert set(eco.site_placement) == {o.site.name for o in wl.objects}
    # every realized instance got a subsystem
    assert len(eco.replay.instance_placement) == len(wl.instances())
    assert set(eco.replay.instance_placement.values()) <= {"dram", "pmem"}

    # the DRAM budget is respected end to end (heap high-water <= limit)
    dram_heap = eco.replay.flexmalloc.heaps.get("dram")
    assert dram_heap.stats.high_water <= limit

    # timing sanity
    assert eco.run.total_time >= wl.nominal_duration
    assert 0.0 <= eco.run.memory_bound_fraction < 1.0

    # traffic conservation: timeline bytes match phase accounting
    for sub in ("dram", "pmem"):
        phase_total = eco.run.subsystem_bytes().get(sub, 0.0)
        timeline_total = eco.run.timeline.total_bytes(sub)
        assert timeline_total == pytest.approx(phase_total, rel=0.02, abs=1e3)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=workloads())
def test_memory_mode_invariants(wl):
    run = run_memory_mode(wl, pmem6_system())
    assert run.total_time >= wl.nominal_duration
    if run.dram_cache_hit_ratio is not None:
        assert 0.0 <= run.dram_cache_hit_ratio <= 1.0
    # in memory mode DRAM sees at least as many loads as PMem (every
    # access probes the cache; only misses continue)
    loads = {"dram": 0.0, "pmem": 0.0}
    for p in run.phases:
        for sub, n in p.loads_by_subsystem.items():
            loads[sub] += n
    assert loads["dram"] >= loads["pmem"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=workloads(), cache_mib=st.integers(min_value=1, max_value=256),
       reaction_s=st.floats(min_value=0.05, max_value=3.0))
def test_native_baseline_packs_match_scalar(wl, cache_mib, reaction_s):
    """The baselines' native packs are exact on random workloads, cache
    sizes (partial residency) and reaction windows."""
    from tests.runtime.test_engine_vectorized import (
        assert_native_pack_exact, combined_model, memory_mode_model,
        tiering_model,
    )

    system = pmem6_system()
    assert_native_pack_exact(wl, system,
                             memory_mode_model(wl, system, cache_mib * MiB))
    assert_native_pack_exact(wl, system,
                             tiering_model(wl, system, reaction_s=reaction_s))
    assert_native_pack_exact(wl, system,
                             combined_model(wl, system, reaction_s=reaction_s))
