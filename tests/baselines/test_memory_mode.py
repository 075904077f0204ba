"""Tests for the Optane memory-mode baseline model."""

import pytest

from repro.apps.registry import get_workload, list_workloads
from repro.baselines.memory_mode import MemoryModeTraffic, run_memory_mode
from repro.memsim.subsystem import pmem2_system, pmem6_system
from repro.runtime.engine import ExecutionEngine
from repro.units import GiB, MiB

from tests.conftest import ScalarOnlyTraffic, make_toy_workload


class TestTrafficSplit:
    def test_all_traffic_probes_dram(self, toy_workload):
        model = MemoryModeTraffic(toy_workload, 16 * GiB)
        live = [i for i in toy_workload.instances() if i.overlap(0.0, 1.0) > 0]
        t = model.segment_traffic(0.0, 1.0, "compute", live)
        total_loads = sum(
            s.load_rate for i in live for s in [i.spec.access["compute"]]
        ) * toy_workload.ranks
        assert t.subsystem("dram").loads == pytest.approx(total_loads)

    def test_pmem_gets_miss_share(self, toy_workload):
        model = MemoryModeTraffic(toy_workload, 16 * GiB)
        live = [i for i in toy_workload.instances() if i.overlap(0.0, 1.0) > 0]
        t = model.segment_traffic(0.0, 1.0, "compute", live)
        dram = t.subsystem("dram")
        pmem = t.subsystem("pmem")
        assert 0 < pmem.loads < dram.loads

    def test_fill_penalty_on_pmem_path(self, toy_workload):
        model = MemoryModeTraffic(toy_workload, 16 * GiB)
        live = list(toy_workload.instances())
        t = model.segment_traffic(0.0, 1.0, "compute", live)
        assert t.subsystem("pmem").extra_latency_ns > 0
        assert t.subsystem("dram").extra_latency_ns > 0  # tag-check cost

    def test_smaller_cache_more_pmem_traffic(self, toy_workload):
        live = [i for i in toy_workload.instances() if i.overlap(0.0, 1.0) > 0]
        big = MemoryModeTraffic(toy_workload, 16 * GiB).segment_traffic(
            0.0, 1.0, "compute", live)
        small = MemoryModeTraffic(toy_workload, 32 * MiB).segment_traffic(
            0.0, 1.0, "compute", live)
        assert small.subsystem("pmem").loads > big.subsystem("pmem").loads

    def test_hot_object_shielded_better_than_stream(self, toy_workload):
        """LRU competition: the dense object gets the higher hit ratio."""
        model = MemoryModeTraffic(toy_workload, 128 * MiB)
        live = [i for i in toy_workload.instances() if i.overlap(0.0, 1.0) > 0]
        t = model.segment_traffic(0.0, 1.0, "compute", live)
        hit = {}
        for (name, sub), (loads, _) in t.by_object.items():
            hit.setdefault(name, {})[sub] = loads
        def ratio(name):
            d = hit[name].get("dram", 0.0)
            p = hit[name].get("pmem", 0.0)
            return d / (d + p)
        assert ratio("toy::hot") > ratio("toy::cold")

    def test_empty_segment(self, toy_workload):
        model = MemoryModeTraffic(toy_workload, 16 * GiB)
        t = model.segment_traffic(0.0, 1.0, "compute", [])
        assert not t.by_subsystem


class TestRunner:
    def test_run_produces_hit_ratio(self, toy_workload, system6):
        res = run_memory_mode(toy_workload, system6)
        assert res.config_label == "memory-mode"
        assert 0.0 < res.dram_cache_hit_ratio < 1.0

    def test_smaller_cache_slower(self, toy_workload, system6):
        big = run_memory_mode(make_toy_workload(), system6)
        small = run_memory_mode(make_toy_workload(), system6,
                                dram_cache_bytes=16 * MiB)
        assert small.total_time > big.total_time
        assert small.dram_cache_hit_ratio < big.dram_cache_hit_ratio

    def test_pmem2_slower(self, system6):
        wl6 = make_toy_workload(hot_rate=4e7)
        wl2 = make_toy_workload(hot_rate=4e7)
        assert (run_memory_mode(wl2, pmem2_system()).total_time
                > run_memory_mode(wl6, pmem6_system()).total_time)


class TestTableVIExactness:
    """``run_memory_mode`` on the native pack == the generic per-segment
    pack, bit for bit: EXPERIMENTS.md prints these hit ratios, so a
    1-ULP drift in the batched residency or fold order shows here first."""

    @pytest.mark.parametrize("system_factory", [pmem6_system, pmem2_system])
    @pytest.mark.parametrize("app", list_workloads())
    def test_hit_ratio_and_time(self, app, system_factory):
        wl = get_workload(app)
        system = system_factory()
        native = run_memory_mode(wl, system)
        model = MemoryModeTraffic(wl, system.get("dram").capacity)
        generic = ExecutionEngine(wl, system).run(ScalarOnlyTraffic(model))
        assert native.dram_cache_hit_ratio == model.mean_hit_ratio()
        assert native.total_time == generic.total_time
