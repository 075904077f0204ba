"""Differential suite: the batched engine against its scalar oracle.

``ExecutionEngine.run`` must reproduce ``run_scalar`` bit for bit — every
float compared with ``==``, every dict in the same key order — across all
traffic models, several memory systems, and real workloads.  The building
blocks (segmentation arrays, batched latency curves, batched timeline
accumulation) each get their own exactness test so a regression points at
the layer that broke.
"""

import numpy as np
import pytest

from repro.apps.registry import get_workload
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.baselines.memory_mode import MemoryModeTraffic
from repro.baselines.tiering import (
    CombinedTraffic,
    TieringTraffic,
    tiering_effective_dram,
)
from repro.memsim.bandwidth import BandwidthTimeline
from repro.memsim.subsystem import (
    hbm_dram_pmem_system,
    pmem2_system,
    pmem6_system,
)
from repro.runtime.engine import ExecutionEngine
from repro.runtime.segments import build_segment_arrays
from repro.runtime.stats import run_results_identical
from repro.runtime.traffic import (
    PlacementTraffic,
    SegmentTraffic,
    _placement_pack_base,
    pack_traffic_batch,
)
from repro.units import GiB, MiB

from tests.conftest import ScalarOnlyTraffic, make_site, make_toy_workload


def checkerboard_placement(workload, names):
    """A deterministic placement cycling sites over the system's tiers,
    with the first multi-instance site's second instance overridden to a
    different tier (so the ``instance_placement`` path is exercised)."""
    placement = {
        obj.site.name: names[i % len(names)]
        for i, obj in enumerate(workload.objects)
    }
    overrides = {}
    for obj in workload.objects:
        if obj.alloc_count > 1:
            current = placement[obj.site.name]
            overrides[(obj.site.name, 1)] = next(
                n for n in names if n != current
            )
            break
    return placement, overrides


def assert_runs_identical(workload, system, make_model):
    """Run both engine paths on fresh model instances; demand [] mismatches.

    Fresh models matter: the baselines accumulate side effects per
    ``segment_traffic`` call (hit-ratio history, promotion caches), so
    sharing one instance across both runs would double them.
    """
    engine = ExecutionEngine(workload, system)
    vec = engine.run(make_model())
    sca = engine.run_scalar(make_model())
    assert run_results_identical(vec, sca) == []


class TestAppDirectDifferential:
    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ])
    def test_toy_workload(self, system_factory):
        wl = make_toy_workload()
        system = system_factory()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    def test_minife(self):
        wl = get_workload("minife")
        system = pmem6_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    def test_openfoam_on_pmem2(self):
        """openfoam/pmem2 produces a segment whose positive duration is
        below the float resolution at its start time — the regression that
        forced the sub-epsilon timeline guard."""
        wl = get_workload("openfoam")
        system = pmem2_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )

    def test_lulesh_three_tier(self):
        wl = get_workload("lulesh")
        system = hbm_dram_pmem_system()
        placement, overrides = checkerboard_placement(wl, system.names)
        assert_runs_identical(
            wl, system, lambda: PlacementTraffic(wl, placement, overrides)
        )


class TestBaselineDifferential:
    """The baselines' native ``traffic_batch`` packs, and the generic
    packer, against the scalar oracle.  Each run goes through the engine
    twice: with the model itself (its native pack) and behind
    :class:`ScalarOnlyTraffic`, which hides ``traffic_batch`` so the engine
    replays ``segment_traffic`` through ``pack_traffic_batch`` — matrices,
    order reconstruction, by-object transcription.  The generic packer
    still serves every model without a native pack (the online oracle's
    patched placements among them), so it keeps its own proof here."""

    @staticmethod
    def assert_both_packs_identical(workload, system, make_model):
        assert_runs_identical(workload, system, make_model)
        assert_runs_identical(
            workload, system, lambda: ScalarOnlyTraffic(make_model())
        )

    @pytest.mark.parametrize("workload_name", [None, "minife"])
    def test_memory_mode(self, workload_name):
        wl = (get_workload(workload_name) if workload_name
              else make_toy_workload())
        system = pmem6_system()
        cache = max(wl.heap_high_water() // 2, 1 * MiB)
        self.assert_both_packs_identical(
            wl, system, lambda: MemoryModeTraffic(wl, cache)
        )

    @pytest.mark.parametrize("workload_name", [None, "minife"])
    def test_tiering(self, workload_name):
        wl = (get_workload(workload_name) if workload_name
              else make_toy_workload())
        system = pmem6_system()
        eff = tiering_effective_dram(
            system.get("dram").capacity, system.get("pmem").capacity
        )
        self.assert_both_packs_identical(
            wl, system, lambda: TieringTraffic(wl, eff)
        )

    def test_combined(self):
        wl = make_toy_workload()
        system = pmem6_system()
        eff = tiering_effective_dram(
            system.get("dram").capacity, system.get("pmem").capacity
        )
        placement, _ = checkerboard_placement(wl, system.names)
        self.assert_both_packs_identical(
            wl, system, lambda: CombinedTraffic(wl, eff, placement)
        )


BATCH_FIELDS = ("loads", "stores", "serial_loads", "extra_latency_ns",
                "present", "order_pos")


def object_rows(batch):
    """The batch's per-object rows with site and subsystem names mapped."""
    return [
        (int(s), batch.site_names[i], batch.obj_sub_names[k], ld, st)
        for s, i, k, ld, st in zip(batch.obj_seg, batch.obj_site,
                                   batch.obj_sub, batch.obj_loads,
                                   batch.obj_stores)
    ]


def side_effects(model):
    """The state a baseline accumulates while packing."""
    return (
        model.mean_hit_ratio() if hasattr(model, "mean_hit_ratio") else None,
        getattr(model, "_promoted_cache", None),
    )


def assert_native_pack_exact(workload, system, make_model):
    """Native ``traffic_batch`` == the generic pack, field by field, and
    the engine run on it == the scalar oracle.  Returns the generic batch.
    """
    engine = ExecutionEngine(workload, system)
    segments = engine._segment_arrays
    native_model, generic_model = make_model(), make_model()
    native = native_model.traffic_batch(segments, system.names)
    generic = pack_traffic_batch(generic_model, workload, segments,
                                 system.names)
    for name in BATCH_FIELDS:
        assert np.array_equal(getattr(native, name),
                              getattr(generic, name)), name
    assert object_rows(native) == object_rows(generic)
    assert side_effects(native_model) == side_effects(generic_model)
    assert run_results_identical(
        engine.run(make_model()), engine.run_scalar(make_model())
    ) == []
    return generic


def memory_mode_model(wl, system, cache=None):
    cache = system.get("dram").capacity if cache is None else cache
    return lambda: MemoryModeTraffic(wl, cache)


def tiering_model(wl, system, **kw):
    eff = tiering_effective_dram(
        system.get("dram").capacity, system.get("pmem").capacity
    )
    return lambda: TieringTraffic(wl, eff, **kw)


def combined_model(wl, system, placement=None, **kw):
    eff = tiering_effective_dram(
        system.get("dram").capacity, system.get("pmem").capacity
    )
    if placement is None:
        placement, _ = checkerboard_placement(wl, system.names)
    return lambda: CombinedTraffic(wl, eff, placement, **kw)


def twin_workload(**overrides):
    """Two equally dense objects, ``b`` first in live order, plus a cold
    one; ``overrides`` replace ``b``'s spec fields."""
    access = {"compute": AccessStats(load_rate=1e6, store_rate=2e5)}
    b = dict(site=make_site("twin::b"), size=16 * MiB, access=access)
    b.update(overrides)
    return Workload(
        name="twins",
        phases=[Phase("compute", compute_time=1.0, repeat=3)],
        objects=[
            ObjectSpec(**b),
            ObjectSpec(site=make_site("twin::a"), size=16 * MiB,
                       access=access),
            ObjectSpec(site=make_site("twin::cold"), size=64 * MiB,
                       access={"compute": AccessStats(load_rate=1e4)}),
        ],
        ranks=2,
        conflict_pressure=0.25,
    )


def placement_model(wl, system):
    placement, overrides = checkerboard_placement(wl, system.names)
    return lambda: PlacementTraffic(wl, placement, overrides)


class TestNativeBaselinePacks:
    """The exactness grid for the native packs of the app-direct
    placement and the baselines: {placement, memory mode, tiering,
    combined} x {toy, minife, openfoam on PMem-2 (a segment shorter than
    the float resolution at its start), lulesh on the three-tier
    system}, plus named cells for each trap the vectorized code has to
    get exactly right.  Every field is compared by exact equality —
    ``order_pos`` too, so each packer must emit the canonical
    ``s*K + rank`` first-touch order itself."""

    CELLS = {
        "toy": (make_toy_workload, pmem6_system),
        "minife": (lambda: get_workload("minife"), pmem6_system),
        "openfoam-pmem2": (lambda: get_workload("openfoam"), pmem2_system),
        "lulesh-3tier": (lambda: get_workload("lulesh"),
                         hbm_dram_pmem_system),
    }
    MODELS = {
        "placement": placement_model,
        "memory-mode": memory_mode_model,
        "tiering": tiering_model,
        "combined": combined_model,
    }

    @pytest.mark.parametrize("cell", list(CELLS))
    @pytest.mark.parametrize("model", list(MODELS))
    def test_grid(self, model, cell):
        make_wl, make_system = self.CELLS[cell]
        wl, system = make_wl(), make_system()
        assert_native_pack_exact(wl, system, self.MODELS[model](wl, system))

    def test_memory_mode_partial_residency(self):
        """The budget runs out partway through an object: the hot array
        fits whole, then the temp (or cold) array gets the remainder."""
        wl = make_toy_workload()
        system = pmem6_system()
        cache = 30 * MiB
        budget = cache * (1.0 - wl.conflict_pressure)
        hot, _cold, temp = (o.size * wl.ranks * wl.ws_factor
                            for o in wl.objects)
        assert hot < budget < hot + temp
        assert_native_pack_exact(wl, system,
                                 memory_mode_model(wl, system, cache))

    @pytest.mark.parametrize("model", list(MODELS))
    def test_equal_density_ties_keep_live_order(self, model):
        """``b`` and ``a`` are equally dense; only ``b``, first in live
        order, fits whole (tiering breaks its ties by name instead)."""
        wl = twin_workload()
        system = pmem6_system()
        twin = 16 * MiB * wl.ranks
        cache = int(1.5 * twin / (1.0 - wl.conflict_pressure))
        make = (memory_mode_model(wl, system, cache)
                if model == "memory-mode"
                else self.MODELS[model](wl, system))
        assert_native_pack_exact(wl, system, make)

    @pytest.mark.parametrize("model", list(MODELS))
    def test_same_site_instances_share_a_segment(self, model):
        """Overlapping instances of ``b`` are live in one segment: their
        object rows sum per key in first-touch order."""
        wl = twin_workload(alloc_count=4, lifetime=1.2, period=0.5)
        system = pmem6_system()
        segments = build_segment_arrays(wl)
        site_of = np.array([i.spec.site.name == "twin::b"
                            for i in segments.instances])
        assert np.bincount(segments.pair_seg,
                           weights=site_of[segments.pair_inst]).max() >= 2
        assert_native_pack_exact(wl, system, self.MODELS[model](wl, system))

    @pytest.mark.parametrize("model", ["tiering", "combined"])
    def test_reaction_window_spans_segments(self, model):
        """A 0.75 s reaction window covers one whole segment and part of
        the next in the phases the temp allocations split."""
        wl = make_toy_workload()
        system = pmem6_system()
        reaction_s = 0.75
        segments = build_segment_arrays(wl)
        start = np.array([s.start for s in wl.spans])[segments.span_idx]
        in_window = np.bincount(segments.span_idx,
                                weights=segments.seg_lo < start + reaction_s)
        assert in_window.max() >= 2
        assert_native_pack_exact(
            wl, system, self.MODELS[model](wl, system, reaction_s=reaction_s)
        )

    def test_combined_static_dram_touched_first(self):
        """The first live object is statically in DRAM, so the DRAM bucket
        is created before the PMem one."""
        wl = make_toy_workload()
        system = pmem6_system()
        first = wl.objects[0].site.name
        placement = {o.site.name: ("dram" if o.site.name == first else "pmem")
                     for o in wl.objects}
        generic = assert_native_pack_exact(
            wl, system, combined_model(wl, system, placement)
        )
        dram, pmem = (system.names.index(n) for n in ("dram", "pmem"))
        both = generic.present[:, dram] & generic.present[:, pmem]
        assert np.any(generic.order_pos[both, dram]
                      < generic.order_pos[both, pmem])

    def test_memory_mode_rate_below_traffic_resolution(self):
        """A nonzero rate whose traffic rounds to zero (the smallest
        subnormal rate over a 0.3 s segment) still competes for the cache
        and records its rows, as in the scalar filter."""
        wl = twin_workload(lifetime=0.3,
                           access={"compute": AccessStats(load_rate=5e-324)})
        system = pmem6_system()
        segments = build_segment_arrays(wl)
        base = _placement_pack_base(wl, segments)
        rl, rs = base.pair_rates(segments.pair_seg, segments.pair_inst)
        assert np.count_nonzero((rl != 0) | (rs != 0)) > base.kseg.size
        assert_native_pack_exact(wl, system, memory_mode_model(wl, system))


class TestSegmentArrays:
    @pytest.mark.parametrize("workload_name", [None, "minife", "lulesh"])
    def test_matches_scalar_segmentation(self, workload_name):
        wl = (get_workload(workload_name) if workload_name
              else make_toy_workload())
        engine = ExecutionEngine(wl, pmem6_system())
        sa = build_segment_arrays(wl)
        segments = engine._segments
        assert sa.num_segments == len(segments)
        key_of = {}
        for n, inst in enumerate(sa.instances):
            key_of[(inst.spec.site.name, inst.index, inst.start, inst.end)] = n
        pair = 0
        for s, seg in enumerate(segments):
            assert sa.seg_lo[s] == seg.lo
            assert sa.seg_hi[s] == seg.hi
            assert wl.spans[sa.span_idx[s]] is seg.phase
            for inst in seg.live:
                n = key_of[(inst.spec.site.name, inst.index,
                            inst.start, inst.end)]
                assert sa.pair_seg[pair] == s
                assert sa.pair_inst[pair] == n
                pair += 1
        assert pair == sa.pair_seg.size


class TestBatchedLatency:
    @pytest.mark.parametrize("system_factory", [
        pmem6_system, pmem2_system, hbm_dram_pmem_system,
    ])
    def test_matches_scalar_curve(self, system_factory):
        system = system_factory()
        for sub in (system.get(n) for n in system.names):
            bw = np.concatenate([
                np.linspace(0.0, 2.0 * sub.peak_read_bw, 97),
                np.array([sub.peak_read_bw * 0.92, sub.peak_read_bw]),
            ])
            for wf in (0.0, 0.2, 0.5, 0.9, 1.0):
                batched = sub.read_latency_ns_batch(
                    bw, np.full(bw.size, wf)
                )
                scalar = [sub.read_latency_ns(b, wf) for b in bw]
                assert batched.tolist() == scalar


class TestBatchedTimeline:
    def test_matches_sequential_add(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            duration = float(rng.uniform(1.0, 20.0))
            n = int(rng.integers(1, 40))
            starts = rng.uniform(-1.0, duration, n)
            ends = starts + rng.uniform(1e-9, duration / 2, n)
            nbytes = rng.uniform(0.0, 1e9, n)
            a = BandwidthTimeline(duration=duration, resolution=0.05)
            b = BandwidthTimeline(duration=duration, resolution=0.05)
            for s, e, v in zip(starts, ends, nbytes):
                a.add_traffic("pmem", float(s), float(e), float(v))
            b.add_traffic_batch("pmem", starts, ends, nbytes)
            assert np.array_equal(a._bins["pmem"], b._bins["pmem"])

    def test_rejects_empty_interval(self):
        tl = BandwidthTimeline(duration=1.0, resolution=0.1)
        with pytest.raises(ValueError, match="empty interval"):
            tl.add_traffic_batch(
                "pmem", np.array([0.5]), np.array([0.5]), np.array([1.0])
            )


class TestByteMajoritySubsystem:
    """Satellite: ``ObjectRunStats.subsystem`` reports where the *bytes*
    went, not just the designated placement — a capacity fallback that
    splits a site's instances across tiers must surface the majority."""

    def _split_run(self, scalar):
        wl = make_toy_workload(iterations=5)
        system = pmem6_system()
        placement = {"toy::hot": "dram", "toy::cold": "pmem",
                     "toy::temp": "dram"}
        # 3 of toy::temp's 5 identical instances land in PMem, as if the
        # DRAM heap bounced them mid-run: PMem holds the byte majority
        overrides = {("toy::temp", i): "pmem" for i in (1, 2, 3)}
        engine = ExecutionEngine(wl, system)
        run = engine.run_scalar if scalar else engine.run
        return run(PlacementTraffic(wl, placement, overrides))

    @pytest.mark.parametrize("scalar", [False, True])
    def test_majority_wins(self, scalar):
        res = self._split_run(scalar)
        assert res.objects["toy::temp"].subsystem == "pmem"
        assert res.objects["toy::hot"].subsystem == "dram"
        assert res.objects["toy::cold"].subsystem == "pmem"

    def test_paths_agree(self):
        assert run_results_identical(
            self._split_run(False), self._split_run(True)
        ) == []


class TestZeroLengthSegments:
    """Satellite: segments with no extent spread no timeline traffic —
    neither exact zeros nor positive durations below the float resolution
    at their start (openfoam/pmem2 produces the latter for real)."""

    def _fake_seg_results(self, start, duration):
        traffic = SegmentTraffic()
        traffic.subsystem("pmem").add(loads=1000.0)
        return [(None, traffic, start, duration, 0.0, {}, None)]

    def test_exact_zero_duration_skipped(self):
        engine = ExecutionEngine(make_toy_workload(), pmem6_system())
        tl = engine._timeline(self._fake_seg_results(0.5, 0.0), 1.0)
        assert tl.peak("pmem") == 0.0

    def test_sub_epsilon_duration_skipped(self):
        engine = ExecutionEngine(make_toy_workload(), pmem6_system())
        start, duration = 314.7169995661015, 1e-16
        assert start + duration == start  # below resolution at this start
        tl = engine._timeline(self._fake_seg_results(start, duration), 400.0)
        assert tl.peak("pmem") == 0.0
