"""Optane memory mode: the hardware-managed DRAM cache baseline.

Every off-chip access first probes the direct-mapped DRAM cache; hits are
served at DRAM latency, misses additionally pay PMem latency plus a fill
penalty and generate PMem traffic.  The hit ratio is the analytic model of
:func:`repro.memsim.dram_cache.memory_mode_hit_ratio`, evaluated per
segment from the working set actually accessed in that segment — so
applications whose active working set exceeds the DRAM (MiniFE, HPCG)
thrash exactly as Table VI reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.apps.workload import InstanceSpan, Workload
from repro.memsim.dram_cache import memory_mode_hit_ratio
from repro.memsim.subsystem import MemorySystem
from repro.runtime.engine import EngineParams, ExecutionEngine
from repro.runtime.segments import SegmentArrays
from repro.runtime.stats import RunResult
from repro.runtime.traffic import (
    SegmentTraffic,
    TrafficBatch,
    _placement_pack_base,
    _site_groups,
    group_records,
    pack_traffic_calls,
)

#: extra per-load penalty of a DRAM-cache miss: the fill round-trip the
#: memory controller inserts before data reaches the core (measured
#: memory-mode miss paths are worse than raw PMem reads [18]).
FILL_PENALTY_NS = 60.0

#: extra per-access penalty on the DRAM cache itself: the controller's
#: tag/metadata check sits on every access path in memory mode, so even
#: hits are slower than app-direct DRAM reads.
CACHE_PROBE_NS = 22.0

#: fraction of store misses that eventually write back to PMem: the
#: write-back DRAM cache coalesces repeated writes to a line, so only the
#: final eviction reaches the PMem media — the reason memory mode weathers
#: reduced PMem write bandwidth (PMem-2) better than app-direct placement.
WRITEBACK_COALESCING = 0.5


class MemoryModeTraffic:
    """Traffic model for memory mode."""

    def __init__(self, workload: Workload, dram_cache_bytes: int):
        self.workload = workload
        self.dram_cache_bytes = dram_cache_bytes
        # traffic-weighted hit-ratio history, as left folds over every
        # contribution in call order
        self._hit_count = 0
        self._hit_weight = 0.0
        self._hit_weighted = 0.0

    @property
    def label(self) -> str:
        return "memory-mode"

    def _per_object_hits(self, contributions, dt: float):
        """LRU-competition hit ratios: hot-per-byte objects stay resident.

        The hardware cache keeps whatever is re-referenced most often per
        byte; we model that by granting residence in descending access
        density until the (conflict-discounted) capacity runs out.  The
        resident share of an object hits at the workload's reuse locality;
        the evicted share retains only short streaming reuse.
        """
        wl = self.workload
        ranks = wl.ranks
        order = sorted(
            range(len(contributions)),
            key=lambda i: -(
                (contributions[i][1].load_rate + contributions[i][1].store_rate)
                / contributions[i][0].spec.size
            ),
        )
        budget = self.dram_cache_bytes * (1.0 - wl.conflict_pressure)
        residency = [0.0] * len(contributions)
        for i in order:
            inst, _stats = contributions[i]
            footprint = inst.spec.size * ranks * wl.ws_factor
            if footprint <= budget:
                residency[i] = 1.0
                budget -= footprint
            elif budget > 0:
                residency[i] = budget / footprint
                budget = 0.0

        # Direct-mapped conflict thrash: streams flowing through the cache
        # evict resident lines at random index collisions, so residence
        # protects less the more of the segment's traffic is streaming.
        # (Plain loops, not ``sum``: from Python 3.12 ``sum`` of floats is
        # compensated, and the batched path relies on left folds.)
        total_rate = 0.0
        stream_rate = 0.0
        for i, (_inst, s) in enumerate(contributions):
            total_rate += s.load_rate + s.store_rate
            stream_rate += (s.load_rate + s.store_rate) * (1.0 - residency[i])
        stream_share = stream_rate / total_rate if total_rate > 0 else 0.0
        thrash = 1.0 - 2.0 * wl.conflict_pressure * stream_share

        hits = [0.0] * len(contributions)
        for i, (inst, _stats) in enumerate(contributions):
            footprint = inst.spec.size * ranks * wl.ws_factor
            streaming = memory_mode_hit_ratio(
                footprint, self.dram_cache_bytes,
                reuse_locality=wl.locality * 0.15,
                conflict_pressure=wl.conflict_pressure,
            )
            resident = residency[i]
            hits[i] = max(
                resident * wl.locality * thrash + (1.0 - resident) * streaming, 0.0
            )
        return hits

    def segment_traffic(
        self,
        lo: float,
        hi: float,
        phase_name: str,
        live: Sequence[InstanceSpan],
    ) -> SegmentTraffic:
        wl = self.workload
        ranks = wl.ranks
        dt = hi - lo
        traffic = SegmentTraffic()

        contributions = []
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None or (stats.load_rate == 0 and stats.store_rate == 0):
                continue
            contributions.append((inst, stats))
        if not contributions:
            return traffic

        hits = self._per_object_hits(contributions, dt)

        dram = traffic.subsystem("dram")
        pmem = traffic.subsystem("pmem")
        dram.extra_latency_ns = CACHE_PROBE_NS
        pmem.extra_latency_ns = FILL_PENALTY_NS
        for (inst, stats), hit in zip(contributions, hits):
            loads = stats.load_rate * dt * ranks
            stores = stats.store_rate * dt * ranks
            serial = loads * inst.spec.serial_fraction
            self._hit_count += 1
            self._hit_weight += loads + stores
            self._hit_weighted += (loads + stores) * hit
            # every access probes the DRAM cache; misses additionally fill
            # a line into DRAM (counted as half a store: one 64 B write,
            # no RFO) — the memory-mode write-amplification effect
            fill_stores = 0.5 * (loads + stores) * (1.0 - hit)
            dram.add(loads=loads, stores=stores + fill_stores, serial_loads=serial)
            # ...and the (1-hit) fraction continues to PMem; store misses
            # reach the media only on (coalesced) dirty evictions
            pmem_stores = stores * (1.0 - hit) * WRITEBACK_COALESCING
            pmem.add(
                loads=loads * (1.0 - hit),
                stores=pmem_stores,
                serial_loads=serial * (1.0 - hit),
            )
            traffic.record_object(inst.spec.site.name, "dram", loads * hit, stores * hit)
            traffic.record_object(
                inst.spec.site.name, "pmem", loads * (1.0 - hit), pmem_stores
            )
        return traffic

    def traffic_batch(
        self, segments: SegmentArrays, subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once, bit-identical to ``segment_traffic``.

        The contributions are the live pairs with a nonzero *rate* (the
        scalar filter; a sub-epsilon segment can keep a pair whose traffic
        rounds to zero), taken in live order.  Residency, the per-segment
        rate sums and the bucket sums are the scalar's sequential folds in
        array form (see :meth:`_hits_batch`), and the hit-ratio history
        advances by the same left folds.
        """
        wl = self.workload
        ranks = wl.ranks
        base = _placement_pack_base(wl, segments)
        S = segments.num_segments
        rl, rs = base.pair_rates(segments.pair_seg, segments.pair_inst)
        keep = np.flatnonzero((rl != 0.0) | (rs != 0.0))
        kseg = segments.pair_seg[keep]
        kinst = segments.pair_inst[keep]
        rl, rs = rl[keep], rs[keep]
        dt = segments.durations_nominal[kseg]
        loads = rl * dt * ranks
        stores = rs * dt * ranks
        serial = loads * base.inst_sf[kinst]
        hit = self._hits_batch(segments, kseg, kinst, rl + rs)

        weight = loads + stores
        self._hit_count += int(kseg.size)
        self._hit_weight = _fold(self._hit_weight, weight)
        self._hit_weighted = _fold(self._hit_weighted, weight * hit)

        colmap = {name: k for k, name in enumerate(subsystem_names)}
        dram, pmem = colmap["dram"], colmap["pmem"]
        ksite = base.inst_site[kinst]
        if keep.size == base.kseg.size:
            # no contribution's traffic rounds to zero: the kept pairs
            # are the base's, and so are their (segment, site) groups
            groups = base.site_groups()
        else:
            inv, _first, order, gseg, gsite = _site_groups(
                kseg, ksite, max(len(base.site_names), 1))
            groups = (inv, order, gseg, gsite)
        miss = 1.0 - hit
        miss_loads = loads * miss
        pmem_stores = stores * miss * WRITEBACK_COALESCING
        objects = group_records(groups, (dram, loads * hit, stores * hit),
                                (pmem, miss_loads, pmem_stores))
        batch = pack_traffic_calls(
            S, subsystem_names, base.site_names, kseg,
            [(dram, None, loads, stores + 0.5 * weight * miss, serial),
             (pmem, None, miss_loads, pmem_stores, serial * miss)],
            objects,
        )
        batch.extra_latency_ns[:, dram] = np.where(
            batch.present[:, dram], CACHE_PROBE_NS, 0.0)
        batch.extra_latency_ns[:, pmem] = np.where(
            batch.present[:, pmem], FILL_PENALTY_NS, 0.0)
        return batch

    def _hits_batch(self, segments: SegmentArrays, kseg: np.ndarray,
                    kinst: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """:meth:`_per_object_hits` for every contribution at once.

        Residency works on a (segments x max-live) grid.  A row-wise
        stable argsort by -density keeps ties in live order, as the
        scalar's stable ``sorted`` does.  The budget greedy is a row-wise
        ``np.subtract.accumulate`` — a sequential left fold, so each
        running budget is the scalar's float.  Every footprint is positive,
        so the first object that does not fit takes the partial remainder
        (if any budget is left) and all later ones get nothing.  The rate
        sums are ``np.bincount`` folds in live order, and the streaming hit
        ratio, which depends only on the instance, comes from the scalar
        ``memory_mode_hit_ratio`` once per distinct footprint.
        """
        if not kseg.size:
            return np.zeros(0)
        wl = self.workload
        ranks = wl.ranks
        S = segments.num_segments
        instances = segments.instances
        size = np.array([inst.spec.size for inst in instances], dtype=float)
        footprint = np.array(
            [inst.spec.size * ranks * wl.ws_factor for inst in instances],
            dtype=float)

        # (segment, live position) grid, padded past each segment's end
        counts = np.bincount(kseg, minlength=S)
        live = np.arange(kseg.size) - (np.cumsum(counts) - counts)[kseg]
        W = int(counts.max(initial=0))
        neg_density = np.full((S, W), np.inf)
        neg_density[kseg, live] = -(rate / size[kinst])
        fp_grid = np.zeros((S, W))
        fp_grid[kseg, live] = footprint[kinst]
        # densest first; the stable sort keeps ties in live order and
        # the +inf padding last
        order = np.argsort(neg_density, axis=1, kind="stable")
        fp_sorted = np.take_along_axis(fp_grid, order, axis=1)
        budget = np.empty((S, W + 1))
        budget[:, 0] = self.dram_cache_bytes * (1.0 - wl.conflict_pressure)
        budget[:, 1:] = fp_sorted
        before = np.subtract.accumulate(budget, axis=1)[:, :W]
        rank = np.arange(W)
        over = ~(fp_sorted <= before) & (rank < counts[:, None])
        stop = np.where(over.any(axis=1), over.argmax(axis=1), W)[:, None]
        partial = np.zeros((S, W))
        np.divide(before, fp_sorted, out=partial,
                  where=(rank == stop) & (before > 0))
        granted = np.where(rank < stop, 1.0, partial)
        residency_grid = np.empty((S, W))
        np.put_along_axis(residency_grid, order, granted, axis=1)
        residency = residency_grid[kseg, live]

        total = np.bincount(kseg, weights=rate, minlength=S)
        stream = np.bincount(kseg, weights=rate * (1.0 - residency),
                             minlength=S)
        share = np.zeros(S)
        np.divide(stream, total, out=share, where=total > 0)
        thrash = 1.0 - 2.0 * wl.conflict_pressure * share

        used = np.zeros(len(instances), dtype=bool)
        used[kinst] = True
        distinct, inverse = np.unique(footprint[used], return_inverse=True)
        streaming = np.zeros(len(instances))
        streaming[used] = np.array([
            memory_mode_hit_ratio(
                float(fp), self.dram_cache_bytes,
                reuse_locality=wl.locality * 0.15,
                conflict_pressure=wl.conflict_pressure,
            )
            for fp in distinct
        ])[inverse]
        hits = (residency * wl.locality * thrash[kseg]
                + (1.0 - residency) * streaming[kinst])
        return np.where(0.0 > hits, 0.0, hits)   # max(hits, 0.0)

    def mean_hit_ratio(self) -> Optional[float]:
        """Traffic-weighted DRAM cache hit ratio over the run."""
        if not self._hit_count or self._hit_weight == 0:
            return None
        return self._hit_weighted / self._hit_weight


def _fold(acc: float, values: np.ndarray) -> float:
    """``acc + values[0] + values[1] + ...``, added left to right."""
    if not values.size:
        return acc
    return float(np.cumsum(np.concatenate(([acc], values)))[-1])


def run_memory_mode(
    workload: Workload,
    system: MemorySystem,
    *,
    dram_cache_bytes: Optional[int] = None,
    params: EngineParams = EngineParams(),
) -> RunResult:
    """Convenience: execute a workload in memory mode.

    ``dram_cache_bytes`` defaults to the system's full DRAM capacity (in
    memory mode *all* DRAM serves as cache — the paper's baseline has the
    full 16 GB, more than the Advisor's DRAM limit ever gets).
    """
    cache = dram_cache_bytes if dram_cache_bytes is not None else system.get("dram").capacity
    model = MemoryModeTraffic(workload, cache)
    engine = ExecutionEngine(workload, system, params)
    result = engine.run(model, label="memory-mode")
    result.dram_cache_hit_ratio = model.mean_hit_ratio()
    return result
