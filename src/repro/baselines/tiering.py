"""Kernel-level page migration (Intel tiering-0.71).

The kernel exposes PMem as a NUMA node and reactively promotes hot pages
to DRAM / demotes cold ones.  Two effects the paper highlights are
modelled:

1. **Metadata cost** — enabling the PMem NUMA node costs DRAM for
   ``struct page`` metadata proportional to PMem capacity ("~15 GB in our
   case"), which shrinks the DRAM usable by applications
   (:func:`tiering_effective_dram`).
2. **Reactivity** — promotion happens only after access-bit scans identify
   a hot page, so every phase starts with its hot data in PMem and only
   enjoys DRAM after a reaction delay, modelled as a per-phase-occurrence
   warm-up during which promoted objects' traffic still goes to PMem.
   Promotion also generates migration traffic on both devices.

Objects are promoted hottest-first (true access density — the kernel sees
real access bits, not samples) until the effective DRAM fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.apps.workload import InstanceSpan, Workload
from repro.memsim.subsystem import MemorySystem
from repro.runtime.engine import EngineParams, ExecutionEngine
from repro.runtime.segments import SegmentArrays
from repro.runtime.stats import RunResult
from repro.runtime.traffic import (
    SegmentTraffic,
    TrafficBatch,
    _placement_pack_base,
    group_records,
    pack_traffic_calls,
)
from repro.units import GiB

#: struct page is 64 B per 4 KiB page -> ~1.56% of device capacity.
METADATA_FRACTION = 64.0 / 4096.0


def tiering_effective_dram(dram_bytes: int, pmem_bytes: int,
                           *, reserve_bytes: int = 1 * GiB) -> int:
    """DRAM left for application data after page metadata.

    The kernel keeps at least ``reserve_bytes`` usable (it would refuse to
    boot otherwise); the paper's 6-DIMM node computes to roughly the
    ~15 GB metadata figure it quotes, leaving about 1 GB.
    """
    metadata = int(pmem_bytes * METADATA_FRACTION * 0.31)
    # 0.31: only pages in the active zones get full metadata resident; the
    # factor lands the paper's quoted ~15 GB for 3 TB of PMem per node.
    return max(dram_bytes - metadata, reserve_bytes)


class TieringTraffic:
    """Traffic model for reactive kernel page migration."""

    def __init__(
        self,
        workload: Workload,
        effective_dram: int,
        *,
        reaction_s: float = 1.5,
        scan_overhead: float = 0.015,
    ):
        self.workload = workload
        self.effective_dram = effective_dram
        self.reaction_s = reaction_s
        self.scan_overhead = scan_overhead
        self._promoted_cache: Dict[Tuple[str, int], Set[str]] = {}

    @property
    def label(self) -> str:
        return "kernel-tiering"

    def _promoted_set(self, phase_key: Tuple[str, int],
                      live: Sequence[InstanceSpan], phase_name: str) -> Set[str]:
        """Hottest-first promotion under the effective DRAM budget."""
        cached = self._promoted_cache.get(phase_key)
        if cached is not None:
            return cached
        ranks = self.workload.ranks
        candidates = []
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            rate = stats.load_rate + stats.store_rate
            if rate <= 0:
                continue
            density = rate / inst.spec.size
            candidates.append((density, inst.spec.site.name, inst.spec.size * ranks))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        promoted: Set[str] = set()
        budget = self.effective_dram
        for _density, name, nbytes in candidates:
            if name in promoted:
                continue
            if nbytes <= budget:
                promoted.add(name)
                budget -= nbytes
        self._promoted_cache[phase_key] = promoted
        return promoted

    def _phase_occurrence(self, lo: float):
        """(start, (name, iteration)) of the phase span holding ``lo``."""
        for span in self.workload.spans:
            if span.start <= lo < span.end:
                return span.start, (span.name, span.iteration)
        return None, None

    def _occurrences(self, segments: SegmentArrays, base):
        """Per-segment phase-occurrence state for the batched packs.

        Returns (occ, promoted, cold, share): each segment's occurrence
        row, the (occurrences, sites) promoted mask, the segment's cold
        fraction (its part inside the reaction window over its length) and
        its share of the window.  Spans tile the timeline, so the span
        holding a segment's start is ``segments.span_idx``.  The promoted
        sets come from :meth:`_promoted_set` on each occurrence's first
        segment, in segment order — the calls the scalar path makes, so
        ``_promoted_cache`` fills identically.
        """
        spans = self.workload.spans
        span = segments.span_idx
        row_of_key: Dict[Tuple[str, int], int] = {}
        span_row = np.array([
            row_of_key.setdefault((sp.name, sp.iteration), len(row_of_key))
            for sp in spans
        ], dtype=np.int64)
        keys = list(row_of_key)
        occ = span_row[span]

        site_col = {name: i for i, name in enumerate(base.site_names)}
        promoted = np.zeros((len(keys), len(base.site_names)), dtype=bool)
        rows, first = np.unique(occ, return_index=True)
        lo = np.searchsorted(segments.pair_seg, first, side="left")
        hi = np.searchsorted(segments.pair_seg, first, side="right")
        for i in np.argsort(first, kind="stable"):
            live = [segments.instances[j]
                    for j in segments.pair_inst[lo[i]:hi[i]]]
            names = self._promoted_set(keys[rows[i]], live,
                                       spans[span[first[i]]].name)
            for name in names:
                if name in site_col:
                    promoted[rows[i], site_col[name]] = True

        start = np.array([sp.start for sp in spans])[span]
        warm_end = start + self.reaction_s
        inside = np.minimum(segments.seg_hi, warm_end) - segments.seg_lo
        inside = np.where(inside > 0.0, inside, 0.0)
        dt = segments.durations_nominal
        cold = np.zeros(segments.num_segments)
        np.divide(inside, dt, out=cold, where=dt > 0)
        window = warm_end - start
        share = inside / np.where(1e-9 > window, 1e-9, window)
        return occ, promoted, cold, share

    def traffic_batch(
        self, segments: SegmentArrays, subsystem_names: Sequence[str]
    ) -> TrafficBatch:
        """All segments' traffic at once, bit-identical to ``segment_traffic``.

        Each kept pair (the placement base's: nonzero traffic, the scalar
        filter) issues the scalar's calls in the scalar's order: one
        whole-contribution call, or for a promoted object still warming up
        a cold (PMem) then a warm (DRAM) call.  A segment inside the
        reaction window then adds the page-migration traffic.
        """
        wl = self.workload
        ranks = wl.ranks
        base = _placement_pack_base(wl, segments)
        S = segments.num_segments
        occ, promoted, cold, share = self._occurrences(segments, base)
        colmap = {name: k for k, name in enumerate(subsystem_names)}
        dram, pmem = colmap["dram"], colmap["pmem"]
        nbytes = np.array([inst.spec.size * ranks
                           for inst in segments.instances], dtype=np.int64)

        kseg, kinst, ksite = base.kseg, base.kinst, base.ksite
        up = 1.0 + self.scan_overhead
        loads = base.pl * up
        stores = base.ps * up
        serial = loads * base.inst_sf[kinst]
        c = cold[kseg]
        warm = 1 - c
        prom = promoted[occ[kseg], ksite]
        direct = self._direct_dram(base, prom, c)
        split = prom & ~direct

        calls = [
            # the whole contribution, or a split one's cold (PMem) share
            (pmem, ~direct, np.where(split, loads * c, loads),
             np.where(split, stores * c, stores),
             np.where(split, serial * c, serial)),
            (dram, direct, loads, stores, serial),
            # a split contribution's warm (DRAM) share
            (dram, split, loads * warm, stores * warm, serial * warm),
        ]
        objects = group_records(
            base.site_groups(),
            (np.where(direct | split, dram, pmem),
             np.where(split, loads * warm, loads),
             np.where(split, stores * warm, stores)),
            (pmem, loads * c, stores * c),
            split)

        migrate, moved_bytes = self._migration(segments, base, occ, promoted,
                                               cold, split, nbytes)
        moved = moved_bytes * share[migrate]
        # a page migration reads PMem and writes DRAM, after the pairs
        trailing = [(migrate, pmem, moved / 64.0, 0.0, 0.0),
                    (migrate, dram, 0.0, moved / 128.0, 0.0)]
        return pack_traffic_calls(S, subsystem_names, base.site_names, kseg,
                                  calls, objects, trailing)

    def _direct_dram(self, base, prom: np.ndarray,
                     cold: np.ndarray) -> np.ndarray:
        """Kept pairs whose traffic goes to DRAM whole: none, since every
        promoted object starts a phase in PMem."""
        return np.zeros(prom.size, dtype=bool)

    def _migration(self, segments: SegmentArrays, base, occ, promoted,
                   cold, split, nbytes):
        """(segments that migrate, bytes promoted there).

        Every live promoted object with stats in the phase moves, summed
        as integers like the scalar's ``sum``, in every segment inside the
        reaction window.
        """
        pseg, pinst = segments.pair_seg, segments.pair_inst
        moving = (promoted[occ[pseg], base.inst_site[pinst]]
                  & base.has_stats[base.inst_row[pinst], base.seg_pname[pseg]])
        csum = np.concatenate(([0], np.cumsum(
            np.where(moving, nbytes[pinst], 0))))
        bounds = np.searchsorted(pseg, np.arange(segments.num_segments + 1))
        migrate = np.flatnonzero(cold > 0.0)
        return migrate, (csum[bounds[1:]] - csum[bounds[:-1]])[migrate]

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

        # find the phase occurrence this segment belongs to, for warm-up
        phase_start, phase_key = self._phase_occurrence(lo)
        if phase_key is None:
            return traffic
        promoted = self._promoted_set(phase_key, live, phase_name)

        # fraction of this segment inside the reaction window
        warm_end = phase_start + self.reaction_s
        cold = max(0.0, min(hi, warm_end) - lo) / dt if dt > 0 else 0.0

        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            loads = stats.load_rate * dt * ranks * (1.0 + self.scan_overhead)
            stores = stats.store_rate * dt * ranks * (1.0 + self.scan_overhead)
            if loads == 0.0 and stores == 0.0:
                continue
            serial = loads * inst.spec.serial_fraction
            name = inst.spec.site.name
            if name in promoted:
                # cold share still in PMem, warm share promoted to DRAM
                traffic.subsystem("pmem").add(
                    loads=loads * cold, stores=stores * cold,
                    serial_loads=serial * cold,
                )
                traffic.subsystem("dram").add(
                    loads=loads * (1 - cold), stores=stores * (1 - cold),
                    serial_loads=serial * (1 - cold),
                )
                traffic.record_object(name, "dram", loads * (1 - cold), stores * (1 - cold))
                traffic.record_object(name, "pmem", loads * cold, stores * cold)
            else:
                traffic.subsystem("pmem").add(
                    loads=loads, stores=stores, serial_loads=serial
                )
                traffic.record_object(name, "pmem", loads, stores)

        # migration traffic: promoted bytes cross both devices once per
        # phase occurrence, charged to the segment(s) in the warm-up window
        if cold > 0.0:
            window = max(warm_end - phase_start, 1e-9)
            share = (max(0.0, min(hi, warm_end) - lo)) / window
            moved = sum(
                inst.spec.size * ranks
                for inst in live
                if inst.spec.site.name in promoted and inst.spec.access.get(phase_name)
            ) * share
            # a page migration reads PMem and writes DRAM: count as loads
            # on pmem and stores on dram at line granularity
            traffic.subsystem("pmem").add(loads=moved / 64.0)
            traffic.subsystem("dram").add(stores=moved / 128.0)
        return traffic


def run_tiering(
    workload: Workload,
    system: MemorySystem,
    *,
    reaction_s: float = 1.5,
    params: EngineParams = EngineParams(),
) -> RunResult:
    """Convenience: execute a workload under kernel tiering."""
    dram = system.get("dram").capacity
    pmem = system.get("pmem").capacity
    model = TieringTraffic(
        workload,
        tiering_effective_dram(dram, pmem),
        reaction_s=reaction_s,
    )
    engine = ExecutionEngine(workload, system, params)
    return engine.run(model, label="kernel-tiering")


class CombinedTraffic(TieringTraffic):
    """Proactive initial placement + reactive page migration.

    The paper's stated future work (Section III): start each phase from
    ecoHMEM's *static* placement instead of everything-in-PMem, and let
    the kernel's reactive migration adjust from there.  Two consequences:

    - objects the Advisor already put in DRAM skip the warm-up entirely
      (their pages are hot from the first access);
    - the migration budget only moves objects the Advisor missed, so the
      page-copy traffic shrinks.
    """

    def __init__(self, workload: Workload, effective_dram: int,
                 initial_placement: "Dict[str, str]",
                 *, reaction_s: float = 1.5, scan_overhead: float = 0.015):
        super().__init__(workload, effective_dram,
                         reaction_s=reaction_s, scan_overhead=scan_overhead)
        self.initial_placement = dict(initial_placement)

    @property
    def label(self) -> str:
        return "combined-proactive-reactive"

    def _direct_dram(self, base, prom, cold):
        """Sites the Advisor put in DRAM, and promoted objects once their
        warm-up is over, send their traffic to DRAM whole."""
        static = np.array([self.initial_placement.get(name) == "dram"
                           for name in base.site_names], dtype=bool)
        return static[base.ksite] | (prom & (cold == 0.0))

    def _migration(self, segments, base, occ, promoted, cold, split, nbytes):
        """Only the objects warming up in a segment move, summed as a
        float like the scalar's ``+=``, where any did."""
        moved = np.bincount(base.kseg[split], weights=nbytes[base.kinst[split]],
                            minlength=segments.num_segments)
        migrate = np.flatnonzero((cold > 0.0) & (moved > 0))
        return migrate, moved[migrate]

    def segment_traffic(self, lo, hi, phase_name, live):
        wl = self.workload
        ranks = wl.ranks
        dt = hi - lo
        traffic = SegmentTraffic()
        phase_start, phase_key = self._phase_occurrence(lo)
        if phase_key is None:
            return traffic
        promoted = self._promoted_set(phase_key, live, phase_name)
        warm_end = phase_start + self.reaction_s
        cold = max(0.0, min(hi, warm_end) - lo) / dt if dt > 0 else 0.0

        migrated_bytes = 0.0
        for inst in live:
            stats = inst.spec.access.get(phase_name)
            if stats is None:
                continue
            loads = stats.load_rate * dt * ranks * (1.0 + self.scan_overhead)
            stores = stats.store_rate * dt * ranks * (1.0 + self.scan_overhead)
            if loads == 0.0 and stores == 0.0:
                continue
            serial = loads * inst.spec.serial_fraction
            name = inst.spec.site.name
            statically_dram = self.initial_placement.get(name) == "dram"
            if statically_dram or (name in promoted and cold == 0.0):
                # proactively placed, or already promoted: pure DRAM
                traffic.subsystem("dram").add(loads=loads, stores=stores,
                                              serial_loads=serial)
                traffic.record_object(name, "dram", loads, stores)
            elif name in promoted:
                traffic.subsystem("pmem").add(
                    loads=loads * cold, stores=stores * cold,
                    serial_loads=serial * cold)
                traffic.subsystem("dram").add(
                    loads=loads * (1 - cold), stores=stores * (1 - cold),
                    serial_loads=serial * (1 - cold))
                traffic.record_object(name, "dram", loads * (1 - cold),
                                      stores * (1 - cold))
                traffic.record_object(name, "pmem", loads * cold, stores * cold)
                migrated_bytes += inst.spec.size * ranks
            else:
                traffic.subsystem("pmem").add(loads=loads, stores=stores,
                                              serial_loads=serial)
                traffic.record_object(name, "pmem", loads, stores)

        if cold > 0.0 and migrated_bytes > 0:
            window = max(warm_end - phase_start, 1e-9)
            share = (max(0.0, min(hi, warm_end) - lo)) / window
            moved = migrated_bytes * share
            traffic.subsystem("pmem").add(loads=moved / 64.0)
            traffic.subsystem("dram").add(stores=moved / 128.0)
        return traffic


def run_combined(
    workload: Workload,
    system: MemorySystem,
    initial_placement: "Dict[str, str]",
    *,
    reaction_s: float = 1.5,
    params: EngineParams = EngineParams(),
) -> RunResult:
    """Execute under the combined proactive + reactive policy."""
    dram = system.get("dram").capacity
    pmem = system.get("pmem").capacity
    model = CombinedTraffic(
        workload,
        tiering_effective_dram(dram, pmem),
        initial_placement,
        reaction_s=reaction_s,
    )
    engine = ExecutionEngine(workload, system, params)
    return engine.run(model, label="combined-proactive-reactive")
