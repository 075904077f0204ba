"""The Extrae-like tracer: profile a workload run into a :class:`Trace`.

The tracer replays a workload's allocation schedule through a real heap
(the profiling run needs actual addresses so that sampled data addresses
can be matched back to objects through the live-object table, as Extrae
does), translates each site's captured call stack into the configured
stable format, and drives the PEBS sampler over the run's phases.

The profiling run itself uses the fallback placement (everything in the
largest subsystem) — the sampled counters (LLC load misses, retired
stores) are properties of the cache hierarchy above the placement, so the
profile is placement-independent, exactly the property the paper's
workflow relies on (profile once, place, run).

Two implementations share one definition of the run:

- :meth:`ExtraeTracer.run` — the vectorized cold path.  The per-window
  x per-instance true event counts are precomputed as NumPy matrices
  (span overlap geometry via ``searchsorted``/broadcasting), and sample
  materialization is batched: timestamps and store offsets are one draw
  per window, load offsets/latencies are drawn per key (they interleave
  in the stream), all in the scalar loop's RNG order; addresses resolve
  through :meth:`LiveObjectTable.lookup_batch`, and batches append to
  the trace's columnar storage.
- :meth:`ExtraeTracer.run_scalar` — the original per-event loop, kept
  as the equivalence oracle (same pattern as
  ``SetAssociativeCache.access_stream_scalar``).

Both draw from per-run generators derived from ``(config.seed, rank)``,
so a rank's trace never depends on which ranks were profiled before it,
and both produce bit-identical traces (the invariant
``tests/profiling/test_tracer_vectorized.py`` pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.binary.callstack import StackFormat
from repro.alloc.heap import FreeListHeap
from repro.apps.sites import ProcessImage, SiteRegistry
from repro.apps.workload import InstanceSpan, Workload
from repro.profiling.events import AllocEvent, FreeEvent, HardwareCounter, SampleEvent
from repro.profiling.object_table import LiveObjectTable
from repro.profiling.pebs import PEBSConfig, PEBSSampler
from repro.profiling.trace import Trace, TraceMeta

#: Profiling heap: one large region; base far from the real heaps so tests
#: can tell profiling-run addresses from production-run ones.
_PROFILING_HEAP_BASE = 0x0800_0000_0000


@dataclass(frozen=True)
class TracerConfig:
    """Extrae configuration file analogue."""

    stack_format: StackFormat = StackFormat.BOM
    pebs: PEBSConfig = PEBSConfig()
    #: sampling window; one PEBS batch is drawn per window per counter
    window: float = 1.0
    seed: int = 7
    #: per-rank load-imbalance jitter (lognormal sigma) applied to the
    #: true event counts a rank's sampler sees; 0 = perfectly symmetric
    rank_jitter: float = 0.0


class _LiveColumns:
    """The live instances as matrix columns and base addresses, kept up to
    date on alloc/free edges, in the live dict's order (allocation order:
    each instance is allocated once), which is the order the sampler
    attributes samples in."""

    def __init__(self, n_instances: int):
        self._slot_of = np.empty(n_instances, dtype=np.intp)  # col -> slot
        self._alive = np.zeros(n_instances, dtype=bool)
        self._col = np.empty(n_instances, dtype=np.intp)
        self._base = np.empty(n_instances, dtype=np.int64)
        self._n = 0

    def add(self, col: int, base: int) -> None:
        slot = self._n
        self._slot_of[col] = slot
        self._alive[slot] = True
        self._col[slot] = col
        self._base[slot] = base
        self._n += 1

    def remove(self, col: int) -> None:
        self._alive[self._slot_of[col]] = False

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, base addresses)`` of the live instances."""
        slots = np.flatnonzero(self._alive[:self._n])
        return self._col[slots], self._base[slots]


class ExtraeTracer:
    """Profiles one rank of a workload (ranks are symmetric in the model)."""

    def __init__(self, workload: Workload, config: TracerConfig = TracerConfig(),
                 registry: Optional[SiteRegistry] = None):
        self.workload = workload
        self.config = config
        self.registry = registry or SiteRegistry(workload)

    def run_all_ranks(self, ranks: Optional[int] = None,
                      aslr_base_seed: int = 5000) -> List[Trace]:
        """Profile every rank (each with its own ASLR layout and sampler).

        With ``rank_jitter > 0`` the ranks see lognormally perturbed event
        counts — the load imbalance that makes cross-rank *sum* and
        *average* aggregation genuinely different (the ambiguity the paper
        hits when reproducing ProfDP, Section VIII).

        Each rank's generators derive from ``(config.seed, rank)``, so
        ``run_all_ranks()[r]`` equals a fresh ``run(rank=r)`` — ranks are
        profiling-order independent.
        """
        n = ranks if ranks is not None else self.workload.ranks
        return [
            self.run(rank=r, aslr_seed=aslr_base_seed + r) for r in range(n)
        ]

    def run(self, rank: int = 0, aslr_seed: Optional[int] = None) -> Trace:
        """Execute the profiling run and return the trace (vectorized)."""
        return self._run(rank, aslr_seed, vectorized=True)

    def run_scalar(self, rank: int = 0, aslr_seed: Optional[int] = None) -> Trace:
        """The per-event reference implementation (equivalence oracle)."""
        return self._run(rank, aslr_seed, vectorized=False)

    # -- the shared run loop ---------------------------------------------------

    def _run(self, rank: int, aslr_seed: Optional[int], vectorized: bool) -> Trace:
        # Per-run generators: sample offsets/latencies and rank jitter are
        # functions of (seed, rank) only — never of previously profiled
        # ranks (the shared-RNG coupling fixed in PR 2).
        self._sample_rng = np.random.default_rng((self.config.seed, rank))
        self._rank_rng = np.random.default_rng(self.config.seed * 131 + rank)
        wl = self.workload
        process = self.registry.make_process(
            rank=rank, aslr_seed=aslr_seed if aslr_seed is not None else 1000 + rank
        )
        fmt = self.config.stack_format
        trace = Trace(TraceMeta(
            workload=wl.name,
            ranks=wl.ranks,
            duration=wl.nominal_duration,
            stack_format=fmt,
            sampling_hz=self.config.pebs.frequency_hz,
        ))

        heap = FreeListHeap(
            name="profiling-heap",
            base=_PROFILING_HEAP_BASE,
            capacity=max(wl.heap_high_water() * 4, 1 << 20),
        )
        table = LiveObjectTable()
        sampler = PEBSSampler(self.config.pebs)

        # Timeline of alloc/free edges, processed in time order so the live
        # table is correct at every sampling window.
        instances = wl.instances()
        edges: List[Tuple[float, int, InstanceSpan, int]] = []
        for col, inst in enumerate(instances):
            edges.append((inst.start, 0, inst, col))  # 0 = alloc sorts before free
            edges.append((inst.end, 1, inst, col))
        edges.sort(key=lambda e: (e[0], e[1]))

        duration = wl.nominal_duration
        win_lo, win_hi = self._window_edges(duration)
        geometry = None
        if vectorized:
            geometry = self._event_matrices(win_lo, win_hi, instances)

        addr_of: Dict[Tuple[str, int], int] = {}  # (site, instance) -> address
        edge_i = 0
        live: Dict[Tuple[str, int], InstanceSpan] = {}
        columns = _LiveColumns(len(instances))

        for wi in range(len(win_lo)):
            lo, hi = win_lo[wi], win_hi[wi]
            # apply all edges up to the *start* of the window, then sample,
            # then apply intra-window edges at window end (coarse but keeps
            # the live table consistent with overlap-based counts below)
            while edge_i < len(edges) and edges[edge_i][0] <= lo:
                self._apply_edge(edges[edge_i], heap, table, trace, process,
                                 addr_of, live, columns, fmt, rank)
                edge_i += 1
            if vectorized:
                self._sample_window_vec(wi, lo, hi, columns, table, sampler,
                                        trace, rank, geometry)
            else:
                self._sample_window(lo, hi, live, addr_of, table, sampler,
                                    trace, rank)
            # edges strictly inside the window
            while edge_i < len(edges) and edges[edge_i][0] < hi:
                self._apply_edge(edges[edge_i], heap, table, trace, process,
                                 addr_of, live, columns, fmt, rank)
                edge_i += 1
        # drain remaining frees at the end of the run
        while edge_i < len(edges):
            self._apply_edge(edges[edge_i], heap, table, trace, process,
                             addr_of, live, columns, fmt, rank)
            edge_i += 1

        trace.sort()
        return trace

    # -- internals ------------------------------------------------------------

    def _window_edges(self, duration: float) -> Tuple[List[float], List[float]]:
        """The sampling window boundaries, iterated exactly like the
        original scalar loop so the float edge values are identical."""
        lo: List[float] = []
        hi: List[float] = []
        t = 0.0
        window = self.config.window
        while t < duration:
            w_end = min(t + window, duration)
            lo.append(t)
            hi.append(w_end)
            t = w_end
        return lo, hi

    def _apply_edge(self, edge, heap, table, trace, process, addr_of, live,
                    columns, fmt, rank) -> None:
        time_, kind, inst, col = edge
        key = (inst.spec.site.name, inst.index)
        if kind == 0:
            alloc = heap.allocate(inst.spec.size)
            site_key = process.site_key(inst.spec.site, fmt)
            table.insert(alloc.address, inst.spec.size, site_key, time_)
            addr_of[key] = alloc.address
            live[key] = inst
            columns.add(col, alloc.address)
            trace.add_alloc(AllocEvent(
                time=time_, address=alloc.address, size=inst.spec.size,
                site_key=site_key, rank=rank,
            ))
        else:
            address = addr_of.pop(key, None)
            if address is None:
                raise TraceError(f"free of never-allocated instance {key}")
            heap.free(address)
            table.remove(address)
            live.pop(key, None)
            columns.remove(col)
            trace.add_free(FreeEvent(time=time_, address=address, rank=rank))

    # -- vectorized window geometry -------------------------------------------

    def _event_matrices(self, win_lo: List[float], win_hi: List[float],
                        instances: List[InstanceSpan]) -> dict:
        """Precompute per-window x per-instance true event counts.

        Replaces the O(windows * live * spans) scalar accumulation of
        ``_window_phase_rates``: for each phase span (in timeline order,
        preserving the scalar accumulation order and therefore the exact
        float results), the overlap of every (window, instance) pair is a
        broadcasted min/max, and only the window range the span covers
        (found with ``searchsorted``) is touched.  Adding a zero overlap
        contribution is a float no-op, so skipped vs added-zero spans
        produce bit-identical sums.
        """
        lo = np.asarray(win_lo)
        hi = np.asarray(win_hi)
        starts = np.array([i.start for i in instances])
        ends = np.array([i.end for i in instances])
        n_w, n_i = lo.size, len(instances)
        e_load = np.zeros((n_w, n_i))
        e_store = np.zeros((n_w, n_i))
        rates: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for span in self.workload.spans:
            pair = rates.get(span.name)
            if pair is None:
                rl = np.zeros(n_i)
                rs = np.zeros(n_i)
                for i, inst in enumerate(instances):
                    stats = inst.spec.access.get(span.name)
                    if stats is not None:
                        rl[i] = stats.load_rate
                        rs[i] = stats.sampled_store_rate
                pair = rates[span.name] = (rl, rs)
            rl, rs = pair
            # windows overlapping this span: first with hi > span.start,
            # last with lo < span.end
            w0 = int(np.searchsorted(hi, span.start, side="right"))
            w1 = int(np.searchsorted(lo, span.end, side="left"))
            if w1 <= w0:
                continue
            seg_lo = np.maximum(np.maximum(lo[w0:w1, None], span.start),
                                starts[None, :])
            seg_hi = np.minimum(np.minimum(hi[w0:w1, None], span.end),
                                ends[None, :])
            dt = seg_hi - seg_lo
            np.maximum(dt, 0.0, out=dt)
            e_load[w0:w1] += rl * dt
            e_store[w0:w1] += rs * dt
        vis = np.array([i.spec.sampling_visibility for i in instances])
        sizes = np.fromiter((i.spec.size for i in instances),
                            dtype=np.int64, count=n_i)
        return {"load": e_load, "store": e_store, "vis": vis,
                "starts": starts, "ends": ends, "sizes": sizes}

    def _sample_window_vec(self, wi, lo, hi, columns, table, sampler,
                           trace, rank, geometry) -> None:
        idx, bases = columns.arrays()
        n = idx.size
        if n == 0:
            return
        vis = geometry["vis"][idx]
        # clip each key's live span to the window: a sample on a freed
        # object would be unmatchable
        t_lo = np.maximum(lo, geometry["starts"][idx])
        t_hi = np.minimum(hi, geometry["ends"][idx])
        highs = np.maximum(geometry["sizes"][idx] - 8, 1)
        span = hi - lo
        rng = self._sample_rng
        for counter, matrix in ((HardwareCounter.LLC_LOAD_MISS, geometry["load"]),
                                (HardwareCounter.ALL_STORES, geometry["store"])):
            events = matrix[wi, idx] * vis
            if self.config.rank_jitter > 0.0:
                events = events * self._rank_rng.lognormal(
                    0.0, self.config.rank_jitter, size=n)
            fpos = np.flatnonzero(events > 0)
            if fpos.size == 0:
                continue
            total, n_samples, draws = sampler.sample_counts(
                lo, hi, events[fpos])
            if n_samples == 0:
                continue
            # adaptive period: events represented per delivered sample
            weight = total / n_samples
            ppos = np.flatnonzero(draws > 0)
            sel = fpos[ppos]
            counts = draws[ppos]
            ts_all = sampler.timestamps_flat(lo, hi, counts)
            tl = t_lo[sel]
            th = t_hi[sel]
            ok = th > tl
            if not ok.all():
                # a key whose live span misses the window draws no
                # offsets/latencies (the scalar guard) and its timestamps
                # are dropped
                ts_all = ts_all[np.repeat(ok, counts)]
                sel, counts, tl, th = sel[ok], counts[ok], tl[ok], th[ok]
                if sel.size == 0:
                    continue
            # Offsets and latencies come from the same stream as the scalar
            # loop, in the same order.  A store window draws only offsets,
            # so one array-bounded call covers every key; a load window
            # interleaves each key's offsets with its latencies and stays
            # per key (a one-sample key uses the cheaper scalar form, which
            # consumes the stream like ``size=1``).
            hs = highs[sel]
            if counter is HardwareCounter.LLC_LOAD_MISS:
                n_total = int(counts.sum())
                offsets = np.empty(n_total, dtype=np.int64)
                lats = np.empty(n_total)
                o = 0
                for h, c in zip(hs.tolist(), counts.tolist()):
                    if c == 1:
                        offsets[o] = rng.integers(0, h)
                        lats[o] = rng.normal(200.0, 40.0)
                    else:
                        offsets[o:o + c] = rng.integers(0, h, size=c)
                        lats[o:o + c] = rng.normal(200.0, 40.0, size=c)
                    o += c
            else:
                offsets = rng.integers(0, np.repeat(hs, counts))
                lats = None
            seg = np.repeat(np.arange(sel.size), counts)
            times = tl[seg] + (ts_all - lo) * (th - tl)[seg] / span
            addrs = bases[sel][seg] + offsets
            # the addresses must resolve through the live table, like
            # Extrae matching PEBS linear addresses to objects
            slots = table.lookup_batch(addrs)
            if (slots < 0).any():
                bad = int(addrs[slots < 0][0])
                raise TraceError(
                    f"sample address {bad:#x} fell outside live objects"
                )
            trace.add_sample_batch(times, addrs, counter, rank=rank,
                                   latencies=lats, weight=weight)

    # -- scalar oracle ---------------------------------------------------------

    def _window_phase_rates(self, lo: float, hi: float, inst: InstanceSpan
                            ) -> Tuple[float, float]:
        """True (load, store) events of one instance inside ``[lo, hi)``."""
        loads = stores = 0.0
        for span in self.workload.spans:
            seg_lo = max(lo, span.start, inst.start)
            seg_hi = min(hi, span.end, inst.end)
            if seg_hi <= seg_lo:
                continue
            stats = inst.spec.access.get(span.name)
            if stats is None:
                continue
            dt = seg_hi - seg_lo
            loads += stats.load_rate * dt
            stores += stats.sampled_store_rate * dt
        return loads, stores

    def _sample_window(self, lo, hi, live, addr_of, table, sampler, trace, rank) -> None:
        for counter in (HardwareCounter.LLC_LOAD_MISS, HardwareCounter.ALL_STORES):
            true_counts: Dict[Tuple[str, int], float] = {}
            for key, inst in live.items():
                loads, stores = self._window_phase_rates(lo, hi, inst)
                events = loads if counter is HardwareCounter.LLC_LOAD_MISS else stores
                events *= inst.spec.sampling_visibility
                if self.config.rank_jitter > 0.0:
                    events *= float(self._rank_rng.lognormal(
                        0.0, self.config.rank_jitter))
                if events > 0:
                    true_counts[key] = events
            if not true_counts:
                continue
            batch = sampler.sample_interval(counter, lo, hi, true_counts)
            if batch.total_samples == 0:
                continue
            # adaptive period: events represented per delivered sample
            weight = batch.total_true_events / batch.total_samples
            stamps = sampler.sample_timestamps(batch)
            for key, ts in stamps.items():
                # clip timestamps to the instance's live span inside the
                # window: a sample on a freed object would be unmatchable
                inst = live[key]
                t_lo = max(lo, inst.start)
                t_hi = min(hi, inst.end)
                if t_hi <= t_lo:
                    continue
                ts = t_lo + (ts - lo) * (t_hi - t_lo) / (hi - lo)
                base = addr_of[key]
                size = live[key].spec.size
                offsets = self._sample_rng.integers(0, max(size - 8, 1), size=len(ts))
                for time_, off in zip(ts, offsets):
                    addr = base + int(off)
                    # the address must resolve through the live table, like
                    # Extrae matching PEBS linear addresses to objects
                    iv = table.lookup(addr)
                    if iv is None:
                        raise TraceError(
                            f"sample address {addr:#x} fell outside live objects"
                        )
                    lat = None
                    if counter is HardwareCounter.LLC_LOAD_MISS:
                        lat = float(self._sample_rng.normal(200.0, 40.0))
                    trace.add_sample(SampleEvent(
                        time=float(time_), counter=counter, data_address=addr,
                        rank=rank, latency_ns=lat, weight=weight,
                    ))
