"""Scalar-oracle equivalence for the vectorized profiling cold path.

The vectorized tracer (:meth:`ExtraeTracer.run`) and analyzer
(:meth:`Paramedir.analyze`) must be *bit-identical* to their scalar
oracles (``run_scalar`` / ``analyze_scalar``) — not approximately equal:
every timestamp, address, weight and per-site float aggregate matches
exactly, because both paths issue the same RNG calls in the same order
and accumulate floats in the same order.

Hypothesis-free property-style coverage: a seeded grid over stack
formats, rank jitter, window geometry, and workload shapes (the same
pattern as ``test_cache_vectorized.py``), including the edge cases the
vectorized code has to get right — zero-sample windows, objects freed
mid-window, and objects never freed.
"""

import numpy as np
import pytest

from repro.binary.callstack import StackFormat
from repro.apps.workload import AccessStats, ObjectSpec, Phase, Workload
from repro.profiling.events import HardwareCounter
from repro.profiling.paramedir import Paramedir
from repro.profiling.pebs import PEBSConfig
from repro.profiling.tracer import ExtraeTracer, TracerConfig
from repro.units import GiB, MiB

from tests.conftest import make_site, make_toy_workload

PROFILE_FIELDS = (
    "largest_alloc", "alloc_count", "free_count", "load_misses",
    "store_misses", "load_samples", "store_samples", "first_alloc",
    "last_free", "total_live_time", "spans", "mean_load_latency_ns",
)


def assert_profiles_identical(a, b):
    """Dict-order and field-exact equality of two per-site profile maps."""
    assert list(a.keys()) == list(b.keys())
    for key in a:
        for field in PROFILE_FIELDS:
            va, vb = getattr(a[key], field), getattr(b[key], field)
            assert va == vb, f"{key}: {field} differs ({va!r} != {vb!r})"


def make_idle_phase_workload() -> Workload:
    """A workload with an idle phase no object touches: every window
    inside it fires zero samples."""
    hot = ObjectSpec(
        site=make_site("idle::hot"),
        size=8 * MiB,
        access={
            "compute": AccessStats(load_rate=2_000_000.0, store_rate=400_000.0,
                                   accessor="k"),
        },
    )
    ephemeral = ObjectSpec(
        site=make_site("idle::tmp"),
        size=2 * MiB,
        alloc_count=3,
        first_alloc=0.25,
        lifetime=0.4,   # freed mid-window (window = 1.0)
        period=2.0,
        access={
            "compute": AccessStats(load_rate=800_000.0, accessor="k"),
        },
    )
    return Workload(
        name="idle-phases",
        phases=[
            Phase("compute", compute_time=1.0),
            Phase("idle", compute_time=2.0),
            Phase("compute", compute_time=1.5),
        ],
        objects=[hot, ephemeral],
        ranks=1,
    )


def run_both(wl, config, rank=0, aslr_seed=42):
    tracer = ExtraeTracer(wl, config)
    return (tracer.run(rank=rank, aslr_seed=aslr_seed),
            tracer.run_scalar(rank=rank, aslr_seed=aslr_seed))


class TestTracerEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_toy_grid(self, seed, jitter):
        wl = make_toy_workload()
        vec, scalar = run_both(
            wl, TracerConfig(seed=seed, rank_jitter=jitter))
        assert vec.num_samples > 0
        assert vec.same_events(scalar)

    @pytest.mark.parametrize("fmt", [StackFormat.BOM, StackFormat.HUMAN])
    def test_stack_formats(self, fmt):
        wl = make_toy_workload()
        vec, scalar = run_both(
            wl, TracerConfig(seed=11, stack_format=fmt))
        assert vec.same_events(scalar)

    def test_zero_sample_windows_and_mid_window_frees(self):
        """Idle phases (no firing counter), frees mid-window, and the
        never-freed hot object all reproduce exactly."""
        wl = make_idle_phase_workload()
        vec, scalar = run_both(wl, TracerConfig(seed=3))
        assert vec.same_events(scalar)
        # the idle phase really does produce sample-free windows
        times = vec.sample_columns().times
        assert ((times < 1.0) | (times > 3.0)).all()

    def test_fractional_last_window(self):
        """A window that does not divide the duration leaves a short
        final window; both paths must clip it identically."""
        wl = make_toy_workload(iterations=3)
        vec, scalar = run_both(wl, TracerConfig(seed=5, window=0.7))
        assert vec.same_events(scalar)

    def test_window_larger_than_run(self):
        wl = make_toy_workload(iterations=2)
        vec, scalar = run_both(wl, TracerConfig(seed=5, window=100.0))
        assert vec.same_events(scalar)

    @pytest.mark.parametrize("hz", [20.0, 500.0])
    def test_sampling_rates(self, hz):
        wl = make_toy_workload()
        vec, scalar = run_both(
            wl, TracerConfig(seed=9, pebs=PEBSConfig(frequency_hz=hz)))
        assert vec.same_events(scalar)


class TestParamedirEquivalence:
    @pytest.mark.parametrize("seed,jitter", [(1, 0.0), (7, 0.3), (23, 0.3)])
    def test_profiles_identical(self, seed, jitter):
        wl = make_toy_workload()
        trace, _ = run_both(wl, TracerConfig(seed=seed, rank_jitter=jitter))
        pd = Paramedir()
        assert_profiles_identical(pd.analyze(trace), pd.analyze_scalar(trace))

    def test_edge_case_workload(self):
        wl = make_idle_phase_workload()
        trace, _ = run_both(wl, TracerConfig(seed=3))
        pd = Paramedir()
        assert_profiles_identical(pd.analyze(trace), pd.analyze_scalar(trace))

    def test_full_chain_scalar_vs_vectorized(self):
        """scalar tracer -> scalar analyzer == vectorized tracer ->
        vectorized analyzer, end to end."""
        wl = make_toy_workload()
        vec, scalar = run_both(wl, TracerConfig(seed=17, rank_jitter=0.3))
        pd = Paramedir()
        assert_profiles_identical(pd.analyze(vec), pd.analyze_scalar(scalar))


class TestRankOrderIndependence:
    """PR 2 regression: a rank's trace must not depend on which ranks
    were profiled before it (the old shared-RNG coupling)."""

    def test_run_all_ranks_matches_fresh_run(self):
        wl = make_toy_workload()
        tracer = ExtraeTracer(wl, TracerConfig(seed=9, rank_jitter=0.2))
        batch = tracer.run_all_ranks(ranks=3)
        # run_all_ranks uses aslr_base_seed=5000 + r
        fresh = ExtraeTracer(wl, TracerConfig(seed=9, rank_jitter=0.2))
        assert batch[1].same_events(fresh.run(rank=1, aslr_seed=5001))
        assert batch[2].same_events(fresh.run(rank=2, aslr_seed=5002))

    def test_ranks_differ_from_each_other(self):
        wl = make_toy_workload()
        tracer = ExtraeTracer(wl, TracerConfig(seed=9))
        batch = tracer.run_all_ranks(ranks=2)
        assert not batch[0].same_events(batch[1])


def make_extreme_size_workload() -> Workload:
    """Object sizes no registered app reaches: one above 4 GiB (its
    offsets take numpy's 64-bit bounded-integer path) and two of 8 bytes
    or less (the offset bound clamps to 1, so every sample hits the
    base).  All three take both loads and stores."""
    huge = ObjectSpec(
        site=make_site("extreme::huge"),
        size=5 * GiB,
        access={
            "compute": AccessStats(load_rate=3_000_000.0,
                                   store_rate=1_000_000.0, accessor="k"),
        },
    )
    word = ObjectSpec(
        site=make_site("extreme::word"),
        size=8,
        alloc_count=3,
        first_alloc=0.3,
        lifetime=1.2,   # freed mid-window (window = 1.0)
        period=1.5,
        access={
            "compute": AccessStats(load_rate=1_500_000.0,
                                   store_rate=800_000.0, accessor="k"),
        },
    )
    byte = ObjectSpec(
        site=make_site("extreme::byte"),
        size=1,
        access={
            "compute": AccessStats(load_rate=600_000.0,
                                   store_rate=400_000.0, accessor="k"),
        },
    )
    return Workload(
        name="extreme-sizes",
        phases=[Phase("compute", compute_time=4.5)],
        objects=[huge, word, byte],
        ranks=1,
    )


class TestExtremeObjectSizes:
    @pytest.mark.parametrize("hz", [100.0, 1000.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_matches_scalar(self, hz, jitter):
        wl = make_extreme_size_workload()
        vec, scalar = run_both(wl, TracerConfig(
            seed=13, rank_jitter=jitter, pebs=PEBSConfig(frequency_hz=hz)))
        assert vec.same_events(scalar)
        # the grid really reaches both edge cases on both counters
        huge = [a for a in vec.allocs if a.size > 4 * GiB]
        tiny = [a for a in vec.allocs if a.size <= 8]
        assert len(huge) == 1 and len(tiny) == 4
        for counter in (HardwareCounter.LLC_LOAD_MISS,
                        HardwareCounter.ALL_STORES):
            addrs = [s.data_address for s in vec.samples_for(counter)]
            base = huge[0].address
            assert any(a - base >= 2**32 for a in addrs)
            assert any(a in {t.address for t in tiny} for a in addrs)


class _CountingRng:
    """Call-recording proxy around the tracer's sample ``Generator``; it
    offers only the draws the tracer's RNG-order contract allows."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def integers(self, low, high=None, size=None):
        self.calls.append(("integers", np.ndim(high)))
        return self._rng.integers(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.calls.append(("normal", 0))
        return self._rng.normal(loc, scale, size=size)


class _CountingTracer(ExtraeTracer):
    """Runs the vectorized path with its sample generator wrapped."""

    def _sample_window_vec(self, *args):
        if not isinstance(self._sample_rng, _CountingRng):
            self._sample_rng = _CountingRng(self._sample_rng)
        super()._sample_window_vec(*args)


class TestBatchedDraws:
    def test_one_store_offset_draw_per_firing_window(self):
        """Store offsets are one array-bounded ``integers`` call per
        firing store window; every scalar-bounded call is a load offset
        (followed by its latency draw), never a per-key store draw."""
        wl = make_toy_workload(iterations=6)
        config = TracerConfig(seed=4)
        tracer = _CountingTracer(wl, config)
        trace = tracer.run(rank=0, aslr_seed=42)
        assert trace.same_events(
            ExtraeTracer(wl, config).run(rank=0, aslr_seed=42))
        calls = tracer._sample_rng.calls

        store_times = [s.time for s in trace.samples_for(
            HardwareCounter.ALL_STORES)]
        firing = np.unique(np.floor(np.array(store_times) / config.window))
        assert firing.size > 1
        assert calls.count(("integers", 1)) == firing.size
        for i, call in enumerate(calls):
            if call == ("integers", 0):
                assert calls[i + 1] == ("normal", 0)


class TestNumpyStreamContract:
    """The NumPy property the batched store offsets rest on: one
    array-bounded ``integers`` call, and the scalar form for one sample,
    read the bit stream exactly like per-key ``integers(0, h, size=c)``.
    Bounds cover 1 (no draw), 32-bit, the 2**32 boundary and 64-bit."""

    HIGHS = [7, 1, 2**32 + 1, 1000, 2**32, 3, 2**32 - 1, 5 * GiB, 2**31 + 9,
             1, 2**40 + 3, 12]
    COUNTS = [3, 2, 1, 5, 2, 1, 4, 3, 1, 1, 2, 7]

    def test_array_bounded_equals_per_key(self):
        a = np.random.default_rng((11, 2))
        b = np.random.default_rng((11, 2))
        highs = np.array(self.HIGHS, dtype=np.int64)
        batched = a.integers(0, np.repeat(highs, self.COUNTS))
        per_key = np.concatenate([
            b.integers(0, h, size=c) for h, c in zip(self.HIGHS, self.COUNTS)
        ])
        assert batched.dtype == per_key.dtype
        assert batched.tolist() == per_key.tolist()
        assert a.bit_generator.state == b.bit_generator.state

    def test_scalar_equals_size_one(self):
        a = np.random.default_rng(19)
        b = np.random.default_rng(19)
        for h in self.HIGHS:
            assert int(a.integers(0, h)) == int(b.integers(0, h, size=1)[0])
            assert a.bit_generator.state == b.bit_generator.state
            # a load draws its latency right after its offset
            assert a.normal(200.0, 40.0) == b.normal(200.0, 40.0, size=1)[0]
        assert a.bit_generator.state == b.bit_generator.state
