"""Tests for the PEBS sampling model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.profiling.events import HardwareCounter
from repro.profiling.pebs import PEBSConfig, PEBSSampler, SampleBatch


class TestConfig:
    def test_defaults(self):
        c = PEBSConfig()
        assert c.frequency_hz == 100.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            PEBSConfig(frequency_hz=0)
        with pytest.raises(ConfigError):
            PEBSConfig(min_events=0)


class TestSampling:
    def test_sample_count_near_frequency(self):
        s = PEBSSampler(PEBSConfig(frequency_hz=100, seed=1))
        batch = s.sample_interval(
            HardwareCounter.LLC_LOAD_MISS, 0.0, 10.0, {"a": 1e9}
        )
        # ~1000 samples expected over 10 s
        assert 850 <= batch.total_samples <= 1150

    def test_no_events_no_samples(self):
        s = PEBSSampler()
        batch = s.sample_interval(HardwareCounter.LLC_LOAD_MISS, 0.0, 1.0, {})
        assert batch.total_samples == 0
        assert batch.sampling_fraction == 0.0

    def test_samples_capped_by_true_events(self):
        s = PEBSSampler(PEBSConfig(frequency_hz=1000, seed=2))
        batch = s.sample_interval(
            HardwareCounter.LLC_LOAD_MISS, 0.0, 10.0, {"a": 50.0}
        )
        assert batch.total_samples <= 50

    def test_attribution_proportional(self):
        """Sample shares converge to true event shares."""
        s = PEBSSampler(PEBSConfig(frequency_hz=10_000, seed=3))
        true = {"hot": 9e8, "cold": 1e8}
        batch = s.sample_interval(HardwareCounter.LLC_LOAD_MISS, 0.0, 10.0, true)
        share = batch.counts.get("hot", 0) / batch.total_samples
        assert 0.85 < share < 0.95

    def test_estimated_true_unbiased(self):
        s = PEBSSampler(PEBSConfig(frequency_hz=500, seed=4))
        estimates = []
        for i in range(30):
            batch = s.sample_interval(
                HardwareCounter.ALL_STORES, 0.0, 1.0, {"x": 1e7, "y": 3e7}
            )
            estimates.append(batch.estimated_true("x"))
        assert np.mean(estimates) == pytest.approx(1e7, rel=0.25)

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            PEBSSampler().sample_interval(
                HardwareCounter.ALL_STORES, 1.0, 1.0, {"a": 10}
            )

    def test_deterministic_per_seed(self):
        batches = []
        for _ in range(2):
            s = PEBSSampler(PEBSConfig(seed=7))
            batches.append(s.sample_interval(
                HardwareCounter.LLC_LOAD_MISS, 0.0, 1.0, {"a": 1e6, "b": 2e6}
            ))
        assert batches[0].counts == batches[1].counts


class TestTimestamps:
    def test_timestamps_within_interval_and_sorted(self):
        s = PEBSSampler(PEBSConfig(seed=5))
        batch = s.sample_interval(
            HardwareCounter.LLC_LOAD_MISS, 2.0, 3.0, {"a": 1e7}
        )
        stamps = s.sample_timestamps(batch)
        ts = stamps["a"]
        assert len(ts) == batch.counts["a"]
        assert np.all((ts >= 2.0) & (ts < 3.0))
        assert np.all(np.diff(ts) >= 0)

    def test_flat_timestamps_match_per_key(self):
        """The vectorized callers' flat form: one draw for every key,
        each key's segment sorted, equal to the per-key draws."""
        counts = {"a": 5, "b": 1, "c": 12, "d": 3}
        batch = SampleBatch(HardwareCounter.LLC_LOAD_MISS, 0.0, 1.0, counts,
                            total_true_events=100.0, total_samples=21)
        per_key = PEBSSampler(PEBSConfig(seed=8)).sample_timestamps(batch)
        flat = PEBSSampler(PEBSConfig(seed=8)).timestamps_flat(
            0.0, 1.0, np.array(list(counts.values())))
        assert flat.tolist() == np.concatenate(list(per_key.values())).tolist()


class TestTotals:
    """The true-event total is a plain left-to-right float sum on every
    Python version: builtin ``sum()`` compensates rounding from 3.12 on,
    which would move ``total``, ``n_samples`` and the sample weight."""

    def test_total_accumulates_left_to_right(self):
        s = PEBSSampler(PEBSConfig(seed=1))
        total, n_samples, draws = s.sample_counts(
            0.0, 1.0, np.array([1e16, 1.0, -1e16]))
        # 1e16 + 1.0 rounds back to 1e16, so the total is 0.0 (a
        # compensated sum would give 1.0)
        assert total == 0.0
        assert n_samples == 0 and draws is None

    def test_firing_total_accumulates_left_to_right(self):
        s = PEBSSampler(PEBSConfig(seed=1))
        batch = s.sample_interval_arrays(
            HardwareCounter.ALL_STORES, 0.0, 1.0, ["a", "b", "c"],
            np.array([1e16, 1.0, 1.0]))
        # each 1.0 rounds away; a compensated sum would give 1e16 + 2
        assert batch.total_true_events == 1e16
        assert batch.total_samples > 0
