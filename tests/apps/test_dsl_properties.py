"""Property-based tests for the workload DSL and the corpus generator.

Three families of invariants:

- **round-trip identity**: for any structurally valid workload,
  ``parse(dump(w)) == w`` and ``dump(parse(dump(w))) == dump(w)`` —
  canonical YAML is a fixed point of one dump/parse cycle;
- **generator determinism**: same ``(spec, corpus_seed, cell_index)``
  yields byte-identical YAML; different cell indices yield distinct
  workloads;
- **generator validity**: every generated cell passes full ``Workload``
  validation (the constructors raise on violation, so construction *is*
  the check) plus the structural guarantees the schema relies on.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.corpus import cell_rng, generate_cell
from repro.apps.dsl import (
    DistSpec,
    default_corpus_spec,
    dumps_workload_yaml,
    loads_workload_yaml,
    workload_from_dict,
    workload_to_dict,
)
from repro.apps.workload import AccessStats, AllocationSite, ObjectSpec, Phase, Workload
from repro.errors import WorkloadError
from repro.units import MiB

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workloads(draw):
    n_objects = draw(st.integers(min_value=1, max_value=5))
    n_phases = draw(st.integers(min_value=1, max_value=3))
    phase_names = [f"p{i}" for i in range(n_phases)]
    phases = [
        Phase(name, compute_time=draw(st.floats(min_value=0.5, max_value=2.0)),
              repeat=draw(st.integers(min_value=1, max_value=3)))
        for name in phase_names
    ]

    objects = []
    for i in range(n_objects):
        access = {}
        for name in draw(st.lists(st.sampled_from(phase_names), min_size=1,
                                  max_size=n_phases, unique=True)):
            has_l1d = draw(st.booleans())
            access[name] = AccessStats(
                load_rate=draw(st.floats(min_value=0, max_value=5e6)),
                store_rate=draw(st.floats(min_value=0, max_value=2e6)),
                l1d_store_rate=(draw(st.floats(min_value=0, max_value=8e6))
                                if has_l1d else None),
                accessor=draw(st.sampled_from(["", "kern", "solve"])),
            )
        kwargs = {}
        if draw(st.booleans()):
            kwargs = dict(
                alloc_count=draw(st.integers(min_value=2, max_value=4)),
                lifetime=draw(st.floats(min_value=0.1, max_value=1.0)),
                period=draw(st.floats(min_value=0.1, max_value=1.0)),
            )
        objects.append(ObjectSpec(
            site=AllocationSite(
                name=f"o{i}", image=draw(st.sampled_from(["a.x", "b.so"])),
                stack=tuple(f"f{i}_{d}" for d in range(
                    draw(st.integers(min_value=1, max_value=4)))),
            ),
            size=draw(st.integers(min_value=1, max_value=64)) * MiB,
            first_alloc=draw(st.floats(min_value=0.0, max_value=0.25)),
            access=access,
            sampling_visibility=draw(st.floats(min_value=0.01, max_value=1.0)),
            serial_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
            **kwargs,
        ))
    return Workload(
        draw(st.sampled_from(["wl", "gen-app"])), phases, objects,
        ranks=draw(st.integers(min_value=1, max_value=8)),
        threads=draw(st.integers(min_value=1, max_value=4)),
        mlp=draw(st.floats(min_value=1.0, max_value=10.0)),
        locality=draw(st.floats(min_value=0.0, max_value=1.0)),
        conflict_pressure=draw(st.floats(min_value=0.0, max_value=1.0)),
        ws_factor=draw(st.floats(min_value=0.1, max_value=1.0)),
        non_heap_bytes=draw(st.integers(min_value=0, max_value=64)) * MiB,
    )


@settings(max_examples=60, **COMMON)
@given(workloads())
def test_yaml_round_trip_identity(wl):
    text = dumps_workload_yaml(wl)
    reloaded = loads_workload_yaml(text)
    assert reloaded == wl
    assert dumps_workload_yaml(reloaded) == text


@settings(max_examples=60, **COMMON)
@given(workloads())
def test_dict_round_trip_identity(wl):
    data = workload_to_dict(wl)
    rebuilt = workload_from_dict(data)
    assert rebuilt == wl
    assert workload_to_dict(rebuilt) == data


@settings(max_examples=25, **COMMON)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=4096))
def test_generator_determinism(corpus_seed, cell_index):
    spec = default_corpus_spec()
    a = generate_cell(spec, corpus_seed, cell_index)
    b = generate_cell(spec, corpus_seed, cell_index)
    assert a.workload == b.workload
    assert dumps_workload_yaml(a.workload) == dumps_workload_yaml(b.workload)
    assert a.digest() == b.digest()
    assert a.jobs == b.jobs


@settings(max_examples=25, **COMMON)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=0, max_value=4096),
)
def test_generator_distinct_cells(corpus_seed, i, j):
    if i == j:
        return
    spec = default_corpus_spec()
    a = generate_cell(spec, corpus_seed, i)
    b = generate_cell(spec, corpus_seed, j)
    assert a.digest() != b.digest()
    assert a.workload != b.workload


@settings(max_examples=25, **COMMON)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=4096))
def test_generated_workloads_always_valid(corpus_seed, cell_index):
    """Construction is validation: Workload/ObjectSpec/Phase raise on any
    violation, so a returned cell is a fully valid workload.  The extra
    assertions pin the structural guarantees the pipeline relies on."""
    spec = default_corpus_spec()
    cell = generate_cell(spec, corpus_seed, cell_index)
    wl = cell.workload
    assert wl.phases and wl.objects
    assert wl.ranks == 1  # job ranks are folded into sizes/rates
    duration = wl.nominal_duration
    assert duration > 0
    for obj in wl.objects:
        assert obj.site.stack, "no empty call chains"
        assert obj.size > 0
        assert obj.first_alloc < duration
        assert obj.access, "every object is active in some phase"
        for stats in obj.access.values():
            assert stats.load_rate >= 0 and stats.store_rate >= 0
    # instances() raises if any object has no instance inside the run
    assert wl.instances()
    # round-trips through the DSL like any hand-written workload
    assert loads_workload_yaml(dumps_workload_yaml(wl)) == wl


@settings(max_examples=25, **COMMON)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=4096))
def test_cell_rng_is_hash_independent(corpus_seed, cell_index):
    """The RNG stream derives from integers only — no str hashing — so
    the same cell reproduces across PYTHONHASHSEED values."""
    a = cell_rng(corpus_seed, cell_index).integers(0, 2**63, size=8)
    b = cell_rng(corpus_seed, cell_index).integers(0, 2**63, size=8)
    assert (a == b).all()


# -- DistSpec edge validation --------------------------------------------------


def test_distspec_validation_errors():
    with pytest.raises(WorkloadError, match="unknown distribution kind"):
        DistSpec.make("gaussian", low=0, high=1)
    with pytest.raises(WorkloadError, match="low 2 > high 1"):
        DistSpec.make("uniform", low=2, high=1)
    with pytest.raises(WorkloadError, match="loguniform .* low > 0"):
        DistSpec.make("loguniform", low=0, high=1)
    with pytest.raises(WorkloadError, match="integer bounds"):
        DistSpec.make("randint", low=0.5, high=2)
    with pytest.raises(WorkloadError, match="non-empty 'values'"):
        DistSpec.make("choice", values=[])
    with pytest.raises(WorkloadError, match=r"len\(weights\)"):
        DistSpec.make("choice", values=[1, 2], weights=[1.0])
    with pytest.raises(WorkloadError, match="positive sum"):
        DistSpec.make("choice", values=[1, 2], weights=[0.0, 0.0])


@settings(max_examples=40, **COMMON)
@given(st.integers(min_value=0, max_value=2**31))
def test_distspec_samples_in_bounds(seed):
    rng = cell_rng(seed, 0)
    assert DistSpec.constant(7).sample(rng) == 7
    u = DistSpec.make("uniform", low=2.0, high=3.0).sample(rng)
    assert 2.0 <= u <= 3.0
    lo = DistSpec.make("loguniform", low=1.0, high=100.0).sample(rng)
    assert 1.0 <= lo <= 100.0
    ri = DistSpec.make("randint", low=1, high=4).sample(rng)
    assert ri in (1, 2, 3, 4)
    ch = DistSpec.make("choice", values=["a", "b"], weights=[1.0, 3.0]).sample(rng)
    assert ch in ("a", "b")


def test_distspec_choice_weights_sum_left_to_right():
    """The choice probabilities divide by a plain left-to-right sum on
    every Python version: builtin ``sum()`` compensates float rounding
    from 3.12 on, which would move every stream drawn after them."""

    class Recorder:
        def choice(self, n, p=None):
            self.p = p
            return 0

    rng = Recorder()
    spec = DistSpec.make("choice", values=["a", "b", "c"],
                         weights=[1e16, 1.0, 1.0])
    assert spec.sample(rng) == "a"
    # each 1.0 rounds away against 1e16; a compensated sum gives 1e16 + 2
    assert rng.p == [1.0, 1e-16, 1e-16]
