"""Corpus specifications: distributions over the workload space.

A :class:`CorpusSpec` describes a *family* of workloads the seeded
generator (:mod:`repro.apps.corpus`) samples concrete scenarios from —
the ERDOS ``workload parameters`` YAML idea applied to memory placement:

- **jobs**: how many jobs share one node's memory system (contention)
  and how many ranks each runs with (folded into node-level sizes/rates);
- **phases**: the shared epoch timeline every co-located job runs over;
- **objects**: per-job site counts, size/lifetime distributions,
  allocation counts and per-epoch activity;
- **access**: a weighted mix of access patterns (streaming passes vs
  absolute miss rates, serial pointer-chase shares, burst visibility)
  plus store fractions and L1D store-rate inflation — the paper's
  sampled-store imprecision as a scenario axis;
- **arrival**: how job objects enter the timeline (``start``,
  ``staggered``, ``periodic``);
- **machine**: per-scenario engine parameters (MLP, locality, ...);
- **energy** (optional): per-tier dynamic energy cost in picojoules per
  byte moved, turning placement quality into a joules objective as well
  as a runtime one (the heterogeneous-memory energy-survey axis).

Every distribution is a :class:`DistSpec` — ``constant``, ``uniform``,
``loguniform``, ``randint`` (inclusive) or weighted ``choice`` — sampled
from the caller's :class:`numpy.random.Generator`, so corpus cells are
``PYTHONHASHSEED``-independent.  All validation errors are
:class:`~repro.errors.WorkloadError` with field-path context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.units import MiB

_DIST_KINDS = ("constant", "uniform", "loguniform", "randint", "choice")
_ARRIVAL_POLICIES = ("start", "staggered", "periodic")
_PATTERN_KINDS = ("stream", "rate")


def _fail(path: str, message: str) -> WorkloadError:
    return WorkloadError(f"{path}: {message}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


@dataclass(frozen=True)
class DistSpec:
    """One sampleable parameter distribution (hashable, comparable)."""

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    def __post_init__(self) -> None:
        if self.kind not in _DIST_KINDS:
            raise WorkloadError(
                f"unknown distribution kind {self.kind!r} "
                f"(have {list(_DIST_KINDS)})"
            )
        p = self.param_dict()
        if self.kind == "constant":
            if set(p) != {"value"}:
                raise WorkloadError("constant distribution needs exactly 'value'")
        elif self.kind in ("uniform", "loguniform", "randint"):
            if set(p) != {"low", "high"}:
                raise WorkloadError(
                    f"{self.kind} distribution needs exactly 'low' and 'high'"
                )
            low, high = p["low"], p["high"]
            if low > high:
                raise WorkloadError(
                    f"{self.kind} distribution: low {low} > high {high}"
                )
            if self.kind == "loguniform" and low <= 0:
                raise WorkloadError(
                    f"loguniform distribution needs low > 0, got {low}"
                )
            if self.kind == "randint" and not (
                isinstance(low, int) and isinstance(high, int)
            ):
                raise WorkloadError("randint distribution needs integer bounds")
        else:  # choice
            if "values" not in p or not isinstance(p["values"], tuple) \
                    or not p["values"]:
                raise WorkloadError("choice distribution needs non-empty 'values'")
            weights = p.get("weights")
            if weights is not None:
                if len(weights) != len(p["values"]):
                    raise WorkloadError(
                        "choice distribution: len(weights) != len(values)"
                    )
                if any(w < 0 for w in weights) or sum(weights) <= 0:
                    raise WorkloadError(
                        "choice distribution: weights must be >= 0 with a "
                        "positive sum"
                    )

    @classmethod
    def make(cls, kind: str, **params: Any) -> "DistSpec":
        # lists arrive from YAML; store tuples so the spec stays hashable
        canon = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in params.items()
        }
        return cls(kind=kind, params=tuple(sorted(canon.items())))

    @classmethod
    def constant(cls, value: Any) -> "DistSpec":
        return cls.make("constant", value=value)

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def sample(self, rng: "np.random.Generator") -> Any:
        """Draw one value; exactly one rng call per draw (stable streams)."""
        p = self.param_dict()
        if self.kind == "constant":
            return p["value"]
        if self.kind == "uniform":
            return float(rng.uniform(p["low"], p["high"]))
        if self.kind == "loguniform":
            return float(math.exp(rng.uniform(math.log(p["low"]),
                                              math.log(p["high"]))))
        if self.kind == "randint":
            return int(rng.integers(p["low"], p["high"] + 1))
        values = p["values"]
        weights = p.get("weights")
        prob = None
        if weights is not None:
            # left to right, not builtin sum(): that one compensates float
            # rounding from Python 3.12 on, so the probabilities (and
            # every stream drawn after them) would depend on the version
            total = 0
            for w in weights:
                total += w
            total = float(total)
            prob = [w / total for w in weights]
        return values[int(rng.choice(len(values), p=prob))]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for key, value in self.params:
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "DistSpec":
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            return cls.constant(data)  # bare numbers mean a constant
        if not isinstance(data, dict):
            raise _fail(path, f"expected a distribution mapping or a number, "
                              f"got {type(data).__name__}")
        if "kind" not in data:
            raise _fail(path, "distribution needs a 'kind' field")
        kind = data["kind"]
        params = {k: v for k, v in data.items() if k != "kind"}
        try:
            return cls.make(kind, **params)
        except WorkloadError as exc:
            raise _fail(path, str(exc)) from None


@dataclass(frozen=True)
class AccessPatternSpec:
    """One entry of the access-pattern mix.

    ``kind='stream'`` interprets ``intensity`` as streaming passes per
    nominal second (load rate = size/64 * passes); ``kind='rate'`` as an
    absolute LLC-miss rate.  ``serial_fraction`` models pointer-chase /
    critical-path accesses; ``visibility`` models PEBS under-sampling of
    short bursts (the paper's LAMMPS observation).
    """

    name: str
    weight: float
    kind: str
    intensity: DistSpec
    serial_fraction: DistSpec = DistSpec.constant(0.0)
    visibility: DistSpec = DistSpec.constant(1.0)

    def __post_init__(self) -> None:
        if self.kind not in _PATTERN_KINDS:
            raise WorkloadError(
                f"pattern {self.name!r}: unknown kind {self.kind!r} "
                f"(have {list(_PATTERN_KINDS)})"
            )
        if self.weight <= 0:
            raise WorkloadError(f"pattern {self.name!r}: weight must be > 0")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "weight": self.weight,
            "kind": self.kind,
            "intensity": self.intensity.to_dict(),
            "serial_fraction": self.serial_fraction.to_dict(),
            "visibility": self.visibility.to_dict(),
        }


@dataclass(frozen=True)
class EnergyModel:
    """Per-tier dynamic energy cost: picojoules per byte moved."""

    pj_per_byte: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        for tier, pj in self.pj_per_byte:
            if pj < 0:
                raise WorkloadError(
                    f"energy model: negative pJ/byte for tier {tier!r}"
                )

    def tiers(self) -> Dict[str, float]:
        return dict(self.pj_per_byte)

    def energy_joules(self, run: Any) -> float:
        """Dynamic energy of one :class:`RunResult` under this model.

        Sums each phase's bytes moved per subsystem times that tier's
        pJ/byte; tiers the model does not price contribute nothing.
        """
        rates = self.tiers()
        total_pj = 0.0
        for phase in run.phases:
            for sub, nbytes in phase.bytes_by_subsystem.items():
                total_pj += nbytes * rates.get(sub, 0.0)
        return total_pj * 1e-12

    def to_dict(self) -> Dict[str, Any]:
        return {tier: pj for tier, pj in self.pj_per_byte}

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "EnergyModel":
        if not isinstance(data, dict) or not data:
            raise _fail(path, "expected a non-empty mapping of tier -> pJ/byte")
        pairs = []
        for tier, pj in data.items():
            if not isinstance(tier, str):
                raise _fail(path, f"tier names must be strings, got {tier!r}")
            pairs.append((tier, _number(pj, f"{path}.{tier}")))
        return cls(pj_per_byte=tuple(pairs))


#: (section, field) -> attribute name, in canonical YAML order
_SPEC_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("jobs", "per_node", "jobs_per_node"),
    ("jobs", "ranks", "job_ranks"),
    ("phases", "count", "phase_count"),
    ("phases", "compute_time", "phase_compute_time"),
    ("phases", "repeat", "phase_repeat"),
    ("objects", "per_job", "objects_per_job"),
    ("objects", "size_bytes", "size_bytes"),
    ("objects", "stack_depth", "stack_depth"),
    ("objects", "lifetime_fraction", "lifetime_fraction"),
    ("objects", "alloc_count", "alloc_count"),
    ("access", "store_fraction", "store_fraction"),
    ("access", "l1d_inflation", "l1d_inflation"),
    ("machine", "mlp", "mlp"),
    ("machine", "locality", "locality"),
    ("machine", "conflict_pressure", "conflict_pressure"),
    ("machine", "ws_factor", "ws_factor"),
    ("machine", "threads", "threads"),
    ("machine", "non_heap_bytes", "non_heap_bytes"),
)


@dataclass(frozen=True)
class CorpusSpec:
    """A validated corpus specification (see module docstring)."""

    name: str
    jobs_per_node: DistSpec
    job_ranks: DistSpec
    phase_count: DistSpec
    phase_compute_time: DistSpec
    phase_repeat: DistSpec
    objects_per_job: DistSpec
    size_bytes: DistSpec
    stack_depth: DistSpec
    #: probability an object lives to the end of the run
    whole_run_fraction: float
    lifetime_fraction: DistSpec
    alloc_count: DistSpec
    #: probability an object is active in any given epoch
    activity: float
    store_fraction: DistSpec
    l1d_inflation: DistSpec
    patterns: Tuple[AccessPatternSpec, ...]
    arrival: Tuple[Tuple[str, float], ...]
    mlp: DistSpec
    locality: DistSpec
    conflict_pressure: DistSpec
    ws_factor: DistSpec
    threads: DistSpec
    non_heap_bytes: DistSpec
    energy: Optional[EnergyModel] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("corpus spec needs a non-empty name")
        if not 0.0 <= self.whole_run_fraction <= 1.0:
            raise WorkloadError(
                f"objects.whole_run_fraction must be in [0, 1], "
                f"got {self.whole_run_fraction}"
            )
        if not 0.0 < self.activity <= 1.0:
            raise WorkloadError(
                f"objects.activity must be in (0, 1], got {self.activity}"
            )
        if not self.patterns:
            raise WorkloadError("access.patterns must name at least one pattern")
        names = [p.name for p in self.patterns]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate pattern names in {names}")
        if not self.arrival:
            raise WorkloadError("arrival must weight at least one policy")
        for policy, weight in self.arrival:
            if policy not in _ARRIVAL_POLICIES:
                raise WorkloadError(
                    f"unknown arrival policy {policy!r} "
                    f"(have {list(_ARRIVAL_POLICIES)})"
                )
            if weight <= 0:
                raise WorkloadError(
                    f"arrival policy {policy!r}: weight must be > 0"
                )


def corpus_to_dict(spec: CorpusSpec) -> Dict[str, Any]:
    """The canonical dict form of a corpus spec (stable key order)."""
    out: Dict[str, Any] = {"corpus": {"name": spec.name}}
    for section, field, attr in _SPEC_FIELDS:
        sec = out.setdefault(section, {})
        sec[field] = getattr(spec, attr).to_dict()
        if section == "objects" and field == "size_bytes":
            # fixed position for the two scalar object knobs
            sec["whole_run_fraction"] = spec.whole_run_fraction
        if section == "objects" and field == "alloc_count":
            sec["activity"] = spec.activity
    out["access"]["patterns"] = [p.to_dict() for p in spec.patterns]
    out["arrival"] = {policy: weight for policy, weight in spec.arrival}
    if spec.energy is not None:
        out["energy"] = spec.energy.to_dict()
    return out


def corpus_from_dict(data: Any, *, path: str = "corpus") -> CorpusSpec:
    """Validate a corpus-spec dict (the YAML document) into a CorpusSpec."""
    if not isinstance(data, dict):
        raise _fail(path, f"expected a mapping, got {type(data).__name__}")
    allowed = {"corpus", "jobs", "phases", "objects", "access", "arrival",
               "machine", "energy"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise _fail(path, f"unknown section(s) {unknown}; "
                          f"allowed: {sorted(allowed)}")
    head = data.get("corpus", {})
    if not isinstance(head, dict):
        raise _fail(f"{path}.corpus", "expected a mapping")
    name = head.get("name", "unnamed")
    if not isinstance(name, str):
        raise _fail(f"{path}.corpus.name", "expected a string")

    kwargs: Dict[str, Any] = {"name": name}
    for section, field, attr in _SPEC_FIELDS:
        sec = data.get(section, {})
        if not isinstance(sec, dict):
            raise _fail(f"{path}.{section}", "expected a mapping")
        if field not in sec:
            raise _fail(f"{path}.{section}", f"missing distribution {field!r}")
        kwargs[attr] = DistSpec.from_dict(sec[field],
                                          f"{path}.{section}.{field}")

    objects = data.get("objects", {})
    wrf = objects.get("whole_run_fraction", 0.5)
    activity = objects.get("activity", 0.75)
    kwargs["whole_run_fraction"] = _number(
        wrf, f"{path}.objects.whole_run_fraction")
    kwargs["activity"] = _number(activity, f"{path}.objects.activity")

    access = data.get("access", {})
    raw_patterns = access.get("patterns")
    if not isinstance(raw_patterns, list) or not raw_patterns:
        raise _fail(f"{path}.access.patterns",
                    "expected a non-empty list of patterns")
    patterns = []
    for i, entry in enumerate(raw_patterns):
        ppath = f"{path}.access.patterns[{i}]"
        if not isinstance(entry, dict):
            raise _fail(ppath, "expected a mapping")
        extra = sorted(set(entry) - {"name", "weight", "kind", "intensity",
                                     "serial_fraction", "visibility"})
        if extra:
            raise _fail(ppath, f"unknown field(s) {extra}")
        if "name" not in entry or "intensity" not in entry:
            raise _fail(ppath, "patterns need 'name' and 'intensity'")
        pattern_kwargs: Dict[str, Any] = {
            "name": entry["name"],
            "weight": _number(entry.get("weight", 1.0), f"{ppath}.weight"),
            "kind": entry.get("kind", "rate"),
            "intensity": DistSpec.from_dict(entry["intensity"],
                                            f"{ppath}.intensity"),
        }
        for opt in ("serial_fraction", "visibility"):
            if opt in entry:
                pattern_kwargs[opt] = DistSpec.from_dict(entry[opt],
                                                         f"{ppath}.{opt}")
        patterns.append(AccessPatternSpec(**pattern_kwargs))
    kwargs["patterns"] = tuple(patterns)

    arrival = data.get("arrival", {"start": 1.0})
    if not isinstance(arrival, dict) or not arrival:
        raise _fail(f"{path}.arrival",
                    "expected a non-empty mapping of policy -> weight")
    kwargs["arrival"] = tuple(
        (policy, _number(weight, f"{path}.arrival.{policy}"))
        for policy, weight in arrival.items()
    )

    if "energy" in data and data["energy"] is not None:
        kwargs["energy"] = EnergyModel.from_dict(data["energy"],
                                                 f"{path}.energy")
    return CorpusSpec(**kwargs)


def loads_corpus_yaml(text: str, *, source: str = "<string>") -> CorpusSpec:
    """Parse and validate a corpus spec from YAML text."""
    from repro.apps.dsl.yamlio import parse_yaml_mapping

    return corpus_from_dict(parse_yaml_mapping(text, source=source),
                            path=source)


def load_corpus_yaml(path: Union[str, Path]) -> CorpusSpec:
    """Load and validate a corpus spec from a YAML file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read corpus spec {path}: {exc}") from exc
    return loads_corpus_yaml(text, source=str(path))


def default_corpus_spec() -> CorpusSpec:
    """The built-in corpus family the placement-CI gate sweeps.

    Tuned so node heap high-water marks land in the single-digit-GiB
    range — big enough that a DRAM budget of a fraction of the footprint
    forces real placement decisions, small enough that a full pipeline
    cell runs in tens of milliseconds.
    """
    return CorpusSpec(
        name="default",
        jobs_per_node=DistSpec.make("randint", low=1, high=3),
        job_ranks=DistSpec.make("randint", low=1, high=4),
        phase_count=DistSpec.make("randint", low=2, high=4),
        phase_compute_time=DistSpec.make("uniform", low=0.5, high=2.0),
        phase_repeat=DistSpec.make("randint", low=1, high=3),
        objects_per_job=DistSpec.make("randint", low=3, high=8),
        size_bytes=DistSpec.make("loguniform", low=8 * MiB, high=1024 * MiB),
        stack_depth=DistSpec.make("randint", low=2, high=5),
        whole_run_fraction=0.6,
        lifetime_fraction=DistSpec.make("uniform", low=0.15, high=0.6),
        alloc_count=DistSpec.make("randint", low=1, high=4),
        activity=0.75,
        store_fraction=DistSpec.make("uniform", low=0.0, high=0.6),
        l1d_inflation=DistSpec.make("loguniform", low=1.0, high=8.0),
        patterns=(
            AccessPatternSpec(
                name="stream", weight=3.0, kind="stream",
                intensity=DistSpec.make("uniform", low=1.0, high=8.0),
            ),
            AccessPatternSpec(
                name="gather", weight=2.0, kind="rate",
                intensity=DistSpec.make("loguniform", low=2e5, high=8e6),
            ),
            AccessPatternSpec(
                name="chase", weight=1.0, kind="rate",
                intensity=DistSpec.make("loguniform", low=1e5, high=2e6),
                serial_fraction=DistSpec.make("uniform", low=0.3, high=0.9),
            ),
            AccessPatternSpec(
                name="burst", weight=1.0, kind="rate",
                intensity=DistSpec.make("loguniform", low=2e5, high=4e6),
                visibility=DistSpec.make("uniform", low=0.2, high=0.7),
            ),
        ),
        arrival=(("start", 2.0), ("staggered", 1.0), ("periodic", 1.0)),
        mlp=DistSpec.make("uniform", low=2.0, high=8.0),
        locality=DistSpec.make("uniform", low=0.4, high=0.9),
        conflict_pressure=DistSpec.make("uniform", low=0.2, high=0.5),
        ws_factor=DistSpec.make("uniform", low=0.5, high=1.0),
        threads=DistSpec.make("randint", low=1, high=4),
        non_heap_bytes=DistSpec.constant(0),
        energy=EnergyModel(pj_per_byte=(("dram", 18.0), ("pmem", 55.0))),
    )
