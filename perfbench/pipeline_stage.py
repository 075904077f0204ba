"""Cold and warm ``run_ecohmem`` over every app, against fresh stores.

The cold pass runs all 7 apps x {density, bw-aware} against empty
artifact, profile and trace stores in a fresh directory, so the stores
take writes; three warm passes repeat the same calls on the populated
stores, so they serve reads.  The seed picks each cell's DRAM limit.

Checks, all outside the timed passes:

- warm results are ``run_results_identical`` to cold ones, with equal
  placements;
- every cell matches the reference in ``reference/pipeline.json``
  (placement digests and the exact total time);
- the cold pass hits no key it did not write itself, and every store
  read of the warm pass hits.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

GiB = 2 ** 30
DRAM_CHOICES_GB = (2, 3, 4, 6, 8)
ALGORITHMS = ("density", "bw-aware")
WARM_PASSES = 3
REFERENCE = Path(__file__).resolve().parent / "reference" / "pipeline.json"


def cells_for(rng, apps) -> list:
    """The seeded grid: (app, algorithm, DRAM limit in GiB) per cell."""
    return [(app, alg, int(rng.choice(DRAM_CHOICES_GB)))
            for app in apps for alg in ALGORITHMS]


def digest(result) -> dict:
    """What the reference pins for one cell."""
    sp = json.dumps(sorted(result.site_placement.items()))
    return {
        "report_sha": hashlib.sha256(
            result.report.dumps().encode()).hexdigest()[:16],
        "site_placement_sha": hashlib.sha256(sp.encode()).hexdigest()[:16],
        "total_time": repr(float(result.run.total_time)),
    }


def cell_id(app, alg, gb) -> str:
    return f"{app}/{alg}/{gb}"


class StoreAudit:
    """Records every get/put of the benchmark's own store objects.

    Wraps the bound methods of the given instances only, so nothing
    outside this benchmark's stores is touched.  ``pass_name`` tags each
    record with the pass it happened in.
    """

    def __init__(self):
        self.records = []  # (pass, store, op, key, hit)
        self.pass_name = None

    def watch(self, name, store, get):
        get_fn = getattr(store, get)
        put_fn = store.put

        def audited_get(key, *a, **k):
            result = get_fn(key, *a, **k)
            self.records.append((self.pass_name, name, "get", key,
                                 result is not None))
            return result

        def audited_put(key, *a, **k):
            put_fn(key, *a, **k)
            self.records.append((self.pass_name, name, "put", key, None))

        setattr(store, get, audited_get)
        store.put = audited_put

    def check(self) -> list:
        """Problems found: stale cold hits, warm misses."""
        problems = []
        written = set()
        warm_gets = 0
        for pass_name, store, op, key, hit in self.records:
            if pass_name == "cold":
                if op == "put":
                    written.add((store, key))
                elif hit and (store, key) not in written:
                    problems.append(f"cold pass hit {store} key {key} "
                                    f"it did not write")
            elif pass_name == "warm" and op == "get":
                warm_gets += 1
                if not hit:
                    problems.append(f"warm pass missed {store} key {key}")
        if warm_gets == 0:
            problems.append("warm pass read no store")
        return problems


def fresh_stores(root: Path, audit: StoreAudit):
    """Empty artifact/profile/trace stores under ``root``, all audited.

    The trace store is the process-wide default (``run_ecohmem`` has no
    trace-store argument), so it is pointed at ``root`` through the
    environment and the process-wide state is reset first; the default
    profile and artifact stores are reset too, so nothing from an earlier
    repetition can be served.
    """
    from repro.pipeline.artifacts import ArtifactStore, reset_default_artifact_store
    from repro.profiling.cache import ProfileStore, reset_default_store
    from repro.profiling.tracestore import (
        TRACE_STORE_DIR_ENV, default_trace_store, reset_default_trace_store,
    )

    reset_default_store()
    reset_default_artifact_store()
    os.environ[TRACE_STORE_DIR_ENV] = str(root / "trace")
    reset_default_trace_store()
    artifacts = ArtifactStore(root / "artifacts")
    profiles = ProfileStore(disk_dir=str(root / "profiles"))
    traces = default_trace_store()
    audit.watch("artifact", artifacts, "get")
    audit.watch("profile", profiles, "get")
    audit.watch("trace", traces, "attach")
    return artifacts, profiles


def run_cells(cells, artifacts, profiles, rec=None) -> tuple:
    """One pass over the cells; returns (wall seconds, results)."""
    from repro.apps import get_workload
    from repro.experiments.harness import run_ecohmem
    from repro.memsim.subsystem import pmem6_system

    results = []
    t0 = time.perf_counter()
    for app, alg, gb in cells:
        if rec is not None:
            span = rec.open(f"run_ecohmem {cell_id(app, alg, gb)}",
                            "pipeline.call")
        try:
            results.append(run_ecohmem(
                get_workload(app), pmem6_system(), dram_limit=gb * GiB,
                algorithm=alg, profile_store=profiles,
                artifact_store=artifacts))
        finally:
            if rec is not None:
                rec.close(span)
    return time.perf_counter() - t0, results


def run_pipeline_rep(cells, root: Path, rec=None) -> dict:
    """One cold pass and ``WARM_PASSES`` warm ones in a fresh store directory.

    A warm pass is short (about a second), so a hiccup of the host
    weighs heavily on one reading; several readings, of which the
    caller takes the median, damp that.
    """
    from repro.runtime.stats import run_results_identical

    audit = StoreAudit()
    artifacts, profiles = fresh_stores(root, audit)
    audit.pass_name = "cold"
    cold_s, cold = run_cells(cells, artifacts, profiles, rec)
    audit.pass_name = "warm"
    warm_passes = [run_cells(cells, artifacts, profiles, rec)
                   for _ in range(WARM_PASSES)]
    audit.pass_name = None

    reference = json.loads(REFERENCE.read_text())
    wrong = []
    wrong_cells = set()
    for i, (app, alg, gb) in enumerate(cells):
        cid = cell_id(app, alg, gb)
        c = cold[i]
        for _, warm in warm_passes:
            mism = run_results_identical(c.run, warm[i].run)
            if mism or digest(c) != digest(warm[i]):
                wrong.append(f"{cid}: warm differs from cold: {mism[:2]}")
                wrong_cells.add(i)
        if reference.get(cid) != digest(c):
            wrong.append(f"{cid}: differs from reference")
            wrong_cells.add(i)
    problems = audit.check()
    calls_per_cell = 1 + WARM_PASSES
    return {
        "cold_run_s": cold_s,
        "warm_runs_s": [t for t, _ in warm_passes],
        "attempted": calls_per_cell * len(cells),
        # a wrong cell taints all its calls, and a store-audit problem
        # every call of the repetition
        "failed": calls_per_cell * (len(cells) if problems
                                    else len(wrong_cells)),
        "problems": problems + wrong,
        "artifacts_root": root / "artifacts",
        "digests": [digest(w) for w in warm_passes[-1][1]],
    }


def write_reference(apps, tmp: Path) -> dict:
    """Pin every (app, algorithm, DRAM limit) cell the seed can pick."""
    cells = [(app, alg, gb) for app in apps for alg in ALGORITHMS
             for gb in DRAM_CHOICES_GB]
    audit = StoreAudit()
    artifacts, profiles = fresh_stores(tmp, audit)
    _, results = run_cells(cells, artifacts, profiles)
    ref = {cell_id(*c): digest(r) for c, r in zip(cells, results)}
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return ref
