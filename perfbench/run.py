#!/usr/bin/env python3
"""End-to-end benchmark of the ecoHMEM reproduction.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 14 --trace 0

Run from the repository root.  Every run executes the three waits a
user of this repository has, in one process, through the public API:

1. **paper** - one full regeneration of ``EXPERIMENTS.md``
   (``tools/make_experiments_md.main``, serial, cold process-wide
   stores) into a temp path, checked against the committed file;
2. **pipeline** - a cold and a warm pass of ``run_ecohmem`` over all 7
   apps x {density, bw-aware} on PMem-6 against fresh stores, twice
   (see ``pipeline_stage.py``);
3. **serve** - an open loop of seeded Poisson arrivals into a
   ``PlacementServer(workers=2)`` at the workload's nominal rate for
   ``--seconds`` seconds in three windows, then a ladder of rising rates
   to find the highest rate that keeps p99 within 1 s (see
   ``serve_stage.py``).

The workload picks the serving traffic mix; the seed drives every
generated input.  ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` runs traced (``layers.py`` wraps each layer's
public functions) and reports the per-layer split instead, writes the
span tree and layer table under ``.perfbench/``, and appends the run to
``perfbench/ledger.jsonl`` like every run.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: every run appends its record here (tracked, so records form a
#: trajectory across commits)
LEDGER = HERE / "ledger.jsonl"

#: serving traffic per workload: request-kind shares and nominal rate.
#: Both mixes and the rate are synthetic: no record of served requests
#: exists to derive them from, so they are unverified against real use.
WORKLOADS = {
    # advisory-dominated: mostly coalesced density advisories
    "mixed": {"shares": {"advisory": 0.60, "bwaware": 0.15,
                         "whatif": 0.15, "online": 0.10},
              "rate": 10.0},
    # a sensitivity probe for the engine, not user traffic: the same mix
    # with the density-advisory share cut from 60 % to 20 % and the
    # freed 40 % spread over the engine-backed kinds in proportion to
    # their shares above (15:15:10)
    "engine": {"shares": {"advisory": 0.20, "bwaware": 0.30,
                          "whatif": 0.30, "online": 0.20},
               "rate": 10.0},
}
#: a set-up takes a quarter of a second, so one reading is at the mercy
#: of a momentary stall; the median of several, half before the paper
#: and half after it, is not
SETUP_REPS = 7
#: the nominal serving schedule is served in this many slices, spread
#: over the run
SERVE_WINDOWS = 3
LADDER_STEP_S = 1.0
LADDER_START = 2.0
LADDER_FACTOR = 1.5
LADDER_MAX_STEPS = 4
CHECK_SAMPLE = 8

#: the end-to-end metrics of the result line (all of BENCHMARK.json's)
END_TO_END_UNITS = {
    "setup_s": "s", "paper_regen_s": "s", "cold_run_s": "s",
    "warm_run_s": "s", "serve_p50_ms": "ms", "advisory_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: measured and recorded every run, but too noisy at this run length to
#: bound (percentiles that fall on a boundary between per-app cost
#: clusters, a ladder of a few seconds) or zero when all is well
#: (failed_frac); see README.md
RECORDED_UNITS = {
    "bwaware_p50_ms": "ms", "whatif_p50_ms": "ms", "online_p50_ms": "ms",
    "serve_p90_ms": "ms", "serve_p99_ms": "ms", "serve_max_rps": "1/s",
    "failed_frac": "ratio",
}


def pin_environment() -> None:
    """Drop inherited ``REPRO_*`` knobs and make the program importable."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for path in (HERE, ROOT / "tools", ROOT / "src"):
        sys.path.insert(0, str(path))


def provenance() -> dict:
    import numpy as np

    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    # a checkout without its own .git must not report an enclosing repo
    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    # the ledger is tracked and every run appends to it, so it would mark
    # every tree dirty after the first run
    ledger = LEDGER.relative_to(ROOT).as_posix()
    status = (git("status", "--porcelain", "--", ".", f":(exclude){ledger}")
              if sha else None)
    return {
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_reference_ms() -> float:
    """Median time of a fixed Python + NumPy loop, to tell host speed apart.

    Recorded in the ledger (not a metric): the shared hosts this runs on
    change speed by up to 2x over minutes, and a slow reading here marks
    a run whose times are slow for that reason.
    """
    import numpy as np

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        np.sort(np.random.default_rng(0).random(100_000))
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


# -- the three stages ----------------------------------------------------------


def stage_paper(tmp) -> dict:
    """One regeneration with the process-wide stores cold and unconfigured.

    The pipeline stage points the default trace store at its own
    directory through the environment; that is undone first, so the
    paper reads nothing another stage wrote, and it starts from a
    collected heap, so garbage of earlier stages does not add to its
    peak memory.
    """
    import paper_stage
    from repro.pipeline.artifacts import reset_default_artifact_store
    from repro.profiling.cache import reset_default_store
    from repro.profiling.tracestore import reset_default_trace_store

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    gc.collect()
    reset_default_store()
    reset_default_artifact_store()
    reset_default_trace_store()
    t0 = time.perf_counter()
    out = paper_stage.run_paper(ROOT, tmp)
    out["window"] = (t0, time.perf_counter())
    out["problems"] = [] if out["ok"] else [
        "regenerated EXPERIMENTS.md differs from the committed file"]
    out["attempted"], out["failed"] = 1, 0 if out["ok"] else 1
    return out


def stage_pipeline(cells, root, rec=None) -> dict:
    import pipeline_stage

    t0 = time.perf_counter()
    out = pipeline_stage.run_pipeline_rep(cells, root, rec)
    out["window"] = (t0, time.perf_counter())
    return out


class Serving:
    """The serve stage's inputs and server, driven in separate windows."""

    STATS = ("requests", "batches", "profile_loads", "memo_hits", "errors")

    def __init__(self, workload, rng, seconds):
        import serve_stage as sv
        from repro.apps import get_workload, list_workloads

        self.sv = sv
        self.rng = rng
        self.apps = list_workloads()
        spec = WORKLOADS[workload]
        self.shares, self.rate = spec["shares"], spec["rate"]
        self.sites = {a: [o.site.name for o in get_workload(a).objects]
                      for a in self.apps}
        n = max(SERVE_WINDOWS, round(self.rate * seconds))
        self.requests = sv.make_requests(rng, n, self.shares, self.apps,
                                         self.sites, "nominal")
        self.offsets = sv.arrivals(rng, n, self.rate)
        self.server = None
        self.setup_times = []
        self.windows = []
        self.steps = []
        self.stats = dict.fromkeys(self.STATS, 0)

    def setup(self, artifacts_root, reps: int) -> None:
        """Bring up a warm server ``reps`` times; the last one serves."""
        self.artifacts_root = artifacts_root
        for _ in range(reps):
            self.stop()
            t0 = time.perf_counter()
            self.server = self.sv.start_server(artifacts_root, self.apps,
                                               self.sites)
            self.setup_times.append(time.perf_counter() - t0)

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def window(self, rec=None) -> None:
        """Serve the next slice of the nominal schedule at the nominal rate."""
        n, part = len(self.requests), len(self.windows)
        lo = part * n // SERVE_WINDOWS
        hi = (part + 1) * n // SERVE_WINDOWS
        base = self.offsets[lo - 1] if lo else 0.0
        before = dict(vars(self.server.stats))
        run = self.sv.drive(self.server, self.requests[lo:hi],
                            [o - base for o in self.offsets[lo:hi]], rec)
        for k in self.STATS:
            self.stats[k] += getattr(self.server.stats, k) - before[k]
        self.windows.append(run)

    def ladder(self, max_steps: int) -> None:
        """Rising rates until one is not sustained (see ``sustained``)."""
        sv = self.sv
        step_rate = self.rate * LADDER_START
        for k in range(max_steps):
            if k:
                step_rate *= LADDER_FACTOR
            m = max(20, round(step_rate * LADDER_STEP_S))
            reqs = sv.make_requests(self.rng, m, self.shares, self.apps,
                                    self.sites, f"step{k}")
            run = sv.drive(self.server, reqs,
                           sv.arrivals(self.rng, m, step_rate))
            self.steps.append(sv.Step(step_rate, sv.sustained(run), run))
            if self.steps[-1].score > 1.0:
                break

    def finish(self) -> dict:
        """Stop the server, then compute metrics and check outputs."""
        sv = self.sv
        self.stop()
        nominal = {
            "latency_ms": [x for w in self.windows for x in w["latency_ms"]],
            "late_ms": [x for w in self.windows for x in w["late_ms"]],
            "reports": [r for w in self.windows for r in w["reports"]],
        }
        out = sv.summarize(nominal, self.requests)
        out["setup_s"] = statistics.median(self.setup_times)
        nominal_step = sv.Step(
            self.rate, max(sv.sustained(w) for w in self.windows), None)
        out["serve_max_rps"] = sv.max_rate([nominal_step] + self.steps)
        out["windows"] = [w["window"] for w in self.windows]
        out["stats"] = dict(self.stats)

        # correctness, outside every timed window
        reports = nominal["reports"] + [
            r for s in self.steps for r in s.run["reports"]]
        errors = [f"{r.request.session}: error report: {r.error}"
                  for r in reports if not r.ok]
        wrong = sv.check_sample(self.rng, self.requests, nominal["reports"],
                                self.artifacts_root, CHECK_SAMPLE)
        out.update(attempted=len(reports), failed=len(errors) + len(wrong),
                   problems=errors + wrong)
        return out


# -- metrics ---------------------------------------------------------------------


def per_layer_metrics(rec, windows, overhead, serve) -> dict:
    from tracing import coverage, layer_table, span_cost_s
    from layers import PAPER_SECTIONS, WRAPPER_LAYERS

    rows = layer_table(rec.spans)

    def row(layer):
        return rows.get(layer, {})

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("tracer", "analyze", "advisor", "replay"):
        put(f"{layer}.calls", row(layer).get("calls", 0), "count")
        put(f"{layer}.busy_s", row(layer).get("busy_s", 0.0), "s")
    put("tracer.samples", row("tracer").get("samples", 0), "count")
    put("replay.fallbacks", row("replay").get("fallbacks", 0), "count")
    serve_windows = [w for k, w in windows.items() if k.startswith("serve")]
    put("tracer.serve_window_calls",
        sum(1 for s in rec.spans if s.layer == "tracer"
            and any(lo <= s.start < hi for lo, hi in serve_windows)),
        "count")

    base = {"memory_mode": "baselines.memory_mode",
            "tiering": "baselines.tiering", "profdp": "baselines.profdp"}
    put("baselines.calls", sum(row(b).get("calls", 0) for b in base.values()),
        "count")
    put("baselines.busy_s",
        sum(row(b).get("busy_s", 0.0) for b in base.values()), "s")
    for short, layer in base.items():
        put(f"baselines.{short}_s", row(layer).get("busy_s", 0.0), "s")
    plo, phi = windows["paper"]
    put("baselines.outside_paper_calls",
        sum(1 for s in rec.spans if s.layer in base.values()
            and not plo <= s.start < phi), "count")

    for kind in ("baseline", "placement"):
        put(f"traffic.{kind}_packs", row(f"traffic.{kind}").get("calls", 0),
            "count")
        put(f"traffic.{kind}_pack_s",
            row(f"traffic.{kind}").get("busy_s", 0.0), "s")

    eng = row("engine")
    put("engine.calls", eng.get("calls", 0), "count")
    put("engine.candidates", eng.get("candidates", 0), "count")
    put("engine.incremental_calls", eng.get("incremental_calls", 0), "count")
    put("engine.self_s", eng.get("self_s", 0.0), "s")

    st = serve["stats"]
    put("service.batches", st["batches"], "count")
    put("service.mean_batch", st["requests"] / max(st["batches"], 1),
        "count")
    put("service.profile_loads", st["profile_loads"], "count")
    put("service.memo_hits", st["memo_hits"], "count")
    put("service.errors", st["errors"], "count")
    put("service.generator_late_ms", serve["generator_late_ms"], "ms")

    for store in ("artifact", "profile", "trace"):
        get = row(f"store.{store}.get")
        putr = row(f"store.{store}.put")
        gets = get.get("calls", 0)
        put(f"store.{store}.gets", gets, "count")
        put(f"store.{store}.hits", get.get("hits", 0), "count")
        put(f"store.{store}.hit_ratio",
            get.get("hits", 0) / gets if gets else 0.0, "ratio")
        put(f"store.{store}.get_s", get.get("busy_s", 0.0), "s")
        put(f"store.{store}.puts", putr.get("calls", 0), "count")
        put(f"store.{store}.put_s", putr.get("busy_s", 0.0), "s")

    for section, _, _ in PAPER_SECTIONS:
        put(f"paper.{section}_s", row(f"paper.{section}").get("busy_s", 0.0),
            "s")
    put("sweep.cells", row("sweep.cell").get("calls", 0), "count")

    # serving windows idle between arrivals, so coverage is measured on
    # the closed-loop stages, whose wall time is all work.  Spans that
    # wrap a whole call, cell or section cover their window by
    # construction, so only the layers' own boundaries count: the rest
    # is time no layer accounts for
    closed = [windows["paper"], windows["pipeline"]]
    program = [s for s in rec.spans
               if not s.layer.startswith(WRAPPER_LAYERS)]
    covered = sum(coverage(program, w) * (w[1] - w[0]) for w in closed)
    put("trace.coverage", covered / sum(w[1] - w[0] for w in closed),
        "ratio")
    put("trace.overhead_frac", overhead, "ratio")
    put("trace.spans", len(rec.spans), "count")
    put("trace.span_cost_s", len(rec.spans) * span_cost_s(), "s")
    return m


def print_table(metrics: dict, recorded: dict) -> None:
    print(f"{'metric':30s} {'value':>12s} unit")
    for name, v in metrics.items():
        print(f"{name:30s} {v['value']:12.4f} {v['unit']}")
    for name, v in recorded.items():
        print(f"{name:30s} {v['value']:12.4f} {v['unit']} (recorded, not bounded)")


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="mixed")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=14.0,
                    help="length of the nominal-rate serving window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-pin reference/pipeline.json and exit")
    args = ap.parse_args(argv)

    pin_environment()
    import numpy as np
    from repro.apps import list_workloads  # fails outside a checkout

    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.write_reference:
            import pipeline_stage
            ref = pipeline_stage.write_reference(list_workloads(), tmp)
            print(f"wrote {pipeline_stage.REFERENCE} ({len(ref)} cells)")
            return 0
        return run(args, tmp, np)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp, np) -> int:
    """The stages, interleaved.

    The host's speed drifts on a scale of seconds, so the repeated
    measurements are spread over the run rather than taken back to
    back: a pipeline repetition and a third of the serving schedule
    come before the paper regeneration, the rest after it.
    """
    import pipeline_stage
    from repro.apps import list_workloads

    pipe_seed, serve_seed = np.random.SeedSequence(args.seed).spawn(2)
    cells = pipeline_stage.cells_for(np.random.default_rng(pipe_seed),
                                     list_workloads())
    serving = Serving(args.workload, np.random.default_rng(serve_seed),
                      args.seconds)
    traced = bool(args.trace)
    rec = None
    if traced:
        import layers
        from tracing import Recorder
        rec = Recorder()

    host_ms = [host_reference_ms()]
    pipes = [stage_pipeline(cells, tmp / "pipeline-0")]
    if traced:
        # a traced repetition and an untraced one right after it: outputs
        # must agree, and the time difference is the tracing overhead
        # (both run after the first, which pays the process's first-call
        # costs)
        layers.install(rec)
        pipes.append(stage_pipeline(cells, tmp / "pipeline-1", rec))
        rec.restore()
        pipes.append(stage_pipeline(cells, tmp / "pipeline-2"))
        layers.install(rec)
    root = pipes[0]["artifacts_root"]
    serving.setup(root, 1 if traced else SETUP_REPS - SETUP_REPS // 2)
    serving.window(rec)
    # the paper runs alone, as it does for a user: no server holding
    # memory, and a collected heap
    serving.stop()
    paper = stage_paper(tmp)
    serving.setup(root, 1 if traced else SETUP_REPS // 2)
    serving.window(rec)
    if not traced:
        pipes.append(stage_pipeline(cells, tmp / "pipeline-1"))
    serving.window(rec)
    # the ladder overloads the server on purpose; its queue's memory is
    # not part of the peak a user sees
    rss_mb = peak_rss_mb()
    if not traced:
        serving.ladder(LADDER_MAX_STEPS)
    serve = serving.finish()
    host_ms.append(host_reference_ms())
    if traced:
        rec.restore()

    pipe = {
        "cold_run_s": statistics.median(p["cold_run_s"] for p in pipes),
        "warm_run_s": statistics.median(
            t for p in pipes for t in p["warm_runs_s"]),
        "attempted": sum(p["attempted"] for p in pipes),
        "failed": sum(p["failed"] for p in pipes),
        "problems": [x for p in pipes for x in p["problems"]],
    }
    if any(p["digests"] != pipes[0]["digests"] for p in pipes):
        pipe["problems"].append("pipeline repetitions disagree")
        pipe["failed"] += pipes[1]["attempted"]
    windows = {"paper": paper["window"], "pipeline": pipes[1]["window"]}
    for i, w in enumerate(serve["windows"]):
        windows[f"serve{i}"] = w

    problems = paper["problems"] + pipe["problems"] + serve["problems"]
    attempted = paper["attempted"] + pipe["attempted"] + serve["attempted"]
    failed = min(attempted, paper["failed"] + pipe["failed"]
                 + serve["failed"])
    if problems and failed == 0:
        failed = 1  # a failed check always shows as a failed operation
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if traced:
        def rep_s(p):
            return p["cold_run_s"] + sum(p["warm_runs_s"])

        overhead = rep_s(pipes[1]) / rep_s(pipes[2]) - 1.0
        metrics = per_layer_metrics(rec, windows, overhead, serve)
        from tracing import layer_table
        out_dir = ROOT / ".perfbench"
        stem = f"trace-{args.workload}-seed{args.seed}"
        rec.export(out_dir / f"{stem}-spans.json", windows)
        (out_dir / f"{stem}-layers.json").write_text(json.dumps({
            "metrics": {k: v["value"] for k, v in metrics.items()},
            # the flat per-layer table of each stage's window
            "windows": {name: {"wall_s": hi - lo, "layers": layer_table(
                [s for s in rec.spans if lo <= s.start < hi])}
                for name, (lo, hi) in windows.items()},
        }, indent=1))
    else:
        values = {**serve, "paper_regen_s": paper["paper_regen_s"],
                  "cold_run_s": pipe["cold_run_s"],
                  "warm_run_s": pipe["warm_run_s"],
                  "peak_rss_mb": rss_mb}
        metrics = {k: {"value": float(values[k]), "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}

    failed_frac = failed / attempted
    recorded = {k: serve[k] for k in RECORDED_UNITS if k in serve}
    recorded["failed_frac"] = failed_frac
    if traced:  # the traced run skips the rate ladder
        del recorded["serve_max_rps"]
    print_table(metrics, {k: {"value": v, "unit": RECORDED_UNITS[k]}
                          for k, v in recorded.items()})
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **provenance(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": {**WORKLOADS[args.workload],
                   "setup_reps": SETUP_REPS,
                   "ladder_step_s": LADDER_STEP_S,
                   "ladder_start": LADDER_START,
                   "ladder_factor": LADDER_FACTOR,
                   "pipeline_cells": [list(c) for c in cells]},
        "recorded": recorded,
        "generator_late_ms": serve["generator_late_ms"],
        "host_reference_ms": host_ms,
        **result,
    }
    with open(LEDGER, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
