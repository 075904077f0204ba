"""Which public functions the traced run wraps, and the layer of each.

Every layer boundary the per-layer metrics name is listed here.  Class
methods are wrapped on the class; functions are wrapped both where they
are defined and under every name an importing module bound at import
time (``from x import f`` copies the reference, so patching ``x.f``
alone would miss those callers).
"""

from __future__ import annotations

import importlib

from tracing import Recorder

#: the paper sections ``tools/make_experiments_md.main`` computes, as
#: (section, module, functions) — it imports them at call time, so
#: patching the module attribute is enough
PAPER_SECTIONS = (
    ("fig2", "repro.experiments.fig2_latency",
     ("paper_anchor_checks", "latency_gap_at")),
    ("tab6", "repro.experiments.tab6_memmode", ("compute_tab6",)),
    ("fig6", "repro.experiments.fig6_sweep", ("compute_fig6",)),
    ("fig3", "repro.experiments.fig3_lulesh", ("compute_fig3",)),
    ("fig45", "repro.experiments.fig45_objects",
     ("compute_fig45", "table2_rows", "table3_rows")),
    ("tab1", "repro.experiments.tab1_callstack", ("compute_tab1",)),
    ("tab7", "repro.experiments.tab7_functions",
     ("compute_tab7", "inverse_correlation_share")),
    ("tab8", "repro.experiments.tab8_full_apps", ("compute_tab8",)),
    ("fig7", "repro.experiments.fig7_bandwidth", ("compute_fig7",)),
    ("sec8c", "repro.experiments.sec8c_lammps", ("compute_sec8c",)),
    ("sec8d", "repro.experiments.sec8d_callstack", ("compute_sec8d",)),
    ("ablations", "repro.experiments.ablations",
     ("combined_policy_comparison", "input_sensitivity",
      "sampling_frequency_sweep", "store_coefficient_sweep",
      "threshold_sweep")),
    ("online_compare", "repro.experiments.online_compare",
     ("run_online_compare",)),
)

#: layers whose spans wrap a whole request, call, sweep cell or paper
#: section rather than one layer's work (prefixes)
WRAPPER_LAYERS = ("pipeline.call", "serve.request", "service.group",
                  "sweep.cell", "paper.")

#: baseline runners -> (layer, modules that bind the name; the defining
#: module first)
_BASELINES = {
    "run_memory_mode": ("baselines.memory_mode", (
        "repro.baselines.memory_mode", "repro.baselines", "repro",
        "repro.cli", "repro.experiments.fig6_sweep",
        "repro.experiments.ablations", "repro.experiments.sec8d_callstack",
        "repro.experiments.tab8_full_apps", "repro.experiments.tab6_memmode",
        "repro.experiments.sec8c_lammps", "repro.experiments.tab7_functions",
    )),
    "run_tiering": ("baselines.tiering", (
        "repro.baselines.tiering", "repro.baselines", "repro",
        "repro.experiments.fig6_sweep", "repro.experiments.ablations",
    )),
    # the proactive+reactive combination is kernel tiering with a
    # pinned ecoHMEM placement; it is counted with tiering
    "run_combined": ("baselines.tiering", (
        "repro.baselines.tiering", "repro.baselines",
        "repro.experiments.ablations",
    )),
    "run_profdp_best": ("baselines.profdp", (
        "repro.experiments.harness", "repro.experiments", "repro",
        "repro.experiments.fig6_sweep",
    )),
}

ENGINE_ENTRIES = {
    # entry point -> (incremental?, candidates from args)
    "run": (False, lambda a, k: 1),
    "run_batch": (False, lambda a, k: len(a[1])),
    "predict_times": (False, lambda a, k: len(a[1])),
    "run_delta": (True, lambda a, k: 1),
    "run_incremental": (True, lambda a, k: 1),
    "predict_times_incremental": (True, lambda a, k: len(a[2])),
}


def _wrap_bound(rec, modules, fn, layer, **kw) -> None:
    """Wrap ``fn`` under each module that binds it.

    ``modules[0]`` defines ``fn`` and must still bind it: a moved or
    renamed function would otherwise leave its layer reading zero, which
    looks like a gain.  A re-binding module that no longer imports the
    name is skipped.
    """
    first = importlib.import_module(modules[0])
    if not hasattr(first, fn):
        raise RuntimeError(f"{modules[0]} no longer defines {fn}; "
                           f"update perfbench/layers.py")
    for name in modules:
        mod = importlib.import_module(name)
        if hasattr(mod, fn):
            rec.wrap(mod, fn, layer, **kw)


def _hit(span, args, kwargs, result):
    span.attrs["hits"] = 0 if result is None else 1


def install(rec: Recorder) -> None:
    """Wrap every layer boundary; ``rec.restore()`` undoes it."""
    from repro.advisor import HMemAdvisor
    from repro.baselines.memory_mode import MemoryModeTraffic
    from repro.baselines.tiering import TieringTraffic
    from repro.pipeline.artifacts import ArtifactStore
    from repro.profiling.cache import ProfileStore
    from repro.profiling.paramedir import Paramedir
    from repro.profiling.tracer import ExtraeTracer
    from repro.profiling.tracestore import TraceStore
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.traffic import PlacementTraffic
    from repro.service.server import PlacementServer

    # profiling
    rec.wrap(ExtraeTracer, "run", "tracer",
             observe=lambda s, a, k, r: s.attrs.__setitem__(
                 "samples", r.num_samples))
    rec.wrap(Paramedir, "analyze", "analyze")

    # advisor: the class entry points, plus the vectorized batch ranking
    # the server calls directly
    for name in ("advise_density", "advise_batch", "advise_bandwidth_aware"):
        rec.wrap(HMemAdvisor, name, "advisor")
    _wrap_bound(rec, ("repro.advisor.density", "repro.service.server"),
                "density_batch", "advisor")

    # allocation replay (the stages module binds the name)
    _wrap_bound(rec, ("repro.runtime.replay", "repro.pipeline.stages"),
                "replay_allocations", "replay",
                observe=lambda s, a, k, r: s.attrs.__setitem__(
                    "fallbacks", r.flexmalloc.stats.fallback_total))

    # traffic packing: the native placement packer, and the generic
    # per-segment replay the baselines go through
    rec.wrap(PlacementTraffic, "traffic_batch", "traffic.placement")
    baseline_models = (MemoryModeTraffic, TieringTraffic)

    def pack_layer(args, kwargs):
        return ("traffic.baseline" if isinstance(args[0], baseline_models)
                else "traffic.placement")

    _wrap_bound(rec, ("repro.runtime.traffic", "repro.runtime.engine"),
                "pack_traffic_batch", pack_layer)

    # execution engine entry points
    for name, (incremental, count) in ENGINE_ENTRIES.items():
        def observe(span, args, kwargs, result, count=count,
                    incremental=incremental):
            span.attrs["candidates"] = count(args, kwargs)
            span.attrs["incremental_calls"] = int(incremental)
        rec.wrap(ExecutionEngine, name, "engine", observe=observe)

    # baselines, under every bound name
    for fn, (layer, modules) in _BASELINES.items():
        _wrap_bound(rec, modules, fn, layer)

    # stores: get/put (the trace store's get is attach)
    for store, cls, get in (("artifact", ArtifactStore, "get"),
                            ("profile", ProfileStore, "get"),
                            ("trace", TraceStore, "attach")):
        rec.wrap(cls, get, f"store.{store}.get", observe=_hit)
        rec.wrap(cls, "put", f"store.{store}.put")

    # service groups carry the ids of the requests they answer
    def group_rids(args, kwargs):
        return ",".join(req.session for req, _ in args[2])

    for name in ("_run_group", "_run_whatif_group", "_run_online_group"):
        rec.wrap(PlacementServer, name, "service.group", rid_of=group_rids)

    # experiments: sweep cells and the paper's sections
    _wrap_bound(rec, ("repro.experiments.sweep.scheduler",), "_timed_call",
                "sweep.cell")
    for section, module, fns in PAPER_SECTIONS:
        for fn in fns:
            _wrap_bound(rec, (module,), fn, f"paper.{section}")
