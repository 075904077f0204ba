"""The baseline runners and the generic packer keep their public homes.

Tracing tools wrap these functions where they are defined and under every
name an experiment module bound at import time (``from x import f``
copies the reference).  A renamed or moved function would silently leave
such a wrapper timing nothing, so the bindings are pinned here.
"""

import importlib

import pytest

BINDINGS = {
    # function -> (defining module, modules that bind it at import time)
    "pack_traffic_batch": ("repro.runtime.traffic", (
        "repro.runtime.engine",
    )),
    "run_memory_mode": ("repro.baselines.memory_mode", (
        "repro.baselines", "repro", "repro.cli",
        "repro.experiments.fig6_sweep", "repro.experiments.ablations",
        "repro.experiments.sec8d_callstack",
        "repro.experiments.tab8_full_apps", "repro.experiments.tab6_memmode",
        "repro.experiments.sec8c_lammps", "repro.experiments.tab7_functions",
    )),
    "run_tiering": ("repro.baselines.tiering", (
        "repro.baselines", "repro", "repro.experiments.fig6_sweep",
        "repro.experiments.ablations",
    )),
    "run_combined": ("repro.baselines.tiering", (
        "repro.baselines", "repro.experiments.ablations",
    )),
    "run_profdp_best": ("repro.experiments.harness", (
        "repro.experiments", "repro", "repro.experiments.fig6_sweep",
    )),
}


@pytest.mark.parametrize("name", sorted(BINDINGS))
def test_defined_and_bound(name):
    home, importers = BINDINGS[name]
    fn = getattr(importlib.import_module(home), name)
    assert fn.__module__ == home
    for module in importers:
        assert getattr(importlib.import_module(module), name) is fn, module
