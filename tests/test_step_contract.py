"""The simulator's per-tick contract and per-cell garbage.

One ``DualCoreSoC.step`` call is one simulated tick, and the kernel is
stepped once on every tick it is not halted.  Tick-counting
instrumentation depends on that, so a future multi-tick skip must fail
here rather than in a traced benchmark run.  Separately, a finished
cell must leave no reference cycles behind: the kernel may not hold a
reference back to the bridge adapter that owns it.
"""

from __future__ import annotations

import gc

import pytest

from repro.pcore.kernel import PCoreKernel
from repro.sim.soc import DualCoreSoC
from repro.workloads.registry import build_scenario

#: The scenarios of the compute-bound benchmark workload, plus the
#: service-bound one whose kernel panics (so halted ticks are covered).
CELLS = [
    pytest.param("philosophers", {"op": "cyclic"}, id="philosophers-cyclic"),
    pytest.param("philosophers", {"op": "round_robin"}, id="philosophers-rr"),
    pytest.param("philosophers", {"op": "burst"}, id="philosophers-burst"),
    pytest.param("clean_spin", {}, id="clean_spin"),
    pytest.param("priority_inversion", {"inheritance": False}, id="pi"),
    pytest.param("priority_inversion", {"inheritance": True}, id="pi-inherit"),
    pytest.param("quicksort_stress", {}, id="quicksort_stress"),
]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name,params", CELLS)
def test_soc_and_kernel_step_once_per_tick(monkeypatch, name, params, seed):
    soc_step = DualCoreSoC.step
    kernel_step = PCoreKernel.step
    counts = {"soc": 0, "kernel": 0, "live_ticks": 0, "halted_ticks": 0}
    bad_ticks = []

    def counted_kernel_step(kernel, now):
        counts["kernel"] += 1
        steps = kernel.steps
        worked = kernel_step(kernel, now)
        if kernel.steps != steps + 1:  # one call is one kernel step
            bad_ticks.append(now)
        return worked

    def counted_soc_step(soc):
        counts["soc"] += 1
        halted = soc.slave.is_halted()
        counts["halted_ticks" if halted else "live_ticks"] += 1
        now, kernel_calls = soc.now, counts["kernel"]
        worked = soc_step(soc)
        # One call advances the clock by one tick and steps a live kernel once.
        if soc.now != now + 1 or counts["kernel"] - kernel_calls != (not halted):
            bad_ticks.append(now)
        return worked

    monkeypatch.setattr(DualCoreSoC, "step", counted_soc_step)
    monkeypatch.setattr(PCoreKernel, "step", counted_kernel_step)
    result = build_scenario(name, seed, **params).run()

    assert counts["soc"] == result.ticks
    assert counts["kernel"] == counts["live_ticks"]
    assert bad_ticks == []
    if name == "quicksort_stress":
        assert result.report is not None and result.report.kernel_panic
        assert counts["halted_ticks"] > 0
    else:
        assert counts["halted_ticks"] == 0


def test_finished_cells_leave_no_cyclic_garbage():
    names = ("philosophers", "clean_spin", "priority_inversion", "quicksort_stress")
    for name in names:  # settle lazy imports and process-wide caches
        build_scenario(name, 0).run()
    gc.collect()
    gc.disable()
    try:
        for name in names:
            build_scenario(name, 1).run()
            assert gc.collect() == 0, f"{name} left cyclic garbage"
    finally:
        gc.enable()
