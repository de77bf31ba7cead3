"""Golden-digest differential test of the simulator's observable output.

Every registered scenario (plus the philosophers merge-op grid, the
ordered control and priority inheritance on/off) runs at four seeds.
Each run is reduced to one sha256 over everything a user can see of
it: the ``TestRunResult`` counters, the ``BugReport`` (state records,
task dump, trace tail, panic, wait-for DOT), the tracer's event count
plus its last 60 events, and the kernel's final step counters and task
table.  The digests in
``tests/data/golden_digests.json`` were recorded from the tick-by-tick
step loop before its per-tick fast paths landed, so this test is the
differential check of those fast paths against the code they replaced.

Regenerating the data file defeats the test; only do it for a change
that is *meant* to alter simulated behaviour, and say so in the change
log::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.baselines.random_tester import RandomTester, uniform_noise_pfa
from repro.ptest.harness import AdaptiveTest
from repro.workloads.registry import build_scenario, scenario_names

DATA = Path(__file__).parent / "data" / "golden_digests.json"
SEEDS = (0, 1, 2, 7)
TRACE_TAIL = 60


def variants() -> list[tuple[str, dict]]:
    """Every registered scenario at its defaults, plus the extra
    parameter points; duplicates of a default are dropped."""
    points = [(name, {}) for name in scenario_names()]
    ops = ("round_robin", "burst", "random")
    points += [("philosophers", {"op": op}) for op in ops]
    points += [("philosophers", {"ordered": True})]
    points += [("priority_inversion", {"inheritance": True})]
    return points


def case_id(name: str, params: dict, seed: int) -> str:
    rendered = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
    return f"{name}[{rendered}]@{seed}"


def cases() -> list[tuple[str, str, dict, int]]:
    return [
        (case_id(name, params, seed), name, params, seed)
        for name, params in variants()
        for seed in SEEDS
    ]


def _as_test(built) -> AdaptiveTest:
    """The ``AdaptiveTest`` a built scenario runs, so its tracer is
    reachable (``RandomTester`` builds one internally)."""
    if isinstance(built, RandomTester):
        return AdaptiveTest(
            config=built.config,
            programs=built.programs,
            pfa=uniform_noise_pfa(built.config.alphabet),
            setup=built.setup,
        )
    return built


def _report_fields(report) -> dict | None:
    if report is None:
        return None
    return {
        "found_at": report.found_at,
        "merged_position": report.merged_position,
        "state_records": [r.describe() for r in report.state_records],
        "task_dump": report.task_dump,
        "trace_tail": report.trace_tail,
        "panic": report.kernel_panic,
        "wait_for_dot": report.wait_for_dot,
    }


def observed(name: str, params: dict, seed: int) -> dict:
    """Everything observable about one run, as plain JSON values."""
    test = _as_test(build_scenario(name, seed, **params))
    kernels = []
    setup = test.setup

    def capture(kernel) -> None:
        kernels.append(kernel)
        if setup is not None:
            setup(kernel)

    test.setup = capture
    result = test.run()
    (kernel,) = kernels
    tracer = test.tracer
    return {
        "anomalies": [a.describe() for a in result.anomalies],
        "ticks": result.ticks,
        "rounds": result.rounds,
        "commands": [
            result.commands_issued,
            result.commands_completed,
            result.commands_failed,
        ],
        "stalls": result.command_stalls,
        "services": sorted(result.service_counts.items()),
        "patterns": result.patterns,
        "merged_length": result.merged_length,
        "wait_deltas": result.wait_deltas,
        "report": _report_fields(result.report),
        "trace_recorded": tracer.recorded,
        "trace_tail": tracer.dump(tracer.tail(TRACE_TAIL)),
        "kernel": [
            kernel.steps,
            kernel.idle_steps,
            kernel.context_switches,
            kernel.scheduler.dispatches,
            kernel.scheduler.preemptions,
            kernel.gc.collected,
            kernel.gc.leaked_bytes,
        ],
        "tasks": [
            [
                task.describe(),
                task.last_progress,
                task.compute_remaining,
                task.wakeup_at,
            ]
            for task in kernel.tasks.values()
        ],
    }


def digest(name: str, params: dict, seed: int) -> str:
    payload = json.dumps(observed(name, params, seed), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_golden_data_covers_every_case():
    golden = json.loads(DATA.read_text())
    assert sorted(golden) == sorted(case for case, *_ in cases())
    assert len(golden) == 56


@pytest.mark.parametrize(
    "case,name,params,seed", cases(), ids=[case for case, *_ in cases()]
)
def test_digest_matches_golden(case, name, params, seed):
    golden = json.loads(DATA.read_text())
    assert digest(name, params, seed) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    table = {case: digest(name, params, seed) for case, name, params, seed in cases()}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DATA}")
