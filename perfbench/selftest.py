"""The benchmark's own tests: small runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs with a one-second window, twice untraced on one
seed, once traced, and once on a second seed.  The tests check that
every metric ``BENCHMARK.json`` names is printed with its unit, that
the run digest repeats across invocations and across tracing on/off,
that the span wrappers are gone after a traced run, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def result(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = [line.rsplit("digest=", 1)[1] for line in lines if "digest=" in line]
    assert len(digests) == 1, proc.stdout
    return json.loads(lines[-1]), digests[0]


def check_result(payload: dict, metrics: list[dict]) -> None:
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["failed"] == 0
    assert payload["attempted"] >= 1
    printed = payload["metrics"]
    assert set(printed) == {m["name"] for m in metrics}
    for m in metrics:
        assert printed[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(printed[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run(workload):
    first, digest = result(workload, 1, 0)
    check_result(first, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert first["metrics"][m["name"]]["value"] > 0, m["name"]
    again, digest_again = result(workload, 1, 0)
    check_result(again, SPEC["end_to_end"])
    assert digest_again == digest, "same seed, different outcomes"
    traced, digest_traced = result(workload, 1, 1)
    check_result(traced, SPEC["per_layer"])
    assert digest_traced == digest, "tracing changed the outcomes"
    layer = {name: m["value"] for name, m in traced["metrics"].items()}
    assert layer["soc.ticks"] > 0 and layer["kernel.steps"] > 0
    assert layer["trace.overhead_ratio"] > 1.0
    # Corrected self times explain the tracing overhead: they sum to the
    # untraced wall to within half of it.
    overhead = layer["trace.overhead_ratio"] - 1.0
    assert abs(layer["trace.accounted_ratio"] - 1.0) <= 0.5 * overhead
    expected_spawns = 1 if workload == "served_mix" else 0
    assert layer["pool.spawns"] == expected_spawns
    other, digest_other = result(workload, 2, 0)
    check_result(other, SPEC["end_to_end"])
    assert digest_other != digest, "the seed did not reach the specs"


def test_wrappers_removed_after_trace():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spantrace import TARGETS, SpanTracer, originals, resolve

    from repro.ptest.spec import CampaignSpec, execute_spec

    before = originals()
    tracer = SpanTracer()
    with tracer:
        during = originals()
        assert all(during[name] is not before[name] for name in TARGETS)
        execute_spec(CampaignSpec(scenario="philosophers", seeds=(3,)))
    after = originals()
    assert all(after[name] is before[name] for name in TARGETS)
    for name in TARGETS:
        cls, attr = resolve(name)
        assert not hasattr(cls.__dict__[attr], "__wrapped__"), name
    assert tracer.calls("AdaptiveTest.run") == 1
    assert tracer.calls("DualCoreSoC.step") > 0


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
