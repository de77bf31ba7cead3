#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the pTest stack.

Run from the repository root::

    python3 perfbench/run.py --workload sim_compute --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``sim_compute`` and
``service_storm`` drive ``execute_spec`` serially in this process;
``served_mix`` drives a ``repro serve`` subprocess through
``repro.client.Client`` from two closed-loop client threads.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it times the served path from
client frames and the ``status`` op, the same specs on the in-process
path, and serial replays of the specs with and without the span
wrappers of ``spantrace.py``, giving the per-layer metrics and the
tracing overhead.

Every execution is checked: its rounds (``round_to_dict`` payloads) and
summed simulated ticks must digest to the reference execution of the
same spec, remote outcomes must equal the direct in-process outcome,
and a quarantined cell or an ``error`` frame counts as a failure.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh set-ups per run whose median is ``setup_s`` (a server start
#: costs more than a process start, so served runs take fewer).
SERIAL_SETUPS = 5
SERVED_SETUPS = 3
#: Untraced/traced replay pass pairs per traced run (at most).
MAX_REPLAY_PAIRS = 3
#: A run of the benchmark's own length must leave this many requests
#: beyond p90, so that p90 is not read off a handful of samples.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MIN_BEYOND_P90 = 10
#: Largest share of the tracing overhead that the corrected self times
#: may leave unexplained.  Uncorrected self times leave nearly all of it.
ACCOUNTING_SHARE = 0.5


class _FirstCell(Exception):
    pass


@dataclass
class Execution:
    """One checked execution of a spec: what the digest is made of."""

    rounds: tuple
    ticks: int
    events: list
    seconds: float

    @property
    def cells(self) -> int:
        return len(self.events)

    @cached_property
    def digest(self) -> str:
        return digest(self.rounds, self.ticks)


class TickSink:
    """Result sink counting cells and simulated ticks, in cell order."""

    def __init__(self) -> None:
        self.ticks = 0
        self.events: list[tuple] = []

    def accept(self, cell, result) -> None:
        self.ticks += result.ticks
        kind = result.report.primary.kind.value if result.found_bug else None
        self.events.append((cell.variant, cell.seed, result.found_bug, kind))


def quarantined(rounds) -> bool:
    return any(r.quarantine is not None and r.quarantine.cells for r in rounds)


def digest(rounds, ticks: int) -> str:
    from repro.ptest.spec import round_to_dict

    payload = json.dumps([round_to_dict(r) for r in rounds], sort_keys=True)
    return hashlib.sha256(f"{payload}|{ticks}".encode()).hexdigest()


def execute(spec) -> Execution:
    from repro.ptest.spec import execute_spec

    sink = TickSink()
    start = time.perf_counter()
    outcome = execute_spec(spec, sink)
    seconds = time.perf_counter() - start
    return Execution(outcome.rounds, sink.ticks, sink.events, seconds)


def p90(values: list[float]) -> float:
    """The 90th percentile, as ``statistics.quantiles`` cuts it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


class Checks:
    """Operations attempted and failed, plus named structural checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.broken: list[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.broken.append(what)
            print(f"perfbench: CHECK FAILED {what}", file=sys.stderr)

    def execution(self, run: Execution, ref: Execution, what: str) -> None:
        self.operation(
            run.digest == ref.digest and not quarantined(run.rounds),
            f"{what}: digest",
        )

    def remote(self, request, ref: Execution, what: str) -> None:
        ok = (
            request.error is None
            and tuple(request.rounds) == ref.rounds
            and request.cells == ref.events
            and not quarantined(request.rounds)
        )
        self.operation(ok, f"{what}: {request.error or 'outcome differs from direct'}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_digest(refs: list[Execution]) -> str:
    return hashlib.sha256("\n".join(r.digest for r in refs).encode()).hexdigest()


# -- set-up ---------------------------------------------------------------


def setup_probe(workload, seed: int) -> int:
    """Child side of a serial set-up sample: print ``ready`` once the
    first warm-up cell is done."""
    from repro.ptest.spec import execute_spec

    class FirstCell:
        def accept(self, cell, result) -> None:
            raise _FirstCell

    try:
        execute_spec(workload.build(seed)[0], FirstCell())
    except _FirstCell:
        print("ready", flush=True)
        return 0
    return 1


def serial_setup(name: str, seed: int, samples: int) -> list[float]:
    """Fresh processes, each timed from spawn to its first cell done:
    interpreter start, imports, registry load and the first build."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return times


def served_setup(specs, samples: int):
    """Fresh servers, each timed from spawn to its first request done
    (server start, imports, pool spawn).  The last one stays up."""
    from served import Server, send

    times, firsts = [], []
    server = None
    for index in range(samples):
        if server is not None:
            server.close()
        start = time.perf_counter()
        server = Server(ROOT)
        try:
            with server.client() as client:
                firsts.append(send(client, specs[0], 0))
        except BaseException:
            server.kill()
            raise
        times.append(time.perf_counter() - start)
    return times, firsts, server


# -- end-to-end run (--trace 0) -------------------------------------------


def serial_loop(specs, seconds: float):
    """One in-process client: execute the specs in turn until time is up."""
    runs = []
    start = time.perf_counter()
    deadline = start + seconds
    while not runs or time.perf_counter() < deadline:
        spec_index = len(runs) % len(specs)
        runs.append((spec_index, execute(specs[spec_index])))
    return runs, time.perf_counter() - start


def end_to_end(workload, seed: int, seconds: float, checks: Checks):
    specs = workload.build(seed)
    if not workload.served:
        setup = serial_setup(workload.name, seed, SERIAL_SETUPS)
        refs = [execute(spec) for spec in specs]  # untimed: warm-up and references
        for index, ref in enumerate(refs):
            checks.operation(
                not quarantined(ref.rounds), f"reference {index}: quarantine"
            )
        runs, elapsed = serial_loop(specs, seconds)
        for spec_index, run in runs:
            checks.execution(run, refs[spec_index], f"request {spec_index}")
        latencies = [run.seconds * 1000.0 for _i, run in runs]
        cells = sum(run.cells for _i, run in runs)
        ticks = sum(run.ticks for _i, run in runs)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from served import closed_loop, send

        from repro.ptest.pool import shutdown_pools

        setup, firsts, server = served_setup(specs, SERVED_SETUPS)
        try:
            with server.client() as client:
                warm = [send(client, spec, i) for i, spec in enumerate(specs)]
            requests, elapsed = closed_loop(server, specs, workload.clients, seconds)
            with server.client() as client:
                status = client.status()
            peak_rss = server.peak_rss_mb()
        finally:
            server.close()
        check_spawns(status, specs, checks)
        try:
            refs = [execute(spec) for spec in specs]  # direct, same specs
        finally:
            shutdown_pools()
        for request in firsts + warm + requests:
            checks.remote(request, refs[request.index], f"request {request.index}")
        latencies = [request.ms for request in requests]
        cells = sum(len(request.cells) for request in requests)
        ticks = sum(refs[request.index].ticks for request in requests)
    tail = p90(latencies)
    beyond = sum(ms > tail for ms in latencies)
    print(
        f"perfbench: {len(latencies)} requests in {elapsed:.3f} s, "
        f"{beyond} beyond p90; setup samples {[round(s, 4) for s in setup]}"
    )
    if seconds >= RUN_SECONDS:
        checks.require(beyond >= MIN_BEYOND_P90, f"{MIN_BEYOND_P90} samples beyond p90")
    return refs, {
        "cells_per_s": metric(cells / elapsed, "cells/s"),
        "sim_ticks_per_s": metric(ticks / elapsed, "ticks/s"),
        "requests_per_s": metric(len(latencies) / elapsed, "req/s"),
        "request_ms_p50": metric(statistics.median(latencies), "ms"),
        "request_ms_p90": metric(tail, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss, "MiB"),
    }


def check_spawns(status: dict, specs, checks: Checks) -> int:
    """One pool per worker count per server process: pooled specs must
    leave exactly one pool spawned once; serial specs none."""
    spawns = sum(pool["spawns"] for pool in status["pools"])
    expected = 1 if any(spec.workers > 1 for spec in specs) else 0
    checks.require(spawns == expected, f"pool.spawns == {expected} (got {spawns})")
    return spawns


# -- traced run (--trace 1) -----------------------------------------------


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def traced(workload, seed: int, seconds: float, checks: Checks):
    from served import Server, closed_loop, send
    from spantrace import SpanTracer, originals
    from workloads import serial

    from repro.ptest.pool import shutdown_pools

    specs = workload.build(seed)
    # 1. The served path, timed from client frames.
    server = Server(ROOT)
    try:
        with server.client() as client:
            warm = [send(client, spec, i) for i, spec in enumerate(specs)]
        requests, _elapsed = closed_loop(
            server, specs, workload.clients, max(1.0, seconds / 4)
        )
        with server.client() as client:
            status = client.status()
    finally:
        server.close()
    spawns = check_spawns(status, specs, checks)
    # 2. The same specs through in-process execute_spec, warm.
    try:
        refs = [execute(spec) for spec in specs]
        direct = [execute(spec) for spec in specs]
    finally:
        shutdown_pools()
    for run, ref in zip(direct, refs):
        checks.execution(run, ref, "direct re-execution")
    for request in warm + requests:
        checks.remote(request, refs[request.index], f"request {request.index}")
    direct_ms = [run.seconds * 1000.0 for run in direct]
    # 3. Serial replays.  Each spec runs untraced, then traced, back to
    # back, so host drift falls on both sides alike.
    replay_specs = [serial(spec) for spec in specs]
    before = originals()
    tracer = SpanTracer()
    plain_s = traced_s = 0.0
    passes = 0
    started = time.perf_counter()
    while passes < MAX_REPLAY_PAIRS and (
        passes == 0 or time.perf_counter() - started < seconds / 2
    ):
        for spec, ref in zip(replay_specs, refs):
            run = execute(spec)
            plain_s += run.seconds
            checks.execution(run, ref, "untraced replay")
            with tracer:
                run = execute(spec)
            traced_s += run.seconds
            checks.execution(run, ref, "traced replay")
        passes += 1
    after = originals()
    checks.require(
        all(after[name] is before[name] for name in before),
        "wrappers removed after the traced run",
    )
    ticks = sum(ref.ticks for ref in refs)
    checks.require(
        tracer.calls("DualCoreSoC.step") == passes * ticks,
        "traced SoC steps equal the simulated ticks",
    )
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
    layer = tracer.metrics(passes)
    overhead = traced_s / plain_s
    accounted = tracer.accounted_s() / plain_s
    print(
        f"perfbench: traced {passes} replay pass(es); overhead x{overhead:.3f}; "
        f"wrapper cost {tracer.wrapper_s() / traced_s:.1%} of traced wall "
        f"({tracer.hidden_s * 1e9:.0f} ns hidden + {tracer.bias_s * 1e9:.0f} ns "
        f"in-span per call); corrected self times sum to {accounted:.1%} "
        f"of untraced wall"
    )
    # The corrected self times must explain the tracing overhead: what
    # they miss of the untraced wall is at most a share of the overhead.
    checks.require(
        abs(accounted - 1.0) <= ACCOUNTING_SHARE * (overhead - 1.0),
        f"self times within {ACCOUNTING_SHARE:.0%} of the tracing overhead",
    )
    metrics = {name: metric(value, layer_unit(name)) for name, value in layer.items()}
    overhead_ms = [r.ms - direct_ms[r.index] for r in requests]
    cell_requests = [r for r in requests if r.first_cell is not None]
    metrics.update(
        {
            "pool.spawns": metric(spawns, "count"),
            "executor.direct_ms": metric(statistics.median(direct_ms), "ms"),
            "serve.overhead_ms": metric(statistics.median(overhead_ms), "ms"),
            "serve.accept_ms": metric(
                statistics.median((r.accepted - r.send) * 1000.0 for r in requests),
                "ms",
            ),
            "serve.first_cell_ms": metric(
                statistics.median(
                    (r.first_cell - r.accepted) * 1000.0 for r in cell_requests
                ),
                "ms",
            ),
            "serve.tail_ms": metric(
                statistics.median(
                    (r.done - r.last_cell) * 1000.0 for r in cell_requests
                ),
                "ms",
            ),
            "serve.queued_ratio": metric(
                sum(r.queued for r in requests) / len(requests), "ratio"
            ),
            "trace.overhead_ratio": metric(overhead, "ratio"),
            "trace.accounted_ratio": metric(accounted, "ratio"),
        }
    )
    return refs, metrics


# -- entry point ----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        return setup_probe(workload, args.seed)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    checks = Checks()
    run = traced if args.trace else end_to_end
    refs, metrics = run(workload, args.seed, args.seconds, checks)
    print(
        f"perfbench: workload={workload.name} seed={args.seed} "
        f"digest={run_digest(refs)}"
    )
    result = {
        "correct": checks.failed == 0 and not checks.broken,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
