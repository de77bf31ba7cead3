"""Outside-in span tracer over the layers' public methods.

:class:`SpanTracer` replaces a fixed set of methods with timing
wrappers for the duration of a ``with`` block and puts the originals
back afterwards (checked by identity), so untraced runs execute the
program's own code objects and carry no wrapper cost.  Nothing in
``src/`` is changed.

Each wrapped call is a span with a parent (the innermost enclosing
wrapped call).  Spans are aggregated in memory per ``(parent, name)``
edge as ``[calls, total_s, self_s, wrapper_s]``; :meth:`write` dumps
the table at the end of the run.  The same wrappers count the work each
layer did and classify every simulated tick (the tick census).

Self time is the span's duration minus everything its child calls cost,
wrapper included.  A wrapper clocks its own bookkeeping and hooks
around the child's timed span, and :func:`calibrate` measures, on a
wrapped no-op, the part of a wrapper call those clocks cannot see (the
extra call frame) and the clock cost inside a timed span.  Both are
taken out of the self times, so the summed self times estimate the time
the same calls take untraced.  What the calibration misses stays in the
self times; the traced run measures it against the untraced wall.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: ``"Class.method"`` span name -> module, for every wrapped method.
TARGETS = {
    "ScenarioRegistry.build": "repro.workloads.registry",
    "AdaptiveTest.run": "repro.ptest.harness",
    "PatternGenerator.generate_batch": "repro.ptest.generator",
    "PatternMerger.merge": "repro.ptest.merger",
    "DualCoreSoC.step": "repro.sim.soc",
    "Committer.step": "repro.ptest.committer",
    "BridgeMaster.issue": "repro.bridge.bridge",
    "BridgeMaster.pump": "repro.bridge.bridge",
    "SlaveBridgeAdapter.step": "repro.bridge.bridge",
    "PCoreKernel.step": "repro.pcore.kernel",
    "PCoreKernel.execute_service": "repro.pcore.kernel",
    "BugDetector.sweep": "repro.ptest.detector",
    "ProcessStateRecorder.note_slave_state": "repro.ptest.recording",
    "Tracer.record": "repro.sim.trace",
}

#: Self-time metrics: each sums the self time of its spans.  Every
#: wrapped span belongs to exactly one metric, so the metrics add up to
#: the time spent inside wrapped calls.
SELF_TIME = {
    "soc.self_s": ("DualCoreSoC.step",),
    "bridge.self_s": (
        "SlaveBridgeAdapter.step",
        "BridgeMaster.issue",
        "BridgeMaster.pump",
    ),
    "kernel.self_s": ("PCoreKernel.step",),
    "kernel.service_s": ("PCoreKernel.execute_service",),
    "committer.self_s": ("Committer.step",),
    "generator.s": ("PatternGenerator.generate_batch",),
    "merger.s": ("PatternMerger.merge",),
    "recorder.s": ("ProcessStateRecorder.note_slave_state",),
    "detector.sweep_s": ("BugDetector.sweep",),
    "tracer.record_s": ("Tracer.record",),
    "harness.self_s": ("AdaptiveTest.run", "ScenarioRegistry.build"),
}

# Tick census flags, set by the inner wrappers during one SoC step.  A
# tick is a service tick when ``execute_service`` ran, idle when the
# kernel did no work, and compute-only when the kernel's work was one
# unit of the running task's ``Compute`` and no mailbox message moved.
_SERVICE = 1
_KERNEL_WORKED = 2
_COMPUTE = 4


def resolve(name: str):
    cls_name, attr = name.split(".")
    return getattr(importlib.import_module(TARGETS[name]), cls_name), attr


def originals() -> dict[str, object]:
    """The current class attribute behind every target, by span name."""
    found = {}
    for name in TARGETS:
        cls, attr = resolve(name)
        found[name] = cls.__dict__[attr]
    return found


class SpanTracer:
    """Install with ``with tracer:``; read :meth:`metrics` afterwards."""

    def __init__(self, hidden_s: float | None = None, bias_s: float = 0.0) -> None:
        if hidden_s is None:
            hidden_s, bias_s = calibrate()
        #: Per wrapped call: wrapper cost outside its own clocks, and
        #: clock cost inside the timed span (see :func:`calibrate`).
        self.hidden_s = hidden_s
        self.bias_s = bias_s
        self.spans: dict[tuple[str | None, str], list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._flags = [0]
        self._installed: list[tuple[type, str, object, object]] = []

    # -- install / restore --------------------------------------------

    def __enter__(self) -> "SpanTracer":
        from repro.pcore.tcb import TaskState

        counts = self.counts
        flags = self._flags
        running = TaskState.RUNNING

        def traffic(soc) -> int:
            slave = soc.slave
            command, reply = slave.command_box, slave.reply_box
            return command.posted + command.delivered + reply.posted + reply.delivered

        def soc_before(soc):
            flags[0] = 0
            return traffic(soc)

        def soc_after(soc, traffic_before, _worked) -> None:
            tick = flags[0]
            if tick & _SERVICE:
                counts["tick.service"] += 1
            elif not tick & _KERNEL_WORKED:
                counts["tick.idle"] += 1
            elif tick & _COMPUTE and traffic(soc) == traffic_before:
                counts["tick.compute_only"] += 1

        def kernel_before(kernel):
            task = kernel.scheduler.current
            if task is not None and task.state is running:
                return task, task.compute_remaining
            return None

        def kernel_after(_kernel, before, worked) -> None:
            if not worked:
                counts["kernel.idle_steps"] += 1
                return
            flags[0] |= _KERNEL_WORKED
            if before is not None:
                task, remaining = before
                if remaining > 0 and task.compute_remaining == remaining - 1:
                    flags[0] |= _COMPUTE

        def service_after(_kernel, _before, _result) -> None:
            flags[0] |= _SERVICE

        def committer_before(committer):
            return committer.issued, committer.stall_events

        def committer_after(committer, before, _worked) -> None:
            counts["committer.issued"] += committer.issued - before[0]
            counts["committer.stalls"] += committer.stall_events - before[1]

        def sized(key):
            def after(_obj, _before, result) -> None:
                counts[key] += len(result)

            return after

        hooks = {
            "DualCoreSoC.step": (soc_before, soc_after),
            "PCoreKernel.step": (kernel_before, kernel_after),
            "PCoreKernel.execute_service": (None, service_after),
            "Committer.step": (committer_before, committer_after),
            "PatternGenerator.generate_batch": (None, sized("generator.patterns")),
            "PatternMerger.merge": (None, sized("merger.symbols")),
        }
        try:
            for name in TARGETS:
                self._wrap(name, *hooks.get(name, (None, None)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original method back and check it by identity."""
        while self._installed:
            cls, attr, original, wrapper = self._installed.pop()
            if cls.__dict__[attr] is not wrapper:
                raise RuntimeError(f"{cls.__name__}.{attr} was replaced while traced")
            setattr(cls, attr, original)
            if cls.__dict__[attr] is not original:
                raise RuntimeError(f"{cls.__name__}.{attr} was not restored")

    def _wrap(self, name: str, before, after) -> None:
        cls, attr = resolve(name)
        original = cls.__dict__[attr]
        wrapper = self.wrapper(name, original, before, after)
        setattr(cls, attr, wrapper)
        self._installed.append((cls, attr, original, wrapper))

    def wrapper(self, name: str, original, before=None, after=None):
        """A timing wrapper around ``original`` that books its span."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        hidden = self.hidden_s
        bias = self.bias_s

        def wrapper(obj, *args, **kwargs):
            entry = clock()
            state = before(obj) if before is not None else None
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(obj, *args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                key = (parent[0] if parent is not None else None, name)
                row = spans.get(key)
                if row is None:
                    row = spans[key] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1] - bias
            if after is not None:
                after(obj, state, result)
            # Everything this call cost the caller, measured plus hidden.
            gross = clock() - entry + hidden
            row[3] += gross - duration + bias
            if parent is not None:
                parent[1] += gross
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- results --------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(entry[0] for (_p, n), entry in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(entry[2] for (_p, n), entry in self.spans.items() if n == name)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per replay pass (``passes`` traced passes)."""
        counts = self.counts
        values = {
            metric: sum(self.self_s(name) for name in names) / passes
            for metric, names in SELF_TIME.items()
        }
        ticks = self.calls("DualCoreSoC.step")
        steps = self.calls("PCoreKernel.step")
        attempts = counts["committer.issued"] + counts["committer.stalls"]
        values.update(
            {
                "soc.ticks": ticks / passes,
                "kernel.steps": steps / passes,
                "kernel.idle_ratio": counts["kernel.idle_steps"] / max(steps, 1),
                "kernel.services": self.calls("PCoreKernel.execute_service") / passes,
                "tick.compute_only_ratio": counts["tick.compute_only"] / max(ticks, 1),
                "tick.service_ratio": counts["tick.service"] / max(ticks, 1),
                "tick.idle_ratio": counts["tick.idle"] / max(ticks, 1),
                "committer.issued": counts["committer.issued"] / passes,
                "committer.stall_ratio": counts["committer.stalls"] / max(attempts, 1),
                "generator.patterns": counts["generator.patterns"] / passes,
                "merger.symbols": counts["merger.symbols"] / passes,
                "recorder.notes": self.calls("ProcessStateRecorder.note_slave_state")
                / passes,
                "detector.sweeps": self.calls("BugDetector.sweep") / passes,
                "tracer.events": self.calls("Tracer.record") / passes,
            }
        )
        return values

    def accounted_s(self) -> float:
        """Total self time of every span: the time the wrapped calls
        would take untraced."""
        return sum(entry[2] for entry in self.spans.values())

    def wrapper_s(self) -> float:
        """Total estimated cost of the wrappers themselves."""
        return sum(entry[3] for entry in self.spans.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"parent": parent, "name": name, "calls": calls, "total_s": total,
             "self_s": own, "wrapper_s": cost}
            for (parent, name), (calls, total, own, cost) in sorted(
                self.spans.items(), key=lambda item: -item[1][2]
            )
        ]
        table = {
            "spans": rows,
            "counts": dict(self.counts),
            "calibration": {"hidden_s": self.hidden_s, "bias_s": self.bias_s},
        }
        path.write_text(json.dumps(table, indent=1) + "\n")


class _Probe:
    def noop(self) -> None:
        return None


def calibrate(calls: int = 50_000, repeats: int = 7) -> tuple[float, float]:
    """``(hidden_s, bias_s)`` per wrapped call, from a wrapped no-op.

    ``hidden_s`` is what a wrapper call costs its caller beyond what
    the wrapper's own clocks measure (the extra call frame, argument
    packing, the outer halves of the entry and exit clock calls).
    ``bias_s`` is the clock cost that falls inside a timed span beyond
    the call it times.  Each loop is timed ``repeats`` times and the
    fastest kept, which is the least disturbed by the host.
    """
    probe = _Probe()
    clock = time.perf_counter

    def per_call(body) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = clock()
            body()
            best = min(best, (clock() - start) / calls)
        return best

    def empty() -> None:
        for _ in range(calls):
            pass

    def call() -> None:
        for _ in range(calls):
            probe.noop()

    loop = per_call(empty)
    plain = per_call(call)
    tracer = SpanTracer(hidden_s=0.0)
    tracer._stack.append(["calibrate", 0.0])  # nested, like every real span
    original = _Probe.__dict__["noop"]
    _Probe.noop = tracer.wrapper("noop", original)
    try:
        best = float("inf")
        for _ in range(repeats):
            tracer.spans.clear()
            start = clock()
            call()
            wrapped = (clock() - start) / calls
            if wrapped < best:
                best = wrapped
                calls_, total, _own, cost = tracer.spans[("calibrate", "noop")]
                duration, measured = total / calls_, (total + cost) / calls_
    finally:
        _Probe.noop = original
    hidden = max(best - loop - measured, 0.0)
    bias = max(duration - (plain - loop), 0.0)
    return hidden, bias
