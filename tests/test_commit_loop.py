"""The committer's commit loop against a deterministic echo bridge.

:class:`~repro.ptest.committer.Committer` walks a merged pattern's
:class:`~repro.ptest.patterns.PatternCommand` list by cursor.  These
tests pin that walk over the op × lockstep × noise × mailbox-stall
matrix without the simulated cores in the loop: every command issues
exactly once and in merged order, a full mailbox stalls and retries
the same command, an unknown symbol fails at the step that reaches it,
and the recorder's Definition 2 records carry the pattern's values.
Around it: worker-side batches and campaigns give the same rows as
direct runs at every merge op, with numpy unimportable too, and the
removed ``merge_batch`` knob is rejected rather than ignored.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.pcore.services import ServiceCode, ServiceResult, ServiceStatus
from repro.ptest.campaign import Campaign
from repro.ptest.committer import Committer
from repro.ptest.executor import CellExecutor
from repro.ptest.generator import PatternGenerator
from repro.ptest.merger import PatternMerger
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import (
    clear_worker_cache,
    make_batch_table,
    run_table_batch,
    shutdown_pools,
)
from repro.ptest.recording import ProcessStateRecorder, StateRecord
from repro.sim.trace import Tracer
from repro.workloads.registry import scenario_ref

SRC = Path(__file__).resolve().parent.parent / "src"


class EchoBridge:
    """Deterministic ``BridgeMaster`` stand-in for committer tests.

    Issued requests are answered ``OK`` after sitting ``reply_delay``
    extra pumps (0 = next step, like the real mailbox round trip); TC
    replies carry fresh tids so pair bindings evolve as in a real run.
    ``capacity`` bounds the in-flight mailbox, so a small value forces
    the committer's stall/retry path.
    """

    def __init__(
        self, capacity: int | None = None, reply_delay: int = 0
    ) -> None:
        self.capacity = capacity
        self.reply_delay = reply_delay
        self.now = 0
        self.outstanding: dict = {}
        self._pending: list = []  # [age, bound request]
        self._next_seq = 1
        self._next_tid = 1

    def issue(self, request):
        if (
            self.capacity is not None
            and len(self._pending) >= self.capacity
        ):
            return None
        sequence = self._next_seq
        self._next_seq += 1
        bound = replace(request, sequence=sequence)
        self.outstanding[sequence] = bound
        self._pending.append([0, bound])
        return sequence

    def pump(self) -> list:
        arrived = []
        keep = []
        for entry in self._pending:
            entry[0] += 1
            if entry[0] > self.reply_delay:
                bound = entry[1]
                value = None
                if bound.service is ServiceCode.TC:
                    value = self._next_tid
                    self._next_tid += 1
                del self.outstanding[bound.sequence]
                arrived.append(
                    ServiceResult(
                        request=bound,
                        status=ServiceStatus.OK,
                        value=value,
                        completed_at=self.now,
                    )
                )
            else:
                keep.append(entry)
        self._pending = keep
        return arrived


def build_merged(
    op: str,
    slot: int,
    per_merge: int = 4,
    size: int = 24,
    chunk: int = 3,
    merge_seed: int = 77,
) -> MergedPattern:
    """One deterministic merge of ``per_merge`` Fig. 5 walks."""
    generator = PatternGenerator.from_pfa(
        pcore_pfa(), seed=(1 << 40) + 7919 * slot, on_final="restart"
    )
    patterns = generator.generate_batch(per_merge, size)
    return PatternMerger(op=op, seed=merge_seed, chunk=chunk).merge(patterns)


def drive(
    merged: MergedPattern,
    bridge_kw: dict | None = None,
    lockstep: bool = True,
    noise_ticks: int = 0,
    recorder: ProcessStateRecorder | None = None,
    tracer: Tracer | None = None,
) -> Committer:
    committer = Committer(
        bridge=EchoBridge(**(bridge_kw or {})),
        merged=merged,
        recorder=recorder,
        tracer=tracer,
        lockstep=lockstep,
        noise_ticks=noise_ticks,
        noise_seed=13,
    )
    now = 0
    while not committer.is_halted():
        committer.step(now)
        now += 1
        assert now < 10_000, "commit loop failed to halt"
    return committer




def assert_walk_in_order(merged: MergedPattern, **drive_kw) -> Committer:
    """Drive ``merged`` and assert every command issued exactly once,
    in merged order, with each pair's record at its pattern's end."""
    recorder = ProcessStateRecorder()
    tracer = Tracer()
    committer = drive(merged, recorder=recorder, tracer=tracer, **drive_kw)
    commits = [
        event.payload
        for event in tracer.events
        if event.payload.get("event") == "commit"
    ]
    assert [c["position"] for c in commits] == list(range(len(merged)))
    assert [(c["symbol"], c["pair"]) for c in commits] == [
        (command.symbol, command.pattern_id) for command in merged
    ]
    assert committer.issued == committer.cursor == len(merged)
    assert len(committer.results) == committer.issued
    for pair, count in merged.per_pattern_counts().items():
        assert recorder.record(pair).sequence_number == count
    return committer


class TestColumnWalkEquivalence:
    """The committer's cursor walk vs the merged order it must follow."""

    @pytest.mark.parametrize("op", ["round_robin", "cyclic"])
    @pytest.mark.parametrize(
        "lockstep", [True, False], ids=["lockstep", "fire-and-forget"]
    )
    @pytest.mark.parametrize("noise_ticks", [0, 2], ids=["quiet", "noisy"])
    @pytest.mark.parametrize(
        "bridge_kw",
        [{}, {"capacity": 1, "reply_delay": 1}],
        ids=["roomy-mailbox", "stalling-mailbox"],
    )
    def test_matrix(self, op, lockstep, noise_ticks, bridge_kw):
        committer = assert_walk_in_order(
            build_merged(op, slot=5),
            bridge_kw=bridge_kw,
            lockstep=lockstep,
            noise_ticks=noise_ticks,
        )
        if bridge_kw and noise_ticks == 0:
            # The tight mailbox must actually exercise stall/retry.
            assert committer.stall_events > 0


class TestHandBuiltColumns:
    """Walks over hand-built merges, independent of the generator and
    the merger."""

    ALPHABET = ("TC", "TS", "TR", "TD")

    def _hand_built(self) -> MergedPattern:
        pattern_ids = [0, 1, 0, 1, 0, 1, 0, 1]
        sequences = [1, 1, 2, 2, 3, 3, 4, 4]
        commands = [
            PatternCommand(
                symbol=self.ALPHABET[sequence - 1],
                pattern_id=pattern_id,
                sequence_in_pattern=sequence,
                position=position,
            )
            for position, (pattern_id, sequence) in enumerate(
                zip(pattern_ids, sequences)
            )
        ]
        sources = [
            TestPattern(pattern_id=pair, symbols=self.ALPHABET)
            for pair in (0, 1)
        ]
        merged = MergedPattern(
            commands=commands, op="round_robin", sources=sources
        )
        merged.validate()
        return merged

    @pytest.mark.parametrize(
        "lockstep", [True, False], ids=["lockstep", "fire-and-forget"]
    )
    def test_walks_match(self, lockstep):
        assert_walk_in_order(self._hand_built(), lockstep=lockstep)

    def test_stall_retry_and_done_never_materialise(self):
        """A full mailbox stalls the walk; the stalled command is
        retried, never skipped or issued twice, and ``done`` holds only
        once every command has issued."""
        committer = assert_walk_in_order(
            self._hand_built(),
            bridge_kw={"capacity": 1, "reply_delay": 1},
            lockstep=False,
        )
        assert committer.stall_events > 0
        assert committer.done

    def test_unknown_symbol_raises_at_the_step_reached(self):
        source = TestPattern(pattern_id=0, symbols=("TC", "XQ"))
        merged = MergedPattern(
            commands=[
                PatternCommand("TC", 0, 1, 0),
                PatternCommand("XQ", 0, 2, 1),
            ],
            op="round_robin",
            sources=[source],
        )
        committer = Committer(
            bridge=EchoBridge(), merged=merged, lockstep=False
        )
        committer.step(0)  # the TC issues fine
        assert committer.issued == 1
        with pytest.raises(
            ConfigError, match="symbol 'XQ' is not a service"
        ):
            committer.step(1)


class TestRecorderLaziness:
    def test_lazy_record_equals_its_eager_twin(self):
        """The recorder's Definition 2 record equals one built by hand
        from the pattern and the noted states."""
        symbols = ("TC", "TS", "TR", "TD")
        recorder = ProcessStateRecorder()
        recorder.register_pair(TestPattern(pattern_id=0, symbols=symbols))
        recorder.note_issue(0, "m0.1")
        recorder.note_slave_state(0, "s:ready")
        record = recorder.record(0)
        eager = StateRecord(
            pair_id=0,
            master_state="m0.1",
            slave_state="s:ready",
            pattern=symbols,
            sequence_number=1,
            remaining=("TS", "TR", "TD"),
        )
        assert record == eager
        assert hash(record) == hash(eager)
        assert record.describe() == eager.describe()
        assert recorder.snapshot() == [eager]


def _worker_table():
    refs = [scenario_ref("clean_spin", tasks=2, total_steps=40)] * 4 + [
        scenario_ref("philosophers", op=op)
        for op in ("cyclic", "round_robin", "random")
    ]
    seeds = [0, 1, 2, 3, 10, 11, 12]
    return refs, seeds


#: Runs one worker-side batch in a fresh interpreter where importing
#: numpy fails, and writes the pickled rows to stdout.
NUMPY_BLOCKED = '''
import pickle
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())

from repro.ptest.pool import make_batch_table, run_table_batch
from repro.workloads.registry import scenario_ref

refs = [scenario_ref("clean_spin", tasks=2, total_steps=40)] * 4 + [
    scenario_ref("philosophers", op=op)
    for op in ("cyclic", "round_robin", "random")
]
table, jobs = make_batch_table(refs, [0, 1, 2, 3, 10, 11, 12])
rows = run_table_batch(table, jobs)
assert "numpy" not in sys.modules
sys.stdout.buffer.write(pickle.dumps(rows))
'''


class TestWorkerMergeBatch:
    """`run_table_batch`, the worker-side merge-and-run, in process."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_worker_cache()
        yield
        clear_worker_cache()

    def test_rows_identical_across_merge_batch_settings(self):
        """Worker batches equal direct runs, cold cache and warm, and
        whatever the merge op of each cell."""
        refs, seeds = _worker_table()
        direct = [ref(seed).run() for ref, seed in zip(refs, seeds)]
        table, jobs = make_batch_table(refs, seeds)
        assert len(table) == 4  # the clean_spin ref deduplicates
        cold = run_table_batch(table, jobs)
        assert cold == direct
        assert run_table_batch(table, jobs) == cold

    def test_rows_identical_with_numpy_masked(self):
        """End to end across the whole pipeline: sampling, merging and
        committing in an interpreter that cannot import numpy give the
        same rows bit for bit."""
        refs, seeds = _worker_table()
        table, jobs = make_batch_table(refs, seeds)
        expected = run_table_batch(table, jobs)
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(NUMPY_BLOCKED)],
            capture_output=True,
            env={"PYTHONPATH": str(SRC), "PATH": ""},
            timeout=300,
            check=False,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert pickle.loads(done.stdout) == expected

    def test_executor_rejects_explicit_merge_batch(self):
        with pytest.raises(TypeError, match="merge_batch"):
            CellExecutor(workers=2, merge_batch=True)


class TestCampaignMergeBatchIdentity:
    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def _campaign(self, workers):
        campaign = Campaign(seeds=(0, 1, 2), workers=workers)
        campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
        campaign.add_grid(
            "phil", "philosophers", {"op": ("cyclic", "round_robin", "random")}
        )
        return campaign

    def test_rows_identical_at_every_merge_setting(self):
        baseline = self._campaign(workers=1)
        rows = baseline.run()
        assert len(rows) == 4  # spin + one row per merge op
        campaign = self._campaign(workers=2)
        assert campaign.run() == rows
        for variant in baseline.results:
            expected = baseline.results[variant]
            actual = campaign.results[variant]
            assert [r.found_bug for r in actual] == [
                r.found_bug for r in expected
            ]
            assert [
                [a.kind for a in r.anomalies] for r in actual
            ] == [[a.kind for a in r.anomalies] for r in expected]
