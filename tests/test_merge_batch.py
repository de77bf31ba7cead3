"""The merger's assembly and RNG-order contract, merge by merge.

:class:`~repro.ptest.merger.PatternMerger` promises that a merge is a
pure function of ``(op, seed, chunk, patterns)``: the op's order
function runs once against a fresh ``random.Random(seed)``, and the
merge walks that order, taking each pattern's next symbol.  These
tests sweep that promise over the full op × chunk × ragged-length
matrix (empty and singleton patterns included) against a reference
assembly written here, with independent orders for the deterministic
built-in ops, for every registered op, built-in or custom.  They then
cover the errors a bad order raises, the pattern data types (equality,
hashing, frozen surface, numpy-free pickles) and a merger reused over
many groups, which must equal one fresh merge per group.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.automata.compiled import CompiledPFA
from repro.automata.reference import LegacySampler
from repro.errors import ConfigError
from repro.ptest.generator import PatternGenerator
from repro.ptest.merger import (
    MERGE_OPS,
    PatternMerger,
    register_merge_op,
)
from repro.ptest.patterns import MergedPattern, PatternCommand, TestPattern
from repro.ptest.pcore_model import pcore_pfa

ALPHABET = ("TC", "TS", "TR", "TD", "TCH")

#: Ragged length profiles: all-empty, singleton, empty-mixed-with-long,
#: equal lengths, a wide spread, and a lone short pattern.
LENGTH_SETS = (
    (0,),
    (1,),
    (0, 4, 1),
    (6, 6),
    (5, 3, 0, 2, 7),
    (2,),
)

CHUNKS = (1, 3, 7)

MERGE_SEED = 97


def make_patterns(lengths) -> list[TestPattern]:
    """Eager patterns with deterministic, per-pattern-distinct symbols."""
    return [
        TestPattern(
            pattern_id=i,
            symbols=tuple(
                ALPHABET[(i * 3 + j) % len(ALPHABET)] for j in range(n)
            ),
            log_probability=-0.5 * i,
        )
        for i, n in enumerate(lengths)
    ]


def merged_equal(a: MergedPattern, b: MergedPattern) -> None:
    assert a == b
    assert a.commands == b.commands
    assert a.per_pattern_counts() == b.per_pattern_counts()
    assert a.describe() == b.describe()
    a.validate()
    b.validate()


def reference_order(op, patterns, seed, chunk) -> list[int]:
    """Independent orders for the deterministic built-in ops; any other
    op's own order function, run once against a fresh RNG."""
    lengths = [(p.pattern_id, len(p)) for p in patterns]
    if op == "burst":
        return [pid for pid, n in lengths for _ in range(n)]
    if op in ("round_robin", "cyclic"):
        step = 1 if op == "round_robin" else chunk
        order = []
        for start in range(0, max(n for _pid, n in lengths), step):
            for pid, n in lengths:
                order.extend([pid] * max(0, min(step, n - start)))
        return order
    return MERGE_OPS[op](patterns, random.Random(seed), chunk)


def reference_merge(op, patterns, seed, chunk) -> MergedPattern:
    symbols = {p.pattern_id: p.symbols for p in patterns}
    taken = {p.pattern_id: 0 for p in patterns}
    commands = []
    for position, pid in enumerate(
        reference_order(op, patterns, seed, chunk)
    ):
        taken[pid] += 1
        commands.append(
            PatternCommand(
                symbol=symbols[pid][taken[pid] - 1],
                pattern_id=pid,
                sequence_in_pattern=taken[pid],
                position=position,
            )
        )
    return MergedPattern(commands=commands, op=op, sources=list(patterns))


def _order_reversed_burst(patterns, rng, chunk):
    """Custom deterministic op: whole patterns, last source first."""
    del rng, chunk
    order = []
    for pattern in reversed(patterns):
        order.extend([pattern.pattern_id] * len(pattern))
    return order


def _order_rng_shuffled(patterns, rng, chunk):
    """Custom stochastic op: a round-robin order shuffled in place —
    consumes RNG draws, so the merge must run it on a fresh RNG."""
    del chunk
    order = []
    for pattern in patterns:
        order.extend([pattern.pattern_id] * len(pattern))
    rng.shuffle(order)
    return order


@pytest.fixture
def custom_ops():
    names = ("reversed_burst_test", "rng_shuffled_test")
    register_merge_op(names[0], _order_reversed_burst)
    register_merge_op(names[1], _order_rng_shuffled)
    yield names
    for name in names:
        MERGE_OPS.pop(name, None)


@pytest.fixture(scope="module")
def compiled() -> CompiledPFA:
    return CompiledPFA.from_pfa(pcore_pfa())


def assert_all_modes_match(op, chunk, lengths):
    """The merger reproduces the reference assembly bit for bit, and a
    second merger of the same configuration reproduces the first."""
    merged = PatternMerger(op=op, seed=MERGE_SEED, chunk=chunk).merge(
        make_patterns(lengths)
    )
    merged_equal(
        merged,
        reference_merge(op, make_patterns(lengths), MERGE_SEED, chunk),
    )
    assert merged.per_pattern_counts() == {
        pid: n for pid, n in enumerate(lengths) if n
    }
    again = PatternMerger(op=op, seed=MERGE_SEED, chunk=chunk).merge(
        make_patterns(lengths)
    )
    merged_equal(again, merged)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("lengths", LENGTH_SETS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("op", sorted(MERGE_OPS))
    def test_builtin_ops(self, op, chunk, lengths):
        assert_all_modes_match(op, chunk, lengths)

    @pytest.mark.parametrize("lengths", LENGTH_SETS)
    @pytest.mark.parametrize("which", [0, 1])
    def test_custom_ops_route_through_array_assembly(
        self, custom_ops, which, lengths
    ):
        assert_all_modes_match(custom_ops[which], 2, lengths)

    @pytest.mark.parametrize("op", ["round_robin", "cyclic", "burst"])
    def test_array_backed_inputs_merge_identically(self, compiled, op):
        """Patterns straight from generators sharing one compilation
        merge exactly like eager twins built from the reference
        sampler's draws."""
        seeds = (11, 12, 13, 14)
        generated = [
            PatternGenerator.from_pfa(compiled, seed=seed).generate(
                9, pattern_id=cell
            )
            for cell, seed in enumerate(seeds)
        ]
        eager = []
        for cell, seed in enumerate(seeds):
            symbols, states, log_probability, _restarts = LegacySampler(
                compiled.source, seed
            ).sample(9)
            eager.append(
                TestPattern(
                    pattern_id=cell,
                    symbols=symbols,
                    states=states,
                    log_probability=log_probability,
                )
            )
        assert generated == eager
        merger = PatternMerger(op=op, seed=MERGE_SEED, chunk=3)
        merged_equal(merger.merge(generated), merger.merge(eager))


class TestArrayPathErrors:
    """A bad order fails the same way whether the merger is seeded or
    draws its seed from entropy."""

    @pytest.mark.parametrize(
        "seed", [MERGE_SEED, None], ids=["scalar", "auto"]
    )
    def test_over_consuming_op_raises_on_both_paths(self, custom_ops, seed):
        del custom_ops

        def greedy(patterns, rng, chunk):
            del rng, chunk
            return [patterns[0].pattern_id] * (len(patterns[0]) + 1)

        register_merge_op("greedy_test", greedy)
        try:
            merger = PatternMerger(op="greedy_test", seed=seed)
            with pytest.raises(ConfigError, match="over-consumed"):
                merger.merge(make_patterns((3,)))
        finally:
            MERGE_OPS.pop("greedy_test", None)

    @pytest.mark.parametrize(
        "seed", [MERGE_SEED, None], ids=["scalar", "auto"]
    )
    def test_under_consuming_op_raises_on_both_paths(self, seed):
        def lazy(patterns, rng, chunk):
            del rng, chunk
            return [patterns[0].pattern_id] * (len(patterns[0]) - 1)

        register_merge_op("lazy_test", lazy)
        try:
            merger = PatternMerger(op="lazy_test", seed=seed)
            with pytest.raises(ConfigError, match="only merged"):
                merger.merge(make_patterns((3,)))
        finally:
            MERGE_OPS.pop("lazy_test", None)

    @pytest.mark.parametrize(
        "seed", [MERGE_SEED, None], ids=["scalar", "auto"]
    )
    def test_unknown_id_in_order_raises_on_both_paths(self, seed):
        def rogue(patterns, rng, chunk):
            del rng, chunk
            return [999] * len(patterns[0])

        register_merge_op("rogue_test", rogue)
        try:
            merger = PatternMerger(op="rogue_test", seed=seed)
            with pytest.raises(KeyError):
                merger.merge(make_patterns((2,)))
        finally:
            MERGE_OPS.pop("rogue_test", None)

    @pytest.mark.parametrize(
        "seed", [MERGE_SEED, None], ids=["scalar", "auto"]
    )
    def test_cyclic_chunk_validation_on_both_paths(self, seed):
        merger = PatternMerger(op="cyclic", chunk=0, seed=seed)
        with pytest.raises(ConfigError, match="chunk must be >= 1"):
            merger.merge(make_patterns((2, 2)))

    def test_empty_list_and_duplicate_ids_rejected(self):
        merger = PatternMerger()
        with pytest.raises(ConfigError, match="empty pattern list"):
            merger.merge([])
        twin = make_patterns((2,))[0]
        with pytest.raises(ConfigError, match="ids must be unique"):
            merger.merge([twin, twin])


class TestTestPatternArrayBacked:
    """A generated pattern and its eager twin built from the reference
    sampler's draw are interchangeable values."""

    def _twins(self):
        compiled = CompiledPFA.from_pfa(pcore_pfa())
        generated = PatternGenerator.from_pfa(compiled, seed=5).generate(
            6, pattern_id=3
        )
        symbols, states, log_probability, _restarts = LegacySampler(
            compiled.source, 5
        ).sample(6)
        eager = TestPattern(
            pattern_id=3,
            symbols=symbols,
            states=states,
            log_probability=log_probability,
        )
        return eager, generated

    def test_eq_hash_repr_match_eager_twin(self):
        eager, generated = self._twins()
        assert generated == eager
        assert hash(generated) == hash(eager)
        assert repr(generated) == repr(eager)
        assert generated.describe() == eager.describe()
        assert generated.subsequence_after(1) == eager.subsequence_after(1)
        assert len(generated) == len(eager.symbols)

    def test_pickle_is_numpy_free_and_round_trips(self):
        eager, generated = self._twins()
        payload = pickle.dumps(generated)
        assert b"numpy" not in payload
        clone = pickle.loads(payload)
        assert clone == eager
        assert type(clone.symbols) is tuple
        assert type(clone.states) is tuple

    def test_frozen_surface(self):
        _, generated = self._twins()
        with pytest.raises(Exception) as excinfo:
            generated.pattern_id = 9
        assert "cannot assign" in str(excinfo.value)
        with pytest.raises(Exception):
            del generated.pattern_id

    def test_negative_id_rejected_by_both_constructors(self):
        with pytest.raises(ConfigError, match=">= 0"):
            TestPattern(pattern_id=-1, symbols=("TC",))
        generator = PatternGenerator.from_pfa(pcore_pfa(), seed=1)
        with pytest.raises(ConfigError, match=">= 0"):
            generator.generate(3, pattern_id=-1)


class TestMergedPatternArrayBacked:
    def test_validate_eq_and_pickle(self):
        eager = PatternMerger().merge(make_patterns((2, 1)))
        rebuilt = PatternMerger().merge_symbols(
            [pattern.symbols for pattern in make_patterns((2, 1))]
        )
        rebuilt.validate()
        assert rebuilt.commands == eager.commands
        payload = pickle.dumps(eager)
        assert b"numpy" not in payload
        clone = pickle.loads(payload)
        assert clone == eager
        assert all(
            isinstance(c, PatternCommand) for c in clone.commands
        )


class TestMergeBatch:
    """One merger reused across many groups: every merge starts from a
    fresh RNG, so each result equals a lone merge of its group."""

    @pytest.mark.parametrize("op", ["cyclic", "random", "weighted"])
    def test_equals_independent_merges(self, op):
        groups = [make_patterns(lengths) for lengths in LENGTH_SETS]
        merger = PatternMerger(op=op, seed=MERGE_SEED, chunk=3)
        batched = [merger.merge(list(group)) for group in groups]
        assert len(batched) == len(groups)
        for group, got in zip(groups, batched):
            want = PatternMerger(op=op, seed=MERGE_SEED, chunk=3).merge(
                list(group)
            )
            merged_equal(got, want)

    def test_rng_draw_order_is_per_merge(self):
        """Two stochastic merges by one merger must not share draws:
        the second result is what a fresh seed produces, not a
        continuation of the first merge's stream."""
        group = make_patterns((4, 4))
        merger = PatternMerger(op="random", seed=5)
        first = merger.merge(make_patterns((4, 4)))
        second = merger.merge(make_patterns((4, 4)))
        lone = PatternMerger(op="random", seed=5).merge(group)
        assert first.commands == lone.commands
        assert second.commands == lone.commands


def test_rng_contract_documented_ops_consume_identically():
    """The RNG-order contract itself: a stochastic order run against a
    fresh Random(seed) leaves the RNG in the same state every time —
    proven by the next draw agreeing — and the merger's output follows
    that order."""
    patterns = make_patterns((3, 5, 2))
    for op in ("random", "weighted"):
        rng_first = random.Random(MERGE_SEED)
        order = MERGE_OPS[op](patterns, rng_first, 2)
        rng_again = random.Random(MERGE_SEED)
        assert MERGE_OPS[op](patterns, rng_again, 2) == order
        assert rng_first.random() == rng_again.random()
        merged = PatternMerger(op=op, seed=MERGE_SEED, chunk=2).merge(
            patterns
        )
        assert [c.pattern_id for c in merged.commands] == order
