"""Sampling a batch of cells from one shared compilation.

A campaign's cells each walk the PFA with their own
:class:`~repro.automata.sampling.PatternSampler`, all sharing one
:class:`~repro.automata.compiled.CompiledPFA` (the pool workers cache
one per scenario).  Cell ``i`` must draw exactly what the legacy
dict-walking sampler of :mod:`repro.automata.reference` draws from
``seeds[i]`` — symbols, states, log-probability and restarts all
compare equal.  These tests sweep that promise over seed classes
(single-word, multi-word, negative, word-boundary), sizes, both
``on_final`` modes and multi-round continuations, then check that the
removed vectorized-sampling knob is rejected rather than ignored and
that campaign rows stay identical at every batch size.
"""

from __future__ import annotations

import pytest

from repro.automata.compiled import CompiledPFA
from repro.automata.reference import LegacySampler
from repro.automata.sampling import PatternSampler
from repro.ptest.campaign import Campaign
from repro.ptest.executor import CellExecutor
from repro.ptest.pcore_model import pcore_pfa
from repro.ptest.pool import shutdown_pools

#: One seed per interesting RNG-seeding class: zero, small positive,
#: small negative (a single 32-bit word), the 2**32 word boundary, a
#: two-word value, a negative multi-word value and a three-word value.
SEED_MATRIX = (
    0,
    1,
    -5,
    2**31,
    2**32,
    2**32 + 123,
    -(2**40 + 7),
    (1 << 96) + 17,
)


@pytest.fixture(scope="module")
def compiled() -> CompiledPFA:
    return CompiledPFA.from_pfa(pcore_pfa())


def cell_samplers(compiled, seeds, on_final="stop"):
    return [
        PatternSampler(compiled, seed=seed, on_final=on_final)
        for seed in seeds
    ]


def reference_samplers(compiled, seeds, on_final="stop"):
    return [
        LegacySampler(compiled.source, seed, on_final=on_final)
        for seed in seeds
    ]


def assert_patterns_equal(actual, expected):
    """``actual`` sampled patterns vs ``expected`` reference tuples."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert (
            got.symbols,
            got.states,
            got.log_probability,
            got.restarts,
        ) == want


class TestBitIdentity:
    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    @pytest.mark.parametrize("size", [1, 2, 7, 40])
    def test_matches_scalar_walks(self, compiled, on_final, size):
        cells = cell_samplers(compiled, SEED_MATRIX, on_final)
        references = reference_samplers(compiled, SEED_MATRIX, on_final)
        for _ in range(3):
            assert_patterns_equal(
                [cell.sample(size) for cell in cells],
                [reference.sample(size) for reference in references],
            )

    @pytest.mark.parametrize("on_final", ["stop", "restart"])
    def test_sample_many_continues_per_cell_streams(
        self, compiled, on_final
    ):
        seeds = SEED_MATRIX[:4]
        cells = cell_samplers(compiled, seeds, on_final)
        references = reference_samplers(compiled, seeds, on_final)
        many = [cell.sample_many(6, 8) for cell in cells]
        for drawn, reference in zip(many, references):
            assert_patterns_equal(
                drawn, [reference.sample(8) for _ in range(6)]
            )
        # The streams keep continuing after sample_many, too.
        assert_patterns_equal(
            [cell.sample(5) for cell in cells],
            [reference.sample(5) for reference in references],
        )

    def test_varying_sizes_across_rounds(self, compiled):
        seeds = (2**40 + 1, 3, -(2**33))
        cells = cell_samplers(compiled, seeds)
        references = reference_samplers(compiled, seeds)
        for size in (1, 12, 3, 40, 2):
            assert_patterns_equal(
                [cell.sample(size) for cell in cells],
                [reference.sample(size) for reference in references],
            )

    def test_accepts_plain_pfa_and_compiles_once(self):
        pfa = pcore_pfa()
        first = PatternSampler(pfa, seed=7)
        # A second cell reuses the first one's compilation as is.
        second = PatternSampler(first.compiled, seed=8)
        assert second.compiled is first.compiled
        assert first.compiled.source is pfa
        assert_patterns_equal(
            [first.sample(9), second.sample(9)],
            [
                LegacySampler(pfa, 7).sample(9),
                LegacySampler(pfa, 8).sample(9),
            ],
        )

    def test_none_seeds_run_but_are_not_replayable(self, compiled):
        # None cells get fresh entropy: nothing to compare bit for bit,
        # but the walks must still be valid prefix walks, and the
        # *seeded* cell in the same batch must stay on its stream.
        cells = cell_samplers(compiled, (None, 2**40 + 9, None))
        reference = LegacySampler(compiled.source, 2**40 + 9)
        for _ in range(2):
            drawn = [cell.sample(10) for cell in cells]
            assert_patterns_equal([drawn[1]], [reference.sample(10)])
            for pattern in drawn:
                assert 1 <= len(pattern.symbols) <= 10
                walk = compiled.source.walk_probability(pattern.symbols)
                assert walk > 0.0


class TestScalarFallback:
    """Sampling has one path; the knob that chose between two is gone
    and must fail loudly, never run as if it had been honoured."""

    def test_executor_rejects_explicit_batch_request(self):
        with pytest.raises(TypeError, match="batch_sampling"):
            CellExecutor(workers=2, batch_sampling=True)

    def test_campaign_rejects_explicit_batch_request(self):
        with pytest.raises(TypeError, match="batch_sampling"):
            Campaign(seeds=(0, 1), workers=2, batch_sampling=True)


class TestCampaignBitIdentity:
    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def _campaign(self, workers, batch_size=None):
        campaign = Campaign(
            seeds=(0, 1, 2), workers=workers, batch_size=batch_size
        )
        campaign.add_scenario("spin", "clean_spin", tasks=2, total_steps=40)
        campaign.add_scenario("phil", "philosophers", op="cyclic")
        return campaign

    def test_rows_identical_at_every_batch_setting(self):
        baseline = self._campaign(workers=1)
        rows = baseline.run()
        for workers, batch_size in [(2, None), (2, 1), (2, 4)]:
            campaign = self._campaign(workers, batch_size)
            assert campaign.run() == rows, (
                f"rows diverged at workers={workers}, "
                f"batch_size={batch_size}"
            )
            for variant in baseline.results:
                expected = baseline.results[variant]
                actual = campaign.results[variant]
                assert [r.patterns for r in actual] == [
                    r.patterns for r in expected
                ]
                assert [r.found_bug for r in actual] == [
                    r.found_bug for r in expected
                ]
                assert [
                    [a.kind for a in r.anomalies] for r in actual
                ] == [[a.kind for a in r.anomalies] for r in expected]
