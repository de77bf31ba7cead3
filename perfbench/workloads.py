"""The benchmark's three workloads, generated from the workload seed.

Each workload is a fixed list of ``CampaignSpec`` requests (the
program sees only these specs).  Cell seeds are drawn from a
``random.Random`` keyed on the workload name and the ``--seed``
argument, so one seed always yields the same specs and a second seed
yields different cells of the same shape and size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.ptest.spec import CampaignSpec


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> specs``: the request list one pass over the workload sends.
    build: Callable[[int], list[CampaignSpec]]
    #: True: requests go to a ``repro serve`` subprocess; False: serial,
    #: in-process ``execute_spec``.
    served: bool
    #: Closed-loop client count (each waits for its reply before sending).
    clients: int


def _draw(rng: random.Random, count: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2**31) for _ in range(count))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}")


def sim_compute_specs(seed: int) -> list[CampaignSpec]:
    """Compute-bound serial campaigns: 4 cycles of philosophers (op grid),
    clean_spin and priority_inversion (inheritance off/on); 80 cells."""
    rng = _rng("sim_compute", seed)
    specs = []
    for _cycle in range(4):
        specs.append(
            CampaignSpec(
                scenario="philosophers",
                grid={"op": ["cyclic", "round_robin", "burst"]},
                seeds=_draw(rng, 4),
            )
        )
        specs.append(CampaignSpec(scenario="clean_spin", seeds=_draw(rng, 4)))
        specs.append(
            CampaignSpec(
                scenario="priority_inversion",
                grid={"inheritance": [False, True]},
                seeds=_draw(rng, 2),
            )
        )
    return specs


def service_storm_specs(seed: int) -> list[CampaignSpec]:
    """Service-bound serial campaigns: 192 one-seed quicksort_stress runs
    with the leaking GC on, so every cell ends in a detected crash.  One
    seed a request gives a 10 s run ~480 requests, so p90 has ~48
    samples beyond it and lies in the body of the latency distribution,
    not at the edge of the ~3% of requests a gen-2 collection pause
    (~20 ms) lands in."""
    rng = _rng("service_storm", seed)
    return [
        CampaignSpec(
            scenario="quicksort_stress",
            params={"buggy_gc": True, "pattern_size": 10},
            seeds=_draw(rng, 1),
        )
        for _ in range(192)
    ]


def served_mix_specs(seed: int) -> list[CampaignSpec]:
    """Short pooled cells behind ``repro serve``: two rounds of an op-grid
    philosophers campaign, a faulty-grid producer_consumer campaign and
    a 3-round grid-zoom adapt over readers_writers, 8 seeds each."""
    rng = _rng("served_mix", seed)
    specs = []
    for _cycle in range(2):
        specs.append(
            CampaignSpec(
                scenario="philosophers",
                grid={"op": ["cyclic", "round_robin", "burst"]},
                seeds=_draw(rng, 8),
                workers=2,
            )
        )
        specs.append(
            CampaignSpec(
                scenario="producer_consumer",
                grid={"faulty": [False, True]},
                seeds=_draw(rng, 8),
                workers=2,
            )
        )
        specs.append(
            CampaignSpec(
                scenario="readers_writers",
                mode="adapt",
                params={"greedy": True},
                grid={"progress_window": [100, 200, 400, 800]},
                rounds=3,
                seeds=_draw(rng, 8),
                workers=2,
            )
        )
    return specs


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sim_compute", sim_compute_specs, served=False, clients=1),
        Workload("service_storm", service_storm_specs, served=False, clients=1),
        Workload("served_mix", served_mix_specs, served=True, clients=2),
    )
}


def serial(spec: CampaignSpec) -> CampaignSpec:
    """The same spec on the in-process path (rows are identical at any
    worker count, so a serial replay is a valid reference)."""
    return replace(spec, workers=1)
