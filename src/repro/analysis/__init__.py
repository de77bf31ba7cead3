"""Coverage, detection metrics and profiling-based distribution learning.

Quantifies what the paper leaves qualitative: PFA-transition and
service-pair coverage of a pattern batch (:mod:`repro.analysis.coverage`),
fault-detection rates and times over seed sweeps
(:mod:`repro.analysis.metrics`), pattern-duplication statistics (the
future-work concern about replicated patterns), and learning transition
distributions from executed traces (:mod:`repro.analysis.profiling`).

The convergence names need numpy and scipy, so they load lazily (PEP
562) on first attribute access: rendering a campaign report imports
neither.
"""

from repro.analysis.coverage import (
    CoverageReport,
    pattern_transition_coverage,
    service_pair_coverage,
)
from repro.analysis.metrics import (
    DetectionStats,
    detection_sweep,
    duplication_rate,
    unique_pattern_fraction,
)
from repro.analysis.text_report import render_campaign, render_run, render_table
from repro.analysis.profiling import (
    learn_distribution_from_patterns,
    traces_from_result,
)

# Convergence name -> home module, resolved on first access so numpy
# and scipy stay off the report-rendering path.
_LAZY = {
    name: "repro.analysis.convergence"
    for name in (
        "ConvergencePoint",
        "align_states",
        "measure_convergence",
        "row_kl_divergence",
    )
}

__all__ = [
    "CoverageReport",
    "pattern_transition_coverage",
    "service_pair_coverage",
    "DetectionStats",
    "detection_sweep",
    "duplication_rate",
    "unique_pattern_fraction",
    "learn_distribution_from_patterns",
    "traces_from_result",
    "ConvergencePoint",
    "align_states",
    "measure_convergence",
    "row_kl_divergence",
    "render_campaign",
    "render_run",
    "render_table",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.analysis' has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
