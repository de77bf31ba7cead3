"""numpy stays off the campaign import path.

Sampling, merging, committing and detection are pure Python; numpy
serves only the paper's analysis modules (``repro.automata.analysis``,
``repro.automata.hmm``, ``repro.analysis.convergence``).  These tests
run campaigns in a fresh interpreter and check that neither it, its
pool workers, the server, the CLI nor its report renderer imports
numpy, and that the analysis names still resolve lazily from their
packages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = '''
import sys


def numpy_loaded():
    return "numpy" in sys.modules
'''

SCRIPT = '''
import json
import sys

from repro.ptest.pool import get_pool, shutdown_pools
from repro.ptest.spec import CampaignSpec, execute_spec

import probe

serial = execute_spec(CampaignSpec(scenario="philosophers", seeds=(0, 1)))
pooled = execute_spec(
    CampaignSpec(scenario="philosophers", seeds=(0, 1, 2, 3), workers=2)
)
worker_numpy = get_pool(2).submit(probe.numpy_loaded).result(timeout=120)
shutdown_pools()

import repro.analysis.text_report
import repro.cli
import repro.serve

report = {
    "serial_detections": serial.total_detections,
    "pooled_detections": pooled.total_detections,
    "parent_numpy": "numpy" in sys.modules,
    "worker_numpy": worker_numpy,
}

import repro.automata

report["all"] = list(repro.automata.__all__)
report["numpy_before_analysis"] = "numpy" in sys.modules
report["stationary"] = repro.automata.stationary_distribution.__module__
report["numpy_after_analysis"] = "numpy" in sys.modules
print(json.dumps(report))
'''

#: ``repro.automata.__all__`` as it stood while the analysis names were
#: imported eagerly; the lazy import must not change the public API.
AUTOMATA_ALL = [
    "Concat",
    "Empty",
    "Epsilon",
    "Literal",
    "Plus",
    "Optional_",
    "RegexNode",
    "Star",
    "Union",
    "parse_regex",
    "tokenize",
    "NFA",
    "NFABuilder",
    "regex_to_nfa",
    "DFA",
    "nfa_to_dfa",
    "minimize_dfa",
    "PFA",
    "Transition",
    "build_pfa",
    "pfa_from_regex",
    "TransitionDistribution",
    "normalize_weights",
    "uniform_distribution",
    "validate_distribution",
    "CompiledPFA",
    "PatternSampler",
    "SampledPattern",
    "sample_pattern",
    "estimate_distribution",
    "TraceCounter",
    "complete",
    "count_words_by_length",
    "distinguishing_word",
    "enumerate_words",
    "equivalent",
    "pfa_support_dfa",
    "expected_pattern_length",
    "reachable_states",
    "absorbing_states",
    "mean_entropy",
    "stationary_distribution",
    "string_probability",
    "transition_entropy",
    "transition_matrix",
]


def test_campaigns_serve_and_cli_never_import_numpy(tmp_path):
    (tmp_path / "probe.py").write_text(textwrap.dedent(PROBE))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(tmp_path), env.get("PYTHONPATH", "")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(SCRIPT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    # The campaigns really ran (philosophers deadlocks on every seed).
    assert report["serial_detections"] == 2
    assert report["pooled_detections"] == 4
    assert report["parent_numpy"] is False
    assert report["worker_numpy"] is False
    assert report["all"] == AUTOMATA_ALL
    # The analysis names still resolve from the package, on demand.
    assert report["numpy_before_analysis"] is False
    assert report["stationary"] == "repro.automata.analysis"
    assert report["numpy_after_analysis"] is True


def test_lazy_names_are_listed_and_unknown_names_raise():
    import repro.analysis
    import repro.automata

    assert set(AUTOMATA_ALL) <= set(dir(repro.automata))
    assert "measure_convergence" in dir(repro.analysis)
    for package in (repro.automata, repro.analysis):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")
