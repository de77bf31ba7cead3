"""Finite automata used by pTest's pattern generator.

The pipeline mirrors Algorithm 2 of the paper:

1. parse a regular expression over *service symbols* into an AST
   (:mod:`repro.automata.regex_parser`),
2. compile the AST into a Thompson NFA (:mod:`repro.automata.nfa`),
3. determinise via subset construction (:mod:`repro.automata.dfa`),
4. attach a probability distribution to obtain a probabilistic
   finite-state automaton, Definition 1 of the paper
   (:mod:`repro.automata.pfa`),
5. sample symbol sequences from the PFA
   (:mod:`repro.automata.sampling`).

Supporting modules provide distribution utilities
(:mod:`repro.automata.distributions`), learning distributions from traces
(:mod:`repro.automata.learn`) and Markov-chain analysis of a PFA
(:mod:`repro.automata.analysis`).

Sampling is pure Python.  The analysis names need numpy, so they load
lazily (PEP 562) on first attribute access: importing this package —
and so running a campaign — never imports numpy.
"""

from repro.automata.regex_ast import (
    Concat,
    Empty,
    Epsilon,
    Literal,
    Plus,
    Optional_,
    RegexNode,
    Star,
    Union,
)
from repro.automata.regex_parser import parse_regex, tokenize
from repro.automata.nfa import NFA, NFABuilder, regex_to_nfa
from repro.automata.dfa import DFA, nfa_to_dfa, minimize_dfa
from repro.automata.pfa import PFA, Transition, build_pfa, pfa_from_regex
from repro.automata.distributions import (
    TransitionDistribution,
    normalize_weights,
    uniform_distribution,
    validate_distribution,
)
from repro.automata.compiled import CompiledPFA
from repro.automata.sampling import PatternSampler, SampledPattern, sample_pattern
from repro.automata.learn import estimate_distribution, TraceCounter
from repro.automata.operations import (
    complete,
    count_words_by_length,
    distinguishing_word,
    enumerate_words,
    equivalent,
    pfa_support_dfa,
)
# Markov-chain analysis name -> home module, resolved on first access
# so the numpy import stays off the sampling path.
_LAZY = {
    name: "repro.automata.analysis"
    for name in (
        "expected_pattern_length",
        "reachable_states",
        "absorbing_states",
        "mean_entropy",
        "stationary_distribution",
        "string_probability",
        "transition_entropy",
        "transition_matrix",
    )
}

__all__ = [
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


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.automata' has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
