"""Differential correctness subsystem (oracles, invariants, fuzzing).

Three layers, each usable on its own:

* :mod:`repro.qa.oracles` — small, obviously-correct pure-Python
  reference implementations of the paper's kernels;
* :mod:`repro.qa.invariants` — structural validators for every graph
  representation and shape checkers for algorithm results;
* :mod:`repro.qa.differential` — the seeded fuzz driver that runs every
  check once per corpus graph's CSR on each backend, compares against
  the oracles, and shrinks failures to minimal edge-list reproducers;
* :mod:`repro.qa.prefix` — the streaming prefix-differential driver
  that replays every batch prefix of crawler event streams through the
  incremental engine against full recomputation, shrinking failures to
  minimal ``.events`` reproducers.

CLI front door: ``python -m repro check --seed 0`` (add ``--stream``
for the prefix-differential harness).
"""

from repro.qa.invariants import (
    InvariantViolation,
    assert_valid,
    check_centrality,
    check_dendrogram,
    check_distances,
    check_forest,
    check_partition,
    validate,
)
from repro.qa.differential import (
    BACKENDS,
    CHECKS,
    FAULTS,
    CorpusGraph,
    Failure,
    Report,
    corpus,
    run_differential,
    shrink,
)
from repro.qa.prefix import (
    PREFIX_FAULTS,
    PrefixFailure,
    PrefixReport,
    check_events,
    event_stream,
    run_prefix_differential,
    shrink_events,
)

__all__ = [
    "InvariantViolation",
    "assert_valid",
    "validate",
    "check_partition",
    "check_centrality",
    "check_distances",
    "check_forest",
    "check_dendrogram",
    "BACKENDS",
    "CHECKS",
    "FAULTS",
    "CorpusGraph",
    "Failure",
    "Report",
    "corpus",
    "run_differential",
    "shrink",
    "PREFIX_FAULTS",
    "PrefixFailure",
    "PrefixReport",
    "check_events",
    "event_stream",
    "run_prefix_differential",
    "shrink_events",
]
