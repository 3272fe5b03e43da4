"""Correctness tooling for the simulated PGAS stack.

Two halves (DESIGN.md §9):

* **Dynamic sanitizer** (:mod:`repro.analyze.sanitizer`) — a run-time
  checker armed with :func:`sanitize_session`, off by default and
  near-zero-cost when off (the same NULL-object discipline as the
  tracer).  Three checkers share one happens-before engine:

  - a vector-clock **data-race detector** over :class:`SharedArray`
    element/block accesses,
  - a **privatization-legality** checker for ``bupc_cast`` pointers
    (affinity-boundary crossings, non-castable targets, stale pointers
    whose owner crashed under a fault plan),
  - a **collective/barrier-matching** checker (mismatched collective
    sequences, ``upc_notify``/``upc_wait`` misuse).

* **Static analyzer** (:mod:`repro.analyze.static`) — AST, control-flow
  and dataflow passes over the source tree with repo-specific rules
  (PGAS001-012), run as ``python -m repro.analyze.static`` (``--check``
  gates against the committed baseline; ``--no-flow`` keeps to the
  syntactic rules PGAS001-004/009).

This package must stay importable with the standard library alone (plus
:mod:`repro.obs`, which shares that constraint): the simulation kernel
imports :data:`NULL_SANITIZER` at module load.
"""

from repro.analyze.findings import Finding, render_findings
from repro.analyze.sanitizer import (
    NULL_SANITIZER,
    NullSanitizer,
    SanitizeSession,
    Sanitizer,
    active_sanitize_session,
    sanitize_session,
    sanitizer_for,
)

__all__ = [
    "Finding",
    "render_findings",
    "NULL_SANITIZER",
    "NullSanitizer",
    "Sanitizer",
    "SanitizeSession",
    "active_sanitize_session",
    "sanitize_session",
    "sanitizer_for",
]
