"""Repo-specific static analysis for the storage stack.

The storage layers accumulate invariants the test suite can only check
probabilistically — deterministic crash-matrix write points, canonical
lock ordering, strict two-phase locking, cache-coherence drain order.
This package enforces them *mechanically*, the way
``repro.storage.integrity`` enforces the data-level invariants I1–I9:
an AST pass over the source tree with repo-specific rules (LF01–LF04,
LF06, LF08, LF09; see :mod:`repro.analysis.rules` for the table),
run by CI and by ``repro lint`` / ``python -m repro.analysis``.

Only the standard library is used (``ast``, ``argparse``, ``json``), so
the checker runs anywhere the code itself runs.
"""

from __future__ import annotations

from repro.analysis.core import Finding, Project, SourceModule, run_rules
from repro.analysis.main import main
from repro.analysis.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "Project",
    "SourceModule",
    "main",
    "rules_by_id",
    "run_rules",
]
