"""Constraint-driven repairs (FDs and denial constraints).

QOCO cleans a database through one *query*; the related work cleans
through *integrity constraints* — optimal repairs for functional
dependencies (Livshits, Kimelfeld & Roy) and SAT-based consistent query
answering over denial constraints (Dixit & Kolaitis).  This package
brings both constraint languages onto the machinery PRs 1-9 built:

* :mod:`repro.constraints.ast` — :class:`FD` (``R: X -> Y``) and
  :class:`DenialConstraint` (a forbidden conjunctive-query body);
* :mod:`repro.constraints.violations` — the detector: an FD is checked
  in one pass over the blocks of facts agreeing on its LHS, and a
  denial constraint runs as a boolean conjunctive query on any
  :class:`~repro.query.backend.EvalBackend` (columnar/SQL included);
* :mod:`repro.constraints.repair` — the candidate-repair enumerator:
  violations form a hypergraph over facts, minimal deletion repairs are
  its minimal hitting sets (:mod:`repro.hitting`), and FD violations
  additionally admit right-hand-side value updates;
* :mod:`repro.constraints.repairer` — :class:`OracleRepairer` drives
  repair selection through the oracle (ask which tuple of a violating
  pair is wrong, infer the partner, respect budgets), and
  :class:`ExhaustiveRepairer` is the ask-about-everything baseline the
  benchmark gate compares against.

See ``docs/constraints.md``.
"""

from .ast import FD, ConstraintError, DenialConstraint, parse_fd
from .repair import (
    CandidateRepair,
    RepairError,
    candidate_repairs,
    greedy_repair,
    minimal_deletion_repairs,
    violation_hypergraph,
)
from .repairer import (
    ExhaustiveRepairer,
    OracleRepairer,
    RepairBudget,
    RepairReport,
    repair,
)
from .violations import Violation, find_violations, satisfies, violation_queries

__all__ = [
    "CandidateRepair",
    "ConstraintError",
    "DenialConstraint",
    "ExhaustiveRepairer",
    "FD",
    "OracleRepairer",
    "RepairBudget",
    "RepairError",
    "RepairReport",
    "Violation",
    "candidate_repairs",
    "find_violations",
    "greedy_repair",
    "minimal_deletion_repairs",
    "parse_fd",
    "repair",
    "satisfies",
    "violation_hypergraph",
    "violation_queries",
]
