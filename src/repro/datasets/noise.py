"""Controlled noise injection (Section 7.2 parameters).

The paper dirties the cleaned Soccer ground truth along two axes:

* **degree of data cleanliness** — ``|D ∩ D_G| / (|D| + |D_G − D|)``,
  varied 60%..95%, default 80%;
* **noise skewness** — ``|D − D_G| / (|D − D_G| + |D_G − D|)``, i.e. the
  share of the noise that is *false* tuples (vs. missing true tuples).

:func:`make_dirty` realizes exact (cleanliness, skewness) targets by
solving for the number of facts to fabricate (F) and to remove (M).
:func:`inject_result_errors` instead plants an exact number of wrong and
missing *answers* for a given query (the knob behind Figures 3d-3f),
fabricating plausible witnesses by mutating real ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..db.database import Database
from ..db.tuples import Constant, Fact
from ..query.ast import Query, Var
from ..query.evaluator import Answer, Evaluator, instantiate_head, witness_of


class NoiseError(RuntimeError):
    """Raised when a noise target cannot be realized."""


@dataclass(frozen=True)
class NoiseSpec:
    """Target noise levels; defaults are the paper's."""

    cleanliness: float = 0.8
    skewness: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.cleanliness <= 1.0:
            raise ValueError(f"cleanliness {self.cleanliness} outside (0, 1]")
        if not 0.0 <= self.skewness <= 1.0:
            raise ValueError(f"skewness {self.skewness} outside [0, 1]")

    def counts(self, ground_truth_size: int) -> tuple[int, int]:
        """``(false_count, missing_count)`` realizing the targets.

        Derivation: with ``G = |D_G|``, ``T = G - M`` true facts kept,
        cleanliness ``c = T / (G + F)`` and skewness ``s = F / (F + M)``.
        """
        g = ground_truth_size
        c, s = self.cleanliness, self.skewness
        if s >= 1.0:
            missing = 0
            false = round(g * (1 - c) / c)
        elif s <= 0.0:
            false = 0
            missing = round(g * (1 - c))
        else:
            missing = round(g * (1 - c) * (1 - s) / (1 - s + c * s))
            false = round(s / (1 - s) * missing)
        return false, missing


def measure_cleanliness(dirty: Database, ground_truth: Database) -> float:
    """``|D ∩ D_G| / (|D| + |D_G − D|)`` of an actual instance pair."""
    true_kept = sum(1 for f in dirty if f in ground_truth)
    missing = sum(1 for f in ground_truth if f not in dirty)
    return true_kept / (len(dirty) + missing)


def measure_skewness(dirty: Database, ground_truth: Database) -> float:
    """``|D − D_G| / (|D − D_G| + |D_G − D|)``; 1.0 for a clean pair."""
    false = sum(1 for f in dirty if f not in ground_truth)
    missing = sum(1 for f in ground_truth if f not in dirty)
    total = false + missing
    return false / total if total else 1.0


def measure_result_cleanliness(dirty: Database, ground_truth: Database, query) -> float:
    """§7.2's third knob: ``|Q(D) ∩ Q(D_G)| / (|Q(D)| + |Q(D_G) − Q(D)|)``."""
    dirty_answers = Evaluator(query, dirty).answers()
    true_answers = Evaluator(query, ground_truth).answers()
    numerator = len(dirty_answers & true_answers)
    denominator = len(dirty_answers) + len(true_answers - dirty_answers)
    return numerator / denominator if denominator else 1.0


def fabricate_fact(
    ground_truth: Database,
    forbidden: set[Fact],
    rng: random.Random,
    relation: str | None = None,
    max_tries: int = 200,
) -> Fact:
    """A plausible false fact: a real fact with one value swapped for
    another value of the same column, absent from D_G and *forbidden*."""
    facts = sorted(ground_truth, key=repr) if relation is None else sorted(
        ground_truth.facts(relation), key=repr
    )
    return _Fabricator(ground_truth, facts).fabricate(forbidden, rng, max_tries)


class _Fabricator:
    """:func:`fabricate_fact`'s draws over candidate *facts* already
    sorted by ``repr``, each column's sorted active domain built at most
    once: fabricating many facts sorts nothing twice, and the rng draws
    are the same as one :func:`fabricate_fact` call per fact."""

    def __init__(self, ground_truth: Database, facts: list[Fact]) -> None:
        self.ground_truth = ground_truth
        self.facts = facts
        self._domains: dict[tuple[str, int], list[Constant]] = {}

    def _domain(self, relation: str, position: int) -> list[Constant]:
        domain = self._domains.get((relation, position))
        if domain is None:
            domain = self._domains[relation, position] = sorted(
                self.ground_truth.active_domain(relation, position)
            )
        return domain

    def fabricate(
        self, forbidden: set[Fact], rng: random.Random, max_tries: int = 200
    ) -> Fact:
        if not self.facts:
            raise NoiseError("cannot fabricate from an empty relation")
        for _ in range(max_tries):
            base = rng.choice(self.facts)
            position = rng.randrange(base.arity)
            value = base.values[position]
            pool = [v for v in self._domain(base.relation, position) if v != value]
            if not pool:
                continue
            candidate = base.replace(position, rng.choice(pool))
            if candidate not in self.ground_truth and candidate not in forbidden:
                return candidate
        raise NoiseError("exhausted attempts to fabricate a false fact")


def make_dirty(
    ground_truth: Database,
    spec: NoiseSpec | None = None,
    rng: random.Random | None = None,
    protected: set[Fact] | None = None,
) -> Database:
    """A dirty copy of *ground_truth* hitting the spec's noise targets.

    *protected* facts are never removed (useful to keep auxiliary
    classification relations intact, as the paper's noise targets the
    scraped data rather than static reference tables).
    """
    spec = spec if spec is not None else NoiseSpec()
    rng = rng if rng is not None else random.Random()
    protected = protected if protected is not None else set()

    false_count, missing_count = spec.counts(len(ground_truth))
    dirty = ground_truth.copy()

    ordered = sorted(ground_truth, key=repr)
    removable = [f for f in ordered if f not in protected]
    if missing_count > len(removable):
        raise NoiseError(
            f"cannot remove {missing_count} facts; only {len(removable)} removable"
        )
    for fact in rng.sample(removable, missing_count):
        dirty.delete(fact)

    fabricator = _Fabricator(ground_truth, ordered)
    added: set[Fact] = set()
    for _ in range(false_count):
        fake = fabricator.fabricate(added, rng)
        added.add(fake)
        dirty.insert(fake)
    return dirty


# ---------------------------------------------------------------------------
# per-query result errors (Figures 3d-3f)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultErrors:
    """What :func:`inject_result_errors` actually achieved."""

    dirty: Database
    wrong_answers: frozenset
    missing_answers: frozenset


def inject_result_errors(
    ground_truth: Database,
    query: Query,
    n_wrong: int,
    n_missing: int,
    rng: random.Random | None = None,
    max_tries: int = 400,
) -> ResultErrors:
    """Dirty the database so ``Q(D)`` has exact numbers of wrong and
    missing answers.

    Missing answers are created by deleting a greedy hitting set of each
    victim answer's witnesses; wrong answers by re-binding a head
    variable of a real witness to a value that yields an answer outside
    ``Q(D_G)`` and inserting the mutated facts.
    """
    rng = rng if rng is not None else random.Random()
    dirty = ground_truth.copy()
    true_answers = Evaluator(query, ground_truth).answers()
    if n_missing > len(true_answers):
        raise NoiseError(
            f"query has only {len(true_answers)} true answers; "
            f"cannot make {n_missing} missing"
        )

    _remove_answers(dirty, query, true_answers, n_missing, rng)
    _add_wrong_answers(dirty, ground_truth, query, true_answers, n_wrong, rng, max_tries)

    final = Evaluator(query, dirty).answers()
    return ResultErrors(
        dirty=dirty,
        wrong_answers=frozenset(final - true_answers),
        missing_answers=frozenset(true_answers - final),
    )


def _remove_answers(
    dirty: Database,
    query: Query,
    true_answers: set[Answer],
    n_missing: int,
    rng: random.Random,
) -> None:
    from ..hitting.hitting_set import greedy_hitting_set

    if n_missing <= 0:
        return
    # Victims with few witnesses first: removing them needs fewer fact
    # deletions.  Within a victim we delete a frequency-greedy hitting
    # set of its witnesses — typically one shared fact (a team's Teams
    # tuple, say) kills all witnesses at once, which is exactly the
    # paper's missing-data scenario (Example 5.4: Teams(ITA, EU) missing
    # makes every Italian player disappear from the output).
    evaluator = Evaluator(query, dirty)
    candidates = sorted(true_answers, key=repr)
    rng.shuffle(candidates)
    candidates.sort(key=lambda a: len(evaluator.witnesses(a)))
    for victim in candidates:
        missing_now = true_answers - Evaluator(query, dirty).answers()
        if len(missing_now) >= n_missing:
            break
        witnesses = Evaluator(query, dirty).witnesses(victim)
        if not witnesses:
            continue  # already gone as a side effect of an earlier removal
        for fact in greedy_hitting_set([frozenset(w) for w in witnesses]):
            dirty.delete(fact)


def _add_wrong_answers(
    dirty: Database,
    ground_truth: Database,
    query: Query,
    true_answers: set[Answer],
    n_wrong: int,
    rng: random.Random,
    max_tries: int,
) -> None:
    head_vars = [t for t in query.head if isinstance(t, Var)]
    if n_wrong > 0 and not head_vars:
        raise NoiseError("cannot fabricate wrong answers for a boolean query")
    base_assignments = list(Evaluator(query, ground_truth).assignments())
    if n_wrong > 0 and not base_assignments:
        raise NoiseError("query has no true witnesses to mutate")

    created: set[Answer] = set()
    missing_target = true_answers - Evaluator(query, dirty).answers()
    tries = 0
    while len(created) < n_wrong:
        tries += 1
        if tries > max_tries:
            raise NoiseError(
                f"could not fabricate {n_wrong} wrong answers "
                f"(made {len(created)} in {max_tries} tries)"
            )
        base = dict(rng.choice(base_assignments))
        variable = rng.choice(head_vars)
        # Replacement pool: values this variable takes in some column.
        pool = _variable_domain(ground_truth, query, variable)
        pool.discard(base[variable])
        if not pool:
            continue
        base[variable] = rng.choice(sorted(pool, key=repr))
        if not all(e.holds(base) for e in query.inequalities):
            continue
        answer = instantiate_head(query, base)
        if answer in true_answers or answer in created:
            continue
        # Insert the mutated witness facts tentatively; reject mutations
        # whose facts conspire to create *additional* wrong answers, so
        # the requested count is hit exactly.
        inserted = [
            fact for fact in witness_of(query, base) if fact not in dirty
        ]
        for fact in inserted:
            dirty.insert(fact)
        answers_now = Evaluator(query, dirty).answers()
        wrong_now = answers_now - true_answers
        missing_now = true_answers - answers_now
        # Reject mutations that create extra wrong answers or resurrect
        # answers we deliberately made missing.
        if wrong_now != created | {answer} or missing_now != missing_target:
            for fact in inserted:
                dirty.delete(fact)
            continue
        created.add(answer)


def _variable_domain(
    database: Database, query: Query, variable: Var
) -> set[Constant]:
    values: set[Constant] = set()
    for atom in query.atoms:
        for position, term in enumerate(atom.terms):
            if term == variable:
                values |= database.active_domain(atom.relation, position)
    return values
