"""Query split strategies (Section 5.2).

``Split()`` is "the heart of" the insertion algorithm: it breaks a query
into two subqueries whose assignments over the (mostly clean) database
become candidate partial assignments for the missing witness.

* :class:`NaiveSplit`      — never splits (upper-bound baseline).
* :class:`RandomSplit`     — random bipartition of the body atoms.
* :class:`MinCutSplit`     — global min cut of the weighted query graph
  (Figure 2 left), keeping strongly connected variables together.
* :class:`ProvenanceSplit` — splits at the picky join reported by the
  WhyNot?-style analysis (Figure 2 right).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..db.database import Database
from ..mincut.stoer_wagner import minimum_cut
from ..provenance.whynot import find_picky_join
from ..query.ast import Query
from ..query.graph import build_query_graph
from ..query.subquery import split_by_partition
from .registry import REGISTRY


class SplitStrategy(ABC):
    """Produces two subqueries from a query with >= 2 body atoms."""

    name: str = "abstract"

    @abstractmethod
    def split(
        self, query: Query, database: Database, rng: random.Random
    ) -> list[Query]:
        """The subqueries to enqueue (empty when splitting is disabled)."""

    def can_split(self, query: Query) -> bool:
        return len(query.atoms) > 1


class NaiveSplit(SplitStrategy):
    """No splitting: the algorithm falls straight through to asking the
    crowd for a whole witness — the Figure 3b upper bound."""

    name = "Naive"

    def split(self, query: Query, database: Database, rng: random.Random) -> list[Query]:
        return []

    def can_split(self, query: Query) -> bool:
        return False


class RandomSplit(SplitStrategy):
    """Uniformly random bipartition with both sides non-empty."""

    name = "Random"

    def split(self, query: Query, database: Database, rng: random.Random) -> list[Query]:
        n = len(query.atoms)
        if n < 2:
            return []
        while True:
            left = [i for i in range(n) if rng.random() < 0.5]
            if 0 < len(left) < n:
                break
        first, second = split_by_partition(query, left)
        return [first, second]


class MinCutSplit(SplitStrategy):
    """Split along a global minimum cut of the query graph.

    Edge weights count shared variables plus shared inequalities, so the
    cut minimizes the number of variables that end up straddling the two
    subqueries and the inequalities lost to the split.
    """

    name = "MinCut"

    def split(self, query: Query, database: Database, rng: random.Random) -> list[Query]:
        n = len(query.atoms)
        if n < 2:
            return []
        graph = build_query_graph(query)
        edges = {(u, v): float(w) for u, v, w in graph.edges()}
        _, side_a, _ = minimum_cut(list(range(n)), edges)
        left = sorted(side_a)
        first, second = split_by_partition(query, left)
        return [first, second]


class ProvenanceSplit(SplitStrategy):
    """Split at the picky join found by the WhyNot? analysis.

    The left side is a maximal satisfiable prefix of a left-deep plan
    over the database, so it is guaranteed to have candidate assignments
    — the property that makes this the paper's best performer.
    """

    name = "Provenance"

    def __init__(self, fallback: SplitStrategy | None = None) -> None:
        self.fallback = fallback if fallback is not None else RandomSplit()

    def split(self, query: Query, database: Database, rng: random.Random) -> list[Query]:
        n = len(query.atoms)
        if n < 2:
            return []
        picky = find_picky_join(query, database)
        if not picky.right or len(picky.left) == n:
            # No picky operator (or everything blocked): defer to fallback.
            return self.fallback.split(query, database, rng)
        first, second = split_by_partition(query, list(picky.left))
        return [first, second]


# String-name resolution (QOCOConfig(split="mincut"), the experiment
# harness, wire configs, the planner's arm table) goes through the
# unified strategy registry.
REGISTRY.register("split", "naive", NaiveSplit)
REGISTRY.register("split", "random", RandomSplit)
REGISTRY.register("split", "mincut", MinCutSplit)
REGISTRY.register("split", "provenance", ProvenanceSplit)
