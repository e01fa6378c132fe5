"""Unit tests for the split strategies (Section 5.2)."""

import random

import pytest

from repro.core.registry import REGISTRY
from repro.core.split import (
    MinCutSplit,
    NaiveSplit,
    ProvenanceSplit,
    RandomSplit,
)
from repro.query.parser import parse_query
from repro.query.subquery import embed_answer, is_subquery
from repro.workloads import EX2

FOUR_ATOMS = parse_query(
    "q(x, y, z, w) :- r1(x, y), r2(y, z), r3(z, w), r4(z, v), z != x, w != x."
)


@pytest.fixture
def db(fig1_dirty):
    return fig1_dirty


class TestNaive:
    def test_never_splits(self, db, rng):
        assert NaiveSplit().split(FOUR_ATOMS, db, rng) == []
        assert not NaiveSplit().can_split(FOUR_ATOMS)


class TestRandom:
    def test_two_nonempty_sides(self, db, rng):
        for _ in range(10):
            parts = RandomSplit().split(FOUR_ATOMS, db, rng)
            assert len(parts) == 2
            assert all(len(p.atoms) >= 1 for p in parts)
            assert len(parts[0].atoms) + len(parts[1].atoms) == 4

    def test_single_atom_cannot_split(self, db, rng):
        q = parse_query("q(x) :- r1(x, y).")
        assert RandomSplit().split(q, db, rng) == []

    def test_sides_are_subqueries(self, db, rng):
        for part in RandomSplit().split(FOUR_ATOMS, db, rng):
            assert is_subquery(part, FOUR_ATOMS)


class TestMinCut:
    def test_splits_along_weak_edge(self, db, rng):
        # r4 connects only via z (weight 1+1); the bridge r2-r3 carries
        # z plus the z!=x inequality.  Check both sides non-empty and
        # every returned object a genuine subquery.
        parts = MinCutSplit().split(FOUR_ATOMS, db, rng)
        assert len(parts) == 2
        for part in parts:
            assert is_subquery(part, FOUR_ATOMS)

    def test_disconnected_query_splits_components(self, db, rng):
        q = parse_query("q(a, b) :- teams(a, c1), games(d, b, l, s, r).")
        parts = MinCutSplit().split(q, db, rng)
        atom_sets = {tuple(sorted(a.relation for a in p.atoms)) for p in parts}
        assert atom_sets == {("teams",), ("games",)}

    def test_deterministic(self, db):
        a = MinCutSplit().split(FOUR_ATOMS, db, random.Random(0))
        b = MinCutSplit().split(FOUR_ATOMS, db, random.Random(99))
        assert [p.atoms for p in a] == [p.atoms for p in b]


class TestProvenance:
    def test_splits_at_picky_join(self, db, rng):
        # EX2|Pirlo blocks at the teams atom on the Figure 1 instance.
        embedded = embed_answer(EX2, ("Andrea Pirlo",))
        parts = ProvenanceSplit().split(embedded, db, rng)
        assert len(parts) == 2
        relations = [tuple(a.relation for a in p.atoms) for p in parts]
        assert any("teams" in rels for rels in relations)

    def test_fallback_when_no_picky_join(self, db, rng):
        # A satisfiable query has no picky join; Provenance defers to the
        # fallback (Random) rather than refusing to split.
        q = parse_query('q(x) :- teams(x, c), games(d, x, l, s, r).')
        parts = ProvenanceSplit().split(q, db, rng)
        assert len(parts) == 2

    def test_custom_fallback_used(self, db, rng):
        class Marker(RandomSplit):
            called = False

            def split(self, query, database, rng):
                Marker.called = True
                return super().split(query, database, rng)

        q = parse_query('q(x) :- teams(x, c), games(d, x, l, s, r).')
        ProvenanceSplit(fallback=Marker()).split(q, db, rng)
        assert Marker.called


class TestRegistry:
    def test_all_strategies_registered(self):
        assert REGISTRY.names("split") == ["mincut", "naive", "provenance", "random"]

    def test_registry_instantiable(self, db, rng):
        q = parse_query('q(x) :- teams(x, c), games(d, x, l, s, r), goals(p, d).')
        for name in REGISTRY.names("split"):
            strategy = REGISTRY.resolve("split", name)
            parts = strategy.split(q, db, rng)
            assert isinstance(parts, list)
