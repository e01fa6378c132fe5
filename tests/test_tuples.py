"""Unit tests for repro.db.tuples."""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.db.tuples import Fact, fact, facts

SRC = Path(__file__).resolve().parents[1] / "src"


class TestFact:
    def test_construction_and_str(self):
        f = fact("teams", "GER", "EU")
        assert f.relation == "teams"
        assert f.values == ("GER", "EU")
        assert str(f) == "teams(GER, EU)"

    def test_arity(self):
        assert fact("r", 1, 2, 3).arity == 3

    def test_hashable_and_equal(self):
        assert fact("r", 1) == Fact("r", (1,))
        assert {fact("r", 1), Fact("r", (1,))} == {fact("r", 1)}

    def test_ordering(self):
        assert fact("a", 1) < fact("b", 1)
        assert fact("a", 1) < fact("a", 2)

    def test_list_values_coerced_to_tuple(self):
        f = Fact("r", [1, 2])  # type: ignore[arg-type]
        assert isinstance(f.values, tuple)
        assert hash(f)  # hashable after coercion

    def test_replace(self):
        f = fact("teams", "GER", "EU")
        g = f.replace(1, "SA")
        assert g == fact("teams", "GER", "SA")
        assert f == fact("teams", "GER", "EU")  # original untouched

    def test_replace_out_of_range(self):
        with pytest.raises(IndexError):
            fact("r", 1).replace(5, 2)

    def test_mixed_value_types(self):
        f = fact("players", "Pele", 1940)
        assert f.values == ("Pele", 1940)


class TestFactsHelper:
    def test_facts_builds_rows(self):
        rows = facts("teams", [("GER", "EU"), ("BRA", "SA")])
        assert rows == [fact("teams", "GER", "EU"), fact("teams", "BRA", "SA")]

    def test_facts_empty(self):
        assert facts("r", []) == []


def _run(code: str, hash_seed: int, *args: str) -> None:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


_DUMP = """
    import pickle, sys
    from repro.db.database import Database
    from repro.db.schema import RelationSchema, Schema
    from repro.db.tuples import fact

    schema = Schema([RelationSchema("teams", ("team", "continent"))])
    ger, bra = fact("teams", "GER", "EU"), fact("teams", "BRA", "SA")
    payload = (ger, {ger, bra}, Database(schema, [ger, bra]), hash(ger))
    with open(sys.argv[1], "wb") as out:
        pickle.dump(payload, out)
"""

_LOAD = """
    import copy, pickle, sys
    from repro.db.tuples import fact

    with open(sys.argv[1], "rb") as src:
        loaded = pickle.load(src)
    for single, group, database, dumped_hash in (loaded, copy.deepcopy(loaded)):
        ger, bra = fact("teams", "GER", "EU"), fact("teams", "BRA", "SA")
        # the dumping process salted str hashes differently
        assert hash(ger) != dumped_hash
        for f in (single, *group, *database.facts("teams")):
            assert hash(f) == hash((f.relation, f.values)), f
        assert single == ger and hash(single) == hash(ger)
        assert ger in group and bra in group
        assert ger in database and bra in database
        assert database.facts("teams") == {ger, bra}
"""


class TestHashAcrossProcesses:
    """A fact caches its hash, and Python salts ``str`` hashes per
    process: a fact rebuilt elsewhere must hash as that process does."""

    def test_pickle_rehashes_under_another_seed(self, tmp_path):
        path = str(tmp_path / "facts.pickle")
        _run(_DUMP, 0, path)
        _run(_LOAD, 1, path)

    def test_copies_recompute_the_hash(self):
        f = fact("teams", "GER", "EU")
        object.__setattr__(f, "_hash", hash(f) ^ 1)  # as if from elsewhere
        for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert copied == f
            assert hash(copied) == hash(("teams", ("GER", "EU")))

    def test_hash_is_the_tuple_hash(self):
        f = fact("games", "13.07.2014", "GER", "ARG", "Final", 1)
        assert hash(f) == hash(("games", ("13.07.2014", "GER", "ARG", "Final", 1)))
        assert "_hash" not in repr(f)
