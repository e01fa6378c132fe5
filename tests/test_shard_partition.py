"""Unit tests for blocking-key partitioning (`repro.shard.partition`)."""

from __future__ import annotations

import zlib

import pytest

from repro.datasets.worldcup import (
    WorldCupConfig,
    worldcup_database,
    worldcup_partition_spec,
    worldcup_years,
)
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.durability.codec import canonical_json
from repro.query.parser import parse_query
from repro.shard import (
    KeySpec,
    PartitionSpec,
    ShardingError,
    payload_to_database,
    shard_of_key,
)

SCHEMA = Schema(
    [
        RelationSchema("m", ("k", "x")),
        RelationSchema("lab", ("x", "y")),
    ]
)

SPEC = PartitionSpec((KeySpec("m", 0),))


def _db(m_rows, lab_rows):
    return Database(
        SCHEMA,
        [Fact("m", tuple(row)) for row in m_rows]
        + [Fact("lab", tuple(row)) for row in lab_rows],
    )


class TestShardOfKey:
    def test_stable_across_processes(self):
        # crc32 of the canonical JSON — a frozen contract: changing it
        # would re-shard persisted partitions
        for key in (1930, "BRA", 3.5, None):
            expected = zlib.crc32(canonical_json(key).encode("utf-8")) % 7
            assert shard_of_key(key, 7) == expected

    def test_keyed_by_canonical_form_not_python_equality(self):
        # 4 and 4.0 serialize differently, so they may land on different
        # shards — key extractors must normalize (cf. the "year"
        # extractor returning int for both str and int dates)
        assert shard_of_key(4, 5) == shard_of_key(4, 5)
        assert KeySpec("games", 0, "year").key_of(
            Fact("games", ("13.07.2014",))
        ) == KeySpec("games", 0, "year").key_of(Fact("games", (2014,)))

    def test_range(self):
        for key in range(50):
            assert 0 <= shard_of_key(key, 4) < 4


class TestKeySpec:
    def test_identity_extractor(self):
        spec = KeySpec("m", 0)
        assert spec.key_of(Fact("m", (7, "a"))) == 7

    def test_year_extractor(self):
        spec = KeySpec("games", 0, "year")
        assert spec.key_of(Fact("games", ("13.07.2014", "GER"))) == 2014
        assert spec.key_of(Fact("games", (1998, "FRA"))) == 1998

    def test_unknown_extractor_rejected(self):
        with pytest.raises(ShardingError, match="unknown key extractor"):
            KeySpec("m", 0, "nope")


class TestPartitionSpec:
    def test_duplicate_relation_rejected(self):
        with pytest.raises(ShardingError, match="duplicate"):
            PartitionSpec((KeySpec("m", 0), KeySpec("m", 1)))

    def test_replicated_relations_have_no_shard(self):
        assert SPEC.shard_of(Fact("lab", ("a", "b")), 4) is None
        assert SPEC.key_of(Fact("lab", ("a", "b"))) is None

    def test_roundtrips_through_obj(self):
        spec = worldcup_partition_spec()
        assert PartitionSpec.from_obj(spec.to_obj()) == spec

    def test_partition_is_a_disjoint_cover(self):
        db = _db([(k, "x") for k in range(20)], [("x", "y")])
        shards = SPEC.partition_database(db, 4)
        seen = set()
        for shard_db in shards:
            m_facts = shard_db.facts("m")
            assert not (seen & m_facts)
            seen |= m_facts
            # replicated relation is complete everywhere
            assert shard_db.facts("lab") == db.facts("lab")
        assert seen == db.facts("m")

    def test_payload_roundtrip_preserves_digest(self):
        db = _db([(k, "x") for k in range(9)], [("x", "y"), ("z", "w")])
        payloads = SPEC.partition_payloads(db, 1)
        assert payload_to_database(payloads[0]).state_digest() == db.state_digest()

    def test_only_named_relations_carry_rows(self):
        db = _db([(k, "x") for k in range(9)], [("x", "y"), ("z", "w")])
        for payload in SPEC.partition_payloads(db, 3, {"lab"}):
            shard_db = payload_to_database(payload)
            assert shard_db.schema == db.schema
            assert shard_db.facts("lab") == db.facts("lab")
            assert not shard_db.facts("m")

    def test_facts_land_on_their_key_shard(self):
        db = _db([(k, "x") for k in range(20)], [])
        shards = SPEC.partition_database(db, 3)
        for index, shard_db in enumerate(shards):
            for f in shard_db.facts("m"):
                assert shard_of_key(f.values[0], 3) == index


class TestShardability:
    def test_no_partitioned_atoms_is_shardable(self):
        q = parse_query("q(x) :- lab(x, y).")
        assert SPEC.is_shardable(q)

    def test_single_partitioned_atom_is_shardable(self):
        q = parse_query("q(k) :- m(k, x), lab(x, y).")
        assert SPEC.is_shardable(q)

    def test_shared_key_term_is_shardable(self):
        spec = PartitionSpec((KeySpec("m", 0), KeySpec("lab", 0)))
        q = parse_query("q(k) :- m(k, x), lab(k, y).")
        assert spec.is_shardable(q)

    def test_join_across_keys_is_not_shardable(self):
        spec = PartitionSpec((KeySpec("m", 0), KeySpec("lab", 0)))
        q = parse_query("q(k) :- m(k, x), lab(x, y).")
        assert not spec.is_shardable(q)
        with pytest.raises(ShardingError, match="not shardable"):
            spec.require_shardable(q)

    def test_negated_partitioned_atom_with_same_key_is_shardable(self):
        q = parse_query("q(k, x) :- m(k, x), not m(k, \"a\").")
        assert SPEC.is_shardable(q)

    def test_negated_partitioned_atom_alone_is_not_shardable(self):
        q = parse_query("q(x) :- lab(x, y), not m(x, x).")
        assert not SPEC.is_shardable(q)

    def test_worldcup_workloads(self):
        spec = worldcup_partition_spec()
        q3 = parse_query(
            'q3(x) :- games(d1, x, y, s1, u1), stages(s1, "KO"), teams(x, c), '
            'c != "AS".'
        )
        assert spec.is_shardable(q3)
        # goals joined to games on the date: same key term, shardable
        scorers = parse_query("q(p) :- goals(p, d), games(d, w, r, s, u).")
        assert spec.is_shardable(scorers)
        # goals joined on a different date than the game: not shardable
        cross = parse_query("q(p) :- goals(p, d1), games(d2, w, r, s, u).")
        assert not spec.is_shardable(cross)


class TestWorldCupScaling:
    def test_replicas_scale_fact_relations_only(self):
        base = worldcup_database(WorldCupConfig())
        scaled = worldcup_database(WorldCupConfig(replicas=3))
        assert len(scaled.facts("games")) == 3 * len(base.facts("games"))
        assert len(scaled.facts("goals")) == 3 * len(base.facts("goals"))
        assert scaled.facts("teams") == base.facts("teams")
        assert scaled.facts("players") == base.facts("players")

    def test_replica_years_are_fresh_blocks(self):
        config = WorldCupConfig(replicas=2)
        years = worldcup_years(config)
        assert len(years) == len(set(years)) == 40
        assert 1930 in years and 2030 in years

    def test_replicated_database_partitions_without_loss(self):
        config = WorldCupConfig(replicas=2)
        db = worldcup_database(config)
        shards = worldcup_partition_spec().partition_database(db, 4)
        assert sum(len(s.facts("games")) for s in shards) == len(db.facts("games"))
        assert sum(len(s.facts("goals")) for s in shards) == len(db.facts("goals"))
