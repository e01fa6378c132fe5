"""Blocking-key partitioning of a :class:`~repro.db.database.Database`.

A :class:`PartitionSpec` names, per relation, the column whose value is
the *blocking key* (optionally through a named extractor, e.g. the year
of a ``DD.MM.YYYY`` date).  Relations without a key spec are treated as
dimension tables and **replicated** into every shard, so shard-local
query evaluation sees the same joins the global evaluation would.

Shard assignment is ``crc32(canonical_json(key)) % shards`` — a stable,
process-independent hash (Python's builtin ``hash`` is salted per
process, which would scatter the same fact to different shards across
runs and break the deterministic merge).

A conjunctive query is *shardable* under a spec when every witness of
every answer is guaranteed to live inside a single shard:

* no partitioned relation appears in the body — trivially shardable
  (the driver runs such queries on one shard, where the replicated
  relations are complete); or
* every partitioned atom (positive *and* negated) carries the **same
  term** in its relation's key position — all facts of one witness then
  share one key value, hence one shard.  A single positive partitioned
  atom is the common special case.

Negated partitioned atoms whose key term differs (or is a local
wildcard) are not shardable: ``NOT EXISTS`` would be checked against a
fraction of the relation.  See ``docs/sharding.md`` for the full model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping, Optional

from ..db.database import Database
from ..db.io import _schema_from_dict, _schema_to_dict
from ..db.tuples import Constant, Fact
from ..durability.codec import CodecError, canonical_json
from ..query.ast import Atom, Query


class ShardingError(ValueError):
    """A query/spec combination the sharded driver cannot honor."""


# ---------------------------------------------------------------------------
# key extractors — named, so specs serialize and cross process boundaries
# ---------------------------------------------------------------------------
def _identity(value: Constant) -> Constant:
    return value


def _year(value: Constant) -> Constant:
    """The year of a ``DD.MM.YYYY`` date string (ints pass through)."""
    if isinstance(value, str):
        return int(value.rsplit(".", 1)[-1])
    return int(value)


KEY_EXTRACTORS: dict[str, Callable[[Constant], Constant]] = {
    "identity": _identity,
    "year": _year,
}


def register_key_extractor(name: str, fn: Callable[[Constant], Constant]) -> None:
    """Register a named key extractor (names are the serialized form)."""
    KEY_EXTRACTORS[name] = fn


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KeySpec:
    """The blocking-key column of one partitioned relation."""

    relation: str
    position: int
    extractor: str = "identity"

    def __post_init__(self) -> None:
        if self.extractor not in KEY_EXTRACTORS:
            raise ShardingError(
                f"unknown key extractor {self.extractor!r} "
                f"(registered: {sorted(KEY_EXTRACTORS)})"
            )

    def key_of(self, f: Fact) -> Constant:
        return KEY_EXTRACTORS[self.extractor](f.values[self.position])


@dataclass(frozen=True)
class PartitionSpec:
    """Per-relation blocking keys; unlisted relations are replicated."""

    keys: tuple[KeySpec, ...]
    _by_relation: Mapping[str, KeySpec] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if not isinstance(self.keys, tuple):
            object.__setattr__(self, "keys", tuple(self.keys))
        by_relation = {}
        for spec in self.keys:
            if spec.relation in by_relation:
                raise ShardingError(f"duplicate key spec for {spec.relation!r}")
            by_relation[spec.relation] = spec
        object.__setattr__(self, "_by_relation", by_relation)

    # -- structure -------------------------------------------------------
    @property
    def partitioned_relations(self) -> frozenset[str]:
        return frozenset(self._by_relation)

    def key_spec(self, relation: str) -> Optional[KeySpec]:
        return self._by_relation.get(relation)

    def key_of(self, f: Fact) -> Optional[Constant]:
        """The blocking key of *f*, or ``None`` for replicated relations."""
        spec = self._by_relation.get(f.relation)
        return None if spec is None else spec.key_of(f)

    def shard_of(self, f: Fact, shards: int) -> Optional[int]:
        """The shard index of *f* (``None`` = replicated everywhere)."""
        key = self.key_of(f)
        if key is None:
            return None
        return shard_of_key(key, shards)

    # -- shardability ----------------------------------------------------
    def partitioned_atoms(self, query: Query) -> list[Atom]:
        return [a for a in query.atoms if a.relation in self._by_relation]

    def is_shardable(self, query: Query) -> bool:
        """Whether every witness of *query* is confined to one shard."""
        positive = self.partitioned_atoms(query)
        negated = [
            a for a in query.negated_atoms if a.relation in self._by_relation
        ]
        if not positive and not negated:
            return True
        if not positive:
            return False  # negation against a fraction of the relation
        key_terms = {
            atom.terms[self._by_relation[atom.relation].position]
            for atom in positive + negated
        }
        return len(key_terms) == 1

    def require_shardable(self, query: Query) -> None:
        if not self.is_shardable(query):
            raise ShardingError(
                f"query {query.name!r} is not shardable under this partition "
                "spec: its partitioned atoms do not share one blocking-key "
                "term, so a witness could span shards (see docs/sharding.md)"
            )

    # -- partitioning ----------------------------------------------------
    def partition_payloads(
        self,
        database: Database,
        shards: int,
        relations: Optional[Collection[str]] = None,
    ) -> list[dict]:
        """Split *database* into *shards* JSON-serializable payloads.

        Each payload is the ``canonical=False`` database form: schema +
        ``{relation: [row, ...]}``.  Partitioned relations are split by
        blocking key; replicated relations share one row list across all
        payloads (serialization copies them per worker).  With
        *relations*, only those relations carry rows: every other one
        keeps its schema and arrives empty.  Deliberately no
        :class:`Database` construction and no canonical sort — this runs
        in the parent and is the serial fraction of a sharded clean.
        """
        if shards < 1:
            raise ShardingError(f"need at least one shard, got {shards}")
        schema_obj = _schema_to_dict(database.schema)
        buckets: dict[str, list[list[list[Constant]]]] = {}
        shared: dict[str, list[list[Constant]]] = {}
        # distinct blocking keys are few (e.g. tournament years) while
        # facts are many: memoize key -> shard so the per-fact cost is a
        # dict hit, not a crc32 over canonical JSON
        shard_by_key: dict[Constant, int] = {}
        for rel in database.schema:
            if relations is not None and rel.name not in relations:
                continue
            spec = self._by_relation.get(rel.name)
            if spec is None:
                shared[rel.name] = [list(f.values) for f in database.facts(rel.name)]
                continue
            per_shard: list[list[list[Constant]]] = [[] for _ in range(shards)]
            extract = KEY_EXTRACTORS[spec.extractor]
            position = spec.position
            for f in database.facts(rel.name):
                key = extract(f.values[position])
                index = shard_by_key.get(key)
                if index is None:
                    index = shard_by_key[key] = shard_of_key(key, shards)
                per_shard[index].append(list(f.values))
            buckets[rel.name] = per_shard
        payloads = []
        for index in range(shards):
            facts: dict[str, list[list[Constant]]] = dict(shared)
            for relation, per_shard in buckets.items():
                facts[relation] = per_shard[index]
            payloads.append({"schema": schema_obj, "facts": facts})
        return payloads

    def partition_database(
        self, database: Database, shards: int
    ) -> list[Database]:
        """Split *database* into shard :class:`Database` instances.

        The convenience form for in-process use and tests; the driver
        itself ships :meth:`partition_payloads` to workers instead.
        """
        return [
            payload_to_database(payload)
            for payload in self.partition_payloads(database, shards)
        ]

    # -- serialization ---------------------------------------------------
    def to_obj(self) -> list[dict]:
        return [
            {"relation": k.relation, "position": k.position, "extractor": k.extractor}
            for k in self.keys
        ]

    @classmethod
    def from_obj(cls, obj: Iterable[dict]) -> "PartitionSpec":
        try:
            return cls(
                tuple(
                    KeySpec(o["relation"], o["position"], o.get("extractor", "identity"))
                    for o in obj
                )
            )
        except (KeyError, TypeError) as error:
            raise CodecError(f"malformed partition spec {obj!r}") from error


def shard_of_key(key: Constant, shards: int) -> int:
    """Stable shard index of a blocking-key value (crc32, not ``hash``)."""
    return zlib.crc32(canonical_json(key).encode("utf-8")) % shards


def payload_to_database(payload: dict) -> Database:
    """Rebuild a shard payload (see :meth:`PartitionSpec.partition_payloads`)."""
    try:
        schema = _schema_from_dict(payload["schema"])
        database = Database(schema)
        for relation, rows in payload["facts"].items():
            database.bulk_load(relation, rows)
    except (KeyError, TypeError) as error:
        raise CodecError(f"malformed shard payload: {error}") from error
    return database
