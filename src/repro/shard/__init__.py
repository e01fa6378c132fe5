"""Sharded multiprocess cleaning: partition by blocking key, clean
shards in parallel worker processes, merge edit logs deterministically.

See ``docs/sharding.md`` for the partitioning model, question-routing
protocol, and the conditions under which a sharded clean is
bit-identical (``state_digest``) to a single-process one.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".driver": ("ShardedQOCO", "ShardOutcome", "ShardReport"),
        ".partition": (
            "KeySpec", "PartitionSpec", "ShardingError", "payload_to_database",
            "register_key_extractor", "shard_of_key",
        ),
        ".router": ("QuestionRouter",),
        ".worker": ("LatencyOracle", "ProxyOracle", "run_shard", "shard_worker_main"),
    },
)
