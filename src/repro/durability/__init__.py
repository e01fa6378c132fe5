"""Durability for the multi-tenant cleaning server (WAL + checkpoints).

QOCO's output is a sequence of oracle-certified edits (§2, Def. 2.3)
bought with crowd answers — the cost model's scarcest resource.  This
package makes that output survive a crash: every committed session is
appended to a length-prefixed, checksummed write-ahead log *before* the
commit is acknowledged, a checkpointer periodically snapshots the full
server state and truncates the log, and recovery rebuilds the database,
per-tenant ledgers, and cross-session answer board from the latest
snapshot plus the WAL suffix, discarding torn tails.

Entry points::

    manager = repro.api.serve(db, durable_path="state/")   # durable server
    state   = repro.api.recover("state/")                  # read-only rebuild
    manager = repro.api.recover_server("state/")           # rebuild + resume

See ``docs/durability.md`` for the record format, fsync policies, and
recovery invariants; ``tests/test_durability.py`` pins the crash matrix.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".checkpoint": ("Checkpointer",),
        ".crash": ("CrashMatrixReport", "CrashPoint", "run_crash_matrix"),
        ".recovery": ("RecoveredState", "recover", "recover_manager"),
        ".store": ("DurabilityError", "DurabilityStore"),
        ".wal": ("SYNC_POLICIES", "WalError", "WalReadResult", "WalWriter", "read_wal"),
    },
)
