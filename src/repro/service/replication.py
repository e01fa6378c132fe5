"""WAL log shipping: a primary hub and a warm-follower tail.

The durability layer already frames every WAL record once
(:meth:`repro.durability.wal.WalWriter.append_frame`) and exposes the
exact bytes through :attr:`DurabilityStore.on_append`.  Replication is
therefore *byte shipping*: the primary's :class:`ReplicationHub` buffers
``(seq, frame)`` pairs and serves them over a chunked NDJSON stream; the
follower verifies each frame's CRC with the normal WAL reader
(:func:`~repro.durability.wal.decode_records`), appends the identical
bytes to its own ``wal.log``, fsyncs, and acks the sequence number.
Primary and follower logs are byte-identical by construction, so
promotion is simply :func:`repro.durability.recovery.recover_manager`
over the follower's directory — the very recovery path a crashed
primary would use on its own disk.

Checkpoints truncate the log on both sides: the hub emits a
``checkpoint`` control line, the follower refetches the full snapshot
(verifying its ``digest`` against the decoded database) and truncates
its log once every local record is subsumed by the snapshot — never
sooner, so an acked frame stays on the follower's disk until some
checkpoint covers it.  A reconnect while the primary's checkpoint is
unchanged skips the reinstall entirely and resumes the stream at the
follower's own high-water mark.

Acks close the loop: the hub tracks the newest sequence each follower
has made durable, publishes ``service.replication_lag`` (records the
slowest follower is behind), and lets the tenant surface wait for a
commit's sequence to be follower-durable before reporting
``replicated: true`` — the "zero acked-but-lost commits" guarantee the
failover test holds the service to.
"""

from __future__ import annotations

import asyncio
import base64
import http.client
import json
import os
import threading
from pathlib import Path
from typing import Any, AsyncIterator, Optional

from ..durability.codec import database_digest, database_from_obj
from ..durability.store import CHECKPOINT_FILE, WAL_FILE, DurabilityError
from ..durability.wal import decode_records
from ..telemetry import TELEMETRY as _TELEMETRY
from .client import ServiceError, _Http
from .http import within


class ReplicationError(RuntimeError):
    """A log-shipping protocol violation (bad CRC, sequence gap, ...)."""


class _Chain:
    """A rechainable asyncio.Event: set-and-replace wakes every waiter
    exactly once without the multi-reader clear() race."""

    def __init__(self) -> None:
        self._event = asyncio.Event()

    def wake(self) -> None:
        event = self._event
        self._event = asyncio.Event()
        event.set()

    async def wait(self, timeout: Optional[float] = None) -> bool:
        try:
            await within(self._event.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class ReplicationHub:
    """Primary-side frame buffer, follower ack book, and stream feeder.

    ``on_append`` runs on session threads (inside the manager's commit
    path); everything else runs on the event loop.  The buffer holds
    every frame since the last checkpoint — exactly the records a
    follower needs that the checkpoint does not subsume — so memory
    tracks the WAL itself.
    """

    def __init__(self, manager, loop: asyncio.AbstractEventLoop) -> None:
        store = manager._store
        if store is None:
            raise DurabilityError(
                "log shipping needs a durable manager (durable_path=...)"
            )
        self.manager = manager
        self.store = store
        self._loop = loop
        self._lock = threading.Lock()
        #: ``(seq, frame_bytes)`` since the last checkpoint, ascending
        self._frames: list[tuple[int, bytes]] = []
        self.checkpoint_seq = int(store.checkpoint_seq)
        self.last_seq = int(store.last_seq)
        #: committed session id -> the WAL seq that made it durable
        self.commit_seqs: dict[int, int] = {}
        #: follower id -> newest contiguously-acked seq
        self.acks: dict[str, int] = {}
        self._chain = _Chain()
        # preload the live WAL suffix so a follower attaching to a
        # warm primary doesn't miss records appended before the hub
        tail = store.read_log()
        data = store.wal_path.read_bytes()[: tail.valid_bytes]
        start = 0
        for record, end in zip(tail.records, tail.offsets):
            self._frames.append((int(record["seq"]), data[start:end]))
            if record.get("type") == "commit":
                self.commit_seqs[int(record["session"])] = int(record["seq"])
            start = end
        store.on_append = self._on_append
        store.on_checkpoint = self._on_checkpoint

    def detach(self) -> None:
        self.store.on_append = None
        self.store.on_checkpoint = None

    # ------------------------------------------------------------------
    # store hooks (session threads)
    # ------------------------------------------------------------------
    def _on_append(self, seq: int, frame: bytes, record: dict) -> None:
        with self._lock:
            self._frames.append((seq, frame))
            self.last_seq = seq
            if record.get("type") == "commit":
                self.commit_seqs[int(record["session"])] = seq
        self._observe_lag()
        self._loop.call_soon_threadsafe(self._chain.wake)

    def _on_checkpoint(self, seq: int) -> None:
        with self._lock:
            self.checkpoint_seq = seq
            self.last_seq = max(self.last_seq, seq)
            self._frames = [(s, f) for s, f in self._frames if s > seq]
        self._loop.call_soon_threadsafe(self._chain.wake)

    def _observe_lag(self) -> None:
        if _TELEMETRY.enabled:
            _TELEMETRY.observe("service.replication_lag", self.lag())

    # ------------------------------------------------------------------
    # introspection / acks (event loop)
    # ------------------------------------------------------------------
    def lag(self) -> int:
        """Records the slowest follower is behind (0 with no follower
        attached *and* nothing shipped — a lone primary reports its
        whole unreplicated log)."""
        with self._lock:
            if not self.acks:
                return len(self._frames)
            return max(0, self.last_seq - min(self.acks.values()))

    def acked_seq(self) -> int:
        with self._lock:
            return min(self.acks.values()) if self.acks else 0

    def ack(self, follower: str, seq: int) -> None:
        with self._lock:
            self.acks[follower] = max(self.acks.get(follower, 0), seq)
        self._observe_lag()
        self._chain.wake()

    def commit_seq(self, session_id: int) -> Optional[int]:
        with self._lock:
            return self.commit_seqs.get(session_id)

    async def wait_replicated(self, seq: int, timeout: float) -> bool:
        """True once some follower has acked *seq* (durable twice)."""
        deadline = self._loop.time() + timeout
        while True:
            with self._lock:
                if any(acked >= seq for acked in self.acks.values()):
                    return True
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                return False
            await self._chain.wait(remaining)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "last_seq": self.last_seq,
                "checkpoint_seq": self.checkpoint_seq,
                "buffered_frames": len(self._frames),
                "acks": dict(self.acks),
                "lag": (
                    max(0, self.last_seq - min(self.acks.values()))
                    if self.acks
                    else len(self._frames)
                ),
            }

    # ------------------------------------------------------------------
    # streaming (event loop)
    # ------------------------------------------------------------------
    async def stream(self, from_seq: int) -> AsyncIterator[bytes]:
        """NDJSON frame lines for a follower positioned at *from_seq*.

        Emits ``{"seq", "frame"}`` data lines (frame = base64 of the
        exact WAL bytes) and a ``{"control": "checkpoint", "seq"}`` line
        when a checkpoint truncated the shipped range — the follower
        then refetches the snapshot and reconnects.
        """
        with self._lock:
            known_checkpoint = self.checkpoint_seq
        sent = from_seq
        while True:
            with self._lock:
                checkpoint_seq = self.checkpoint_seq
                batch = [(s, f) for s, f in self._frames if s > sent]
            # a follower behind the checkpoint needs the snapshot; a
            # caught-up follower still refetches when a *new* checkpoint
            # lands, so its log truncation mirrors the primary's
            if sent < checkpoint_seq or checkpoint_seq > known_checkpoint:
                yield (
                    json.dumps({"control": "checkpoint", "seq": checkpoint_seq}).encode()
                    + b"\n"
                )
                return
            for seq, frame in batch:
                line = {
                    "seq": seq,
                    "frame": base64.b64encode(frame).decode("ascii"),
                }
                yield json.dumps(line).encode() + b"\n"
                sent = seq
            if not batch:
                # heartbeat keeps half-open connections detectable
                if not await self._chain.wait(15.0):
                    yield json.dumps({"heartbeat": sent}).encode() + b"\n"


# ---------------------------------------------------------------------------
# follower side
# ---------------------------------------------------------------------------
def _fsync_path(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


class Follower:
    """Tails a primary's log into a local directory, ack by ack.

    Runs on a plain thread with blocking HTTP: the package's JSON
    client for the checkpoint and acks, ``http.client`` for the chunked
    WAL stream (the event loop of the standby process stays free for
    its own health/promotion endpoints).  :meth:`run` loops
    fetch-checkpoint → tail-stream until :meth:`stop`;
    :meth:`promote` then turns the directory into a live
    :class:`~repro.server.manager.SessionManager` via the standard
    recovery path.
    """

    def __init__(
        self,
        directory,
        primary_host: str,
        primary_port: int,
        *,
        follower_id: str = "follower",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.follower_id = follower_id
        self.last_seq = 0
        self.checkpoint_seq = 0
        self.frames_applied = 0
        self.checkpoints_fetched = 0
        self._stop = threading.Event()
        self._wal_handle = None
        #: the JSON client for checkpoint fetches and acks; only the
        #: thread that runs :meth:`run` creates, uses and closes it
        self._rpc: Optional[_Http] = None

    # -- primary RPC (blocking, on the follower's own thread) -----------
    def _connection(self):
        """A connection for the chunked WAL stream."""
        return http.client.HTTPConnection(
            self.primary_host, self.primary_port, timeout=30
        )

    def _request(self, method: str, path: str, payload: Any = None) -> dict:
        # one keep-alive connection for the checkpoint and every ack:
        # an ack per applied frame on a fresh TCP connection each would
        # serialize the whole pipeline behind connection setup and cap
        # replication at a few frames per second
        if self._rpc is None:
            self._rpc = _Http(self.primary_host, self.primary_port, timeout=30.0)
        try:
            document = self._rpc.request(method, path, payload)
        except ServiceError as error:
            raise ReplicationError(f"{method} {path} -> {error}") from error
        if self._rpc.status != 200:
            raise ReplicationError(f"{method} {path} -> HTTP {self._rpc.status}")
        return document

    def _get_json(self, path: str) -> dict:
        return self._request("GET", path)

    def _post_ack(self, seq: int) -> None:
        self._request(
            "POST", "/v1/replication/ack", {"follower": self.follower_id, "seq": seq}
        )

    # -- local durable state -------------------------------------------
    def _install_checkpoint(self, document: dict) -> None:
        """Verify and atomically install the primary's snapshot.

        The local log is truncated only when every record in it is
        subsumed by the snapshot (``last_seq <= checkpoint seq``) —
        acked frames beyond the checkpoint must never leave disk until
        a later snapshot covers them (recovery skips obsolete records
        by sequence, so a kept log is merely larger, never wrong).
        """
        database = database_from_obj(document["database"])
        digest = database_digest(database)
        if digest != document.get("digest"):
            raise ReplicationError(
                f"checkpoint digest mismatch: computed {digest}, "
                f"primary claims {document.get('digest')}"
            )
        from ..durability.codec import canonical_json

        payload = canonical_json(document).encode("utf-8")
        tmp = self.directory / (CHECKPOINT_FILE + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            _fsync_path(handle)
        os.replace(tmp, self.directory / CHECKPOINT_FILE)
        seq = int(document["seq"])
        if self.last_seq <= seq:
            handle = self._wal()
            handle.seek(0)
            handle.truncate()
            _fsync_path(handle)
            # every truncated frame is covered by the snapshot, so the
            # stream must resume exactly at the checkpoint — a higher
            # resume point would silently skip the re-shipped frames
            self.last_seq = seq
        self.checkpoint_seq = seq
        self.checkpoints_fetched += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.follower.checkpoints")

    def _wal(self):
        if self._wal_handle is None or self._wal_handle.closed:
            self._wal_handle = open(self.directory / WAL_FILE, "ab+")
        return self._wal_handle

    def _apply_frame(self, seq: int, frame: bytes) -> None:
        decoded = decode_records(frame)
        if decoded.torn_bytes or len(decoded.records) != 1:
            raise ReplicationError(f"frame for seq {seq} failed CRC validation")
        record = decoded.records[0]
        if int(record["seq"]) != seq:
            raise ReplicationError(
                f"frame seq {record['seq']} disagrees with stream seq {seq}"
            )
        if seq <= self.last_seq:
            return  # redelivery after a reconnect: already durable
        if seq != self.last_seq + 1:
            # a silent gap would produce a WAL missing records; fail
            # loudly so the tail loop reconnects and refetches
            raise ReplicationError(
                f"sequence gap: expected {self.last_seq + 1}, got {seq}"
            )
        handle = self._wal()
        handle.write(frame)
        _fsync_path(handle)
        self.last_seq = seq
        self.frames_applied += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.follower.frames")

    # -- the tail loop --------------------------------------------------
    def run(self) -> None:
        """Follow until :meth:`stop`; transient errors retry the loop."""
        try:
            while not self._stop.is_set():
                try:
                    self._follow_once()
                except (OSError, ReplicationError, json.JSONDecodeError):
                    if self._stop.wait(0.5):
                        return
        finally:
            if self._rpc is not None:
                self._rpc.close()
                self._rpc = None

    def _follow_once(self) -> None:
        document = self._get_json("/v1/replication/checkpoint")
        # reinstall (and truncate) only for a checkpoint we have not
        # installed yet: a plain reconnect while the primary's
        # checkpoint is unchanged must keep the acked local WAL intact,
        # otherwise frames the tenant saw as replicated would be
        # deleted here and never re-shipped (the stream resumes at
        # last_seq, which those frames are below)
        if self.checkpoints_fetched == 0 or int(document["seq"]) > self.checkpoint_seq:
            self._install_checkpoint(document)
        self._post_ack(self.last_seq)
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/replication/stream?from_seq={self.last_seq}")
            response = conn.getresponse()
            if response.status != 200:
                raise ReplicationError(f"stream -> {response.status}")
            while not self._stop.is_set():
                line = response.readline()
                if not line:
                    return  # primary went away; outer loop reconnects
                message = json.loads(line)
                if "heartbeat" in message:
                    continue
                if message.get("control") == "checkpoint":
                    return  # refetch the snapshot on the next pass
                seq = int(message["seq"])
                self._apply_frame(seq, base64.b64decode(message["frame"]))
                self._post_ack(self.last_seq)
        finally:
            conn.close()

    def stop(self) -> None:
        self._stop.set()

    def close(self) -> None:
        self.stop()
        if self._wal_handle is not None and not self._wal_handle.closed:
            self._wal_handle.close()

    # -- promotion -------------------------------------------------------
    def promote(self, **manager_kwargs):
        """Stop tailing and recover a live manager from the local copy.

        The follower's directory is, byte for byte, what the primary's
        disk would hold after a crash at the last acked record — so
        promotion *is* crash recovery.
        """
        self.close()
        from ..durability.recovery import recover_manager

        if _TELEMETRY.enabled:
            _TELEMETRY.count("service.follower.promotions")
        return recover_manager(self.directory, **manager_kwargs)

    def stats(self) -> dict[str, Any]:
        return {
            "follower_id": self.follower_id,
            "last_seq": self.last_seq,
            "checkpoint_seq": self.checkpoint_seq,
            "frames_applied": self.frames_applied,
            "checkpoints_fetched": self.checkpoints_fetched,
        }


__all__ = ["Follower", "ReplicationError", "ReplicationHub"]
