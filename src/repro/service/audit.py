"""Structured per-session audit log for the tuning service.

Every externally-visible decision the service takes — queueing, warm-start
provenance, canary verdicts, deployments, rollbacks — is recorded as one
JSON object.  Events are held in memory for introspection and, when the
log is constructed with a path, appended to a JSON-lines file so an
operator can reconstruct any session after the fact.

Events carry a monotonically increasing ``seq`` instead of wall-clock
timestamps by default, so audit trails of seeded runs are reproducible
byte for byte; pass ``wallclock=True`` to add an ``ts`` field.  ``seq``
is monotonic *per log instance*: when several processes append to one
JSONL file (the sharded service), each writer's records carry its own
``seq`` stream plus a ``src`` label (pass ``source=...``) to tell the
streams apart — global order across writers is file position, not
``seq``.

Persistence keeps one append descriptor open across emissions (reopening
the file per event serializes every worker thread on filesystem
open/close under the global lock).  Each record is written as one
``O_APPEND`` ``os.write`` (retried until every byte is out) so multiple
*processes* (the sharded service runs one ``TuningService`` per shard,
all appending to the same JSONL path) interleave whole lines rather
than bytes.  Call :meth:`close` — or
use the log as a context manager — to release the descriptor; the next
``emit`` transparently reopens it.

Readers share one rule for what counts as a record: a newline-terminated
line that decodes as a UTF-8 JSON object.  Blank and undecodable lines
(a SIGKILLed writer's torn record, possibly glued to the next writer's
line) are skipped, and an unterminated final line is not a record yet.
:meth:`AuditLog.read_jsonl` applies it to a whole file;
:class:`AuditIndex` applies it incrementally to the bytes appended since
its last read, so a long-lived reader pays for new bytes only.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Set

__all__ = ["AuditIndex", "AuditLog", "TERMINAL_EVENTS"]

#: Audit events that mark a session as finished for replay purposes.
#: ``session-report`` is the definitive end-of-session record; the others
#: cover paths where report rendering failed or the session was cancelled.
TERMINAL_EVENTS = frozenset({
    "session-report", "cancelled", "deployed", "failed",
    "deployment-blocked",
})


def _jsonable(value: object) -> object:
    """Coerce numpy scalars / odd mappings into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _decode_line(line: bytes, strict: bool = False) -> Dict[str, object] | None:
    """One audit line → its record; ``None`` for a blank or bad line."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:                 # JSONDecodeError, UnicodeDecodeError
        if strict:
            raise
        return None
    if isinstance(record, dict):
        return record
    if strict:
        raise ValueError(f"audit line is not a JSON object: {line[:80]!r}")
    return None


class AuditLog:
    """Append-only, thread-safe event log with optional JSONL persistence."""

    def __init__(self, path: str | os.PathLike | None = None,
                 wallclock: bool = False,
                 source: str | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.wallclock = bool(wallclock)
        self.source = str(source) if source is not None else None
        self._events: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._fd: int | None = None

    def emit(self, session_id: str, event: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the stored record."""
        record: Dict[str, object] = {
            "session": str(session_id),
            "event": str(event),
        }
        if self.wallclock:
            record["ts"] = time.time()
        record.update({str(k): _jsonable(v) for k, v in fields.items()})
        with self._lock:
            record = {"seq": len(self._events), **record}
            if self.source is not None:
                record = {"seq": record["seq"], "src": self.source,
                          **{k: v for k, v in record.items() if k != "seq"}}
            self._events.append(record)
            if self.path is not None:
                if self._fd is None:
                    self._fd = os.open(
                        self.path,
                        os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                data = (json.dumps(record, sort_keys=False) + "\n").encode(
                    "utf-8")
                # os.write may write fewer bytes than asked (signal, disk
                # pressure); a torn half-line would be silently dropped by
                # read_jsonl on replay, so keep writing until the record
                # is out whole.
                while data:
                    data = data[os.write(self._fd, data):]
        return record

    def close(self) -> None:
        """Release the persistent append descriptor (emit reopens on demand)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001 - best-effort at teardown
            pass

    # -- introspection -----------------------------------------------------
    def events(self, session_id: str | None = None,
               event: str | None = None) -> List[Dict[str, object]]:
        """Events so far, optionally filtered by session and/or kind."""
        with self._lock:
            snapshot = list(self._events)
        return [r for r in snapshot
                if (session_id is None or r["session"] == session_id)
                and (event is None or r["event"] == event)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.events())

    @staticmethod
    def read_jsonl(path: str | os.PathLike,
                   strict: bool = False) -> List[Dict[str, object]]:
        """Parse a JSONL audit file back into event records.

        By default undecodable lines are skipped and an unterminated final
        line is left out: a SIGKILLed shard can leave one torn record at
        its tail, and crash recovery must still be able to replay
        everything before it.  ``strict=True`` raises instead.
        """
        records = []
        with open(path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    if strict:
                        raise json.JSONDecodeError(
                            "unterminated final record",
                            line.decode("utf-8", "replace"), len(line))
                    break
                record = _decode_line(line, strict)
                if record is not None:
                    records.append(record)
        return records


class AuditIndex:
    """Incremental replay index over a shared JSONL audit file.

    Tracks, per owning shard, the ``shard-accepted`` events whose session
    has no terminal event yet, plus the set of sessions that reached one.
    Each query first decodes only the complete lines appended since the
    previous query (a byte offset plus the unterminated tail are kept),
    so answering a replay or a status poll costs the new bytes, not the
    whole history.  A terminal event suppresses replay whichever order it
    and its ``shard-accepted`` line landed in.  A file shorter than the
    bytes already consumed was truncated or replaced: the index rebuilds
    from offset 0 (a truncation regrown past the old offset between two
    queries goes unnoticed).  Otherwise its answers equal those of a
    :meth:`AuditLog.read_jsonl` scan of the same bytes.  Thread-safe.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._offset = 0
        self._tail = b""
        self._pending: Dict[object, Dict[str, Dict[str, object]]] = {}
        self._terminal: Set[str] = set()

    def pending(self, shard: object) -> List[Dict[str, object]]:
        """``shard``'s accepted-but-unfinished events, in acceptance order."""
        with self._lock:
            self._catch_up()
            return list(self._pending.get(shard, {}).values())

    def is_terminal(self, session_id: str) -> bool:
        """Whether the file records a terminal event for the session."""
        with self._lock:
            self._catch_up()
            return str(session_id) in self._terminal

    def refresh(self) -> None:
        """Consume every complete line appended so far."""
        with self._lock:
            self._catch_up()

    def _catch_up(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < self._offset:
                    self._reset()
                if size == self._offset:
                    return
                handle.seek(self._offset)
                data = handle.read(size - self._offset)
        except FileNotFoundError:
            self._reset()
            return
        self._offset += len(data)
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()
        for line in lines:
            record = _decode_line(line)
            if record is not None:
                self._apply(record)

    def _apply(self, record: Dict[str, object]) -> None:
        session_id = str(record.get("session"))
        kind = record.get("event")
        if kind == "shard-accepted":
            shard = record.get("shard")
            if session_id not in self._terminal \
                    and not isinstance(shard, (dict, list)):
                self._pending.setdefault(shard, {})[session_id] = record
        elif kind in TERMINAL_EVENTS and session_id not in self._terminal:
            self._terminal.add(session_id)
            for owned in self._pending.values():
                owned.pop(session_id, None)
