"""Incremental audit index: always equal to a full ``read_jsonl`` scan.

The sharded service answers crash replay and post-respawn ``410``s from
:class:`~repro.service.audit.AuditIndex`, which decodes only the bytes
appended since its previous query.  The property test drives random
interleaved appends — accepted and terminal events for several shards,
terminal-before-accepted orderings, blank lines, torn records from a
killed writer, multi-byte UTF-8, reads that land mid-record, truncation —
and after every read compares the index with the replay set a full scan
of the same bytes yields.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.audit import TERMINAL_EVENTS, AuditIndex, AuditLog

SHARDS = (0, 1, 2)
SESSIONS = tuple(f"s{index}" for index in range(6))
KINDS = ("shard-accepted", "shard-accepted", "queued", "shard-replayed",
         *sorted(TERMINAL_EVENTS))


def _full_scan(path):
    """The replay set the index replaces: a whole-file scan."""
    events = AuditLog.read_jsonl(path)
    finished = {str(event.get("session")) for event in events
                if event.get("event") in TERMINAL_EVENTS}
    pending = {}
    for shard in SHARDS:
        accepted = {}
        for event in events:
            if event.get("event") == "shard-accepted" \
                    and event.get("shard") == shard:
                accepted[str(event.get("session"))] = event
        pending[shard] = [event for sid, event in accepted.items()
                          if sid not in finished]
    return pending, finished


def _line(writer, seq, kind, session, shard, note):
    record = {"seq": seq, "src": f"w{writer}", "session": session,
              "event": kind, "note": note}
    if kind == "shard-accepted":
        record["shard"] = shard
    return (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


_records = st.tuples(st.integers(0, 2), st.sampled_from(KINDS),
                     st.sampled_from(SESSIONS), st.sampled_from(SHARDS),
                     st.text(alphabet="aé漢🙂\"\\ ", max_size=6))
_ops = st.one_of(
    st.tuples(st.just("emit"), _records),
    st.tuples(st.just("blank"), st.sampled_from([b"\n", b"  \n", b"\r\n"])),
    # A killed writer leaves a prefix; the next append glues onto it.
    st.tuples(st.just("torn"), _records, st.floats(0.0, 0.99)),
    # A reader lands mid-record: read between the two halves.
    st.tuples(st.just("split"), _records, st.floats(0.0, 1.0)),
    st.tuples(st.just("read")),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
)


def _check(index, path):
    pending, finished = _full_scan(path)
    for shard in SHARDS:
        assert index.pending(shard) == pending[shard]
    for session in SESSIONS:
        assert index.is_terminal(session) == (session in finished)


class TestAuditIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_matches_full_scan_after_every_read(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "audit.jsonl")
            open(path, "wb").close()
            index = AuditIndex(path)
            seq = 0

            def append(data):
                with open(path, "ab") as handle:
                    handle.write(data)

            for op in ops:
                seq += 1
                if op[0] == "emit":
                    append(_line(op[1][0], seq, *op[1][1:]))
                elif op[0] == "blank":
                    append(op[1])
                elif op[0] == "torn":
                    data = _line(op[1][0], seq, *op[1][1:])
                    append(data[:int(op[2] * (len(data) - 1))])
                elif op[0] == "split":
                    data = _line(op[1][0], seq, *op[1][1:])
                    cut = int(op[2] * len(data))
                    append(data[:cut])
                    _check(index, path)
                    append(data[cut:])
                elif op[0] == "truncate":
                    size = os.path.getsize(path)
                    with open(path, "r+b") as handle:
                        handle.truncate(int(op[1] * size))
                _check(index, path)

    def test_terminal_before_accepted_suppresses_replay(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.emit("s1", "deployed")
            log.emit("s1", "shard-accepted", shard=0)
            log.emit("s2", "shard-accepted", shard=0)
        index = AuditIndex(path)
        assert [event["session"] for event in index.pending(0)] == ["s2"]
        assert index.is_terminal("s1") and not index.is_terminal("s2")

    def test_reads_only_new_bytes(self, tmp_path, monkeypatch):
        """After the first catch-up a query decodes the appended lines
        only; a query with nothing appended decodes none."""
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        for index in range(50):
            log.emit(f"h{index}", "shard-accepted", shard=0)
            log.emit(f"h{index}", "session-report")
        audit_index = AuditIndex(path)
        assert audit_index.pending(0) == []
        decoded = []
        from repro.service import audit as audit_module
        decode = audit_module._decode_line
        monkeypatch.setattr(audit_module, "_decode_line",
                            lambda line, strict=False:
                            decoded.append(line) or decode(line, strict))
        log.emit("s1", "shard-accepted", shard=0)
        assert [e["session"] for e in audit_index.pending(0)] == ["s1"]
        assert len(decoded) == 1
        assert not audit_index.is_terminal("s1")
        assert len(decoded) == 1
        log.close()

    def test_missing_file_is_empty(self, tmp_path):
        index = AuditIndex(tmp_path / "absent.jsonl")
        assert index.pending(0) == []
        assert not index.is_terminal("s1")


class TestReadJsonlLineRule:
    def test_torn_multibyte_line_is_skipped(self, tmp_path):
        """A torn record cut inside a multi-byte character, glued to the
        next writer's line, is undecodable UTF-8: skipped, not fatal."""
        path = tmp_path / "audit.jsonl"
        torn = json.dumps({"session": "s1", "event": "queued",
                           "note": "漢字"}, ensure_ascii=False).encode()
        whole = _line(0, 1, "deployed", "s2", 0, "ok")
        path.write_bytes(torn[:torn.index("漢".encode()) + 1] + whole
                         + whole)
        records = AuditLog.read_jsonl(path)
        assert [r["session"] for r in records] == ["s2"]
        with pytest.raises(ValueError):
            AuditLog.read_jsonl(path, strict=True)

    def test_unterminated_final_line_is_not_a_record_yet(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        whole = _line(0, 1, "deployed", "s2", 0, "ok")
        path.write_bytes(whole + whole[:-1])
        assert len(AuditLog.read_jsonl(path)) == 1
        with pytest.raises(json.JSONDecodeError):
            AuditLog.read_jsonl(path, strict=True)
