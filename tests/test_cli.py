"""CLI surface: ingest, status, replay, simulate, simulate --check, serve."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from codes import raises_code

import syncpoint.eventlog
from syncpoint.activities import ActivityKind, ActivitySpec, ParticipantStatus, TimeWindow
from syncpoint.cli import build_parser, main
from syncpoint.engine import Engine, replay, status_view
from syncpoint.eventlog import (
    ArmSet, ArrivalRecorded, CorruptRecord, EventRecord, FixAccepted, TaskCompleted,
    encode_record, load_log, read_records,
)
from syncpoint.geo import Geofence, GeoPoint, Zone
from syncpoint.presence import Alarm
from syncpoint.sim import load_scenario, run_scenario, transcript_lines
from syncpoint.wire import encode

REPO = Path(__file__).parents[1]
CORPUS = REPO / "data" / "calendar"
SCENARIOS = REPO / "scenarios"
SYSTEM = "mailto:sync@syncpoint.example"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngestStatusReplay:
    def test_ingest_then_status(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        code, out, err = run(
            capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0,
        )
        assert code == 0
        assert "created a1" in out and "skipped 0" in out

        code, out, _ = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert code == 0
        view = json.loads(out)
        assert view["type"] == "STATUS_VIEW"
        assert view["activity"] == "a1"
        assert view["phase"] == "SCHEDULED"
        assert [p["id"] for p in view["participants"]] == [
            "ana@example.org", "bruno@example.org", "carla@example.org",
        ]

    def test_reingest_skips_known_uid(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        code, out, err = run(
            capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 1,
        )
        assert code == 0
        assert "already ingested" in err
        assert "ingested 0 activities" in out

    def test_duplicate_uid_in_one_file_creates_one_activity(self, tmp_path, capsys):
        event = (
            "BEGIN:VEVENT\r\nUID:u1\r\nDTSTART:100\r\nDTEND:200\r\n"
            "GEO:1.0;1.0\r\nORGANIZER:mailto:ana@x\r\nATTENDEE:mailto:ana@x\r\n"
            f"ATTENDEE:mailto:bruno@x\r\nATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\n"
        )
        ics = tmp_path / "twice.ics"
        ics.write_text(f"BEGIN:VCALENDAR\r\n{event}{event}END:VCALENDAR\r\n")
        log = tmp_path / "events.log"
        code, out, err = run(
            capsys, "ingest", ics, "--system-address", SYSTEM, "--log", log, "--now", 0,
        )
        assert code == 0
        assert "created a1" in out and "created a2" not in out
        assert "event u1 already ingested" in err
        assert "ingested 1 activities" in out
        assert len(list(load_log(log))) == 1

    def test_ingest_invalid_event_fails(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        code, _, err = run(
            capsys, "ingest", CORPUS / "missing_geo.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0,
        )
        assert code == 1
        assert "EVENT_INVALID" in err
        assert not log.exists() or log.read_text() == ""

    def test_an_event_whose_roster_new_activity_refuses_ingests_nothing(self, tmp_path, capsys):
        # Three enrolled events; the middle one lists only its organizer.
        ics = tmp_path / "three.ics"
        ics.write_text("BEGIN:VCALENDAR\r\n" + "".join(
            f"BEGIN:VEVENT\r\nUID:{uid}\r\nDTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            f"ORGANIZER:mailto:ana@x\r\nATTENDEE:mailto:ana@x\r\n{guest}"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\n"
            for uid, guest in (("e1", "ATTENDEE:mailto:bo@x\r\n"), ("e2", ""),
                               ("e3", "ATTENDEE:mailto:bo@x\r\n"))
        ) + "END:VCALENDAR\r\n")
        log = tmp_path / "events.log"
        for _ in range(2):  # and a second run, with nothing half ingested to skip
            assert run(
                capsys, "ingest", ics, "--system-address", SYSTEM, "--log", log, "--now", 0,
            ) == (1, "", "error: EVENT_INVALID: event 'e2': need at least 2 participants, got 1\n")
            assert log.read_bytes() == b""

    @pytest.mark.parametrize("events, code, err", [
        ((("e1", "ATTENDEE:mailto:bo@x\r\n"), ("e2", ""), ("e3", "ATTENDEE:mailto:bo@x\r\n")),
         1, "error: EVENT_INVALID: event 'e2': need at least 2 participants, got 1\n"),
        ((("e1", "ATTENDEE:mailto:bo@x\r\n"), ("e1", "ATTENDEE:mailto:bo@x\r\n")),
         0, "warning: event e1 already ingested, skipping\n"),
    ], ids=["refused middle event", "one UID twice"])
    def test_ingest_and_simulate_make_a_calendar_alike(self, tmp_path, capsys, events, code, err):
        ics, scenario = tmp_path / "cal.ics", tmp_path / "scenario.json"
        ics.write_text("BEGIN:VCALENDAR\r\n" + "".join(
            f"BEGIN:VEVENT\r\nUID:{uid}\r\nDTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            f"ORGANIZER:mailto:ana@x\r\nATTENDEE:mailto:ana@x\r\n{guest}"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\n"
            for uid, guest in events
        ) + "END:VCALENDAR\r\n")
        scenario.write_text(json.dumps({
            "seed": 1, "fix_period_s": 30, "horizon": 300,
            "activities": {"ics": "cal.ics", "system_address": SYSTEM},
        }))
        log = tmp_path / "events.log"
        ingested = run(capsys, "ingest", ics, "--system-address", SYSTEM, "--log", log,
                       "--now", 0)
        simulated = run(capsys, "simulate", scenario)
        assert (ingested[0], ingested[2]) == (simulated[0], simulated[2]) == (code, err)
        assert len(list(load_log(log))) == (code == 0)

    def test_status_warns_at_a_calendar_event_logged_twice(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        first = json.loads(log.read_text(encoding="utf-8"))
        twin = {**first, "index": 1, "activity": {**first["activity"], "id": "a2"}}
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(twin) + "\n")
        code, out, err = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert (code, err) == (0, "warning: record 1: activity a2: event "
                                  "fair-2026-001@example.org already ingested; "
                                  "keeping state up to record 1\n")
        assert out == encode(status_view(replay(list(load_log(log))[:1]), "a1", 0))

    def test_replay_prints_all_views(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        run(capsys, "ingest", CORPUS / "mixed_enrolment.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        code, out, _ = run(capsys, "replay", "--log", log, "--now", 0)
        assert code == 0
        views = [json.loads(line) for line in out.splitlines()]
        assert [v["activity"] for v in views] == ["a1", "a2"]

    def test_replay_recovers_from_truncated_tail(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        text = log.read_text()
        log.write_text(text + '{"type":"ARMED","activity":"a1"')  # torn write
        code, out, err = run(capsys, "replay", "--log", log, "--now", 0)
        assert code == 0
        assert "warning" in err and "record 1" in err
        assert json.loads(out.splitlines()[0])["activity"] == "a1"

    def test_corrupt_line_in_the_middle(self, tmp_path, capsys):
        result = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json"))
        lines = result.log_lines
        k = len(lines) // 2
        log = tmp_path / "events.log"
        text = "".join(lines[:k] + ["not a record\n"] + lines[k + 1:])
        log.write_text(text, encoding="utf-8")
        with pytest.raises(CorruptRecord) as e:
            Engine(log_path=log)
        assert e.value.index == k
        assert log.read_text(encoding="utf-8") == text  # left as it was
        kept = replay(result.records[:k])
        warning = (f"warning: record {k}: not valid JSON: Expecting value: line 1 column 1 "
                   f"(char 0); keeping state up to record {k}\n")
        code, out, err = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert (code, err) == (0, warning)
        assert out == encode(status_view(kept, "a1", 0))
        code, out, err = run(capsys, "replay", "--log", log, "--now", 0)
        assert (code, err) == (0, warning)
        assert out == "".join(encode(status_view(kept, a, 0)) for a in kept.activities)

    @pytest.mark.parametrize("alone", [True, False])
    def test_record_naming_an_unknown_id(self, tmp_path, capsys, alone):
        # A well-formed record naming an unknown activity or participant: serve
        # and ingest refuse the log; status and replay keep the state before it.
        if alone:
            k, kept = 0, replay([])
            lines = ['{"type":"ARMED","activity":"a9","at":8,"index":0,"who":"bruno"}\n']
        else:
            result = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json"))
            lines, k = result.log_lines, len(result.log_lines) // 2
            lines[k] = encode_record(EventRecord(k, 8, ArmSet("a1", "zed")))
            kept = replay(result.records[:k])
        log = tmp_path / "events.log"
        text = "".join(lines)
        log.write_text(text, encoding="utf-8")

        proc = subprocess.run(
            [sys.executable, "-m", "syncpoint.cli", "serve", "--listen", "127.0.0.1:0",
             "--log", str(log)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=10,
        )
        code, out, err = run(capsys, "ingest", CORPUS / "meetup_fair.ics",
                             "--system-address", SYSTEM, "--log", log, "--now", 0)
        for code, err in ((proc.returncode, proc.stderr), (code, err)):
            assert code == 1, err
            assert len(err.splitlines()) == 1, err
            assert err.startswith(f"error: CORRUPT_RECORD: record {k}: unknown activity"), err
        assert log.read_text(encoding="utf-8") == text  # left as it was

        code, out, err = run(capsys, "replay", "--log", log, "--now", 0)
        assert code == 0 and len(err.splitlines()) == 1, err
        assert err.startswith(f"warning: record {k}: unknown activity or participant"), err
        assert err.endswith(f"; keeping state up to record {k}\n"), err
        assert out == "".join(encode(status_view(kept, a, 0)) for a in kept.activities)
        for a in kept.activities:
            code, out, status_err = run(capsys, "status", a, "--log", log, "--now", 0)
            assert (code, out, status_err) == (0, encode(status_view(kept, a, 0)), err)

    def test_status_and_replay_decode_each_line_once(self, tmp_path, capsys, monkeypatch):
        # A record naming an unknown id ends the log: the state before it is
        # kept from the one pass that found it, not from a second replay.
        lines = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json")).log_lines
        k = len(lines)
        lines.append(encode_record(EventRecord(k, 8, ArmSet("a9", "bruno"))))
        log = tmp_path / "events.log"
        log.write_text("".join(lines), encoding="utf-8")
        decoded = []
        decode_record = syncpoint.eventlog.decode_record
        monkeypatch.setattr(syncpoint.eventlog, "decode_record",
                            lambda line, index: decoded.append(index) or decode_record(line, index))
        for argv in (("status", "a1"), ("replay",)):
            decoded.clear()
            code, _, err = run(capsys, *argv, "--log", log, "--now", 0)
            assert code == 0 and err.startswith(f"warning: record {k}: unknown activity"), err
            assert decoded == list(range(k + 1))

    def test_status_unknown_activity(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        code, _, err = run(capsys, "status", "a9", "--log", log, "--now", 0)
        assert code == 1 and "UNKNOWN_ACTIVITY" in err

    @pytest.mark.parametrize("command", [
        ("ingest", CORPUS / "meetup_fair.ics", "--system-address", SYSTEM),
        ("status", "a1"),
        ("replay",),
    ])
    def test_a_negative_now_is_refused_and_nothing_is_written(self, tmp_path, capsys, command):
        log = tmp_path / "events.log"
        code, out, err = run(capsys, *command, "--log", log, "--now", -1)
        assert (code, out, err) == (2, "", "--now must be >= 0, got -1\n")
        assert not log.exists()

    def test_every_ingested_record_reads_back_checked(self, tmp_path, capsys):
        log, created = tmp_path / "events.log", 0
        for calendar in sorted(CORPUS.glob("*.ics")):
            _, out, _ = run(capsys, "ingest", calendar, "--system-address", SYSTEM,
                            "--log", log, "--now", 7)
            created += out.count("created a")
        records = list(load_log(log))
        assert len(records) == created >= 3
        assert log.read_text(encoding="utf-8") == "".join(map(encode_record, records))
        engine = Engine(log_path=log)
        engine.close()
        assert replay(records) == engine.state


class TestRepeatedFacts:
    """A participant arrives once and answers once: a second arrival, or a
    second answer, in a log is a ``CorruptRecord`` at its index."""

    @pytest.mark.parametrize("first, repeat, reason", [
        ("ARRIVAL_RECORDED", {}, "activity a1: 'ana' has already arrived"),
        ("INVITE_RESPONDED", {"answer": "DECLINE"},
         "activity a1: 'ana' already responded (ACCEPTED)"),
    ], ids=["arrival", "answer"])
    def test_a_repeat_appended_to_the_s1_log_is_refused(self, tmp_path, capsys, first, repeat,
                                                       reason):
        lines = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json")).log_lines
        s1 = replay(read_records(lines))
        k = len(lines)
        again = json.loads(next(line for line in lines if f'"type":"{first}"' in line))
        assert again["who"] == "ana"
        lines.append(json.dumps({**again, **repeat, "index": k}) + "\n")
        log = tmp_path / "events.log"
        log.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CorruptRecord) as e:
            replay(load_log(log))
        assert (e.value.index, e.value.reason) == (k, reason) == (39, reason)
        assert e.value.state == s1
        with pytest.raises(CorruptRecord):
            Engine(log_path=log)
        code, out, err = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert code == 0 and "Traceback" not in err
        assert err.splitlines() == [f"warning: record 39: {reason}; keeping state up to record 39"]
        assert out == encode(status_view(s1, "a1", 0))


class TestForgedRecords:
    """A record the live path could not have logged, appended to the s2 log,
    is a ``CorruptRecord`` at its index: replay checks each record as the
    command that logs it does. In the s2 log ``org-hq`` is invited and never
    answers, every guest has arrived, and ``g01``'s last fix was at 660."""

    PROBES = {  # the forged events, appended in order; the first is refused with the reason
        "an invitee who never answered arms and arrives": (
            [ArmSet("a1", "org-hq"), ArrivalRecorded("a1", "org-hq", 1400)],
            "activity a1: 'org-hq' has not accepted a1"),
        "an arrival with no arm and no fix": (
            [ArrivalRecorded("a1", "org-hq", 1400)],
            "activity a1: 'org-hq' has not accepted a1"),
        "a task done on a gathering": (
            [TaskCompleted("a1", "g01", 1400)], "activity a1: a1 is GATHERING, not TASK"),
        "a fix that rewinds the last fix time": (
            [FixAccepted("a1", "g01", Zone.INSIDE, 0)],
            "activity a1: fix at 0 is not after the last fix at 660"),
        "an arm after the arrival, then a second arrival": (
            [ArmSet("a1", "g01"), ArrivalRecorded("a1", "g01", 1400)],
            "activity a1: alarm is already armed or the participant has arrived"),
    }

    @pytest.mark.parametrize("forged, reason", PROBES.values(), ids=PROBES)
    def test_replay_and_status_stop_at_the_first_forged_record(self, tmp_path, capsys, forged,
                                                              reason):
        lines = run_scenario(load_scenario(SCENARIOS / "s2_gathering.json")).log_lines
        s2, k = replay(read_records(lines)), len(lines)
        log = tmp_path / "events.log"
        log.write_text("".join(lines) + "".join(
            encode_record(EventRecord(k + i, 1400, e)) for i, e in enumerate(forged)
        ), encoding="utf-8")
        with pytest.raises(CorruptRecord) as e:
            replay(load_log(log))
        assert (e.value.index, e.value.reason) == (k, reason)
        assert e.value.state == s2
        code, out, err = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert code == 0
        assert err.splitlines() == [f"warning: record {k}: {reason}; keeping state up to record {k}"]
        assert out == encode(status_view(s2, "a1", 0))


class TestTypeConfusedRecords:
    """A record whose field has the wrong type or range is a ``CorruptRecord``
    at its index, as a malformed line is: replay hands back the state before
    it, ``status`` warns and keeps that state, and ``serve`` refuses the log."""

    # The s1 log, with a second activity appended as record 39.
    CASES = [  # (index, field, value, detail)
        (39, "batch_threshold", 0, "must be >= 1"),
        (39, "batch_threshold", "5", "expected an integer"),
        (39, "title", 5, "expected a string"),
        (24, "fix_at", "x", "expected an integer"),
        (4, "who", "", "must be non-empty"),
    ]

    @staticmethod
    def _log(tmp_path: Path, k: int, field: str, value) -> tuple[Path, list[EventRecord]]:
        lines = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json")).log_lines
        second = json.loads(lines[0])
        second["activity"]["id"], second["index"] = "a2", len(lines)
        lines.append(json.dumps(second) + "\n")
        records = list(read_records(lines))
        obj = json.loads(lines[k])
        (obj["activity"] if k == 39 else obj)[field] = value  # 39 is an ACTIVITY_CREATED
        lines[k] = json.dumps(obj) + "\n"
        log = tmp_path / "events.log"
        log.write_text("".join(lines), encoding="utf-8")
        return log, records[:k]

    @pytest.mark.parametrize("k, field, value, detail", CASES)
    def test_replay_stops_at_it_with_the_state_before(self, tmp_path, k, field, value, detail):
        log, before = self._log(tmp_path, k, field, value)
        with pytest.raises(CorruptRecord) as e:
            replay(load_log(log))
        assert (e.value.index, e.value.reason) == (
            k, f"bad record payload: invalid field {field!r}: {detail}"
        )
        assert e.value.state == replay(before)

    @pytest.mark.parametrize("k, field, value, detail", CASES)
    def test_status_warns_once_and_keeps_the_state_before(
        self, tmp_path, capsys, k, field, value, detail
    ):
        log, before = self._log(tmp_path, k, field, value)
        code, out, err = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert code == 0
        assert err == (f"warning: record {k}: bad record payload: invalid field {field!r}: "
                       f"{detail}; keeping state up to record {k}\n")
        assert out == encode(status_view(replay(before), "a1", 0))

    @pytest.mark.parametrize("k, field, value, detail", CASES)
    def test_serve_refuses_the_log_with_one_line(self, tmp_path, k, field, value, detail):
        log, _ = self._log(tmp_path, k, field, value)
        proc = subprocess.run(
            [sys.executable, "-m", "syncpoint.cli", "serve", "--listen", "127.0.0.1:0",
             "--log", str(log)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stderr == (f"error: CORRUPT_RECORD: record {k}: bad record payload: "
                               f"invalid field {field!r}: {detail}\n")


class TestImpossibleActivity:
    """An ``ACTIVITY_CREATED`` that ``create_activity`` could not have made next
    is a ``CorruptRecord`` too: ``Engine`` and ``serve`` refuse the log, and
    ``status`` warns and keeps the state before it. An old-form roster entry
    logged as anything but invited is refused as its line is decoded."""

    CASES = [  # (field of the second activity, value, reason)
        ("id", "a3", "activity id 'a3' is not the next id 'a2'"),
        ("id", "a1", "activity id 'a1' is not the next id 'a2'"),
        ("title", "\ud800", "activity a2: title '\\ud800' cannot be encoded as UTF-8"),
        ("participants",
         [{"id": "ana", "status": "INVITED"}, {"id": "bruno", "status": "ACCEPTED"},
          {"id": "carla", "status": "INVITED"}],
         "bad record payload: invalid field 'participants': "
         "old-form roster status 'ACCEPTED' is not 'INVITED'"),
    ]

    @pytest.mark.parametrize("field, value, reason", CASES)
    def test_engine_and_serve_refuse_the_log(self, tmp_path, field, value, reason):
        log, before = TestTypeConfusedRecords._log(tmp_path, 39, field, value)
        with pytest.raises(CorruptRecord) as e:
            Engine(log_path=log)
        assert (e.value.index, e.value.reason) == (39, reason)
        assert e.value.state == replay(before) and e.value.state.record_count == 39
        proc = subprocess.run(
            [sys.executable, "-m", "syncpoint.cli", "serve", "--listen", "127.0.0.1:0",
             "--log", str(log)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: CORRUPT_RECORD: record 39: {reason}\n"

    @pytest.mark.parametrize("field, value, reason", CASES)
    def test_status_warns_once_and_keeps_the_state_before(
        self, tmp_path, capsys, field, value, reason
    ):
        log, before = TestTypeConfusedRecords._log(tmp_path, 39, field, value)
        code, out, err = run(capsys, "status", "a1", "--log", log, "--now", 0)
        assert (code, err) == (0, f"warning: record 39: {reason}; keeping state up to record 39\n")
        assert out == encode(status_view(replay(before), "a1", 0))


class TestSimulate:
    def test_simulate_writes_transcript(self, tmp_path, capsys):
        out_path = tmp_path / "t.jsonl"
        code, out, _ = run(capsys, "simulate", SCENARIOS / "s4_task.json",
                           "--out", out_path)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["msg"]["type"] == "NOTIFY"

    def test_simulate_stdout(self, capsys):
        code, out, _ = run(capsys, "simulate", SCENARIOS / "s4_task.json")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_check_matches_golden(self, capsys):
        code, out, _ = run(capsys, "simulate", "--check",
                           SCENARIOS / "s4_task.json",
                           REPO / "golden" / "s4_task.transcript.jsonl")
        assert code == 0
        assert "matches" in out

    def test_check_reports_first_divergence(self, tmp_path, capsys):
        golden = (REPO / "golden" / "s4_task.transcript.jsonl").read_text()
        lines = golden.splitlines()
        lines[2] = lines[2].replace("ACK", "NAK")
        doctored = tmp_path / "bad.jsonl"
        doctored.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "simulate", "--check",
                           SCENARIOS / "s4_task.json", doctored)
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("calendar", ["mixed_enrolment.ics", "twice.ics"])
    def test_simulate_warns_about_its_calendar_as_ingest_does(self, tmp_path, capsys, calendar):
        ics = CORPUS / calendar
        if calendar == "twice.ics":  # an unknown property, and a UID twice
            ics = tmp_path / calendar
            event = (
                "BEGIN:VEVENT\r\nUID:u1\r\nDTSTART:100\r\nDTEND:200\r\nX-CUSTOM-THING:x\r\n"
                "GEO:1.0;1.0\r\nORGANIZER:mailto:ana@x\r\nATTENDEE:mailto:ana@x\r\n"
                f"ATTENDEE:mailto:bruno@x\r\nATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\n"
            )
            ics.write_text(f"BEGIN:VCALENDAR\r\n{event}{event}END:VCALENDAR\r\n")
        scenario = tmp_path / "calendar.json"
        scenario.write_text(json.dumps({
            "seed": 1, "fix_period_s": 30, "horizon": 60,
            "activities": {"ics": str(ics), "system_address": SYSTEM}, "actors": [],
        }))
        _, _, ingest_err = run(capsys, "ingest", ics, "--system-address", SYSTEM,
                               "--log", tmp_path / "events.log", "--now", 0)
        code, out, err = run(capsys, "simulate", scenario)
        assert code == 0
        assert "X-CUSTOM-THING" in err and err == ingest_err
        # The warnings go to stderr only: stdout is the transcript.
        assert out == "".join(transcript_lines(run_scenario(load_scenario(scenario)).transcript))

    def test_a_title_that_is_not_a_string_is_one_error_line(self, tmp_path, capsys):
        def edit(scenario):
            scenario["activities"][0]["title"] = 5
        err = self.simulate(tmp_path, capsys, edit)
        assert err == "error: SCENARIO_INVALID: invalid field 'title': expected a string\n"

    def test_a_title_utf8_cannot_encode_is_one_error_line(self, tmp_path, capsys):
        # A lone surrogate loads from a JSON escape but cannot be written out,
        # so an activity that carries one would end ``simulate --out`` in a
        # UnicodeEncodeError traceback.
        scenario = json.loads((SCENARIOS / "s4_task.json").read_text())
        scenario["activities"][0]["title"] = "\ud800"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))  # ASCII, with the escape
        out_path = tmp_path / "out.jsonl"
        code, out, err = run(capsys, "simulate", path, "--out", out_path)
        assert (code, out) == (1, "")
        assert err == (
            "error: TITLE_INVALID: title '\\ud800' cannot be encoded as UTF-8\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("batch", [True, False])
    def test_a_boolean_batch_threshold_is_one_error_line(self, tmp_path, capsys, batch):
        def edit(scenario):
            scenario["activities"][0]["batch_threshold"] = batch
        err = self.simulate(tmp_path, capsys, edit, "s2_gathering.json")
        assert err == (
            "error: SCENARIO_INVALID: invalid field 'batch_threshold': expected an integer\n"
        )

    def simulate(self, tmp_path, capsys, edit, source="s1_meetup.json"):
        """Simulate ``source`` as ``edit`` changes it; it must fail with one
        SCENARIO_INVALID line on stderr, which is returned."""
        scenario = json.loads((SCENARIOS / source).read_text())
        edit(scenario)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, "simulate", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: SCENARIO_INVALID: ") and err.count("\n") == 1, err
        return err

    def test_a_list_as_an_action_target_is_one_error_line(self, tmp_path, capsys):
        def edit(scenario):
            scenario["actors"][0]["actions"][0] = [10, "ACCEPT", ["a1"]]
        err = self.simulate(tmp_path, capsys, edit)
        assert "invalid field 'activity': expected a string" in err

    def test_a_list_as_an_actor_id_is_one_error_line(self, tmp_path, capsys):
        def edit(scenario):
            scenario["actors"][0]["id"] = ["ana"]
        err = self.simulate(tmp_path, capsys, edit)
        assert "invalid field 'id': expected a string" in err

    @pytest.mark.parametrize("key", ["trace", "actions"])
    @pytest.mark.parametrize("at", ["0", True, 0.9])
    def test_a_time_that_is_not_an_integer_is_one_error_line(self, tmp_path, capsys, key, at):
        def edit(scenario):
            scenario["actors"][0][key][0][0] = at
        err = self.simulate(tmp_path, capsys, edit)
        assert "invalid field 'at': expected an integer" in err

    @pytest.mark.parametrize("where", ["trace", "activity"])
    @pytest.mark.parametrize("lat", ["41.5", True])
    def test_a_coordinate_that_is_not_a_number_is_one_error_line(
        self, tmp_path, capsys, where, lat
    ):
        def edit(scenario):
            if where == "trace":
                scenario["actors"][0]["trace"][0][1] = lat
            else:
                scenario["activities"][0]["lat"] = lat
        err = self.simulate(tmp_path, capsys, edit)
        assert "invalid field 'lat': expected a number" in err

    @pytest.mark.parametrize("key", ["radius_m", "hysteresis_m"])
    @pytest.mark.parametrize("value", ["100", True])
    def test_a_fence_size_that_is_not_a_number_is_one_error_line(
        self, tmp_path, capsys, key, value
    ):
        def edit(scenario):
            scenario["activities"][0][key] = value
        err = self.simulate(tmp_path, capsys, edit)
        assert f"invalid field '{key}': expected a number" in err

    @pytest.mark.parametrize("participants, detail", [
        (["ana", ["bruno"], "carla"], "participants': expected a string"),
        ("abc", "participants': expected a list"),
    ])
    def test_a_roster_that_is_not_a_list_of_strings_is_one_error_line(
        self, tmp_path, capsys, participants, detail
    ):
        def edit(scenario):
            scenario["activities"][0]["participants"] = participants
        err = self.simulate(tmp_path, capsys, edit)
        assert f"invalid field '{detail}" in err

    def test_an_actor_listed_twice_is_one_error_line(self, tmp_path, capsys):
        def edit(scenario):
            scenario["actors"].append(scenario["actors"][0])
        err = self.simulate(tmp_path, capsys, edit)
        assert "actor 'ana' is listed twice" in err

    def test_check_needs_golden_path(self, capsys):
        code, _, err = run(capsys, "simulate", "--check",
                           SCENARIOS / "s4_task.json")
        assert code == 2


class TestNotUtf8:
    """A file that is not UTF-8 is one error line naming it, never a traceback."""

    LATIN1 = "caf\u00e9".encode("latin-1")

    def latin1_calendar(self, tmp_path):
        ics = tmp_path / "latin1.ics"
        ics.write_bytes(
            b"BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:u1\r\nSUMMARY:" + self.LATIN1
            + b"\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        return ics

    def assert_one_error_line(self, err, path):
        assert err.startswith(f"error: NOT_UTF8: {path} is not UTF-8") and err.count("\n") == 1, err

    def test_ingest_leaves_the_log_as_it_was(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        before = log.read_bytes()
        ics = self.latin1_calendar(tmp_path)
        code, out, err = run(capsys, "ingest", ics, "--system-address", SYSTEM,
                             "--log", log, "--now", 0)
        assert (code, out) == (1, "")
        self.assert_one_error_line(err, ics)
        assert log.read_bytes() == before

    def test_simulate_on_a_scenario_naming_the_calendar(self, tmp_path, capsys):
        ics = self.latin1_calendar(tmp_path)
        scenario = tmp_path / "calendar.json"
        scenario.write_text(json.dumps({
            "seed": 1, "fix_period_s": 30, "horizon": 60,
            "activities": {"ics": str(ics), "system_address": SYSTEM}, "actors": [],
        }))
        code, out, err = run(capsys, "simulate", scenario)
        assert (code, out) == (1, "")
        self.assert_one_error_line(err, ics)

    def test_simulate_check_with_the_golden_file(self, tmp_path, capsys):
        golden = tmp_path / "golden.jsonl"
        golden.write_bytes((REPO / "golden" / "s4_task.transcript.jsonl").read_bytes() + self.LATIN1)
        code, out, err = run(capsys, "simulate", "--check", SCENARIOS / "s4_task.json", golden)
        assert (code, out) == (1, "")
        self.assert_one_error_line(err, golden)


class TestUnreadable:
    """A named file that cannot be read is one error line with the system's
    reason, never a traceback, whatever its path holds."""

    @pytest.mark.parametrize("ics, reason", [
        ("\ud800.ics", "surrogates not allowed"),
        ("a\0b.ics", "embedded null byte"),
        ("missing.ics", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["lone-surrogate", "nul", "missing", "directory"])
    def test_a_calendar_a_scenario_names(self, tmp_path, capsys, ics, reason):
        scenario = tmp_path / "calendar.json"
        scenario.write_text(json.dumps({
            "seed": 1, "fix_period_s": 30, "horizon": 60,
            "activities": {"ics": ics, "system_address": SYSTEM}, "actors": [],
        }))
        with raises_code("UNREADABLE") as e:
            run_scenario(load_scenario(scenario))
        assert e.value.detail.endswith(f": {reason}")
        code, out, err = run(capsys, "simulate", scenario)
        assert (code, out) == (1, "")
        assert err == f"error: UNREADABLE: {e.value.detail}\n"

    def test_a_missing_calendar_leaves_no_log(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        code, out, err = run(capsys, "ingest", tmp_path / "missing.ics",
                             "--system-address", SYSTEM, "--log", log, "--now", 0)
        assert (code, out) == (1, "")
        assert err == (f"error: UNREADABLE: cannot read {str(tmp_path / 'missing.ics')!r}: "
                       "No such file or directory\n")
        assert not log.exists()


def test_only_serve_imports_the_event_loop():
    # A fresh interpreter: this one has imported asyncio for the serve tests.
    probe = "import sys, syncpoint.cli; print(sorted({'asyncio', 'syncpoint.net'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=30, check=True,
    )
    assert proc.stdout == "[]\n", proc.stdout + proc.stderr


class TestServe:
    @staticmethod
    def _session(log: Path, frames: list, keep_open: bool) -> tuple[list, int, str]:
        """Start ``serve`` on ``log``, send each frame on one connection and
        read its reply, then send SIGTERM; the connection is closed first
        unless ``keep_open``. A callable in place of a frame is called at
        that point of the session. Returns the replies, the exit code and
        stderr."""
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "syncpoint.cli", "serve",
             "--listen", f"127.0.0.1:{port}", "--log", str(log)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 10
            while True:
                try:
                    conn = socket.create_connection(("127.0.0.1", port), timeout=1)
                    break
                except OSError:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
            with conn, conn.makefile() as replies:
                got = []
                for frame in frames:
                    if callable(frame):
                        frame()
                        continue
                    conn.sendall(frame)
                    got.append(json.loads(replies.readline()))
                if not keep_open:
                    conn.close()
                    time.sleep(0.1)
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=10)
            return got, code, proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    HELLO = b'{"type":"HELLO","participant":"ana"}\n'

    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        replies, code, err = self._session(tmp_path / "events.log", [self.HELLO], keep_open=False)
        assert replies[0]["type"] == "WELCOME"
        assert code == 0, err

    def test_sigterm_with_an_open_connection_is_quiet(self, tmp_path):
        replies, code, err = self._session(tmp_path / "events.log", [self.HELLO], keep_open=True)
        assert replies[0]["type"] == "WELCOME"
        assert code == 0, err
        assert "Traceback" not in err, err

    def test_torn_tail_is_cut_and_serve_starts(self, tmp_path):
        log = tmp_path / "events.log"
        engine = Engine(log_path=log)
        # Far enough ahead that the server clock allows answers.
        engine.create_activities([ActivitySpec(
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(4_000_000_000, 4_000_003_600),
            fence=Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0),
            organizer="ana", participants=("ana", "bruno"),
        )], now=0)
        engine.close()
        text = log.read_text()
        log.write_text(text + '{"type":"ARMED","activity":"a1"')  # torn write
        replies, code, err = self._session(log, [
            b'{"type":"HELLO","participant":"bruno"}\n',
            b'{"type":"RESPOND_INVITE","activity":"a1","answer":"ACCEPT"}\n',
        ], keep_open=False)
        assert [r["type"] for r in replies] == ["WELCOME", "ACK"], replies
        assert code == 0, err
        assert "warning" in err and "record 1" in err, err
        # The torn line is gone and the new record starts on a fresh line.
        records = list(load_log(log))
        assert [type(r.event).__name__ for r in records] == ["ActivityCreated", "InviteResponded"]
        assert log.read_text().startswith(text)
        assert replay(records).presence["a1"]["bruno"].status is ParticipantStatus.ACCEPTED

    def test_a_second_writer_is_refused_while_serve_runs(self, tmp_path, capsys):
        # An ingest into a running server's log would append records whose
        # indices the server then writes again, and the server could not
        # restart on the log. The server holds the log, so the ingest is
        # refused with one line; a reader still reads it.
        def calendar(uid):
            ics = tmp_path / f"{uid}.ics"
            ics.write_text(
                "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\n"
                f"UID:{uid}\r\nDTSTART:4000000000\r\nDTEND:4000003600\r\n"
                "GEO:41.5606;-8.3970\r\nORGANIZER:mailto:ana@x\r\n"
                "ATTENDEE:mailto:ana@x\r\nATTENDEE:mailto:bruno@x\r\n"
                f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
            )
            return ics

        log = tmp_path / "events.log"
        assert run(capsys, "ingest", calendar("u1"), "--system-address", SYSTEM,
                   "--log", log, "--now", 0)[0] == 0
        refused = []

        def ingest_while_serving():
            before = log.read_bytes()
            refused.append(run(capsys, "ingest", calendar("u2"), "--system-address", SYSTEM,
                               "--log", log, "--now", 0))
            assert log.read_bytes() == before
            refused.append(run(capsys, "replay", "--log", log, "--now", 0))

        replies, code, err = self._session(log, [
            b'{"type":"HELLO","participant":"bruno@x"}\n',
            ingest_while_serving,
            b'{"type":"RESPOND_INVITE","activity":"a1","answer":"ACCEPT"}\n',
        ], keep_open=False)
        assert [r["type"] for r in replies] == ["WELCOME", "ACK"], replies
        assert code == 0, err
        (ingest_code, out, ingest_err), (replay_code, views, _) = refused
        assert ingest_code == 1 and out == ""
        assert ingest_err.startswith("error: LOG_IN_USE: ") and ingest_err.count("\n") == 1
        assert replay_code == 0 and json.loads(views)["activity"] == "a1"
        # The server restarts on the log, and the acknowledged answer is in it.
        engine = Engine(log_path=log)
        engine.close()
        assert [r.index for r in load_log(log)] == [0, 1]
        assert engine.state.presence["a1"]["bruno@x"].status is ParticipantStatus.ACCEPTED

    def test_a_session_log_reads_back_checked(self, tmp_path):
        log = tmp_path / "events.log"
        engine = Engine(log_path=log)
        engine.create_activities([ActivitySpec(  # active from the epoch to far ahead of the clock
            title="Fair", window=TimeWindow(0, 4_000_000_000),
            fence=Geofence(GeoPoint(41.5606, -8.3970)),
            organizer="ana", participants=("ana", "bruno"),
        )], now=0)
        engine.close()
        replies, code, err = self._session(log, [
            b'{"type":"HELLO","participant":"bruno"}\n',
            b'{"type":"RESPOND_INVITE","activity":"a1","answer":"ACCEPT"}\n',
            b'{"type":"ARM","activity":"a1"}\n',
            b'{"type":"FIX","activity":"a1","at":1000,"lat":41.6,"lon":-8.397}\n',
            b'{"type":"DISARM","activity":"a1"}\n',
        ], keep_open=False)
        assert [r["type"] for r in replies] == ["WELCOME", "ACK", "ACK", "ACK", "ACK"], replies
        assert code == 0, err
        records = list(load_log(log))
        assert [type(r.event).__name__ for r in records] == [
            "ActivityCreated", "InviteResponded", "ArmSet", "FixAccepted", "ArmCleared",
        ]
        assert log.read_text(encoding="utf-8") == "".join(map(encode_record, records))
        presence = replay(records).presence["a1"]["bruno"]
        assert (presence.alarm, presence.last_fix_at) == (Alarm.DISARMED, 1000)

    def test_port_in_use_is_one_error_line(self, tmp_path):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "syncpoint.cli", "serve",
                 "--listen", f"127.0.0.1:{port}", "--log", str(tmp_path / "events.log")],
                env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                capture_output=True, text=True, timeout=10,
            )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "address already in use" in lines[0]

    def test_a_port_out_of_range_is_a_usage_error(self, tmp_path):
        # Refused as usage, before the log is created and before bind() could
        # raise OverflowError.
        log = tmp_path / "events.log"
        proc = subprocess.run(
            [sys.executable, "-m", "syncpoint.cli", "serve",
             "--listen", "127.0.0.1:70000", "--log", str(log)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "--listen expects HOST:PORT, with a port of 0-65535" in proc.stderr
        assert not log.exists()

    @pytest.mark.parametrize("listen, address", [
        ("[::1]:7007", ("::1", 7007)),
        ("::1:7007", ("::1", 7007)),
        (":65535", ("127.0.0.1", 65535)),
    ])
    def test_listen_takes_a_bracketed_ipv6_host(self, listen, address):
        args = build_parser().parse_args(["serve", "--listen", listen, "--log", "events.log"])
        assert args.listen == address

    def test_other_corrupt_lines_still_refuse_to_start(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        run(capsys, "ingest", CORPUS / "meetup_fair.ics",
            "--system-address", SYSTEM, "--log", log, "--now", 0)
        log.write_text("not a record\n" + log.read_text())
        proc = subprocess.run(
            [sys.executable, "-m", "syncpoint.cli", "serve", "--listen", "127.0.0.1:0",
             "--log", str(log)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1 and "CORRUPT_RECORD: record 0" in proc.stderr
