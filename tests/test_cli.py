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

import syncpoint.eventlog
from syncpoint.activities import ActivityKind, ActivitySpec, ParticipantStatus, TimeWindow
from syncpoint.cli import main
from syncpoint.engine import Engine, replay, status_view
from syncpoint.eventlog import ArmSet, CorruptRecord, EventRecord, encode_record, load_log
from syncpoint.geo import Geofence, GeoPoint
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

    def test_check_needs_golden_path(self, capsys):
        code, _, err = run(capsys, "simulate", "--check",
                           SCENARIOS / "s4_task.json")
        assert code == 2


class TestServe:
    @staticmethod
    def _session(log: Path, frames: list[bytes], keep_open: bool) -> tuple[list, int, str]:
        """Start ``serve`` on ``log``, send each frame on one connection and
        read its reply, then send SIGTERM; the connection is closed first
        unless ``keep_open``. Returns the replies, the exit code and stderr."""
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
        engine.create_activity(ActivitySpec(  # far enough ahead that the server clock allows answers
            title="Fair", kind=ActivityKind.MEETUP,
            window=TimeWindow(4_000_000_000, 4_000_003_600),
            fence=Geofence(GeoPoint(41.5606, -8.3970), 100.0, 25.0),
            organizer="ana", participants=("ana", "bruno"),
        ), now=0)
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
        bruno = replay(records).activities["a1"].participant("bruno")
        assert bruno.status is ParticipantStatus.ACCEPTED

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
