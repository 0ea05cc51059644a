"""CLI surface: ingest, status, replay, simulate, simulate --check, serve."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from syncpoint.cli import main

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

    def test_check_needs_golden_path(self, capsys):
        code, _, err = run(capsys, "simulate", "--check",
                           SCENARIOS / "s4_task.json")
        assert code == 2


class TestServe:
    @staticmethod
    def _signal_with_a_connection(tmp_path, keep_open: bool) -> tuple[int, str]:
        """Start ``serve``, say HELLO on one connection, then send SIGTERM;
        the connection is closed first unless ``keep_open``. Returns the
        exit code and stderr."""
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "syncpoint.cli", "serve",
             "--listen", f"127.0.0.1:{port}", "--log", str(tmp_path / "events.log")],
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
                conn.sendall(b'{"type":"HELLO","participant":"ana"}\n')
                assert json.loads(replies.readline())["type"] == "WELCOME"
                if not keep_open:
                    conn.close()
                    time.sleep(0.1)
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=10)
            return code, proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_sigterm_shuts_down_cleanly(self, tmp_path):
        code, err = self._signal_with_a_connection(tmp_path, keep_open=False)
        assert code == 0, err

    def test_sigterm_with_an_open_connection_is_quiet(self, tmp_path):
        code, err = self._signal_with_a_connection(tmp_path, keep_open=True)
        assert code == 0, err
        assert "Traceback" not in err, err
