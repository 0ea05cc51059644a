"""The event log at rest: its coordinate-free format, its roster of ids, the
older forms it still reads, cuts at every byte, and commits that fail."""

import asyncio
import copy
import errno
import json
import os
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from syncpoint.activities import ActivityKind, ActivitySpec, InviteAnswer, TimeWindow
from syncpoint.engine import Engine, ServerState, apply, create_activity, handle, replay
from syncpoint.eventlog import (
    ArmSet,
    CorruptRecord,
    EventRecord,
    FixAccepted,
    LogWriteFailed,
    LogWriter,
    PointFix,
    decode_record,
    encode_record,
    load_log,
    read_records,
)
from syncpoint.geo import Geofence, GeoPoint, Zone
from syncpoint.net import SyncServer
from syncpoint.sim import load_scenario, run_scenario, scenario_from_dict
from syncpoint.wire import Ack, Arm, Fix, Hello, Poll, RespondInvite, Welcome, decode, encode
from codes import raises_code
from genmsg import CENTER, at_distance
from mutation import draw_byte_mutant, draw_mutant
from test_sim import generated_crowd

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
# The s1 log as the previous format wrote it: each roster entry an object
# {"id": …, "status": "INVITED"}.
OLD_ROSTER_LOG = REPO / "data" / "log" / "s1_meetup.roster_objects.jsonl"


def fair(engine: Engine, window=TimeWindow(1000, 5000)):
    """A meetup of ana (organizer), bruno and carla; ana and bruno accept."""
    (act,), _, _ = engine.create_activities([ActivitySpec(
        title="Fair", kind=ActivityKind.MEETUP, window=window,
        fence=Geofence(CENTER, 100.0, 25.0), organizer="ana",
        participants=("ana", "bruno", "carla"),
    )], now=0)
    for who in ("ana", "bruno"):
        engine.handle(RespondInvite(act.id, InviteAnswer.ACCEPT), who, 5)
    return act


def canonical(obj: dict) -> str:
    """The log's canonical line for a parsed record: type first, then sorted keys."""
    def order(node):
        if isinstance(node, dict):
            keys = (["type"] if "type" in node else []) + sorted(k for k in node if k != "type")
            return {k: order(node[k]) for k in keys}
        return [order(v) for v in node] if isinstance(node, list) else node
    return json.dumps(order(obj), ensure_ascii=False, separators=(",", ":")) + "\n"


def point_bearing(line: str, point: GeoPoint) -> str:
    """A FIX_ACCEPTED or ARMED line in the older format: the fix's point, not its zone."""
    obj = json.loads(line)
    if obj["type"] == "FIX_ACCEPTED":
        del obj["zone"]
        obj.update(lat=point.lat, lon=point.lon)
    elif obj["type"] == "ARMED":
        obj["zone"] = "OUTSIDE"
    return canonical(obj)


def started(log: Path) -> ServerState:
    """The state an engine starts with on ``log``."""
    engine = Engine(log_path=log)
    engine.close()
    return engine.state


def coordinate_holders(lines) -> list[str]:
    """The records, other than ACTIVITY_CREATED, with a lat, lon or float anywhere."""
    def holds(node) -> bool:
        if isinstance(node, dict):
            return "lat" in node or "lon" in node or any(map(holds, node.values()))
        if isinstance(node, list):
            return any(map(holds, node))
        return isinstance(node, float)
    return [
        line for line in lines
        if (obj := json.loads(line))["type"] != "ACTIVITY_CREATED" and holds(obj)
    ]


# --- the format -----------------------------------------------------------------


class TestCoordinateFreeFormat:
    def test_a_fix_record_holds_its_zone(self):
        engine = Engine()
        act, state = fair(engine), engine.state
        handle(state, Arm(act.id), "bruno", 20)
        _, records = handle(state, Fix(act.id, at_distance(110), 2000), "bruno", 2000)
        assert [r.event for r in records] == [FixAccepted(act.id, "bruno", Zone.OUTSIDE, 2000)]
        line = encode_record(records[0])
        assert line == (
            '{"type":"FIX_ACCEPTED","activity":"a1","at":2000,"fix_at":2000,"index":4,'
            '"who":"bruno","zone":"OUTSIDE"}\n'
        )

    def test_apply_takes_the_recorded_zone_without_geometry(self, monkeypatch):
        import syncpoint.geo
        engine = Engine()
        act, state = fair(engine), engine.state
        monkeypatch.setattr(syncpoint.geo, "haversine_m", None)  # any geometry would raise
        apply(state, EventRecord(3, 2000, FixAccepted(act.id, "bruno", Zone.INSIDE, 2000)))
        pp = state.presence[act.id]["bruno"]
        assert (pp.zone, pp.last_fix_at) == (Zone.INSIDE, 2000)

    def test_nothing_writes_or_applies_a_point_bearing_fix(self):
        record = EventRecord(0, 1, PointFix("a1", "bruno", CENTER, 1))
        with pytest.raises(TypeError):
            encode_record(record)
        with pytest.raises(TypeError):
            apply(ServerState(), record)

    def test_an_older_armed_line_with_a_zone_loads_unchanged(self):
        line = '{"type":"ARMED","activity":"a1","at":8,"index":3,"who":"bruno","zone":"INSIDE"}\n'
        assert decode_record(line, 3) == EventRecord(3, 8, ArmSet("a1", "bruno"))
        assert encode_record(decode_record(line, 3)) == (
            '{"type":"ARMED","activity":"a1","at":8,"index":3,"who":"bruno"}\n'
        )

    @pytest.mark.parametrize("zone", ['"NEARBY"', '["INSIDE"]', "3", "null"])
    def test_an_unknown_zone_is_corrupt_and_named(self, zone):
        line = ('{"type":"FIX_ACCEPTED","activity":"a1","at":9,"fix_at":9,"index":4,'
                f'"who":"bruno","zone":{zone}}}\n')
        with pytest.raises(CorruptRecord) as e:
            decode_record(line, 4)
        detail = "not one of ['INSIDE', 'OUTSIDE']" if zone == '"NEARBY"' else "expected a string"
        assert (e.value.index, e.value.reason) == (
            4, f"bad record payload: invalid field 'zone': {detail}"
        )

    @pytest.mark.parametrize("uid, want", [
        ("", None),  # an absent key is the field's default
        (',"calendar_uid":"u1"', "u1"),
        (',"calendar_uid":null', "expected a string"),  # a null is checked as a string
        (',"calendar_uid":""', "must be non-empty"),
    ])
    def test_a_calendar_uid_is_absent_or_a_string(self, uid, want):
        line = run_scenario(load_scenario(SCENARIOS / "s4_task.json")).log_lines[0]
        assert '"calendar_uid"' not in line
        line = line.replace(',"id":', uid + ',"id":', 1)
        if want in (None, "u1"):
            assert decode_record(line, 0).event.activity.calendar_uid == want
        else:
            with pytest.raises(CorruptRecord) as e:
                decode_record(line, 0)
            assert e.value.reason == f"bad record payload: invalid field 'calendar_uid': {want}"

    def test_a_fence_centre_out_of_range_is_corrupt_and_named(self):
        line = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json")).log_lines[0]
        line = line.replace('"lat":41.5606', '"lat":91.0', 1)
        with pytest.raises(CorruptRecord) as e:
            decode_record(line, 0)
        assert e.value.reason == (
            "bad record payload: invalid field 'lat': latitude 91.0 outside [-90, 90]"
        )

    def test_a_point_bearing_fix_line_decodes_to_a_point_fix(self):
        line = ('{"type":"FIX_ACCEPTED","activity":"a1","at":9,"fix_at":9,"index":4,'
                '"lat":41.5606,"lon":-8.397,"who":"bruno"}\n')
        assert decode_record(line, 4) == EventRecord(4, 9, PointFix("a1", "bruno", CENTER, 9))


S2_LOG = run_scenario(load_scenario(SCENARIOS / "s2_gathering.json")).log_lines


class TestRosterOfIds:
    """An ``ACTIVITY_CREATED`` writes its roster as a list of ids. The older
    object form still loads, to the same state, and is never written."""

    def test_a_roster_is_written_as_ids(self):
        line = run_scenario(load_scenario(SCENARIOS / "s1_meetup.json")).log_lines[0]
        assert json.loads(line)["activity"]["participants"] == ["ana", "bruno", "carla"]

    def test_an_old_form_log_replays_to_the_state_of_its_new_form(self):
        old = OLD_ROSTER_LOG.read_text(encoding="utf-8").splitlines(keepends=True)
        assert '"status":"INVITED"' in old[0]
        new = [encode_record(r) for r in read_records(old)]
        assert new == run_scenario(load_scenario(SCENARIOS / "s1_meetup.json")).log_lines
        assert new[1:] == old[1:] and '"status"' not in new[0]
        assert replay(load_log(OLD_ROSTER_LOG)) == replay(read_records(new))

    @pytest.mark.parametrize("entry, detail", [
        ({"id": "bruno", "status": "ACCEPTED"},
         "old-form roster status 'ACCEPTED' is not 'INVITED'"),
        ({"id": "bruno", "status": "DECLINED"},
         "old-form roster status 'DECLINED' is not 'INVITED'"),
        ({"id": "bruno", "status": None}, "old-form roster status None is not 'INVITED'"),
        ({"id": "", "status": "INVITED"}, "must be non-empty"),
        ({"id": 7, "status": "INVITED"}, "expected a string"),
        ("", "must be non-empty"),
        (["bruno"], "expected a string"),
    ])
    def test_a_bad_roster_entry_is_corrupt_at_its_index(self, tmp_path, entry, detail):
        old = OLD_ROSTER_LOG.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.loads(old[0])
        first["activity"]["participants"][1] = entry
        log = tmp_path / "events.log"
        log.write_text(json.dumps(first) + "\n" + "".join(old[1:]), encoding="utf-8")
        with pytest.raises(CorruptRecord) as e:
            replay(load_log(log))
        assert (e.value.index, e.value.reason) == (
            0, f"bad record payload: invalid field 'participants': {detail}"
        )
        assert e.value.state == ServerState()

    def test_an_old_form_entry_without_its_status_or_id_is_corrupt(self):
        for entry, key in (({"id": "bruno"}, "'status'"), ({"status": "INVITED"}, "'id'")):
            line = json.loads(S2_LOG[0])
            line["activity"]["participants"][1] = entry
            with pytest.raises(CorruptRecord) as e:
                decode_record(json.dumps(line), 0)
            assert e.value.reason == f"bad record payload: {key}"


def assert_whole(state: ServerState, shown: str) -> None:
    """A replayed state's activities are a1, a2, ... in order, its presence
    map of each lists exactly that activity's roster ids, and
    ``create_activity`` adds an activity rather than replacing one."""
    n = len(state.activities)
    assert list(state.activities) == [f"a{k}" for k in range(1, n + 1)], shown
    assert list(state.presence) == list(state.activities), shown
    for aid, act in state.activities.items():
        assert list(state.presence[aid]) == list(act.participants), shown
    create_activity(state, ActivitySpec(
        title="Next", window=TimeWindow(1000, 5000), fence=Geofence(CENTER, 100.0),
        organizer="ana", participants=("ana", "bruno"),
    ), now=0)
    assert len(state.activities) == n + 1, shown


class TestDecodeRecordFuzz:
    """Nothing but ``CorruptRecord`` escapes ``decode_record``, or ``replay`` of
    the log, whatever one to three mutations of a line of the s2 log do to it;
    a mutant that replays leaves a whole state (``assert_whole``)."""

    # The s2 log with two copies of its first activity appended, the second
    # with its roster in the old object form: a mutant of either is named by
    # no later record, so it can replay.
    SECOND = json.loads(S2_LOG[0])
    SECOND["activity"]["id"], SECOND["index"] = "a2", len(S2_LOG)
    THIRD = copy.deepcopy(SECOND)
    THIRD["activity"]["id"], THIRD["index"] = "a3", len(S2_LOG) + 1
    THIRD["activity"]["participants"] = [
        {"id": who, "status": "INVITED"} for who in SECOND["activity"]["participants"]
    ]
    THREE = [*S2_LOG, json.dumps(SECOND) + "\n", json.dumps(THIRD) + "\n"]

    @staticmethod
    def check(data, lines: list[str], i: int) -> None:
        line = json.dumps(draw_mutant(data, json.loads(lines[i]))) + "\n"
        try:
            decode_record(line, i)
            state = replay(read_records([*lines[:i], line, *lines[i + 1:]]))
        except CorruptRecord:
            return
        except Exception as e:  # noqa: BLE001 - anything else is the failure
            pytest.fail(f"{type(e).__name__}: {e} escaped on line {i}: {line!r}")
        assert_whole(state, f"line {i}: {line!r}")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_only_corrupt_record_escapes(self, data):
        self.check(data, S2_LOG, data.draw(st.integers(0, len(S2_LOG) - 1)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_mutant_activity_replays_whole_or_not_at_all(self, data):
        self.check(data, self.THREE, data.draw(st.sampled_from([len(S2_LOG), len(S2_LOG) + 1])))


class TestLoadLogFuzz:
    """ROADMAP item 15 for ``load_log``: nothing but ``CorruptRecord`` (a
    ``TornTail`` is one) escapes reading and replaying the s2 log file,
    whatever one to three byte-level edits do to it; a mutant that replays
    leaves a whole state (``assert_whole``)."""

    S2_BYTES = "".join(S2_LOG).encode("utf-8")

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_only_corrupt_record_escapes(self, tmp_path, data):
        raw = draw_byte_mutant(data, self.S2_BYTES)
        log = tmp_path / "events.log"  # one file, rewritten for each example
        log.write_bytes(raw)
        at = next((i for i, (a, b) in enumerate(zip(raw, self.S2_BYTES)) if a != b), len(raw))
        shown = (f"a mutant of {len(raw)} bytes that first differs at byte {at}: "
                 f"{raw[max(at - 40, 0):at + 40]!r}")
        try:
            state = replay(load_log(log))
        except CorruptRecord:
            return
        except Exception as e:  # noqa: BLE001 - anything else is the failure
            pytest.fail(f"{type(e).__name__}: {e} escaped on {shown}")
        assert_whole(state, shown)


class TestMixedLog:
    """A log whose history is in the older format and whose tail is current."""

    SCRIPT = [  # (who, metres from the centre, fix time)
        ("ana", 400, 1100),
        ("bruno", 300, 1100),
        ("ana", 50, 1200),     # ana arrives
        ("ana", 110, 1300),    # in the dead band: stays INSIDE only through hysteresis
        ("bruno", 110, 1300),  # in the dead band from OUTSIDE: stays OUTSIDE
        ("bruno", 90, 1400),   # bruno arrives
        ("ana", 115, 1500),
        ("bruno", 500, 1500),
        ("bruno", 120, 1600),
    ]

    def live(self, log: Path):
        """Run the script on a log; returns the engine and the point of each fix record."""
        engine = Engine(log_path=log)
        act = fair(engine)
        for who in ("ana", "bruno"):
            engine.handle(Arm(act.id), who, 8)
        points = {}
        for who, metres, at in self.SCRIPT:
            index = engine.state.record_count
            engine.handle(Fix(act.id, at_distance(metres), at), who, at)
            points[index] = at_distance(metres)
        engine.close()
        return engine, points

    def test_older_history_then_current_records_replay_equal_to_live(self, tmp_path):
        log = tmp_path / "events.log"
        live, points = self.live(log)
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        history = 11  # up to both dead-band fixes at 1300: the older format
        old = [point_bearing(line, points.get(i)) for i, line in enumerate(lines[:history])]
        assert sum('"FIX_ACCEPTED"' in line and '"lat"' in line for line in old) == 5
        log.write_text("".join(old + lines[history:]), encoding="utf-8")

        restarted = Engine(log_path=log)
        assert restarted.state == live.state
        pp = restarted.state.presence["a1"]["ana"]
        assert pp.zone is Zone.INSIDE  # the dead-band fix kept ana's zone
        # Starting on it rewrites nothing; new records follow in the current format.
        restarted.handle(Fix("a1", at_distance(10), 1700), "bruno", 1700)
        restarted.close()
        text = log.read_text(encoding="utf-8")
        assert text.startswith("".join(old + lines[history:]))
        assert coordinate_holders(text.splitlines()[history:]) == []
        assert replay(load_log(log)) == restarted.state

    def test_the_upgrade_follows_each_participants_previous_zone(self, tmp_path):
        log = tmp_path / "events.log"
        live, points = self.live(log)
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        old = [point_bearing(line, points.get(i)) for i, line in enumerate(lines)]
        zones = [json.loads(line)["zone"] for line in lines if '"FIX_ACCEPTED"' in line]
        # The two fixes 110 m out: INSIDE after INSIDE, OUTSIDE after OUTSIDE.
        assert zones[3:5] == ["INSIDE", "OUTSIDE"]
        log.write_text("".join(old), encoding="utf-8")
        assert started(log) == live.state


# --- no coordinate at rest -------------------------------------------------------


class TestMediatorAtRest:
    """Only an ACTIVITY_CREATED (the fence centre) holds a coordinate in the log."""

    def test_scenario_and_crowd_logs(self):
        scenarios = [load_scenario(p) for p in sorted(SCENARIOS.glob("*.json"))]
        scenarios.append(scenario_from_dict(generated_crowd(2024, 60, 20)))
        fixes = 0
        for scenario in scenarios:
            lines = run_scenario(scenario).log_lines
            fixes += sum('"FIX_ACCEPTED"' in line for line in lines)
            assert coordinate_holders(lines) == []
            # The centre is the only coordinate an ACTIVITY_CREATED holds.
            for line in lines:
                obj = json.loads(line)
                if obj["type"] == "ACTIVITY_CREATED":
                    fence = obj["activity"].pop("fence")
                    assert coordinate_holders([json.dumps({"type": "X", **obj})]) == []
                    assert set(fence["center"]) == {"lat", "lon"}
        assert fixes > 1000

    def test_net_session_log(self, tmp_path):
        log = tmp_path / "events.log"

        async def session():
            engine = Engine(log_path=log)
            server = await SyncServer(engine, clock=lambda: 2000).start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            act = fair(engine)
            engine.commit()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            frames = [Hello("bruno"), Arm(act.id)] + [
                Fix(act.id, at_distance(m), 2001 + i) for i, m in enumerate((900, 400, 60, 20))
            ] + [Poll(0)]
            writer.write("".join(map(encode, frames)).encode())
            replies = [decode((await reader.readline()).decode())]
            while replies[-1] != Ack("POLL"):
                replies.append(decode((await asyncio.wait_for(reader.readline(), 5)).decode()))
            writer.close()
            server.close()
            await server.wait_closed()
            engine.close()

        asyncio.run(session())
        lines = log.read_text(encoding="utf-8").splitlines()
        types = [json.loads(line)["type"] for line in lines]
        assert types.count("FIX_ACCEPTED") == 4 and types.count("ARRIVAL_RECORDED") == 1
        assert coordinate_holders(lines) == []


# --- cuts ----------------------------------------------------------------------------


def test_a_cut_at_every_byte_of_the_last_two_records_starts_on_the_prefix(tmp_path):
    log = tmp_path / "events.log"
    engine = Engine(log_path=log)
    act = fair(engine)
    for msg, who, at in [
        (Arm(act.id), "ana", 8), (Fix(act.id, at_distance(400), 1100), "ana", 1100),
        (Fix(act.id, at_distance(50), 1200), "ana", 1200),  # two records: fix, arrival
    ]:
        engine.handle(msg, who, at)
    states = [copy.deepcopy(engine.state)]  # the live state after each of the last two
    for msg, who, at in [
        (Fix(act.id, at_distance(30), 1300), "ana", 1300), (Arm(act.id), "bruno", 1310),
    ]:
        engine.handle(msg, who, at)
        states.append(copy.deepcopy(engine.state))
    engine.close()
    data = log.read_bytes()
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")][-3:]
    for cut in range(ends[0], len(data) + 1):
        log.write_bytes(data[:cut])
        kept = sum(end <= cut for end in ends) - 1  # of the last two records
        restarted = Engine(log_path=log)
        restarted.close()
        assert restarted.state == states[kept], cut
        assert (restarted.torn_tail is None) == (cut in ends), cut
        assert log.read_bytes() == data[: ends[kept]], cut


# --- the writer's one handle -------------------------------------------------------


def test_a_second_writer_on_a_held_log_is_refused_and_leaves_it_as_it_was(tmp_path):
    log = tmp_path / "events.log"
    first = LogWriter(log)
    first.append(EventRecord(0, 7, ArmSet("a1", "ana")))
    first.commit()
    first.append(EventRecord(1, 8, ArmSet("a1", "bo")))  # buffered, not yet written
    before = log.read_bytes()
    with raises_code("LOG_IN_USE", match=f"another writer has {log} open"):
        LogWriter(log)
    assert log.read_bytes() == before
    first.close()
    second = LogWriter(log)  # closing the first released the log
    second.close()
    assert [r.event for r in load_log(log)] == [ArmSet("a1", "ana"), ArmSet("a1", "bo")]


def test_cut_drops_a_torn_tail_and_is_the_new_last_commit(tmp_path):
    log = tmp_path / "events.log"
    kept = encode_record(EventRecord(0, 7, ArmSet("a1", "ana"))).encode()
    log.write_bytes(kept + b'{"type":"ARMED"')
    writer = LogWriter(log)
    writer.cut(len(kept))
    writer.next_index = 1
    assert log.read_bytes() == kept
    writer._fh = FaultyFile(writer._fh, "ENOSPC on write")
    writer.append(EventRecord(1, 8, ArmSet("a1", "bo")))
    with pytest.raises(LogWriteFailed, match=f"cut back to its last commit \\({len(kept)} bytes"):
        writer.commit()
    assert log.read_bytes() == kept
    writer._fh.fault = None
    writer.close()
    assert [r.event for r in load_log(log)] == [ArmSet("a1", "ana"), ArmSet("a1", "bo")]


# --- failed commits ----------------------------------------------------------------


class FaultyFile:
    """A log file stand-in: passes every call to the real file, with ``fault`` injected.

    Each write reaches the disk at once (the real file is flushed after it),
    so what a fault leaves behind is on the disk to see.
    """

    def __init__(self, real, fault: str | None):
        self.real, self.fault = real, fault

    def write(self, data):
        if self.fault == "ENOSPC on write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if self.fault == "short write":
            data = data[: len(data) // 2]
            self.fault = "ENOSPC on write"  # the disk fills up after half the bytes
        written = self.real.write(data)
        self.real.flush()
        return written

    def flush(self):
        if self.fault in ("EIO on flush", "EIO on flush and truncate"):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        self.real.flush()

    def truncate(self, size):
        if self.fault == "EIO on flush and truncate":
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return self.real.truncate(size)

    def __getattr__(self, name):
        return getattr(self.real, name)


FAULTS = ["ENOSPC on write", "EIO on flush", "short write"]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failed_commit_cuts_the_log_back_and_keeps_its_records(tmp_path, fault):
    log = tmp_path / "events.log"
    engine = Engine(log_path=log)
    act = fair(engine)
    engine.commit()
    committed = log.read_bytes()
    committed_state = copy.deepcopy(engine.state)
    faulty = engine._writer._fh = FaultyFile(engine._writer._fh, fault)
    engine.handle(Arm(act.id), "bruno", 8)
    engine.handle(Fix(act.id, at_distance(40), 1100), "bruno", 1100)  # fix and arrival
    with pytest.raises(LogWriteFailed):
        engine.commit()
    # The file holds exactly the committed records, and a restart replays
    # them (read without the lock, which this engine still holds).
    assert log.read_bytes() == committed
    assert replay(load_log(log)) == committed_state
    # The records stay buffered: once the fault clears, the next commit writes them.
    faulty.fault = None
    engine.handle(Fix(act.id, at_distance(20), 1200), "bruno", 1200)
    engine.close()
    records = list(load_log(log))
    assert [r.index for r in records] == list(range(7))
    assert replay(records) == engine.state


def test_a_commit_that_cannot_cut_the_log_back_still_fails_as_a_commit(tmp_path):
    engine = Engine(log_path=tmp_path / "events.log")
    act = fair(engine)
    engine.commit()
    faulty = engine._writer._fh = FaultyFile(engine._writer._fh, "EIO on flush and truncate")
    engine.handle(Arm(act.id), "bruno", 8)
    with pytest.raises(LogWriteFailed, match="cutting the log back .* failed too"):
        engine.commit()
    # As the exiting process would: no commit, no close. Closing the writer's
    # one handle releases the log, so another writer can open it.
    faulty.real.close()
    Engine(log_path=tmp_path / "events.log").close()


def test_a_failed_commit_stops_the_server_before_anything_of_that_read_leaves(tmp_path):
    log = tmp_path / "events.log"

    async def run():
        engine = Engine(log_path=log)
        sync = SyncServer(engine, clock=lambda: 2000)
        server = await sync.start("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        act = fair(engine)
        engine.handle(Arm(act.id), "ana", 8)
        engine.commit()
        clients = {}
        for who in ("ana", "bruno"):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode(Hello(who)).encode())
            assert isinstance(decode((await reader.readline()).decode()), Welcome)
            clients[who] = reader, writer
        faulty = engine._writer._fh = FaultyFile(engine._writer._fh, "ENOSPC on write")
        # ana's arrival would push a notice to bruno and ack ana.
        clients["ana"][1].write(encode(Fix(act.id, at_distance(30), 2001)).encode())
        with pytest.raises(LogWriteFailed):
            await asyncio.wait_for(sync.stopped, 5)
        ana_after = await asyncio.wait_for(clients["ana"][0].read(), 5)
        # bruno's next frame is read by a stopped server: no reply, the connection ends.
        clients["bruno"][1].write(encode(Poll(0)).encode())
        bruno_after = await asyncio.wait_for(clients["bruno"][0].read(), 5)
        for _, writer in clients.values():
            writer.close()
        server.close()
        await server.wait_closed()
        # As the exiting process would: no commit, no close. Closing the
        # writer's one handle releases the log, so another writer can open it.
        faulty.real.close()
        Engine(log_path=log).close()
        return ana_after, bruno_after

    ana_after, bruno_after = asyncio.run(run())
    assert (ana_after, bruno_after) == (b"", b"")
    committed = load_log(log)
    assert [type(r.event).__name__ for r in committed][-1] == "ArmSet"


def test_serve_exits_non_zero_with_one_line_when_the_log_cannot_grow(tmp_path):
    # The file-size limit of the server process makes its first commit a
    # short write followed by EFBIG, as a full disk would.
    log = tmp_path / "events.log"
    engine = Engine(log_path=log)
    fair(engine, window=TimeWindow(4_000_000_000, 4_000_003_600))
    engine.close()
    committed = log.read_bytes()
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(committed) + 40,) * 2)

    proc = subprocess.Popen(
        [sys.executable, "-m", "syncpoint.cli", "serve",
         "--listen", f"127.0.0.1:{port}", "--log", str(log)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=limit_file_size,
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
        with conn, conn.makefile("rb") as replies:
            conn.sendall(b'{"type":"HELLO","participant":"carla"}\n')
            assert json.loads(replies.readline())["type"] == "WELCOME"
            conn.sendall(b'{"type":"RESPOND_INVITE","activity":"a1","answer":"ACCEPT"}\n')
            assert replies.readline() == b""  # no ACK: the connection just ends
        code = proc.wait(timeout=10)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert code == 1, err
    assert err.count("\n") == 1 and err.startswith("error: LOG_WRITE_FAILED: "), err
    assert log.read_bytes() == committed
