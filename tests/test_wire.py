"""Wire codec: canonical frames, round trips, and framing safety."""

import copy
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from syncpoint.activities import ActivityKind, ActivityPhase, InviteAnswer, ParticipantStatus
from syncpoint.geo import GeoPoint
from syncpoint.notify import (
    ActivitySummary,
    AllArrived,
    ArrivalNotice,
    GatheringUpdate,
    Invitation,
    SelfArrivalAck,
    TaskDoneNotice,
)
from syncpoint.errors import SyncError
from syncpoint.schema import (
    FLOAT, STR, FieldInvalid, FieldMissing, ListOf, Optional, Schema, loads_line,
)
from syncpoint.sim import Transcript, load_scenario, run_scenario, transcript_lines
from syncpoint.wire import (
    MAX_FRAME_BYTES,
    MESSAGES,
    Ack,
    Arm,
    ClientMessage,
    Disarm,
    Err,
    Fix,
    FrameBuffer,
    Hello,
    Notify,
    ParticipantView,
    Poll,
    RespondInvite,
    ServerMessage,
    Status,
    StatusView,
    TaskDone,
    Welcome,
    decode,
    encode,
)

from codes import raises_code
from genmsg import dumps_canonical
from mutation import draw_mutant

REPO = Path(__file__).parents[1]
GOLDEN = REPO / "golden"
SCENARIOS = REPO / "scenarios"

ids = st.text(alphabet="abcdefgh-0123", min_size=1, max_size=8)
times = st.integers(min_value=0, max_value=2**40)
lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, exclude_min=True, allow_nan=False)
points = st.builds(GeoPoint, lats, lons)
titles = st.text(max_size=12)

summaries = st.builds(
    ActivitySummary,
    activity=ids,
    title=titles,
    kind=st.sampled_from(list(ActivityKind)),
    start=times,
    end=times,
)

notifications = st.one_of(
    st.builds(Invitation, summaries),
    st.builds(SelfArrivalAck, ids, times),
    st.builds(ArrivalNotice, ids, times, st.one_of(st.none(), ids)),
    st.builds(GatheringUpdate, ids, st.integers(min_value=1, max_value=1000)),
    st.builds(AllArrived, ids, times),
    st.builds(TaskDoneNotice, ids, times, st.one_of(st.none(), ids)),
)

messages = st.one_of(
    st.builds(Hello, ids),
    st.builds(RespondInvite, ids, st.sampled_from(list(InviteAnswer))),
    st.builds(Arm, ids),
    st.builds(Disarm, ids),
    st.builds(Fix, ids, points, times),
    st.builds(TaskDone, ids, times),
    st.builds(Poll, st.integers(min_value=0, max_value=10**6)),
    st.builds(Status, ids),
    st.builds(Welcome, times),
    st.builds(Notify, st.integers(min_value=1, max_value=10**6), notifications),
    st.builds(
        StatusView,
        ids,
        st.lists(
            st.builds(
                ParticipantView,
                ids,
                st.sampled_from(list(ParticipantStatus)),
                st.booleans(),
            ),
            max_size=5,
        ).map(tuple),
        st.integers(min_value=0, max_value=100),
        st.sampled_from(list(ActivityPhase)),
    ),
    st.builds(Ack, st.sampled_from(["ARM", "FIX", "POLL", "RESPOND_INVITE"])),
    st.builds(Err, st.sampled_from(["STALE_FIX", "UNKNOWN_ACTIVITY"]), titles),
)


class TestCanonicalForm:
    def test_arm_frame_bytes(self):
        assert encode(Arm("a1")) == '{"type":"ARM","activity":"a1"}\n'

    def test_fix_frame_bytes(self):
        frame = encode(Fix("a1", GeoPoint(41.56, -8.397), 3300))
        assert frame == '{"type":"FIX","activity":"a1","at":3300,"lat":41.56,"lon":-8.397}\n'

    def test_single_line(self):
        frame = encode(Err("X", "multi\nline\ndetail"))
        assert frame.count("\n") == 1 and frame.endswith("\n")

    @given(messages)
    def test_type_first_then_alphabetical(self, msg):
        frame = encode(msg)
        obj = json.loads(frame)
        keys = list(obj)
        assert keys[0] == "type"
        assert keys[1:] == sorted(keys[1:])

    @given(messages)
    def test_encoding_is_deterministic(self, msg):
        assert encode(msg) == encode(msg)


class TestDecode:
    def test_arm_example(self):
        assert decode('{"type":"ARM","activity":"a1"}') == Arm("a1")

    def test_unknown_type(self):
        with raises_code("UNKNOWN_TYPE"):
            decode('{"type":"NOPE"}')
        with raises_code("UNKNOWN_TYPE"):  # invitations travel as NOTIFY/INVITATION
            decode('{"type":"INVITE","summary":{}}')

    def test_field_missing(self):
        with pytest.raises(FieldMissing) as e:
            decode('{"type":"ARM"}')
        assert e.value.name == "activity"

    def test_not_json(self):
        with raises_code("MALFORMED"):
            decode("not json at all")

    def test_not_an_object(self):
        with raises_code("MALFORMED"):
            decode("[1,2,3]")

    def test_missing_type(self):
        with pytest.raises(FieldMissing):
            decode('{"activity":"a1"}')

    def test_bad_latitude(self):
        with pytest.raises(FieldInvalid):
            decode('{"type":"FIX","activity":"a1","at":1,"lat":99.0,"lon":0.0}')

    def test_negative_cursor(self):
        with pytest.raises(FieldInvalid):
            decode('{"type":"POLL","cursor":-1}')

    def test_a_coordinate_too_large_for_a_float_is_invalid(self):
        with pytest.raises(FieldInvalid) as e:
            decode('{"type":"FIX","activity":"a1","at":1,"lat":1' + "0" * 400 + ',"lon":0.0}')
        assert (e.value.name, e.value.detail) == ("lat", "invalid field 'lat': out of range")

    @pytest.mark.parametrize("kind", ["ARRIVAL_NOTICE", "TASK_DONE"])
    @pytest.mark.parametrize("identity, want", [
        ("", None),  # an absent key is the field's default
        (',"identity":"ana"', "ana"),
        (',"identity":null', FieldInvalid),  # a null is checked as a string
        (',"identity":5', FieldInvalid),
    ])
    def test_an_identity_is_absent_or_a_string(self, kind, identity, want):
        frame = ('{"type":"NOTIFY","seq":1,"notification":'
                 f'{{"kind":"{kind}","activity":"a1","at":3{identity}}}}}')
        if want is FieldInvalid:
            with pytest.raises(FieldInvalid) as e:
                decode(frame)
            assert e.value.detail == "invalid field 'identity': expected a string"
        else:
            assert decode(frame).notification.identity == want

    def test_unknown_extra_fields_ignored(self):
        assert decode('{"type":"ARM","activity":"a1","hat":"fedora"}') == Arm("a1")

    def test_unknown_fields_are_logged_once_per_frame_type(self, monkeypatch, caplog):
        import syncpoint.wire as wire

        monkeypatch.setattr(wire, "_WARNED", set())
        with caplog.at_level(logging.WARNING, logger="syncpoint.wire"):
            for extra in ("x", "y", "x"):
                assert decode(f'{{"type":"POLL","cursor":0,"{extra}":1}}') == Poll(0)
        assert [r.getMessage() for r in caplog.records] == [
            "ignoring unknown fields ['x'] in POLL frame"
        ]
        assert wire._WARNED == {"POLL"}

    def test_trailing_newline_tolerated(self):
        assert decode('{"type":"ARM","activity":"a1"}\n') == Arm("a1")


@dataclass(slots=True)
class Probe:
    name: str
    ids: tuple[str, ...]
    scale: float = 2.5
    note: str = "none"


# A list of one scalar kind, an optional key whose default is not None, and
# a trailing defaulted field left out of the schema.
PROBE = Schema(Probe, ("name", STR), ("ids", ListOf(STR)), ("scale", Optional(FLOAT)))


class TestSchemaKinds:
    """The schema kinds that no frame uses yet but a scenario file does."""

    @pytest.mark.parametrize("obj, value", [
        ({"name": "a", "ids": ["x", "y"]}, Probe("a", ("x", "y"))),
        ({"name": "a", "ids": [], "scale": 1}, Probe("a", (), 1.0)),
        ({"name": "a", "ids": [], "note": "kept out"}, Probe("a", ())),
    ])
    def test_an_absent_key_is_its_fields_default(self, obj, value):
        assert PROBE.decoder(obj) == value

    @pytest.mark.parametrize("obj, detail", [
        ({"name": "a", "ids": [], "scale": None}, "invalid field 'scale': expected a number"),
        ({"name": "a", "ids": "xy"}, "invalid field 'ids': expected a list"),
        ({"name": "a", "ids": {"x": 1}}, "invalid field 'ids': expected a list"),
        ({"name": "a", "ids": ["x", 5]}, "invalid field 'ids': expected a string"),
        ({"name": "a", "ids": ["x", ["y"]]}, "invalid field 'ids': expected a string"),
        ({"name": "a", "ids": [""]}, "invalid field 'ids': must be non-empty"),
    ])
    def test_a_present_value_is_checked_by_its_kind(self, obj, detail):
        with pytest.raises(FieldInvalid) as e:
            PROBE.decoder(obj)
        assert e.value.detail == detail

    def test_a_list_of_strings_encodes_as_json_does(self):
        value = Probe("a", ("x", 'q"\\', "zoë"), 0.5)
        assert PROBE.encode(value) == dumps_canonical(
            {"ids": list(value.ids), "name": "a", "scale": 0.5}
        )


class TestRoundTrip:
    @given(messages)
    def test_decode_encode_identity(self, msg):
        assert decode(encode(msg)) == msg

    def test_seeded_volume_cases(self):
        from genmsg import random_message

        rng = random.Random(0xC0FFEE)
        for _ in range(2_000):
            msg = random_message(rng)
            assert decode(encode(msg)) == msg


class TestFraming:
    def test_reassembly_across_arbitrary_splits(self):
        msgs = [Arm(f"a{i}") for i in range(1, 20)] + [
            Err("X", "detail with ünicode"),
            Notify(3, SelfArrivalAck("a1", 99)),
        ]
        stream = "".join(encode(m) for m in msgs).encode("utf-8")
        rng = random.Random(11)
        for _ in range(100):
            buf = FrameBuffer()
            frames = []
            i = 0
            while i < len(stream):
                j = min(len(stream), i + rng.randint(1, 17))
                frames.extend(buf.feed(stream[i:j]))
                i = j
            assert [decode(f) for f in frames] == msgs
            assert buf.feed(b"\n") == [b""]  # nothing was held

    def test_partial_frame_stays_buffered(self):
        buf = FrameBuffer()
        assert buf.feed(b'{"type":"ARM","ac') == []
        assert buf.feed(b'tivity":"a1"}\n') == [b'{"type":"ARM","activity":"a1"}']

    def test_many_frames_and_a_partial_tail_in_one_chunk(self):
        frames = [encode(Arm(f"a{i}")) for i in range(50)]
        tail = encode(Arm("a50"))
        buf = FrameBuffer()
        chunk = "".join(frames).encode("utf-8") + tail[:7].encode("utf-8")
        assert buf.feed(chunk) == [f.rstrip("\n").encode("utf-8") for f in frames]
        assert copy.deepcopy(buf).feed(b"\n") == [tail[:7].encode("utf-8")]  # what is held
        assert buf.feed(tail[7:].encode("utf-8")) == [tail.rstrip("\n").encode("utf-8")]
        assert buf.feed(b"\n") == [b""]  # nothing was held

    def test_crlf_endings_and_empty_lines(self):
        buf = FrameBuffer()
        assert buf.feed(b'{"type":"POLL","cursor":0}\r\n\r\n{"type":"ARM"') == [
            b'{"type":"POLL","cursor":0}', b"",
        ]
        assert buf.feed(b',"activity":"a1"}\r\n') == [b'{"type":"ARM","activity":"a1"}']

    def test_invalid_utf8_spoils_only_its_own_frame(self):
        buf = FrameBuffer()
        frames = buf.feed(b'{"type":"POLL","cursor":0}\n{"type":"HELLO","participant":"\xff"}\n'
                          b'{"type":"ARM","activity":"a1"}\n')
        assert decode(frames[0]) == Poll(0)
        with raises_code("MALFORMED"):
            decode(frames[1])
        assert decode(frames[2]) == Arm("a1")


class TestFrameLimit:
    """``FrameBuffer`` applies ``MAX_FRAME_BYTES`` itself."""

    def test_a_frame_of_exactly_the_limit_passes(self):
        buf = FrameBuffer()
        frame = b"x" * MAX_FRAME_BYTES
        assert buf.feed(frame + b"\r\n" + frame + b"\n") == [frame, frame]
        assert not buf.oversized

    @pytest.mark.parametrize("split", [False, True])
    def test_one_byte_more_returns_the_frames_before_it(self, split):
        buf = FrameBuffer()
        stream = b"a\n\nb\r\n" + b"x" * (MAX_FRAME_BYTES + 1) + b"\nc\n"
        reads = [stream[:5], stream[5:70_000], stream[70_000:]] if split else [stream]
        assert [f for read in reads for f in buf.feed(read)] == [b"a", b"", b"b"]
        assert buf.oversized

    def test_a_tail_past_the_limit_is_over_long_without_its_newline(self):
        buf = FrameBuffer()
        assert buf.feed(b"a\n" + b"x" * MAX_FRAME_BYTES) == [b"a"]
        assert not buf.oversized  # the tail may still end here
        assert buf.feed(b"x") == []
        assert buf.oversized

    def test_a_final_carriage_return_of_the_tail_is_not_counted(self):
        buf = FrameBuffer()
        assert buf.feed(b"x" * MAX_FRAME_BYTES + b"\r") == []
        assert not buf.oversized  # the "\r" may begin the line ending
        assert buf.feed(b"\n") == [b"x" * MAX_FRAME_BYTES]
        assert buf.feed(b"x" * MAX_FRAME_BYTES + b"\rx") == []
        assert buf.oversized

    @pytest.mark.parametrize("body, frames", [
        (b"x" * MAX_FRAME_BYTES, []),
        (b"x" * (MAX_FRAME_BYTES - 1), [b"x" * (MAX_FRAME_BYTES - 1)]),
    ], ids=["one over", "at the limit"])
    def test_a_line_counts_alike_however_the_reads_split_it(self, body, frames):
        # Only the last of two carriage returns is not counted, newline or not.
        stream = body + b"\r\r\n"
        for reads in ([stream], [stream[:-1], stream[-1:]], [stream[:-2], stream[-2:]]):
            buf = FrameBuffer()
            assert [f for read in reads for f in buf.feed(read)] == frames, reads
            assert buf.oversized == (not frames), reads

    def test_nothing_is_returned_once_oversized(self):
        buf = FrameBuffer()
        buf.feed(b"x" * (MAX_FRAME_BYTES + 1) + b"\n")
        assert buf.oversized
        assert buf.feed(b'{"type":"POLL","cursor":0}\n') == []
        assert buf.feed(b"\n") == []
        assert buf.oversized

    def test_multibyte_character_split_across_chunks(self):
        frame = encode(Err("X", "café 家 \U0001F600")).encode("utf-8")
        for cut in range(frame.index(b"\xc3") + 1, len(frame) - 1):
            buf = FrameBuffer()
            assert buf.feed(frame[:cut]) == []
            assert [decode(f) for f in buf.feed(frame[cut:])] == [
                Err("X", "café 家 \U0001F600")
            ]


# Strings and floats that exercise every escaping and formatting rule of the
# canonical dialect.
AWKWARD_TEXT = [
    'say "hi"', "back\\slash", "".join(chr(c) for c in range(0x20)), "\u2028\u2029\x7f\x85",
    "caf\u00e9 \u5bb6", "\U0001F600 \U00010348", "%s %(x)s %%", "",
]
AWKWARD_FLOATS = [-0.0, 1e-07, 89.99999999999999, 180.0, -89.5, 0.1 + 0.2]


def reference_line(line: str) -> str:
    """The same object written by the standard library in the canonical dialect."""
    return json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")) + "\n"


def assert_canonical_order(obj, tag: str | None):
    """The tag key first, then every key sorted, in this object and every nested one."""
    keys = list(obj)
    if tag is not None:
        assert keys[0] == tag, keys
        keys = keys[1:]
    assert keys == sorted(keys), keys
    for key, value in obj.items():
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, dict):
                assert_canonical_order(child, "kind" if key == "notification" else None)


def awkward_messages():
    text = AWKWARD_TEXT
    point = GeoPoint(AWKWARD_FLOATS[2], AWKWARD_FLOATS[3])
    summary = ActivitySummary(text[0] or "a", text[6], ActivityKind.GATHERING, 0, 2**53)
    msgs = [Fix(t or "a", GeoPoint(lat, lon), 0)
            for t in text for lat in AWKWARD_FLOATS[:3] for lon in AWKWARD_FLOATS[1:]]
    msgs += [Err(t or "X", t) for t in text]
    msgs += [Notify(seq, cls(t or "a", 5, identity))
             for seq, cls in enumerate((ArrivalNotice, TaskDoneNotice), start=1)
             for t in text for identity in (None, t)]
    msgs += [Notify(3, Invitation(summary)), Fix("a", point, 1)]
    msgs.append(StatusView(text[1], tuple(
        ParticipantView(t or "p", ParticipantStatus.DECLINED, bool(i % 2))
        for i, t in enumerate(text)
    ), 0, ActivityPhase.ENDED))
    return msgs


class TestCanonicalJson:
    """The compiled encoders agree with the standard library, byte for byte."""

    def test_every_variant_matches_the_standard_library(self):
        from genmsg import random_message

        rng = random.Random(0x5C4E)
        msgs = [random_message(rng) for _ in range(3_000)] + awkward_messages()
        assert {type(m) for m in msgs} >= set(
            get_args(ClientMessage) + get_args(ServerMessage)
        )
        for msg in msgs:
            line = encode(msg)
            assert line == reference_line(line), msg
            assert_canonical_order(json.loads(line), "type")
            assert decode(line) == msg

    def test_optional_identity_is_left_out(self):
        for cls in (ArrivalNotice, TaskDoneNotice):
            assert "identity" not in encode(Notify(1, cls("a1", 3, None)))
            frame = json.loads(encode(Notify(1, cls("a1", 3, ""))))
            assert frame["notification"]["identity"] == ""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_raise(self, bad):
        point = GeoPoint(0.0, 0.0)
        object.__setattr__(point, "lon", bad)  # GeoPoint itself refuses them
        with pytest.raises(ValueError):
            encode(Fix("a", point, 1))

    def test_non_messages_raise(self):
        with pytest.raises(TypeError):
            encode(ParticipantView("a", ParticipantStatus.INVITED, True))
        with pytest.raises(TypeError):
            encode(Notify(1, "not a notification"))

    def test_a_repeated_object_is_encoded_as_the_first_time(self):
        # An encoder keeps the text of the last object it encoded: a, b, a, a
        # copy of a, then b again must each give the reference fields' JSON.
        notice = ArrivalNotice("a1", 1200, "ana")
        a, b = Notify(3, notice), Notify(4, notice)  # one notification, two frames
        a_copy = Notify(3, ArrivalNotice("a1", 1200, "ana"))
        assert a_copy == a and a_copy is not a

        def fields(seq):
            return {"type": "NOTIFY", "notification": {
                "kind": "ARRIVAL_NOTICE", "activity": "a1", "at": 1200, "identity": "ana",
            }, "seq": seq}
        for msg, seq in ((a, 3), (b, 4), (a, 3), (a_copy, 3), (b, 4)):
            reference = json.dumps(fields(seq), ensure_ascii=False, separators=(",", ":"))
            assert MESSAGES.encode(msg) == reference
            assert encode(msg) == reference + "\n"
            entry = transcript_lines(Transcript([7], ["bruno"], [msg]))
            assert entry == [f'{{"at":7,"msg":{reference},"to":"bruno"}}\n']


def parsed(parse, line):
    """What ``parse(line)`` gives: ("ok", value) or (error class, message)."""
    try:
        return "ok", parse(line)
    except ValueError as e:
        return type(e), str(e)


def malformed_variants(line: str) -> list[str]:
    body = line.rstrip("\n")
    return [
        " " + line, body + " \n", "\t" + body + "\r\n", body + " \t\r\n",
        body + "\x0c", body + "\x0c\n", body + "\u00a0", body + "\u00a0\n",
        "\ufeff" + line, body + body, body + ' {"type":"ARM"}', body + " x\n",
        body[:-1], body + "}", "[]", "[]\n", "", "\n", " ", "1", "null\n", '"s"',
    ]


VECTORS = [json.loads(line) for line in (GOLDEN / "wire_vectors.jsonl").read_text().splitlines()]


class TestDecodeFuzz:
    """Nothing but a named ``SyncError`` escapes ``decode``, whatever one to
    three mutations of a golden wire vector do to it."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_only_named_errors_escape(self, data):
        line = json.dumps(draw_mutant(data, data.draw(st.sampled_from(VECTORS))))
        try:
            decode(line)
        except Exception as e:  # noqa: BLE001 - anything but a named error is the failure
            if not isinstance(e, SyncError) or e.code == SyncError.code:
                pytest.fail(f"{type(e).__name__}: {e} escaped on {line!r}")


class TestLineParse:
    """``loads_line`` equals ``json.loads``: the same value, or the same error."""

    def lines(self):
        lines = (GOLDEN / "wire_vectors.jsonl").read_text(encoding="utf-8").splitlines(True)
        for path in sorted(SCENARIOS.glob("*.json")):
            lines += run_scenario(load_scenario(path)).log_lines
        return lines

    def test_equals_json_loads(self):
        lines = self.lines()
        assert len(lines) > 100
        for line in lines:
            for text in [line, line.rstrip("\n"), *malformed_variants(line)]:
                assert parsed(loads_line, text) == parsed(json.loads, text), repr(text)

    def test_accepted_lines_parse_once(self, monkeypatch):
        import syncpoint.schema as schema

        lines, calls = self.lines(), []
        monkeypatch.setattr(schema.json, "loads", lambda s: calls.append(s))
        for line in lines:
            loads_line(line)
            loads_line(line.rstrip("\n") + " \t\r\n")
        assert calls == []

    def test_errors_keep_their_text(self):
        with raises_code("MALFORMED") as e:
            decode('{"type":"ARM","activity":"a1"} x')
        assert e.value.detail == "not valid JSON: Extra data: line 1 column 32 (char 31)"
        with raises_code("MALFORMED") as e:
            decode('\ufeff{"type":"ARM","activity":"a1"}')
        assert e.value.detail == (
            "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"
        )
        with raises_code("MALFORMED") as e:
            decode('{"type":"ARM","activity":"a1"}\u00a0')
        assert e.value.detail == "not valid JSON: Extra data: line 1 column 31 (char 30)"
        assert decode(' {"type":"ARM","activity":"a1"}\t') == Arm("a1")
        # Bytes are read as UTF-8 only; json.loads would take these for UTF-16.
        with raises_code("MALFORMED") as e:
            decode('{"type":"ARM","activity":"a1"}'.encode("utf-16"))
        assert e.value.detail == (
            "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"
        )
