"""Calendar ingestion: unfolding, GEO parsing, VEVENT extraction."""

import random
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from codes import raises_code

from syncpoint.activities import ActivityKind, ActivitySpec, PrivacyPolicy, TimeWindow
from syncpoint.engine import ServerState, create_activities
from syncpoint.errors import EventInvalid, SyncError
from syncpoint.geo import Geofence, GeoPoint
from syncpoint.ics import (
    _split_property,
    parse_geo,
    parse_ics,
    unfold_lines,
)

CORPUS = Path(__file__).parents[1] / "data" / "calendar"
SYSTEM = "mailto:sync@syncpoint.example"


def utc(y, mo, d, h, mi=0) -> int:
    return int(datetime(y, mo, d, h, mi, tzinfo=timezone.utc).timestamp())


class TestUnfold:
    def test_folding_rule(self):
        assert unfold_lines("SUMMARY:Din\r\n ner\r\n") == ["SUMMARY:Dinner"]

    def test_no_folds_identity(self):
        text = "BEGIN:VCALENDAR\r\nVERSION:2.0\r\nEND:VCALENDAR\r\n"
        assert unfold_lines(text) == ["BEGIN:VCALENDAR", "VERSION:2.0", "END:VCALENDAR"]

    def test_tab_continuation(self):
        assert unfold_lines("SUMMARY:Din\r\n\tner\r\n") == ["SUMMARY:Dinner"]

    def test_lf_only_input(self):
        assert unfold_lines("SUMMARY:Din\n ner\n") == ["SUMMARY:Dinner"]

    def test_lines_end_at_newline_only(self):
        # U+2028, U+0085, form feed and \x1c are text inside a value, not line ends.
        text = "SUMMARY:a\u2028b\x85c\x0cd\x1ce\r\nUID:u\r\n"
        assert unfold_lines(text) == ["SUMMARY:a\u2028b\x85c\x0cd\x1ce", "UID:u"]

    def test_title_with_a_line_separator_is_kept_whole(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:u1\r\n"
            "SUMMARY:Meet at the fair\u2028now\r\n"
            "DTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\nORGANIZER:mailto:ana@x\r\n"
            "ATTENDEE:mailto:ana@x\r\nATTENDEE:mailto:bo@x\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        result = parse_ics(text, SYSTEM)
        assert [d.title for d in result.drafts] == ["Meet at the fair\u2028now"]
        assert result.warnings == ()


class TestParseGeo:
    def test_plain_pair(self):
        p = parse_geo("41.5600;-8.3970")
        assert (p.lat, p.lon) == (41.56, -8.397)

    def test_lat_out_of_range(self):
        with raises_code("FIELD_INVALID") as e:
            parse_geo("91.0;0.0")
        assert e.value.name == "lat"

    def test_lon_out_of_range(self):
        with raises_code("FIELD_INVALID") as e:
            parse_geo("0.0;181.0")
        assert e.value.name == "lon"

    def test_an_event_whose_geo_is_out_of_range_is_invalid(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            "DTSTART:100\r\nDTEND:200\r\nGEO:91;0\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        with pytest.raises(EventInvalid) as e:
            parse_ics(text, SYSTEM)
        assert e.value.reason == "bad GEO: invalid field 'lat': latitude 91.0 outside [-90, 90]"

    def test_missing_component(self):
        with raises_code("MALFORMED_GEO"):
            parse_geo("41.5")

    def test_not_numbers(self):
        with raises_code("MALFORMED_GEO"):
            parse_geo("here;there")


class TestParseIcs:
    def test_happy_path_with_folded_summary(self):
        result = parse_ics((CORPUS / "meetup_fair.ics").read_text(), SYSTEM)
        assert result.skipped == 0
        (spec,) = result.drafts
        assert spec.calendar_uid == "fair-2026-001@example.org"
        assert spec.title == "Meet at the fair after shopping"
        assert spec.window.start == utc(2026, 8, 11, 15)
        assert spec.window.end == utc(2026, 8, 11, 16, 15)
        assert (spec.fence.center.lat, spec.fence.center.lon) == (41.5606, -8.397)
        assert spec.kind is ActivityKind.MEETUP
        assert spec.fence.radius_m == 100.0
        assert spec.policy is PrivacyPolicy.DISCLOSE_IDENTITY  # not stated: the default
        assert spec.batch_threshold is None
        assert spec.organizer == "ana@example.org"
        assert spec.participants == (
            "ana@example.org",
            "bruno@example.org",
            "carla@example.org",
        )

    def test_non_enrolled_events_are_skipped(self):
        result = parse_ics((CORPUS / "mixed_enrolment.ics").read_text(), SYSTEM)
        assert result.skipped == 1
        (spec,) = result.drafts
        assert spec.calendar_uid == "dinner-77@example.org"
        assert spec.kind is ActivityKind.GATHERING
        assert spec.batch_threshold == 3
        assert spec.policy is PrivacyPolicy.ANONYMOUS_COUNT
        assert any("X-CUSTOM-THING" in w for w in result.warnings)

    def test_missing_geo_is_invalid(self):
        with pytest.raises(EventInvalid) as e:
            parse_ics((CORPUS / "missing_geo.ics").read_text(), SYSTEM)
        assert e.value.uid == "nogeo-5@example.org"
        assert "GEO" in e.value.reason

    def test_out_of_range_geo_is_invalid(self):
        with pytest.raises(EventInvalid) as e:
            parse_ics((CORPUS / "bad_coords.ics").read_text(), SYSTEM)
        assert e.value.uid == "badgeo-9@example.org"
        assert "GEO" in e.value.reason

    def test_epoch_second_times(self):
        result = parse_ics((CORPUS / "epoch_times.ics").read_text(), SYSTEM)
        (spec,) = result.drafts
        assert (spec.window.start, spec.window.end) == (600, 7200)
        assert spec.batch_threshold == 5

    def test_no_wrapper_is_not_a_calendar(self):
        with raises_code("NOT_A_CALENDAR"):
            parse_ics((CORPUS / "no_wrapper.ics").read_text(), SYSTEM)

    def test_system_address_match_is_case_insensitive(self):
        result = parse_ics(
            (CORPUS / "mixed_enrolment.ics").read_text(), "MAILTO:SYNC@syncpoint.example"
        )
        assert len(result.drafts) == 1

    def test_missing_uid(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\n"
            "DTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        with pytest.raises(EventInvalid) as e:
            parse_ics(text, SYSTEM)
        assert "UID" in e.value.reason

    def test_end_not_after_start(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            "DTSTART:200\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        with pytest.raises(EventInvalid):
            parse_ics(text, SYSTEM)

    def test_unsupported_timezone_form(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            "DTSTART;TZID=Europe/Lisbon:20260811T150000\r\nDTEND:300\r\n"
            f"GEO:1.0;1.0\r\nATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        with pytest.raises(EventInvalid) as e:
            parse_ics(text, SYSTEM)
        assert "DTSTART" in e.value.reason

    def test_duplicate_attendee_warned_and_deduped(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            "DTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            "ORGANIZER:mailto:a@b\r\n"
            "ATTENDEE:mailto:a@b\r\nATTENDEE:mailto:c@d\r\nATTENDEE:mailto:a@b\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        result = parse_ics(text, SYSTEM)
        assert result.drafts[0].participants == ("a@b", "c@d")
        assert any("duplicate attendee" in w for w in result.warnings)

    @staticmethod
    def _event(attendees: list[str], organizer: str | None = "mailto:o@x") -> str:
        return (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            "DTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            + (f"ORGANIZER:{organizer}\r\n" if organizer else "")
            + "".join(f"ATTENDEE:{a}\r\n" for a in attendees)
            + "END:VEVENT\r\nEND:VCALENDAR\r\n"
        )

    def test_duplicates_keep_the_first_place_and_warn_in_order(self):
        attendees = ["mailto:b@x", "mailto:o@x", "mailto:a@x", "mailto:b@x", SYSTEM,
                     "mailto:c@x", "mailto:a@x", SYSTEM, "mailto:o@x", "mailto:c@x"]
        result = parse_ics(self._event(attendees), SYSTEM)
        assert result.drafts[0].participants == ("o@x", "b@x", "a@x", "c@x")
        assert result.warnings == tuple(
            f"event x@y: duplicate attendee {who} ignored"
            for who in ("b@x", "a@x", "o@x", "c@x")
        )
        result = parse_ics(self._event(attendees, organizer=None), SYSTEM)
        assert result.drafts[0].participants == ("b@x", "o@x", "a@x", "c@x")
        assert result.warnings[-1] == "event x@y: no ORGANIZER, using first attendee"

    def test_twenty_thousand_attendees_parse_in_linear_time(self):
        # A duplicate check that scans the roster so far takes seconds here.
        guests = [f"mailto:g{i:05}@x" for i in range(20_000)]
        text = self._event([SYSTEM, *guests, guests[-1]])
        t0 = time.perf_counter()
        result = parse_ics(text, SYSTEM)
        seconds = time.perf_counter() - t0
        assert len(result.drafts[0].participants) == 20_001
        assert result.warnings == ("event x@y: duplicate attendee g19999@x ignored",)
        assert seconds < 0.5, seconds

    def test_folding_insensitivity(self):
        folded = (CORPUS / "meetup_fair.ics").read_text()
        unfolded = "\r\n".join(unfold_lines(folded)) + "\r\n"
        assert parse_ics(folded, SYSTEM) == parse_ics(unfolded, SYSTEM)

    @pytest.mark.parametrize("radius", ["0", "-3", "inf", "NaN"])
    def test_radius_must_be_finite_and_positive(self, radius):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            f"DTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\nX-SYNC-RADIUS:{radius}\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        with pytest.raises(EventInvalid) as e:
            parse_ics(text, SYSTEM)
        assert e.value.uid == "x@y"
        assert "X-SYNC-RADIUS" in e.value.reason

    @pytest.mark.parametrize("prop", ["DTSTART", "DTEND", "X-SYNC-BATCH"])
    def test_more_digits_than_int_converts(self, prop):
        # Past int()'s digit limit (4,300 by default), a bare int() raises ValueError.
        values = {"DTSTART": "100", "DTEND": "200", "X-SYNC-BATCH": "2", prop: "9" * 5000}
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\nGEO:1.0;1.0\r\n"
            + "".join(f"{name}:{value}\r\n" for name, value in values.items())
            + f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        with pytest.raises(EventInvalid) as e:
            parse_ics(text, SYSTEM)
        assert prop in e.value.reason
        # The message quotes at most the head of the value.
        assert len(str(e.value)) < 200, len(str(e.value))

    def test_quoted_parameter_with_colon(self):
        text = (
            "BEGIN:VCALENDAR\r\nBEGIN:VEVENT\r\nUID:x@y\r\n"
            "DTSTART:100\r\nDTEND:200\r\nGEO:1.0;1.0\r\n"
            'ORGANIZER;CN="Boss: the one":mailto:boss@b\r\n'
            "ATTENDEE:mailto:a@b\r\n"
            f"ATTENDEE:{SYSTEM}\r\nEND:VEVENT\r\nEND:VCALENDAR\r\n"
        )
        result = parse_ics(text, SYSTEM)
        assert result.drafts[0].organizer == "boss@b"


class TestCreateActivities:
    """A calendar's specs become activities in ``engine.create_activities``, which
    refuses an event whose title or roster ``new_activity`` refuses."""

    @pytest.mark.parametrize("attendees, organizer, reason", [
        (["mailto:o@x", SYSTEM], "mailto:o@x", "need at least 2 participants, got 1"),
        ([SYSTEM, "mailto:o@x", "mailto:o@x"], None, "need at least 2 participants, got 1"),
        ([SYSTEM], None, "no ORGANIZER and no attendees"),
        ([SYSTEM, "mailto:a@x"], "mailto:", "participant id must be a non-empty string, got ''"),
        ([SYSTEM, "mailto:a@x", "mailto:\ud800"], None,
         "participant id '\\ud800' cannot be encoded as UTF-8"),
    ], ids=["organizer alone", "one guest twice", "nobody", "empty organizer", "unencodable"])
    def test_a_roster_new_activity_refuses_is_an_invalid_event(self, attendees, organizer, reason):
        with pytest.raises(EventInvalid) as e:
            ingest(TestParseIcs._event(attendees, organizer))
        assert (e.value.uid, e.value.reason) == ("x@y", reason)

    def test_a_title_new_activity_refuses_is_an_invalid_event(self):
        text = TestParseIcs._event([SYSTEM, "mailto:a@x"])
        text = text.replace("UID:", "SUMMARY:\ud800\r\nUID:")
        with pytest.raises(EventInvalid) as e:
            ingest(text)
        assert (e.value.uid, e.value.reason) == (
            "x@y", "title '\\ud800' cannot be encoded as UTF-8"
        )

    def test_parse_ics_leaves_the_names_to_new_activity(self):
        text = TestParseIcs._event(["mailto:o@x", SYSTEM], "mailto:o@x")
        assert parse_ics(text, SYSTEM).drafts[0].participants == ("o@x",)


def ingest(text: str) -> None:
    """Make the activities of the calendar ``text`` on a fresh server."""
    create_activities(ServerState(), parse_ics(text, SYSTEM).drafts, now=0)


# What each corpus file parses to: its specs, skipped count and warnings,
# or the code and detail it is refused with.
CORPUS_RESULTS = {
    "bad_coords.ics": ("EVENT_INVALID", "event 'badgeo-9@example.org': bad GEO: "
                       "invalid field 'lat': latitude 91.0 outside [-90, 90]"),
    "epoch_times.ics": ((ActivitySpec(
        title="Flash mob rehearsal", window=TimeWindow(600, 7200),
        fence=Geofence(GeoPoint(41.5454, -8.4265), 100.0, 25.0), organizer="hq@example.org",
        participants=("hq@example.org", "g1@example.org", "g2@example.org"),
        kind=ActivityKind.GATHERING, policy=PrivacyPolicy.ANONYMOUS_COUNT, batch_threshold=5,
        calendar_uid="epoch-gathering-3@example.org",
    ),), 0, ()),
    "meetup_fair.ics": ((ActivitySpec(
        title="Meet at the fair after shopping", window=TimeWindow(1786460400, 1786464900),
        fence=Geofence(GeoPoint(41.5606, -8.397), 100.0, 25.0), organizer="ana@example.org",
        participants=("ana@example.org", "bruno@example.org", "carla@example.org"),
        kind=ActivityKind.MEETUP, policy=PrivacyPolicy.DISCLOSE_IDENTITY, batch_threshold=None,
        calendar_uid="fair-2026-001@example.org",
    ),), 0, ()),
    "missing_geo.ics": ("EVENT_INVALID", "event 'nogeo-5@example.org': missing GEO"),
    "mixed_enrolment.ics": ((ActivitySpec(
        title="Dinner downtown", window=TimeWindow(1786561200, 1786572000),
        fence=Geofence(GeoPoint(41.5454, -8.4265), 100.0, 25.0), organizer="dora@example.org",
        participants=("dora@example.org", "emil@example.org"),
        kind=ActivityKind.GATHERING, policy=PrivacyPolicy.ANONYMOUS_COUNT, batch_threshold=3,
        calendar_uid="dinner-77@example.org",
    ),), 1, ("line 14: ignored unknown property X-CUSTOM-THING",)),
    "no_wrapper.ics": ("NOT_A_CALENDAR", "no BEGIN:VCALENDAR wrapper"),
}


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ics")))
def test_each_corpus_file_parses_to_its_pinned_result(name):
    try:
        result = parse_ics((CORPUS / name).read_text(encoding="utf-8"), SYSTEM)
    except SyncError as e:
        assert (e.code, e.detail) == CORPUS_RESULTS[name]
    else:
        assert (result.drafts, result.skipped, result.warnings) == CORPUS_RESULTS[name]


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_parser_never_panics(text):
    try:
        result = parse_ics(text, SYSTEM)
    except SyncError:
        return
    assert result.skipped >= 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                "BEGIN:VCALENDAR", "END:VCALENDAR", "BEGIN:VEVENT", "END:VEVENT",
                "UID:u@v", "DTSTART:100", "DTEND:200", "GEO:1.0;1.0",
                "GEO:bogus", "DTSTART:whenever", "SUMMARY:x", " folded",
                f"ATTENDEE:{SYSTEM}", "ATTENDEE:mailto:a@b", "ORGANIZER:mailto:o@b",
                "X-SYNC-TYPE:MEETUP", "X-SYNC-TYPE:PARTY", "X-SYNC-RADIUS:-3",
                "NO-COLON-LINE", "::", ";;;",
            ]
        ),
        max_size=30,
    )
)
def test_parser_never_panics_on_structured_soup(lines):
    try:
        parse_ics("\r\n".join(lines) + "\r\n", SYSTEM)
    except SyncError:
        pass


def split_property_reference(line: str) -> tuple[str, str] | None:
    """The character-by-character scan ``_split_property`` once was."""
    in_quotes = False
    name_end = None
    for i, ch in enumerate(line):
        if ch == '"':
            in_quotes = not in_quotes
        elif not in_quotes and ch in (";", ":") and name_end is None:
            name_end = i
        if ch == ":" and not in_quotes:
            name = line[:name_end if name_end is not None else i]
            return name.strip().upper(), line[i + 1:]
    return None


class TestSplitProperty:
    @pytest.mark.parametrize("line, expected", [
        ("SUMMARY:Dinner", ("SUMMARY", "Dinner")),
        ("dtstart:100", ("DTSTART", "100")),
        ('ATTENDEE;CN="Ana: the host";ROLE=CHAIR:mailto:ana@x', ("ATTENDEE", "mailto:ana@x")),
        ('ATTENDEE;CN="a;b":mailto:b@x', ("ATTENDEE", "mailto:b@x")),
        ('X"a;b"Y:v', ('X"A;B"Y', "v")),
        (":value", ("", "value")),
        ("NO-COLON-LINE", None),
        ('ATTENDEE;CN="unclosed:mailto:c@x', None),
        ("", None),
    ])
    def test_cases(self, line, expected):
        assert _split_property(line) == expected
        assert split_property_reference(line) == expected

    def test_equals_the_reference_scan_on_random_lines(self):
        rng = random.Random(5545)
        for _ in range(20_000):
            line = "".join(rng.choice(';:"ab ') for _ in range(rng.randrange(0, 16)))
            assert _split_property(line) == split_property_reference(line), line
