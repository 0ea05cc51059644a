"""Command-line entry points.

    syncpoint serve    --listen HOST:PORT --log PATH
    syncpoint ingest   FILE.ics --system-address MAILTO --log PATH [--now N]
    syncpoint status   ACTIVITY_ID --log PATH [--now N]
    syncpoint replay   --log PATH [--now N]
    syncpoint simulate SCENARIO.json [--out PATH]
    syncpoint simulate --check SCENARIO.json GOLDEN.jsonl

Every command opens a log as `replay(load_log(path))`, which stops at the
first corrupt record (a bad line, or a record its guard refuses, one the
live path could not have logged, such as a forged arrival) and hands back
the state before it. `status` and `replay` keep
that state with a warning and print status views as canonical wire frames;
`serve` and `ingest` do so only for a torn final line, which they cut off.
They write the log, and a log has one writer: while one holds it, another
exits with status 1 and one `error: LOG_IN_USE: ...` line on stderr.
A log write that fails stops `serve` (and `ingest`) with exit status 1 and
one line on stderr; the log then holds exactly the committed records. A
named file that cannot be read (`UNREADABLE`) or is not UTF-8 (`NOT_UTF8`),
and any other `OSError`, such as a port in use, exit the same way.
`simulate --check` exits non-zero on the first diverging transcript line.
`ingest`, and `simulate` of a scenario that names a calendar, make its
activities in one `engine.create_activities` call: an event whose UID is
taken is skipped with a warning on stderr, and one that makes no activity
(`EVENT_INVALID`) makes none of them. A command imports the calendar and
simulator modules only if it runs them.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from .engine import Engine, replay, status_view
from .errors import SyncError, read_utf8
from .eventlog import CorruptRecord, load_log
from .wire import encode


def _parse_listen(value: str) -> tuple[str, int]:
    """(host, port) of HOST:PORT; an IPv6 host may be written in brackets."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError("--listen expects HOST:PORT, with a port of 0-65535")
    host = host[1:-1] if host.startswith("[") and host.endswith("]") else host
    return (host or "127.0.0.1", int(port))


def _warn_kept_prefix(error: CorruptRecord | None) -> None:
    if error is not None:
        print(f"warning: {error.detail}; keeping state up to record {error.index}",
              file=sys.stderr)


def _recover_state(log_path: str):
    """Replay a log as it is read; at a corrupt record, warn and keep the state before it."""
    try:
        return replay(load_log(log_path))
    except CorruptRecord as e:
        _warn_kept_prefix(e)
        return e.state


def cmd_serve(args) -> int:
    # Only serve runs an event loop, so only serve pays for importing one.
    import asyncio
    import signal

    from .net import serve_forever

    async def serve() -> None:
        # SIGTERM cancels the server as Ctrl-C does, so both shut down cleanly.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await serve_forever(engine, host, port)

    logging.basicConfig(level=logging.WARNING,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    host, port = args.listen
    engine = Engine(log_path=args.log)
    _warn_kept_prefix(engine.torn_tail)
    try:
        asyncio.run(serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    # A LogWriteFailed skips the close: the records past the last commit
    # die with the process, since none of their replies left.
    engine.close()
    return 0


def cmd_ingest(args) -> int:
    from .ics import parse_ics  # each command imports what only it runs, as serve does

    text = read_utf8(args.file)  # before the log is opened, so a bad file leaves it be
    engine = Engine(log_path=args.log)
    _warn_kept_prefix(engine.torn_tail)
    try:
        result = parse_ics(text, args.system_address)
        acts, skipped, _ = engine.create_activities(result.drafts, now=args.now)
        for warning in (*result.warnings, *skipped):
            print(f"warning: {warning}", file=sys.stderr)
        for act in acts:
            print(f"created {act.id} ({act.kind.value}) from event {act.calendar_uid}")
        print(f"ingested {len(acts)} activities, skipped {result.skipped} "
              f"non-enrolled events")
        return 0
    finally:
        engine.close()


def cmd_status(args) -> int:
    state = _recover_state(args.log)
    view = status_view(state, args.activity_id, args.now)
    sys.stdout.write(encode(view))
    return 0


def cmd_replay(args) -> int:
    state = _recover_state(args.log)
    for activity_id in state.activities:
        sys.stdout.write(encode(status_view(state, activity_id, args.now)))
    return 0


def cmd_simulate(args) -> int:
    from .sim import (
        first_divergence, load_scenario, run_scenario, split_lines, transcript_lines,
        write_transcript,
    )

    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.check:
        actual = transcript_lines(result.transcript)
        expected = split_lines(read_utf8(args.golden))
        line = first_divergence(actual, expected)
        if line is None:
            print(f"transcript matches {args.golden} ({len(actual)} lines)")
            return 0
        got = actual[line - 1].rstrip("\n") if line <= len(actual) else "<end of transcript>"
        want = expected[line - 1].rstrip("\n") if line <= len(expected) else "<end of golden>"
        print(f"transcript diverges at line {line}:", file=sys.stderr)
        print(f"  got:  {got}", file=sys.stderr)
        print(f"  want: {want}", file=sys.stderr)
        return 1
    if args.out:
        write_transcript(args.out, result.transcript)
        print(f"wrote {len(result.transcript)} transcript lines to {args.out}")
    else:
        for line in transcript_lines(result.transcript):
            sys.stdout.write(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncpoint",
        description="Coarse-grained location-based synchronisation service",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    log = argparse.ArgumentParser(add_help=False)
    log.add_argument("--log", required=True, help="event log path")
    now = argparse.ArgumentParser(add_help=False)
    now.add_argument("--now", type=int, default=int(time.time()),
                     help="the current time, in epoch seconds (default: wall clock)")

    p = sub.add_parser("serve", parents=[log], help="run the TCP server")
    p.add_argument("--listen", type=_parse_listen, default=("127.0.0.1", 7007),
                   help="HOST:PORT to listen on (default 127.0.0.1:7007)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("ingest", parents=[log, now], help="create activities from an .ics file")
    p.add_argument("file", help=".ics file to ingest")
    p.add_argument("--system-address", required=True,
                   help="the service's own mailto address")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("status", parents=[log, now], help="print one activity's status view")
    p.add_argument("activity_id")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("replay", parents=[log, now],
                       help="rebuild state from the log, print status views")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario", help="scenario .json file")
    p.add_argument("golden", nargs="?", help="golden transcript (with --check)")
    p.add_argument("--out", help="write the transcript here instead of stdout")
    p.add_argument("--check", action="store_true",
                   help="compare against the golden transcript")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "now", 0) < 0:  # every record's time is an integer >= 0
        print(f"--now must be >= 0, got {args.now}", file=sys.stderr)
        return 2
    if getattr(args, "check", False) and not args.golden:
        print("simulate --check needs a golden transcript path", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SyncError as e:
        print(f"error: {e.code}: {e.detail}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
