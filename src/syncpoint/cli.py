"""Command-line entry points.

    syncpoint serve    --listen HOST:PORT --log PATH
    syncpoint ingest   FILE.ics --system-address MAILTO --log PATH [--now N]
    syncpoint status   ACTIVITY_ID --log PATH [--now N]
    syncpoint replay   --log PATH [--now N]
    syncpoint simulate SCENARIO.json [--out PATH]
    syncpoint simulate --check SCENARIO.json GOLDEN.jsonl

Every command opens a log as `replay(load_log(path))`, which stops at the
first corrupt record (a bad line, or a record naming an unknown activity or
participant) and hands back the state before it. `status` and `replay` keep
that state with a warning and print status views as canonical wire frames;
`serve` and `ingest` do so only for a torn final line, which they cut off.
A log write that fails stops `serve` (and `ingest`) with exit status 1 and
one line on stderr; the log then holds exactly the committed records. An
`OSError`, such as a missing file or a port in use, exits the same way.
`simulate --check` exits non-zero on the first diverging transcript line.
`simulate` prints the warnings of a calendar its scenario names to stderr,
as `ingest` does.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from pathlib import Path

from .engine import AlreadyIngested, Engine, replay, status_view
from .errors import SyncError
from .eventlog import CorruptRecord, load_log
from .ics import parse_ics
from .net import serve_forever
from .sim import (
    first_divergence,
    load_scenario,
    run_scenario,
    split_lines,
    transcript_lines,
    write_transcript,
)
from .wire import encode


def _parse_listen(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError("--listen expects HOST:PORT")
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


async def _serve(engine: Engine, host: str, port: int) -> None:
    # SIGTERM cancels the server as Ctrl-C does, so both shut down cleanly.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel
    )
    await serve_forever(engine, host, port)


def cmd_serve(args) -> int:
    host, port = args.listen
    engine = Engine(log_path=args.log)
    _warn_kept_prefix(engine.torn_tail)
    try:
        asyncio.run(_serve(engine, host, port))
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    # A LogWriteFailed skips the close: the records past the last commit
    # die with the process, since none of their replies left.
    engine.close()
    return 0


def cmd_ingest(args) -> int:
    engine = Engine(log_path=args.log)
    _warn_kept_prefix(engine.torn_tail)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
        result = parse_ics(text, args.system_address)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        created = 0
        for spec in result.drafts:
            try:
                act, _ = engine.create_activity(spec, now=args.now)
            except AlreadyIngested as e:
                print(f"warning: {e.detail}, skipping", file=sys.stderr)
                continue
            created += 1
            print(f"created {act.id} ({act.kind.value}) from event {spec.calendar_uid}")
        print(f"ingested {created} activities, skipped {result.skipped} "
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
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.check:
        actual = transcript_lines(result.transcript)
        expected = split_lines(Path(args.golden).read_text(encoding="utf-8"))
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

    p = sub.add_parser("serve", help="run the TCP server")
    p.add_argument("--listen", type=_parse_listen, default=("127.0.0.1", 7007),
                   help="HOST:PORT to listen on (default 127.0.0.1:7007)")
    p.add_argument("--log", required=True, help="event log path")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("ingest", help="create activities from an .ics file")
    p.add_argument("file", help=".ics file to ingest")
    p.add_argument("--system-address", required=True,
                   help="the service's own mailto address")
    p.add_argument("--log", required=True, help="event log path")
    p.add_argument("--now", type=int, default=None,
                   help="creation timestamp (default: wall clock)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("status", help="print one activity's status view")
    p.add_argument("activity_id")
    p.add_argument("--log", required=True, help="event log path")
    p.add_argument("--now", type=int, default=None,
                   help="timestamp for phase rendering (default: wall clock)")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("replay", help="rebuild state from the log, print status views")
    p.add_argument("--log", required=True, help="event log path")
    p.add_argument("--now", type=int, default=None,
                   help="timestamp for phase rendering (default: wall clock)")
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
    if getattr(args, "now", None) is None and hasattr(args, "now"):
        args.now = int(time.time())
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
