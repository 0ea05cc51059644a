"""Span tracing around the public entry points of each syncpoint layer.

The program is not edited: ``install`` wraps functions and methods from the
outside, replacing every module attribute bound to the original, so a
function is traced where its caller looks it up (``syncpoint.sim.handle``
as well as ``syncpoint.engine.handle``). Each call records one span: name,
start, end and the index of the enclosing span. Spans stay in flat arrays
in memory and are written once, at exit.

Run as a launcher, this module traces a syncpoint command and then hands
over to ``syncpoint.cli.main``:

    python3 perfbench/tracer.py --spans OUT -- serve --listen H:P --log L
"""

from __future__ import annotations

import atexit
import json
import re
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def inside(self, name: str) -> bool:
        """Whether a span named ``name`` is open on the stack."""
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self._stack[1:])

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, label=None, after=None):
        """A traced stand-in for ``fn``.

        ``label(args, result)`` refines the span name once the call returns
        (for example by message type); ``after(args, result)`` records
        counts.
        """
        base = self.name_id(name)
        start, end, names, parent, stack = self.start, self.end, self.name, self.parent, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(base)
            parent.append(stack[-1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if label is not None:
                names[idx] = self.name_id(f"{name}.{label(args, result)}")
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str | Path, meta: dict | None = None) -> None:
        header = {
            "names": self.names,
            "n": len(self.start),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "meta": meta or {},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)


def _rebind(old, new) -> None:
    """Point every syncpoint module attribute bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "syncpoint" or mod_name.startswith("syncpoint.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> list[str]:
    """Wrap the layer entry points; returns the names that were not found.

    A later version of the program may remove or rename an entry point;
    its metrics then read zero and the launcher carries on.
    """
    import syncpoint.activities as activities
    import syncpoint.cli  # noqa: F401  (binds the names cli looks up)
    import syncpoint.engine as engine
    import syncpoint.eventlog as eventlog
    import syncpoint.geo as geo
    import syncpoint.ics as ics
    import syncpoint.notify as notify
    import syncpoint.presence as presence
    import syncpoint.sim as sim
    import syncpoint.wire as wire

    counts, maxima = tracer.counts, tracer.maxima
    type_label = {}

    def of_type(obj) -> str:
        t = type(obj)
        label = type_label.get(t)
        if label is None:
            label = type_label[t] = _snake(t.__name__)
        return label

    def count_feed(args, frames):
        counts["wire.feed.bytes"] += len(args[1])
        counts["wire.feed.frames"] += len(frames)

    def count_encode(args, text):
        counts["wire.encode.bytes"] += len(text.encode("utf-8"))

    def count_pending(args, result):
        state, participant = args[0], args[1]
        depth = len(state.queues.get(participant, ()))
        counts["engine.pending.scanned"] += depth
        counts["engine.pending.returned"] += len(result[0])
        if depth > maxima["engine.queue_depth"]:
            maxima["engine.queue_depth"] = depth

    def count_handle(args, result):
        if of_type(args[1]) == "FIX":
            counts["engine.fix.records"] += len(result[1])

    def count_record(args, line):
        counts[f"eventlog.bytes.{of_type(args[0].event)}"] += len(line.encode("utf-8"))

    def fanout(name):
        def count(args, result):
            counts[f"{name}.recipients"] += len(result)
            if not tracer.inside("engine.replay"):
                counts["notify.enqueued"] += len(result)
        return count

    def count_ics(args, result):
        counts["ics.drafts"] += len(result.drafts)

    functions = [
        (wire, "decode", "wire.decode", lambda a, r: of_type(r), None),
        (wire, "encode", "wire.encode", lambda a, r: of_type(a[0]), count_encode),
        (engine, "handle", "engine.handle", lambda a, r: of_type(a[1]), count_handle),
        (engine, "apply", "engine.apply", lambda a, r: of_type(a[1].event), None),
        (engine, "pending", "engine.pending", None, count_pending),
        (engine, "replay", "engine.replay", None, None),
        (engine, "create_activity", "engine.create_activity", None, None),
        (engine, "materialize_draft", "engine.materialize_draft", None, None),
        (eventlog, "encode_record", "eventlog.encode_record", lambda a, r: of_type(a[0].event), count_record),
        (eventlog, "decode_record", "eventlog.decode_record", lambda a, r: of_type(r.event), None),
        (eventlog, "load_log", "eventlog.load_log", None, None),
        (activities, "respond_invitation", "activities.respond_invitation", None, None),
        (presence, "ingest_fix", "presence.ingest_fix", None, None),
        (geo, "classify_zone", "geo.classify_zone", None, None),
        (geo, "haversine_m", "geo.haversine", None, None),
        (notify, "on_arrival", "notify.on_arrival", None, fanout("notify.on_arrival")),
        (notify, "on_invite", "notify.on_invite", None, fanout("notify.on_invite")),
        (notify, "on_task_done", "notify.on_task_done", None, fanout("notify.on_task_done")),
        (ics, "parse_ics", "ics.parse_ics", None, count_ics),
        (sim, "run_scenario", "sim.run_scenario", None, None),
        (sim, "transcript_lines", "sim.transcript_lines", None, None),
    ]
    methods = [
        (wire, "FrameBuffer", "feed", "wire.feed", count_feed),
        (eventlog, "LogWriter", "append", "eventlog.append", None),
        (activities, "Activity", "participant", "activities.participant", None),
    ]
    missing = []
    for mod, attr, name, label, after in functions:
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{mod.__name__}.{attr}")
            continue
        _rebind(fn, tracer.wrap(fn, name, label, after))
    for mod, cls_name, attr, name, after in methods:
        cls = getattr(mod, cls_name, None)
        fn = getattr(cls, attr, None) if cls is not None else None
        if fn is None:
            missing.append(f"{mod.__name__}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, tracer.wrap(fn, name, None, after))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT -- SYNCPOINT-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    missing = install(tracer)
    atexit.register(tracer.write, out, {"missing": missing})
    import syncpoint.cli

    return syncpoint.cli.main(cli_args)


# --- analysis --------------------------------------------------------------------


class SpanSet:
    """Spans read back from one traced process, with derived self times."""

    def __init__(self, path: str | Path, role: str):
        self.role = role
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["n"]
            self.names = header["names"]
            self.counts = header["counts"]
            self.maxima = header["maxima"]
            self.missing = header["meta"].get("missing", [])
            arrays = []
            for code in ("d", "d", "i", "i"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        self.start, self.end, self.name, self.parent = arrays
        self.dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def indices(self, prefix: str) -> list[int]:
        """Spans whose name is ``prefix`` or starts with ``prefix.``."""
        ids = {i for i, nm in enumerate(self.names)
               if nm == prefix or nm.startswith(prefix + ".")}
        return [i for i, nid in enumerate(self.name) if nid in ids]

    def under(self, idx: int, prefix: str) -> bool:
        """Whether span ``idx`` runs inside a span named ``prefix``..."""
        p = self.parent[idx]
        while p >= 0:
            nm = self.names[self.name[p]]
            if nm == prefix or nm.startswith(prefix + "."):
                return True
            p = self.parent[p]
        return False


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
