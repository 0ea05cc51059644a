"""The simulation stage, run in a process of its own.

    python3 perfbench/simworker.py SCENARIO.json EXPECT.json|- REPS [SPANS]

Loads the scenario with ``syncpoint.sim.load_scenario`` and times what
``syncpoint simulate --out`` costs: ``run_scenario``, ``transcript_lines``
and the encoding of the event-log lines. Unless EXPECT is ``-``, the first
repetition is checked against the generator's expectations; every later
one must reproduce its transcript and log byte for byte. The peak RSS is
taken after the first repetition, before its checks. With SPANS, one more
repetition runs traced after the untraced ones and its spans are written
there.

Prints one JSON object on its last line.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import syncpoint.engine  # noqa: E402
import syncpoint.sim  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def simulate(path: str):
    """One repetition: ((start, end of run_scenario, end), result, transcript, log)."""
    scenario = syncpoint.sim.load_scenario(path)
    t0 = perf_counter()
    result = syncpoint.sim.run_scenario(scenario)
    t1 = perf_counter()
    transcript = syncpoint.sim.transcript_lines(result.transcript)
    log = result.log_lines
    t2 = perf_counter()
    return (t0, t1, t2), result, transcript, log


def check(result, transcript: list[str], log: list[str], expect: dict) -> list[str]:
    """Output checks; returns a description of every failed one."""
    problems = []
    if syncpoint.engine.replay(result.records) != result.state:
        problems.append("replay(records) differs from the live state")
    if any('"lat"' in line or '"lon"' in line for line in transcript):
        problems.append("a transcript message carries a coordinate")
    ids = {a.title: a.id for a in result.activities}
    self_acks: dict[tuple[str, str], int] = {}
    updates: dict[str, list[int]] = {}
    for line in transcript:
        if "SELF_ARRIVAL_ACK" not in line and "GATHERING_UPDATE" not in line:
            continue
        entry = json.loads(line)
        n = entry["msg"]["notification"]
        if n["kind"] == "SELF_ARRIVAL_ACK":
            key = (n["activity"], entry["to"])
            self_acks[key] = self_acks.get(key, 0) + 1
        elif n["kind"] == "GATHERING_UPDATE":
            updates.setdefault(n["activity"], []).append(n["count"])
    if any(c > 1 for c in self_acks.values()):
        problems.append("a participant arrived more than once")
    for title, crossers in expect["arrivals"].items():
        aid = ids[title]
        got = result.state.arrivals.get(aid, ())
        if len(set(got)) != len(got):
            problems.append(f"{title}: duplicate arrival")
        if sorted(got) != sorted(crossers):
            problems.append(f"{title}: {len(got)} arrivals, expected {len(crossers)}")
        acked = sorted(w for (a, w) in self_acks if a == aid)
        if acked != sorted(crossers):
            problems.append(f"{title}: self-acks do not match the arrivals")
        if title in expect["batched"]:
            counts = sorted(set(updates.get(aid, [])))
            want = list(range(5, len(got) + 1, 5))
            if counts != want:
                problems.append(
                    f"{title}: {len(counts)} gathering updates for {len(got)} arrivals")
    fixes = sum(1 for line in log if line.startswith('{"type":"FIX_ACCEPTED"'))
    if fixes == 0:
        problems.append("no fix was accepted")
    return problems


def main(argv: list[str]) -> int:
    scenario, expect_path, reps = argv[0], argv[1], int(argv[2])
    spans = argv[3] if len(argv) > 3 else None
    expect = None if expect_path == "-" else json.loads(Path(expect_path).read_text())
    windows, problems = [], []
    digest = peak_rss_mb = None
    # One CPU, so that the speed samples of that CPU apply.
    cpu = speed.cpus()[0]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    for rep in range(reps):
        window, result, transcript, log = simulate(scenario)
        windows.append(window)
        h = hashlib.sha256()
        for line in itertools.chain(transcript, log):
            h.update(line.encode())
        if rep == 0:
            # The peak so far is the program's: the run, its transcript and
            # log lines. The checks below hold a second, replayed state.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if expect is not None:
                problems += check(result, transcript, log, expect)
            digest = h.hexdigest()
            meta = {"fixes": sum(1 for line in log if line.startswith('{"type":"FIX_ACCEPTED"')),
                    "transcript_lines": len(transcript), "log_lines": len(log),
                    "digest": digest}
        elif h.hexdigest() != digest:
            problems.append(f"repetition {rep} is not byte-identical to the first")
        del result, transcript, log
    out = {
        "simulate_s": [t2 - t0 for t0, _, t2 in windows],
        "core_s": [t1 - t0 for t0, t1, _ in windows],
        "windows": windows,
        "cpu": cpu,
        "peak_rss_mb": peak_rss_mb,
        "reps": reps,
        "problems": problems,
        **meta,
    }
    if spans:
        tracer = Tracer()
        out["missing"] = install(tracer)
        t0, _, t2 = simulate(scenario)[0]
        out["traced_simulate_s"] = t2 - t0
        tracer.write(spans, {"missing": out["missing"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
