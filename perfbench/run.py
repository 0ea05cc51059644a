"""The syncpoint benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A run is three rounds, and every
round, whatever the workload, goes through the same four stages, so every
end-to-end metric is measured on every workload:

1. set-up (``setup_s``): make the inputs from the seed, ``syncpoint
   ingest`` a calendar, have every invitee accept, append any history to
   the log, and start ``syncpoint serve`` until its first WELCOME.
2. live: two TCP clients HELLO, catch up with a POLL from cursor 0, ARM
   every calendar activity, then stream FIX frames, first open loop at a
   fixed rate (latencies), then closed loop with a fixed window per
   connection (throughput). A POLL follows every hundred fixes. The
   server and the load generator get a CPU each, and a spinner of the
   lowest scheduling class keeps the server's CPU from idling between
   requests (``server.keep_awake``).
3. recovery (first round only): ``syncpoint serve`` cold-starts on the
   final log; STATUS frames for sampled activities must match the
   generating state. Restart times, like POLL round trips and p99
   latencies, vary too much from run to run to gate on; they are
   reported by the traced run, not gated.
4. simulation: a worker process runs a crowd scenario in virtual time.

Each gated figure is a central statistic over all three rounds: the p50
of every timed request, the closed-loop fixes over the closed-loop time,
and the mean simulation. ``setup_s`` is the median of the three set-ups.
Every timing is first scaled by how fast the host ran Python while it
was taken (``speed.py``), so that runs made minutes apart on a shared
machine compare. The run metadata keeps each round's raw figures and
scales.

The workloads change the input, and with it the stage where time goes:

- ``live_fixes``: 1,000 small meetups over TCP, so net, wire, log append
  and arrival pushes dominate, and participant scans stay short.
- ``crowd_recovery``: a 1,000-person gathering and a 150-person meetup in
  the simulator, where per-fix participant scans and fan-out dominate,
  and a 40k-record history in the log, which every server start must
  decode and replay.

With ``--trace 1`` one round runs untraced (for reference) and one with
every syncpoint process traced, and the per-layer metrics are printed
instead. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import live  # noqa: E402
import server  # noqa: E402
import speed  # noqa: E402
from tracer import SpanSet, Tracer, install  # noqa: E402


@dataclass(frozen=True)
class Sizes:
    events: int  # calendar meetups of ATTENDEES people, both live clients included
    history_records: int  # extra log records for cold recovery
    history_activities: int
    crowd: tuple[int, int]  # (gathering, meetup) participants in the simulator
    sim_reps: int
    live_scale: float  # frames of the live stage, relative to --seconds


# Sized so that a run of either ends within about a minute on a 2-core machine.
WORKLOADS = {
    "live_fixes": Sizes(1000, 0, 0, (150, 50), 6, 1.0),
    "crowd_recovery": Sizes(500, 40_000, 300, (1000, 150), 1, 1.0),
}
ROUNDS = 3
ATTENDEES = 32
# Frames/s over both connections, about a sixth of saturation: low enough
# that the server keeps up through the minutes-long spells in which a
# shared host runs it several times slower (at twice the rate, one such
# spell saturated it).
OPEN_RATE = 2000.0
OPEN_SHARE = 0.625  # of --seconds, spent in the open-loop phase
CLOSED_FRAMES_PER_S = 3500  # closed-loop frames per --seconds
WARMUP = 0.2  # share of the open-loop phase sent before timing starts
WINDOW = 64  # closed-loop frames in flight per connection
STATUS_SAMPLES = 20
WORK = ".perfbench_work"


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --- set-up ----------------------------------------------------------------------


def live_frames(sizes: Sizes, seconds: int) -> tuple[int, int]:
    """Frames of the open-loop and closed-loop phases."""
    scale = sizes.live_scale * seconds
    return int(OPEN_RATE * OPEN_SHARE * scale), int(CLOSED_FRAMES_PER_S * scale)


@dataclass
class Instance:
    server: server.Server
    log: Path
    calendar: inputs.Calendar
    history: inputs.History | None
    plans: list[live.Plan]
    scenario: Path
    expect: Path
    window: tuple[float, float]  # perf_counter at the start and the end of the set-up


def accept_all(log: Path, events, tally: live.Tally) -> int:
    """Every invitee of every calendar event accepts; returns the record count."""
    from syncpoint.activities import InviteAnswer
    from syncpoint.engine import Engine
    from syncpoint.wire import RespondInvite

    engine = Engine(log_path=log)
    try:
        for ev in events:
            msg = RespondInvite(ev.activity, InviteAnswer.ACCEPT)
            for who in ev.participants:
                tally.attempted += 1
                for _, reply in engine.handle(msg, who, inputs.WINDOW_START):
                    if type(reply).__name__ == "Err":
                        tally.fail(f"{who} could not accept {ev.activity}: {reply}")
        return engine.state.record_count
    finally:
        engine.close()


async def set_up(sizes: Sizes, seed: int, seconds: int, work: Path, tally: live.Tally,
                 spans: dict | None = None) -> Instance:
    """One full set-up; with ``spans``, ingest and serve run traced."""
    work.mkdir(parents=True)
    t0 = perf_counter()
    calendar = inputs.make_calendar(seed, sizes.events, ATTENDEES)
    plans = live.make_plans(seed, calendar.events, *live_frames(sizes, seconds))
    crowd = inputs.make_crowd(seed, *sizes.crowd)
    scenario, expect = work / "crowd.json", work / "expect.json"
    scenario.write_text(json.dumps(crowd.scenario))
    expect.write_text(json.dumps({
        "arrivals": crowd.expected_arrivals,
        "batched": [a["title"] for a in crowd.scenario["activities"] if a["kind"] == "GATHERING"],
    }))
    ics, log = work / "calendar.ics", work / "events.jsonl"
    ics.write_text(calendar.text)
    server.run_cli(["ingest", str(ics), "--system-address", inputs.SYSTEM_ADDRESS,
                    "--log", str(log), "--now", str(inputs.WINDOW_START)],
                   work, spans and spans["ingest"])
    records = accept_all(log, calendar.events, tally)
    history = None
    if sizes.history_records:
        history = inputs.make_history(seed, records, sizes.events + 1, sizes.history_activities,
                                      20, sizes.history_records)
        with open(log, "a", encoding="utf-8") as fh:
            fh.writelines(history.lines)
    srv = server.Server(log, work, spans and spans["live"])
    try:
        await srv.welcome()
    except BaseException:
        srv.kill()
        raise
    t1 = perf_counter()
    return Instance(srv, log, calendar, history, plans, scenario, expect, (t0, t1))


# --- live stage ---------------------------------------------------------------------


def pin_apart(pid: int) -> set[int] | None:
    """Put the server and this process on different CPUs, if there are two.

    Returns this process's previous affinity, to restore afterwards; the
    server gets its highest CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(pid, {cpus[-1]})
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus)


@dataclass
class LiveResult:
    shared: live.Shared
    backlog: int
    closed_fixes: int
    fixes: int  # in both phases
    log_bytes: int  # appended to the log in both phases
    # perf_counter at the start and the end of each phase, and of both.
    open_window: tuple[float, float]
    closed_window: tuple[float, float]
    window: tuple[float, float]
    cpu_s: float
    server_cpu: int | None  # None if it shares the CPUs with the load generator


async def live_stage(inst: Instance, tally: live.Tally, open_only: bool = False,
                     monitor: speed.Monitor | None = None) -> LiveResult:
    shared = live.Shared(tally)
    plans = inst.plans
    clients = [live.Client(p.who, shared) for p in plans]
    # The load generator's own collector pauses would read as server latency,
    # and so would the two processes taking turns on one CPU.
    gc.collect()
    gc.disable()
    affinity = pin_apart(inst.server.proc.pid)
    spinner = server.keep_awake(max(affinity)) if affinity else None
    try:
        for c in clients:
            await c.connect(inst.server.port)
        await asyncio.gather(*(live.hello(c) for c in clients))
        for c in clients:
            c.full_poll()
        await asyncio.gather(*(c.wait_idle(60) for c in clients))
        await asyncio.gather(*(live.windowed(c, p.arms, 256, 60) for c, p in zip(clients, plans)))
        log0 = inst.log.stat().st_size

        cpu0, w0 = inst.server.cpu_seconds(), perf_counter()
        if monitor is not None:
            monitor.hold(True)
        try:
            t0 = perf_counter() + 0.05
            backlogs = await asyncio.gather(*(
                live.open_loop(c, p.open, OPEN_RATE / len(plans), t0, k / len(plans),
                               int(len(p.open) * WARMUP))
                for k, (c, p) in enumerate(zip(clients, plans))))
            await asyncio.gather(*(c.wait_idle(30) for c in clients))
        finally:
            if monitor is not None:
                monitor.hold(False)
        shared.recording = False
        fixes = sum(1 for p in plans for e in p.open if e[0] == "FIX")
        open_end = perf_counter()

        closed = 0
        if not open_only:
            closed = sum(1 for p in plans for e in p.closed if e[0] == "FIX")
            await asyncio.gather(*(live.windowed(c, p.closed, WINDOW, 120)
                                   for c, p in zip(clients, plans)))
            fixes += closed
        cpu1, w1 = inst.server.cpu_seconds(), perf_counter()
        # Every FIX is answered only after its records are appended and flushed.
        log_bytes = inst.log.stat().st_size - log0

        for c in clients:
            c.full_poll()
        await asyncio.gather(*(c.wait_idle(60) for c in clients))
        if not open_only:
            live.check_arrivals(plans, shared)
    finally:
        if spinner is not None:
            spinner.kill()
            spinner.wait()
        gc.enable()
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
        for c in clients:
            await c.close()
    cpu = (cpu1 - cpu0) if cpu0 is not None and cpu1 is not None else 0.0
    return LiveResult(shared, sum(backlogs), closed, fixes, log_bytes, (t0, open_end),
                      (open_end, w1), (w0, w1), cpu, max(affinity) if affinity else None)


# --- recovery stage --------------------------------------------------------------


def expected_status(inst: Instance, seed: int) -> list[tuple[str, bytes]]:
    """STATUS requests for sampled activities and the frames they must get."""
    rng = random.Random(f"status/{seed}")
    out = []
    for ev in rng.sample(inst.calendar.events, min(STATUS_SAMPLES, len(inst.calendar.events))):
        status = dict.fromkeys(ev.participants, "ACCEPTED")
        out.append((ev.activity, inputs.status_frame(ev.activity, ev.participants, status,
                                                     set(inputs.LIVE))))
    if inst.history is not None:
        for h in rng.sample(inst.history.activities, min(STATUS_SAMPLES, len(inst.history.activities))):
            out.append((h.activity, inputs.status_frame(h.activity, h.participants, h.status,
                                                        h.arrived)))
    return [(a, f.encode()) for a, f in out]


async def check_status(port: int, expected, tally: live.Tally) -> None:
    client = live.Client(inputs.LIVE[0], live.Shared(tally))
    await client.connect(port)
    try:
        await live.hello(client)
        for activity, frame in expected:
            client.request("STATUS", f'{{"type":"STATUS","activity":"{activity}"}}\n'.encode(),
                           frame)
        await client.wait_idle(30)
    finally:
        await client.close()


async def recovery_stage(inst: Instance, seed: int, restarts: int, tally: live.Tally,
                         spans: Path | None = None) -> tuple[list[float], float]:
    expected = expected_status(inst, seed)
    times, rss = [], 0.0
    for _ in range(restarts):
        srv = server.Server(inst.log, inst.log.parent, spans)
        try:
            times.append(await srv.welcome())
            await check_status(srv.port, expected, tally)
        finally:
            rss = max(rss, await srv.stop())
    return times, rss


# --- simulation stage -------------------------------------------------------------


def sim_stage(inst: Instance, reps: int, tally: live.Tally, spans: Path | None = None,
              check: bool = True) -> dict:
    expect = str(inst.expect) if check else "-"
    args = [sys.executable, str(HERE / "simworker.py"), str(inst.scenario), expect,
            str(reps)] + ([str(spans)] if spans else [])
    done = subprocess.run(args, capture_output=True, text=True, env=server.env(), timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"simulation worker failed: {done.stderr[-800:]}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    tally.attempted += out["reps"]
    for problem in out["problems"]:
        tally.fail(f"simulation: {problem}")
    return out


# --- runs ------------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


async def one_round(sizes: Sizes, seed: int, seconds: int, work: Path,
                    tally: live.Tally, first: bool, monitor: speed.Monitor) -> dict:
    """Set-up, live and simulation stages once, and recovery in the first
    round; their raw figures.

    The simulation's output is checked in full in the first round; every
    round must reproduce it byte for byte.
    """
    inst = await set_up(sizes, seed, seconds, work, tally)
    try:
        lv = await live_stage(inst, tally, monitor=monitor)
    finally:
        live_rss = await inst.server.stop()
    recovery_rss = (await recovery_stage(inst, seed, 1, tally))[1] if first else 0.0
    sim = sim_stage(inst, sizes.sim_reps, tally, check=first)
    sh = lv.shared
    closed_s = lv.closed_window[1] - lv.closed_window[0]
    return {
        "setup": inst.window,
        "live": lv,
        "sim": sim,
        "peak_rss_mb": max(live_rss, recovery_rss, sim["peak_rss_mb"]),
        "log_bytes_per_fix": lv.log_bytes / lv.fixes,
        "meta": {  # raw, as timed
            "setup_s": inst.window[1] - inst.window[0],
            "fix_ack_p50_ms": percentile(sh.fix_ack, 0.50) * 1e3,
            "arrival_notify_p50_ms": percentile(sh.arrival_notify, 0.50) * 1e3,
            "fixes_per_s": lv.closed_fixes / closed_s,
            "simulate_s": sim["simulate_s"],
            "core_s": sim["core_s"],
            "peak_rss_mb": {"live": live_rss, "recovery": recovery_rss,
                            "sim": sim["peak_rss_mb"]},
            "poll_p50_ms": percentile(sh.poll_rtt, 0.50) * 1e3,
            "fix_ack_p99_ms": percentile(sh.fix_ack, 0.99) * 1e3,
            "arrival_notify_p99_ms": percentile(sh.arrival_notify, 0.99) * 1e3,
            "lateness_p99_ms": percentile(sh.lateness, 0.99) * 1e3,
            "backlog_end_open": lv.backlog,
            "server_busy": lv.cpu_s / (lv.window[1] - lv.window[0]),
            "samples": [len(sh.fix_ack), len(sh.arrival_notify), len(sh.poll_rtt)],
        },
    }


def summarise(rounds: list[dict], samples, light) -> dict:
    """The end-to-end metrics over all rounds, timings scaled to the
    reference speed (see ``speed``); each round's scales go to its metadata.
    """
    setup_s, fix_ack, arrival, closed_fixes, closed_s, sim_s, core_s = [], [], [], 0, 0.0, [], []
    for r in rounds:
        lv, sim = r["live"], r["sim"]
        scale = {
            "setup": speed.factor(samples, r["setup"]),
            # Only light passes run while latencies are timed.
            "open": speed.factor(light, lv.open_window, ref=speed.REF_LIGHT_S),
            # Closed loop, the server is the bottleneck: its CPU sets the pace.
            "closed": speed.factor(samples, lv.closed_window, lv.server_cpu),
            "sim": [speed.factor(samples, (t0, t2), sim["cpu"]) for t0, _, t2 in sim["windows"]],
            "core": [speed.factor(samples, (t0, t1), sim["cpu"]) for t0, t1, _ in sim["windows"]],
        }
        r["meta"]["scale"] = scale
        setup_s.append(r["meta"]["setup_s"] * scale["setup"])
        fix_ack += [v * scale["open"] for v in lv.shared.fix_ack]
        arrival += [v * scale["open"] for v in lv.shared.arrival_notify]
        closed_fixes += lv.closed_fixes
        closed_s += (lv.closed_window[1] - lv.closed_window[0]) * scale["closed"]
        sim_s += [v * f for v, f in zip(sim["simulate_s"], scale["sim"])]
        core_s += [v * f for v, f in zip(sim["core_s"], scale["core"])]
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "fix_ack_p50_ms": metric(percentile(fix_ack, 0.50) * 1e3, "ms"),
        "arrival_notify_p50_ms": metric(percentile(arrival, 0.50) * 1e3, "ms"),
        "fixes_per_s": metric(closed_fixes / closed_s, "1/s"),
        "simulate_s": metric(statistics.mean(sim_s), "s"),
        "core_fixes_per_s": metric(rounds[0]["sim"]["fixes"] / statistics.mean(core_s), "1/s"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in rounds), "MB"),
        "log_bytes_per_fix": metric(statistics.median(r["log_bytes_per_fix"] for r in rounds), "B"),
    }


async def untraced_run(sizes: Sizes, seed: int, seconds: int, work: Path,
                       tally: live.Tally, meta: dict) -> dict:
    work.mkdir(parents=True)
    monitor = speed.Monitor(work)
    try:
        rounds = [await one_round(sizes, seed, seconds, work / f"round{k}", tally, k == 0,
                                  monitor)
                  for k in range(ROUNDS)]
        samples, light = monitor.samples(), monitor.samples(light=True)
    finally:
        monitor.stop()
    tally.attempted += 1
    if len({r["sim"]["digest"] for r in rounds}) != 1:
        tally.fail("simulation: the rounds' transcripts and logs are not byte-identical")
    metrics = summarise(rounds, samples, light)
    meta["rounds"] = [r["meta"] for r in rounds]
    meta["sim"] = {k: rounds[0]["sim"][k] for k in ("fixes", "transcript_lines", "log_lines",
                                                     "digest")}
    return metrics


async def traced_run(sizes: Sizes, seed: int, seconds: int, work: Path,
                     tally: live.Tally, meta: dict) -> dict:
    # Untraced reference for the tracing overhead.
    ref = await set_up(sizes, seed, seconds, work / "reference", tally)
    try:
        ref_live = await live_stage(ref, tally, open_only=True)
    finally:
        await ref.server.stop()

    spans = {role: work / f"{role}.spans" for role in ("setup", "ingest", "live", "recovery", "sim")}
    tracer = Tracer()
    missing = install(tracer)
    inst = await set_up(sizes, seed, seconds, work / "traced", tally, spans)
    try:
        lv = await live_stage(inst, tally)
    finally:
        await inst.server.stop()
    tracer.write(spans["setup"], {"missing": missing})
    recoveries, _ = await recovery_stage(inst, seed, 2, tally)
    await recovery_stage(inst, seed, 1, tally, spans["recovery"])
    sim = sim_stage(inst, sizes.sim_reps, tally, spans["sim"])

    roles = {"setup": "setup", "ingest": "setup", "live": "live", "recovery": "recovery",
             "sim": "sim"}
    sets = [SpanSet(path, roles[role]) for role, path in spans.items()]
    sh, ref = lv.shared, ref_live.shared
    extra = {
        # Too unsteady run to run to gate on; measured untraced.
        "recovery_s": (statistics.median(recoveries), "s"),
        "poll_p50_ms": (percentile(ref.poll_rtt, 0.50) * 1e3, "ms"),
        "fix_ack_p99_ms": (percentile(ref.fix_ack, 0.99) * 1e3, "ms"),
        "arrival_notify_p99_ms": (percentile(ref.arrival_notify, 0.99) * 1e3, "ms"),
        "trace.overhead_fix_ack_p50_ms": (
            (percentile(sh.fix_ack, 0.5) - percentile(ref.fix_ack, 0.5)) * 1e3, "ms"),
        "trace.overhead_simulate_s": (
            sim["traced_simulate_s"] - statistics.mean(sim["simulate_s"]), "s"),
        "load.lateness_p99_ms": (percentile(sh.lateness, 0.99) * 1e3, "ms"),
        "load.backlog_end_open": (float(lv.backlog), "count"),
    }
    values = layers.per_layer(sets, {"window": lv.window, "cpu_s": lv.cpu_s}, extra)
    meta.update(missing_entry_points=sorted(set(missing) | {m for s in sets for m in s.missing}),
                spans=sum(len(s.name) for s in sets))
    return {k: metric(v, u) for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "syncpoint" / "cli.py").is_file():
        print(f"no syncpoint sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    result, meta, problems = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace))
    meta["workload"] = args.workload
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def measure(sizes: Sizes, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list[str]]:
    """One run: the result object, run metadata, and the failed checks."""
    work = ROOT / WORK / f"{seed}-{os.getpid()}"
    tally = live.Tally()
    meta = {
        "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "src_lines": src_lines(), "sizes": sizes.__dict__,
        "rates": {"open_fps": OPEN_RATE, "frames": live_frames(sizes, seconds),
                  "window": WINDOW},
    }
    run = traced_run if trace else untraced_run
    try:
        metrics = asyncio.run(run(sizes, seed, seconds, work, tally, meta))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK).rmdir()
        except OSError:
            pass
    meta["failed_ratio"] = tally.failed / max(1, tally.attempted)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, meta, tally.problems


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != server.HASH_SEED:
        # Run every process of the benchmark with the same string hashing.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": server.HASH_SEED})
    sys.exit(main())
