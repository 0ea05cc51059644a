"""How fast each CPU runs Python, sampled all through a run.

    python3 perfbench/speed.py CPU OUT

On a shared virtual machine the same computation can take 1.5 to 3 times
longer from one second to the next, and the share of slow time changes
from minute to minute with what other tenants run. A timing taken in one
run then cannot be compared with one taken a few minutes later. So,
while a run lasts, one small process per CPU runs a fixed pure-Python
kernel every ``PERIOD`` seconds and records the wall time it took. The
benchmark reports each timing scaled to the kernel's reference time
``REF_KERNEL_S``:

    reported = measured * REF_KERNEL_S / mean kernel time during the stage

A change to the program moves ``measured`` and not the kernel, so the
scaled figure keeps every gain and every regression. The raw timings are
in the run metadata. The samplers take about 6 % of each CPU.

A kernel pass holds its CPU for a millisecond or two, which would show
in sub-millisecond request latencies. So while latencies are timed, the
samplers are put on hold: they run a light pass, a tenth of the kernel,
every ``LIGHT_PERIOD`` instead, and those latencies are scaled by the
light passes against ``REF_LIGHT_S``.

Timestamps are ``time.perf_counter()``, which on Linux is the system-wide
monotonic clock, so windows timed in other processes can be matched.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Kernel time of one pass, about its mean on a shared Xeon 2-vCPU
# guest with Python 3.11. Only ratios against it matter; it is fixed so
# that figures from different runs are on one scale.
REF_KERNEL_S = 0.00125
PERIOD = 0.02
PASSES = 1500
# A light pass takes 1/7.8 of a full one on that guest.
REF_LIGHT_S = REF_KERNEL_S / 7.8
LIGHT_PERIOD = 0.01
LIGHT_PASSES = 150
MARGIN = 0.25  # seconds of samples taken on either side of a short window
HOLD = "speed-hold"  # while a file of this name is in the work directory, light passes only


def kernel(passes: int = PASSES) -> None:
    """A fixed mix of dict, tuple, string and float work (1 to 2 ms in full)."""
    table: dict[tuple[str, int], tuple[float, str]] = {}
    names = [f"p{i}@host" for i in range(64)]
    acc = 0.0
    for i in range(passes):
        key = (names[i & 63], i % 211)
        prev = table.get(key)
        lat = (i % 997) * 1e-3
        acc += lat * lat if prev is None else prev[0] - lat
        table[key] = (lat, f"{key[0]}:{i}")
    if acc == -1.0:  # keep the loop from being optimised away
        print(acc)


def cpus() -> list[int]:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


class Monitor:
    """One sampling process per CPU, for the life of a run."""

    def __init__(self, workdir: Path):
        self.cpus = cpus()
        self.paths = {c: workdir / f"speed-{c}.txt" for c in self.cpus}
        self.hold_path = workdir / HOLD
        self.procs = [subprocess.Popen([sys.executable, __file__, str(c), str(p)])
                      for c, p in self.paths.items()]

    def hold(self, on: bool) -> None:
        """Switch to light passes (within one full pass) or back."""
        if on:
            self.hold_path.touch()
        else:
            self.hold_path.unlink(missing_ok=True)

    def stop(self) -> None:
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def samples(self, light: bool = False) -> dict[int, tuple[list[float], list[float]]]:
        """Per CPU, the sample times and kernel times so far, of full
        passes or of light ones.
        """
        out = {}
        for cpu, path in self.paths.items():
            ts, ks = [], []
            for line in path.read_text().splitlines():
                parts = line.split()
                # The last line may still be half written.
                if len(parts) == 3 and (parts[2] == "light") == light:
                    ts.append(float(parts[0]))
                    ks.append(float(parts[1]))
            out[cpu] = (ts, ks)
        return out


def factor(samples, window: tuple[float, float], cpu: int | None = None,
           ref: float = REF_KERNEL_S) -> float:
    """The scale for time spent in ``window`` on ``cpu`` (on every CPU if None),
    for samples of a kernel whose reference time is ``ref``.
    """
    t0, t1 = window
    if t1 - t0 < 2 * MARGIN:
        t0, t1 = t0 - MARGIN, t1 + MARGIN
    picked = []
    for c, (ts, ks) in samples.items():
        if cpu is None or c == cpu:
            picked += ks[bisect.bisect_left(ts, t0):bisect.bisect_right(ts, t1)]
    if not picked:
        raise RuntimeError("no speed samples during a timed stage")
    return ref / statistics.mean(picked)


def main(argv: list[str]) -> int:
    cpu, out = int(argv[0]), argv[1]
    hold = Path(out).parent / HOLD
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(out, "w", buffering=1) as fh:
        while True:
            light = hold.exists()
            time.sleep(LIGHT_PERIOD if light else PERIOD)
            t = time.perf_counter()
            kernel(LIGHT_PASSES if light else PASSES)
            fh.write(f"{t} {time.perf_counter() - t} {'light' if light else 'full'}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
