"""Starting, probing and stopping syncpoint processes."""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
# String hashing is randomized per process, and a layout of the program's
# dicts can run 10-20 % faster or slower than another. One fixed value
# keeps that out of the run-to-run spread.
HASH_SEED = "0"


def env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else ""),
            "PYTHONHASHSEED": HASH_SEED}


def command(args: list[str], spans: Path | None) -> list[str]:
    """The argv that runs ``syncpoint ARGS``, traced when ``spans`` is set."""
    if spans is None:
        return [sys.executable, "-m", "syncpoint.cli", *args]
    return [sys.executable, str(TRACER), "--spans", str(spans), "--", *args]


def run_cli(args: list[str], workdir: Path, spans: Path | None = None) -> None:
    """Run a one-shot syncpoint command; raise with its stderr if it fails."""
    err = workdir / "cli.err"
    with open(err, "wb") as fh:
        done = subprocess.run(command(args, spans), stdout=subprocess.DEVNULL,
                              stderr=fh, env=env(), timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"syncpoint {args[0]} failed: {err.read_text()[-500:]}")


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# Run at SCHED_IDLE, so it yields to any other task at once.
_SPIN = ("import os\n"
         "os.sched_setaffinity(0, {%d})\n"
         "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "while True: pass\n")


def keep_awake(cpu: int) -> subprocess.Popen | None:
    """Keep ``cpu`` from going idle until the returned process is stopped.

    A virtual CPU with nothing to run is halted, and waking it for the
    next request goes through the host's scheduler, whose delay changes
    with what other tenants run. A task of the lowest scheduling class
    that only spins keeps the CPU running without taking time from the
    server: any other task preempts it as soon as it wakes.
    """
    if not hasattr(os, "SCHED_IDLE"):
        return None
    return subprocess.Popen([sys.executable, "-c", _SPIN % cpu])


class Server:
    """One ``syncpoint serve`` process on a loopback port."""

    def __init__(self, log: Path, workdir: Path, spans: Path | None = None):
        self.port = free_port()
        self._err = open(workdir / f"serve-{self.port}.err", "wb")
        self.proc = subprocess.Popen(
            command(["serve", "--listen", f"127.0.0.1:{self.port}", "--log", str(log)], spans),
            stdout=subprocess.DEVNULL, stderr=self._err, env=env())
        self.started = perf_counter()

    async def welcome(self, timeout: float = 150.0) -> float:
        """Seconds from spawn until the first WELCOME frame arrives."""
        deadline = self.started + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}")
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
                break
            except OSError:
                if perf_counter() > deadline:
                    raise RuntimeError("serve did not accept connections in time") from None
                await asyncio.sleep(0.005)
        try:
            writer.write(b'{"type":"HELLO","participant":"probe@bench.example"}\n')
            line = await asyncio.wait_for(reader.readline(), max(0.1, deadline - perf_counter()))
            if not line.startswith(b'{"type":"WELCOME"'):
                raise RuntimeError(f"expected WELCOME, got {line[:80]!r}")
            return perf_counter() - self.started
        finally:
            writer.close()
            await writer.wait_closed()

    def cpu_seconds(self) -> float | None:
        """User plus system CPU time of the server so far (Linux only)."""
        try:
            fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            return None
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def stop(self, timeout: float = 120.0) -> float:
        """Interrupt the server, reap it, and return its peak RSS in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        deadline = perf_counter() + timeout
        rss_kb = 0
        while self.proc.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                rss_kb = usage.ru_maxrss
                break
            if perf_counter() > deadline:
                self.proc.kill()
                self.proc.wait()
                break
            await asyncio.sleep(0.01)
        self._err.close()
        return rss_kb / 1024

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._err.close()
