"""Shared pieces of the benchmark: the checkout's source tree, the package's
CLI as a subprocess, percentiles, and the result line the benchmark prints.

The benchmark measures the package as it stands in the checkout it lives in
(``<root>/src``), never an installed copy, so every subprocess gets
``PYTHONPATH=<root>/src`` and the in-process import is checked to come from
there.
"""

from __future__ import annotations

import json
import math
import os
import resource
import selectors
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Set-up is timed in two groups of this many starts, one before and one after
# the workload, so that it samples the run rather than one moment of it.  The
# median of both groups is reported.  One untimed start before the first
# group compiles bytecode.
SETUP_SPAWNS = 6
SERVER_START_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The benchmark cannot run here: no source tree, or a server that never started."""


def import_package():
    """Import ``scaffolder`` from the checkout's ``src`` directory."""
    package_dir = SRC / "scaffolder"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("SCAFFOLDER_CONFIG", None)
    import scaffolder

    if Path(scaffolder.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported scaffolder from {scaffolder.__file__}, not {package_dir}")
    return scaffolder


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SCAFFOLDER_CONFIG", None)
    return env


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "scaffolder", *args]


def time_cli_runs(args: list[str], spawns: int = SETUP_SPAWNS, untimed: int = 1) -> list[float]:
    """Wall time from spawn to exit of ``scaffolder <args>``, once per spawn.

    ``untimed`` runs go first, so that compiling bytecode is not counted.
    """
    samples = []
    for index in range(untimed + spawns):
        start = time.perf_counter()
        completed = subprocess.run(
            cli_command(*args), env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=False
        )
        elapsed = time.perf_counter() - start
        if completed.returncode != 0:
            raise BenchError(f"scaffolder {' '.join(args)} exited with {completed.returncode}")
        if index >= untimed:
            samples.append(elapsed)
    return samples


class ServerProcess:
    """``scaffolder serve`` on an ephemeral loopback port.

    ``setup_s`` is the time from spawn until the ``listening on`` line.
    """

    def __init__(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cli_command("serve", "--bind", "127.0.0.1:0"),
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            line = self._first_line()
            self.setup_s = time.perf_counter() - start
            prefix = "listening on "
            if not line.startswith(prefix):
                raise BenchError(f"unexpected server banner {line!r}")
            self.port = int(line[len(prefix):].rpartition(":")[2])
        except BaseException:
            self.stop()
            raise

    def _first_line(self) -> str:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(SERVER_START_TIMEOUT_S):
                raise BenchError("server did not print its banner in time")
        line = self.proc.stdout.readline().decode("utf-8", errors="replace").strip()
        if not line:
            raise BenchError(f"server exited before listening (code {self.proc.poll()})")
        return line

    def stop(self) -> float:
        """Terminate, reap, and return the server's peak RSS in MB.

        The peak comes from VmHWM where /proc has it: a child's ru_maxrss
        also counts the parent's RSS at the moment it was spawned.
        """
        if self.proc.returncode is not None:
            return 0.0
        peak_mb = vm_hwm_mb(self.proc.pid)
        self.proc.terminate()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return peak_mb if peak_mb is not None else usage.ru_maxrss / 1024.0

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def vm_hwm_mb(pid: int) -> float | None:
    """Peak resident set of a live process in MB, or None without /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def server_setup_times(spawns: int) -> list[float]:
    """Set-up times of ``spawns`` servers, each stopped once listening."""
    samples = []
    for _ in range(spawns):
        server = ServerProcess()
        samples.append(server.setup_s)
        server.stop()
    return samples


def start_server(spawns: int = SETUP_SPAWNS) -> tuple[ServerProcess, list[float]]:
    """A fresh server plus the set-up times of ``spawns`` starts (the last one kept).

    The first start is untimed: it compiles bytecode.
    """
    ServerProcess().stop()
    samples = server_setup_times(spawns - 1)
    server = ServerProcess()
    samples.append(server.setup_s)
    return server, samples


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (p in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


# The host gives short bursts in which everything runs up to 1.7 times as
# fast as usual, and the share of time in them changes from run to run.  So
# every gated timing is taken per window (a fixed stretch of time, or one
# cycle of cells on desk_study) and summarized by the slow quartile of the
# windows: the 25th percentile of rates, the 75th of latencies.  That reads
# the program at the host's usual speed whatever the share of bursts, and it
# is a fixed share of the windows, so a faster program and a slower one are
# summarized alike.
SLOW_QUARTILE = 75.0


def slow_rate(rates) -> float:
    """The rate that three windows in four reach or beat."""
    return percentile(rates, 100.0 - SLOW_QUARTILE)


def slow_latency(latencies) -> float:
    """The latency that three windows in four stay at or under."""
    return percentile(latencies, SLOW_QUARTILE)


class Windows:
    """Completions (and optional samples) per fixed time window, so that
    throughput and latency percentiles can be summarized over windows.
    """

    def __init__(self, start_ns: int, end_ns: int, width_s: float = 0.5) -> None:
        self.start = start_ns
        self.width = int(width_s * 1e9)
        self.counts = [0] * max(1, (end_ns - start_ns) // self.width)
        self.samples: list[list[int]] = [[] for _ in self.counts]

    def index(self, now_ns: int) -> int:
        return (now_ns - self.start) // self.width

    def add(self, now_ns: int, count: int = 1, sample: int | None = None) -> None:
        index = self.index(now_ns)
        if 0 <= index < len(self.counts):
            self.counts[index] += count
            if sample is not None:
                self.samples[index].append(sample)

    def rate(self, keep=lambda index: True) -> float:
        """Completions per second, slow quartile over the windows ``keep`` accepts."""
        counts = [count for index, count in enumerate(self.counts) if keep(index)]
        return slow_rate(counts) / (self.width / 1e9)

    def latency(self, p: float) -> float:
        """Each window's p-th percentile sample, slow quartile over the windows."""
        return slow_latency([percentile(s, p) for s in self.samples if s])


class Report:
    """Operation counts, metrics, and the final result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict[str, float | str]] = {}

    def check(self, attempted: int, failed: int, what: str) -> None:
        """Count operations; a failure is reported on stderr, never dropped."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"perfbench: FAILED {failed} of {attempted}: {what}", file=sys.stderr, flush=True)

    def show(self, name: str, value: float, unit: str, samples: int | None = None, note: str = "") -> None:
        """Print one named figure with its unit and sample count."""
        extra = [f"n={samples}"] if samples is not None else []
        if note:
            extra.append(note)
        suffix = f"  ({', '.join(extra)})" if extra else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{suffix}", flush=True)

    def metric(self, name: str, value: float, unit: str, samples: int | None = None, note: str = "") -> None:
        """Record a metric of the result line (and print it)."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.show(name, value, unit, samples, note)

    def tail(self, prefix: str, values_us) -> None:
        """Print the highest percentile that has at least ten samples beyond it."""
        p = tail_percentile(len(values_us))
        self.show(f"{prefix}_p{p:g}_us", percentile(values_us, p), "us", len(values_us))

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            },
            sort_keys=True,
        )


def expected_metrics(trace: bool) -> dict[str, str]:
    """Names and units the result line must carry, from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
