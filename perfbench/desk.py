"""desk_study: in-process campaigns, the way researchers use the package.

Eight campaign cells per seed cover user types A-D, blank and preconfigured
Q-tables, both learning rates and all three discount factors (so at least one
cell has gamma > 0), at the shipped horizon of 100.  Cycles over the cells
repeat with fresh run seeds until the time is up, so no campaign runs twice.

Each cycle of an untraced run does:

* for every cell, a campaign of 10 runs serially (``workers=1``)
                                             -> throughput_per_s
  and the same 10 runs one by one via ``run_simulation``
                                             -> latency_p50_us / latency_p90_us
* for one cell in turn, a campaign of 50 runs with ``workers=2`` and its
  serial twin                                -> sim_episodes_per_s_w2 (shown)

A cycle is the window of the gated figures (see ``harness.SLOW_QUARTILE``):
the cycle's serial episodes per second and the p50 and p90 of its 80 single
runs, each summarized by the slow quartile of the run's cycles.

Correctness: the campaign and series CSVs of two fixed check campaigns (the
default seed 0 and a held-out seed) must match committed digests, every
single run must equal the same seed's run inside its serial campaign, and
every ``workers=2`` campaign must equal its serial twin.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from scaffolder import simulation as sim
from scaffolder.policy import Hyperparameters
from scaffolder.scoring import default_scoring_table

from harness import OUT, Report, percentile, self_peak_rss_mb, slow_latency, slow_rate, time_cli_runs
from tracing import Tracer

USERS = ("A", "B", "C", "D")
ALPHAS = (0.25, 0.5)
GAMMAS = (0.0, 0.5, 0.95)
ROUND_RUNS = 10  # runs of one cell in one cycle: a serial campaign, then one by one
CAMPAIGN_RUNS = 50  # runs of a workers=2 campaign and of the traced rounds
W2_SEED_OFFSET = 1_000_000  # keeps the workers=2 campaigns' seeds apart from the cycles'
HORIZON = 100
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# (name, user, preconfigured, alpha, gamma, base seed).  Seed 0 is the
# package default; 7919 is held out from everything else in the benchmark.
CHECK_CAMPAIGNS = (
    ("default_seed", "B", True, 0.25, 0.0, 0),
    ("held_out_seed", "D", False, 0.5, 0.95, 7919),
)
CHECK_RUNS = 20
SETUP_ARGS = ["simulate", "--runs", "1", "--horizon", "1", "--seed", "0"]


@dataclass(frozen=True)
class Cell:
    user: str
    preconfigured: bool
    alpha: float
    gamma: float
    base_seed: int


def make_cells(seed: int) -> list[Cell]:
    rng = random.Random(seed)
    offset = rng.randrange(len(GAMMAS))
    return [
        Cell(
            user=user,
            preconfigured=preconfigured,
            alpha=rng.choice(ALPHAS),
            gamma=GAMMAS[(index + offset) % len(GAMMAS)],
            base_seed=rng.randrange(1_000_000),
        )
        for index, (user, preconfigured) in enumerate(itertools.product(USERS, (True, False)))
    ]


def run_cell(cell: Cell, base_seed: int, workers: int, runs: int):
    return sim.run_campaign(
        cell.user,
        cell.preconfigured,
        runs=runs,
        horizon=HORIZON,
        base_seed=base_seed,
        hyper=Hyperparameters(alpha=cell.alpha, gamma=cell.gamma),
        workers=workers,
    )


def run_digests(campaign) -> list[bytes]:
    return [_series_digest(result.series) for result in campaign.results]


def _series_digest(series) -> bytes:
    return hashlib.blake2b(repr(series).encode(), digest_size=16).digest()


def timed_campaign(cell: Cell, base_seed: int, workers: int, runs: int) -> tuple[float, list[bytes]]:
    """One campaign: (wall seconds, per-run digests)."""
    start = time.perf_counter()
    campaign = run_cell(cell, base_seed, workers, runs)
    elapsed = time.perf_counter() - start
    return elapsed, run_digests(campaign)


def mismatches(actual: list[bytes], expected: list[bytes]) -> int:
    return sum(a != e for a, e in zip(actual, expected)) + abs(len(actual) - len(expected))


def cycles(seed: int, seconds: float):
    """Cycle numbers 0, 1, ... with the seed's cells, until ``seconds`` of
    wall time have passed.

    Whole cycles keep the mix of cells the same in every run.  Cycle k
    shifts a cell's run seeds by k rounds, so no campaign runs twice.
    """
    cells = make_cells(seed)
    run_cell(cells[0], cells[0].base_seed, 1, runs=5)  # warm-up, untimed
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        yield k, cells
        if time.perf_counter() >= deadline:
            return


def write_check_csvs(directory: Path = OUT) -> list[tuple[Path, str]]:
    """Write the check campaigns' CSVs: [(path, digest key)]."""
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for name, user, preconfigured, alpha, gamma, seed in CHECK_CAMPAIGNS:
        campaign = run_cell(Cell(user, preconfigured, alpha, gamma, seed), seed, 1, CHECK_RUNS)
        for kind, writer in (("campaign", sim.write_campaign_csv), ("series", sim.write_series_csv)):
            path = directory / f"desk_{name}_{kind}.csv"
            writer(campaign, path)
            files.append((path, f"{name}_{kind}"))
    return files


def compare_check_csvs(report: Report, files: list[tuple[Path, str]]) -> None:
    """Each CSV whose bytes differ from its committed digest is one failure."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))["desk_study"]
    for path, key in files:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        report.check(1, int(digest != expected[key]), f"{path.name}: sha256 {digest} != {key} {expected[key]}")


def single_runs(cell: Cell, base_seed: int, expected: list[bytes]) -> tuple[list[int], int]:
    """Time ``run_simulation`` one run at a time over one campaign's seeds.

    Returns (nanoseconds per run, runs that differ from the campaign's)."""
    hyper = Hyperparameters(alpha=cell.alpha, gamma=cell.gamma)
    latencies = []
    bad = 0
    for offset, digest in enumerate(expected):
        spec = sim.RunSpec(
            user_kind=cell.user,
            preconfigured=cell.preconfigured,
            seed=base_seed + offset,
            horizon=HORIZON,
            hyper=hyper,
        )
        start = time.perf_counter_ns()
        result = sim.run_simulation(spec)
        latencies.append(time.perf_counter_ns() - start)
        bad += _series_digest(result.series) != digest
    return latencies, bad


def run(seed: int, seconds: float, report: Report) -> None:
    setup = time_cli_runs(SETUP_ARGS)
    compare_check_csvs(report, write_check_csvs())
    rates: list[float] = []
    p50s_us: list[float] = []
    p90s_us: list[float] = []
    latencies_us: list[float] = []
    w2_s = 0.0
    w2_campaigns = 0
    for k, cells in cycles(seed, seconds):
        serial_s = 0.0
        cycle_us: list[float] = []
        for cell in cells:
            base_seed = cell.base_seed + k * ROUND_RUNS
            elapsed, expected = timed_campaign(cell, base_seed, 1, ROUND_RUNS)
            serial_s += elapsed
            runs, bad = single_runs(cell, base_seed, expected)
            cycle_us += [ns / 1e3 for ns in runs]
            report.check(len(runs), bad, f"single runs of {cell} from seed {base_seed} differ from the campaign's")
        rates.append(len(cells) * ROUND_RUNS * HORIZON / serial_s)
        p50s_us.append(percentile(cycle_us, 50))
        p90s_us.append(percentile(cycle_us, 90))
        latencies_us += cycle_us

        cell = cells[k % len(cells)]
        base_seed = cell.base_seed + W2_SEED_OFFSET + k * CAMPAIGN_RUNS
        _, expected = timed_campaign(cell, base_seed, 1, CAMPAIGN_RUNS)
        elapsed, actual = timed_campaign(cell, base_seed, 2, CAMPAIGN_RUNS)
        w2_s += elapsed
        w2_campaigns += 1
        report.check(len(expected), mismatches(actual, expected), f"workers=2 campaign {cell} seed {base_seed} differs from serial")
    rss_mb = self_peak_rss_mb()
    setup += time_cli_runs(SETUP_ARGS, untimed=0)
    note = f"slow quartile of {len(rates)} cycles"

    report.metric("setup_s", statistics.median(setup), "s", len(setup), "scaffolder simulate spawn to exit")
    report.metric("throughput_per_s", slow_rate(rates), "1/s", len(rates),
                  f"sim_episodes_per_s, serial {ROUND_RUNS}-run campaigns, {note}")
    report.metric("latency_p50_us", slow_latency(p50s_us), "us", len(latencies_us),
                  f"one run_simulation, each cycle's p50, {note}")
    report.metric("latency_p90_us", slow_latency(p90s_us), "us", len(latencies_us),
                  f"one run_simulation, each cycle's p90, {note}")
    report.metric("peak_rss_mb", rss_mb, "MB", None, "benchmark process")
    report.show("run_p50_us", statistics.median(latencies_us), "us", len(latencies_us), "over every single run")
    report.tail("run", latencies_us)
    report.show("sim_episodes_per_s_w2", w2_campaigns * CAMPAIGN_RUNS * HORIZON / w2_s, "1/s", w2_campaigns,
                f"workers=2 campaigns of {CAMPAIGN_RUNS} runs, one per cycle")


def run_traced(seed: int, seconds: float, report: Report, tracer: Tracer) -> dict[str, float]:
    """Rounds of an untraced serial campaign, the same with workers=2, and the
    same traced (serially only: wrapped functions do not pickle)."""
    serial_s = w2_s = traced_s = 0.0
    campaigns = 0
    for k, cells in cycles(seed, seconds):
        for cell in cells:
            base_seed = cell.base_seed + k * CAMPAIGN_RUNS
            elapsed, expected = timed_campaign(cell, base_seed, 1, CAMPAIGN_RUNS)
            serial_s += elapsed
            campaigns += 1
            elapsed, _ = timed_campaign(cell, base_seed, 2, CAMPAIGN_RUNS)
            w2_s += elapsed
            with tracer.installed():
                elapsed, actual = timed_campaign(cell, base_seed, 1, CAMPAIGN_RUNS)
            traced_s += elapsed
            report.check(len(expected), mismatches(actual, expected), f"traced campaign {cell} seed {base_seed} differs")

    runs = campaigns * CAMPAIGN_RUNS
    spec = sim.RunSpec(user_kind="A", preconfigured=True, seed=0)
    with_table = sim.RunSpec(user_kind="A", preconfigured=True, seed=0, table=default_scoring_table())
    return {
        "runs": runs,
        "episodes": runs * HORIZON,
        "simulation.pool.spec_pickle_bytes": len(pickle.dumps(spec)),
        "simulation.pool.spec_pickle_bytes_with_table": len(pickle.dumps(with_table)),
        "simulation.pool.overhead_s": (w2_s - serial_s / 2) / campaigns,
        "simulation.pool.episodes_per_s_w2": runs * HORIZON / w2_s,
        "trace.overhead_share": traced_s / serial_s - 1.0,
    }
