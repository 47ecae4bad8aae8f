"""Golden bytes for the CSV files the package writes.

Each builder below writes one small seeded file; the expected bytes live in
``tests/data/csv/`` and were written by the code before the writers shared
one CSV path, so a change to quoting, line ends or float text shows here.
The campaign and series CSVs are pinned by the acceptance tests instead.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from scaffolder.policy import Hyperparameters, init_from_scoring
from scaffolder.scoring import HESITATION, NEGATION, default_scoring_table, dump_scoring_table
from scaffolder.session import Session, TaskPerformance, write_episode_csv
from scaffolder.simulation import run_sweep, write_sweep_csv
from scaffolder.states import STATES

GOLDEN = Path(__file__).parent / "data" / "csv"


def sweep(path: Path) -> None:
    write_sweep_csv(run_sweep("A", runs=3, horizon=30, base_seed=3), path)


def qtable_snapshot(path: Path) -> None:
    qtable = init_from_scoring(default_scoring_table(), Hyperparameters(gamma=0.5))
    rng = random.Random(11)
    for _ in range(60):
        state = rng.choice(STATES)
        action = qtable.select_action(state, rng)
        qtable.update(state, action, rng.uniform(-1, 1), rng.choice(STATES))
    qtable.save(path)


def episode_log(path: Path) -> None:
    table = default_scoring_table()
    session = Session(table, init_from_scoring(table), rng=random.Random(5))
    rng = random.Random(6)
    for episode in range(8):
        for _ in range(rng.randrange(4)):
            session.ingest_gaze(rng.randrange(3))
        session.query(f"task-{episode % 3}")
        session.complete(
            TaskPerformance(
                comprehension_ok=rng.random() < 0.5,
                comprehension_time=rng.uniform(0, 10),
                enabledness_ok=rng.random() < 0.5,
                enabledness_time=rng.uniform(0, 10),
            )
        )
    write_episode_csv(session.records, path)


def default_rubric(path: Path) -> None:
    dump_scoring_table(default_scoring_table(), path)


def fractional_rubric(path: Path) -> None:
    table = default_scoring_table().with_entry("gaze", "uncertain", NEGATION, 0.5)
    dump_scoring_table(table.with_entry("task", "success", HESITATION, 0.1 + 0.2), path)


BUILDERS = {
    "sweep.csv": sweep,
    "qtable.csv": qtable_snapshot,
    "episodes.csv": episode_log,
    "rubric_default.csv": default_rubric,
    "rubric_fractional.csv": fractional_rubric,
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_golden_bytes(name, tmp_path):
    path = tmp_path / name
    BUILDERS[name](path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()
