"""Tabular Q-learning over cognitive states and verbal actions.

The value table is 6 states by 6 actions.  It can start blank or be seeded
from a scoring rubric, in which case each state's ground-truth action gets a
head start.  Action selection is epsilon-greedy with a decaying epsilon; while
exploring, actions that were never tried in a state are preferred.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .schema import Checked, bounded
from .scoring import ScoringTable, write_csv
from .states import (
    ACTIONS,
    ACTION_INDEX,
    Action,
    CognitiveState,
    GROUND_TRUTH_ACTION,
    STATES,
    STATE_INDEX,
)


_SNAPSHOT_COLUMNS = ["state", "action", "value", "visits"]


def _below(rng: random.Random, n: int) -> int:
    """A uniform index in ``range(n)``, ``n >= 1``, drawing exactly the words
    ``rng.randrange(n)`` draws (CPython's ``_randbelow_with_getrandbits``)."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


@dataclass(frozen=True)
class Hyperparameters(Checked):
    alpha: float = bounded(0.25, 0.0, 1.0, open_low=True)
    gamma: float = bounded(0.0, 0.0, 1.0, open_high=True)
    epsilon: float = bounded(0.75, 0.0, 1.0)
    epsilon_decay: float = bounded(0.95, 0.0, 1.0, open_low=True)
    epsilon_min: float = bounded(0.01, 0.0)
    q_init: float = 0.5


DEFAULT_HYPER = Hyperparameters()  # frozen, so shared by every table and run built without one


class QTable:
    """Mutable value and visit tables plus the exploration schedule."""

    def __init__(self, hyper: Hyperparameters | None = None) -> None:
        self.hyper = hyper or DEFAULT_HYPER
        self.values: list[list[float]] = [[0.0] * len(ACTIONS) for _ in STATES]
        self.visits: list[list[int]] = [[0] * len(ACTIONS) for _ in STATES]
        self.epsilon: float = self.hyper.epsilon

    def value(self, state: CognitiveState, action: Action) -> float:
        return self.values[STATE_INDEX[state]][ACTION_INDEX[action]]

    def visit_count(self, state: CognitiveState, action: Action) -> int:
        return self.visits[STATE_INDEX[state]][ACTION_INDEX[action]]

    def select_action(self, state: CognitiveState, rng: random.Random) -> Action:
        """Epsilon-greedy pick for one state, then decay epsilon."""
        return ACTIONS[self.select_index(STATE_INDEX[state], rng)]

    def select_index(self, s: int, rng: random.Random) -> int:
        """``select_action`` by state and action index.

        Exploration draws uniformly from the state's never-tried actions while
        any remain, otherwise from all actions.  Exploitation takes the argmax
        and breaks ties uniformly at random.
        """
        epsilon = self.epsilon
        if rng.random() < epsilon:
            visits = self.visits[s]
            if 0 in visits:
                untried = [i for i, count in enumerate(visits) if count == 0]
                choice = untried[_below(rng, len(untried))]
            else:
                choice = _below(rng, len(visits))
        else:
            # Values are finite (``load`` and ``update`` reject anything
            # else), so count and index agree with ``==`` here.
            row = self.values[s]
            best = max(row)
            if row.count(best) == 1:
                choice = row.index(best)
            else:
                tied = [i for i, v in enumerate(row) if v == best]
                choice = tied[_below(rng, len(tied))]
        # Decay with a floor, but never raise epsilon: a start below the
        # floor (e.g. epsilon=0 for pure exploitation) stays where it is.
        decayed = epsilon * self.hyper.epsilon_decay
        if decayed < self.hyper.epsilon_min:
            decayed = self.hyper.epsilon_min
        if decayed < epsilon:
            self.epsilon = decayed
        return choice

    def update(
        self,
        state: CognitiveState,
        action: Action,
        reward: float,
        next_state: CognitiveState,
    ) -> float:
        """One temporal-difference step; returns the new cell value."""
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        return self.update_index(
            STATE_INDEX[state], ACTION_INDEX[action], reward, STATE_INDEX[next_state]
        )

    def update_index(self, s: int, a: int, reward: float, next_s: int) -> float:
        """``update`` by index, for a reward the caller knows to be finite."""
        row = self.values[s]
        row[a] += self.hyper.alpha * (
            reward + self.hyper.gamma * max(self.values[next_s]) - row[a]
        )
        self.visits[s][a] += 1
        return row[a]

    def save(self, path: str | Path) -> None:
        """Write one row per (state, action) cell: label, label, value, visits."""
        rows = [
            [state.value, action.label, self.values[si][ai], self.visits[si][ai]]
            for si, state in enumerate(STATES)
            for ai, action in enumerate(ACTIONS)
        ]
        write_csv(path, _SNAPSHOT_COLUMNS, rows)

    @classmethod
    def load(cls, path: str | Path, hyper: Hyperparameters | None = None) -> "QTable":
        """Read a ``save`` snapshot: its four columns, and each of the 36 cells once."""
        table = cls(hyper)
        missing = dict.fromkeys(f"cell ({s.value}, {a.label})" for s in STATES for a in ACTIONS)
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != _SNAPSHOT_COLUMNS:
                raise ValueError(f"a Q-table snapshot's columns are {','.join(_SNAPSHOT_COLUMNS)}")
            for state, action, value, visits in reader:  # a ragged row fails to unpack
                try:
                    si = STATE_INDEX[CognitiveState(state)]
                except ValueError:
                    raise ValueError(f"row {reader.line_num}: unknown state {state!r}") from None
                try:
                    ai = ACTION_INDEX[Action.from_label(action)]
                except ValueError:
                    raise ValueError(f"row {reader.line_num}: unknown action {action!r}") from None
                cell = f"cell ({STATES[si].value}, {ACTIONS[ai].label})"
                if cell not in missing:
                    raise ValueError(f"{cell} appears twice")
                del missing[cell]
                try:
                    value, visits = float(value), int(visits)
                    bad = not math.isfinite(value) or visits < 0
                except ValueError:
                    bad = True
                if bad:
                    raise ValueError(
                        f"{cell} needs a finite value and non-negative visits,"
                        f" got {value!r} and {visits!r}"
                    )
                table.values[si][ai] = value
                table.visits[si][ai] = visits
        if missing:
            raise ValueError(f"{next(iter(missing))} is missing")
        return table


def init_from_scoring(
    table: ScoringTable, hyper: Hyperparameters | None = None, *, preconfigured: bool = True
) -> QTable:
    """A Q-table seeded from a rubric, or blank when not ``preconfigured``.

    Every state in the table's image, plus the one state no default triple
    reaches, gets ``hyper.q_init`` on its ground-truth action.
    """
    qtable = QTable(hyper)
    if not preconfigured:
        return qtable
    states = {state for state, _ in table.truth.values()}
    states.add(CognitiveState.UNCERTAIN)
    for state in states:
        action = GROUND_TRUTH_ACTION[state]
        qtable.values[STATE_INDEX[state]][ACTION_INDEX[action]] = qtable.hyper.q_init
    return qtable
