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
from .scoring import ScoringTable
from .states import (
    ACTIONS,
    ACTION_INDEX,
    Action,
    CognitiveState,
    GROUND_TRUTH_ACTION,
    STATES,
    STATE_INDEX,
)


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
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["state", "action", "value", "visits"])
            for si, state in enumerate(STATES):
                for ai, action in enumerate(ACTIONS):
                    writer.writerow(
                        [state.value, action.label, repr(self.values[si][ai]), self.visits[si][ai]]
                    )

    @classmethod
    def load(cls, path: str | Path, hyper: Hyperparameters | None = None) -> "QTable":
        table = cls(hyper)
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                si = STATE_INDEX[CognitiveState(row["state"])]
                ai = ACTION_INDEX[Action.from_label(row["action"])]
                value, visits = float(row["value"]), int(row["visits"])
                if not math.isfinite(value) or visits < 0:
                    raise ValueError(
                        f"cell ({row['state']}, {row['action']}) needs a finite value and"
                        f" non-negative visits, got {value} and {visits}"
                    )
                table.values[si][ai] = value
                table.visits[si][ai] = visits
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
