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

from .states import (
    ACTIONS,
    ACTION_INDEX,
    Action,
    CognitiveState,
    GROUND_TRUTH_ACTION,
    ObservationTriple,
    STATES,
    STATE_INDEX,
)

_ALL_ACTIONS = tuple(range(len(ACTIONS)))


@dataclass(frozen=True)
class Hyperparameters:
    alpha: float = 0.25
    gamma: float = 0.0
    epsilon: float = 0.75
    epsilon_decay: float = 0.95
    epsilon_min: float = 0.01
    q_init: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay}")
        if self.epsilon_min < 0.0:
            raise ValueError(f"epsilon_min must be >= 0, got {self.epsilon_min}")


class QTable:
    """Mutable value and visit tables plus the exploration schedule."""

    def __init__(self, hyper: Hyperparameters | None = None) -> None:
        self.hyper = hyper or Hyperparameters()
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
            candidates = [i for i, count in enumerate(self.visits[s]) if count == 0]
            if not candidates:
                candidates = _ALL_ACTIONS
            choice = candidates[rng.randrange(len(candidates))]
        else:
            row = self.values[s]
            best = max(row)
            candidates = [i for i, v in enumerate(row) if v == best]
            if len(candidates) == 1:
                choice = candidates[0]
            else:
                choice = candidates[rng.randrange(len(candidates))]
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
                table.values[si][ai] = float(row["value"])
                table.visits[si][ai] = int(row["visits"])
        return table


def init_from_scoring(
    truth: dict[ObservationTriple, tuple[CognitiveState, Action]],
    q_init: float,
    hyper: Hyperparameters | None = None,
) -> QTable:
    """Pre-initialise a Q-table from a rubric's ground-truth map.

    Every state in the map's image, plus the one state no default triple
    reaches, gets ``q_init`` on its ground-truth action.  ``q_init=0`` yields
    a blank (unconfigured) table.
    """
    from .states import all_observation_triples

    if set(truth) != set(all_observation_triples()):
        raise ValueError("ground-truth map must cover all 30 observation triples")
    table = QTable(hyper)
    states = {state for state, _ in truth.values()}
    states.add(CognitiveState.UNCERTAIN)
    for state in states:
        action = GROUND_TRUTH_ACTION[state]
        table.values[STATE_INDEX[state]][ACTION_INDEX[action]] = q_init
    return table
