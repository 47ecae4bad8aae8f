"""Independent brute-force evaluators for every numeric update rule.

These restate the update equations directly on primitives, sharing no code
with the package, so tests can compare the two implementations on random
inputs.  Keep them dumb: clarity over speed, no clever refactoring.
``oracle_run_simulation`` is the one exception: it reuses package objects
(``make_user``, ``QTable``, ``simulate_outcome``, ``episode_reward``) that are
themselves checked against the oracles above.
"""

from __future__ import annotations

import math
import random

from scaffolder.policy import init_from_scoring
from scaffolder.scoring import default_scoring_table
from scaffolder.session import episode_reward
from scaffolder.simulation import RunResult, RunSpec, make_user, simulate_outcome


def oracle_capacity(
    value: float,
    repeated: bool,
    demanding: bool,
    c_max: float = 100.0,
    c_min: float = 0.0,
    gain_repeat: float = 5.0,
    cost_demanding: float = 20.0,
    cost_other: float = 10.0,
) -> float:
    if repeated:
        result = value + gain_repeat
        if result > c_max:
            result = c_max
        return result
    if demanding:
        result = value - cost_demanding
    else:
        result = value - cost_other
    if result < c_min:
        result = c_min
    return result


def oracle_weights(
    weights: list[float],
    fixated: int,
    gain: float = 10.0,
    c_max: float = 100.0,
    w_min: float = 0.0,
) -> list[float]:
    current = weights[fixated]
    boosted = current + gain
    if boosted > c_max:
        boosted = c_max
    realised = boosted - current
    n = len(weights)
    loss = realised / (n - 1)
    result = []
    for index, weight in enumerate(weights):
        if index == fixated:
            result.append(weight + realised)
        else:
            lowered = weight - loss
            if lowered < w_min:
                lowered = w_min
            result.append(lowered)
    return result


def oracle_focus_shift(
    shift: float,
    changed: bool,
    increment: float = 1.0,
    decrement: float = 1.0,
    fs_min: float = 0.0,
    fs_max: float = 10.0,
) -> float:
    if changed:
        result = shift + increment
        if result > fs_max:
            result = fs_max
        return result
    result = shift - decrement
    if result < fs_min:
        result = fs_min
    return result


def oracle_score(votes: list[float], weight: float = 1.0, score_max: float = 3.0) -> float:
    total = 0.0
    for vote in votes:
        total = total + vote
    return weight * total / score_max


def oracle_tp_score(success: bool, elapsed: float, decay: float = 0.1) -> float:
    if success:
        sign = 1.0
    else:
        sign = -1.0
    return sign * math.exp(-decay * elapsed)


def oracle_reward(
    comprehension_ok: bool,
    comprehension_time: float,
    enabledness_ok: bool,
    enabledness_time: float,
    decay: float = 0.1,
    scale: float = 1.0,
) -> float:
    first = oracle_tp_score(comprehension_ok, comprehension_time, decay)
    second = oracle_tp_score(enabledness_ok, enabledness_time, decay)
    return scale * (first + second) / 2.0


def oracle_q_update(
    value: float, alpha: float, gamma: float, reward: float, next_row_max: float
) -> float:
    return value + alpha * (reward + gamma * next_row_max - value)


def oracle_epsilon_schedule(start: float, decay: float, floor: float, steps: int) -> float:
    epsilon = start
    for _ in range(steps):
        decayed = epsilon * decay
        if decayed < floor:
            decayed = floor
        if decayed > epsilon:
            decayed = epsilon
        epsilon = decayed
    return epsilon


def oracle_epsilon_greedy(values: list[float], visits: list[int], epsilon: float, rng) -> int:
    """One action index, drawing from ``rng`` exactly as the policy must:
    the epsilon draw, then one index draw when exploring or on a tied argmax."""
    if rng.random() < epsilon:
        untried = []
        for index in range(len(visits)):
            if visits[index] == 0:
                untried.append(index)
        if len(untried) == 0:
            untried = list(range(len(values)))
        return untried[rng.randrange(len(untried))]
    best = values[0]
    for value in values:
        if value > best:
            best = value
    tied = []
    for index in range(len(values)):
        if values[index] == best:
            tied.append(index)
    if len(tied) == 1:
        return tied[0]
    return tied[rng.randrange(len(tied))]


def oracle_run_simulation(spec: RunSpec) -> RunResult:
    """The object-level episode loop that ``run_simulation`` must reproduce.

    Per episode: action selection, deviation draw, two solve times, next
    observation index, then the value update on the next observation's state.
    """
    table = spec.table or default_scoring_table()
    qtable = init_from_scoring(table, spec.hyper, preconfigured=spec.preconfigured)
    user = make_user(spec.user_kind, table)
    rng = random.Random(spec.seed)
    cells = list(table.truth.items())

    series = []
    cumulative = 0.0
    index = rng.randrange(len(cells))
    for _ in range(spec.horizon):
        triple, (state, _) = cells[index]
        action = qtable.select_action(state, rng)
        performance = simulate_outcome(
            user, triple, action, rng, spec.deviation_rate, spec.time_low, spec.time_high
        )
        reward = episode_reward(performance)
        next_index = rng.randrange(len(cells))
        qtable.update(state, action, reward, cells[next_index][1][0])
        cumulative += reward
        series.append(cumulative)
        index = next_index
    return RunResult(seed=spec.seed, series=tuple(series))
