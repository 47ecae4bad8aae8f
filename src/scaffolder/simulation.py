"""Desk-scale simulation study: synthetic users, runs, campaigns, sweeps.

Four synthetic user types probe how quickly the policy recovers when the
partner's real needs disagree with the rubric's assumptions:

* ``A`` behaves exactly as the rubric predicts.
* ``B`` needs the opposite capacity treatment: corrections only land while
  capacity is low.
* ``C`` additionally reacts against the rubric's task reading and insists on
  the matching hesitation cue.
* ``D`` additionally performs poorly whenever not visually focused.

Every run is a fixed-order random stream, so a (user, hyperparameters, seed)
triple is fully reproducible, serial or parallel.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean, pstdev
from typing import Iterator, Mapping, Sequence

from .partner_model import PartnerModel
from .policy import DEFAULT_HYPER, Hyperparameters, QTable, _below, init_from_scoring
from .schema import Checked, bounded
from .scoring import NEGATION, ScoringTable, default_scoring_table
from .session import REWARD_DECAY, Session, TaskPerformance
from .states import (
    ACTIONS,
    Action,
    CapacityClass,
    CognitiveState,
    GazeClass,
    NegationType,
    ObservationTriple,
    STATE_INDEX,
    TaskClass,
)

# (kind, negation votes as (category, observation, vote), behaviour flags).
# Each kind keeps every edit and flag of the kinds above it and adds its own.
_USER_TYPES = (
    ("A", (), {}),
    ("B", (("capacity", "low", 1), ("capacity", "high", 0)), {"negation_rule": True}),
    (
        "C",
        (
            ("task", "unknown", 1),
            ("task", "failure", 1),
            ("task", "misc_enabledness", 0),
            ("task", "misc_comprehension", 1),
            ("task", "success", 0),
        ),
        {
            "negation_blocked_tasks": frozenset({TaskClass.MISC_ENABLEDNESS, TaskClass.SUCCESS}),
            "hesitation_strict": True,
        },
    ),
    (
        "D",
        (("gaze", "distracted", 0), ("gaze", "uncertain", 0), ("gaze", "focused", 1)),
        {"needs_focused_gaze": True},
    ),
)
USER_KINDS = tuple(kind for kind, _, _ in _USER_TYPES)


@dataclass(frozen=True)
class UserModel:
    """A synthetic partner: a private rubric plus behavioural quirks.

    ``true_table`` is descriptive only: the base rubric with this kind's
    negation votes edited.  Outcomes come from the behavioural flags, and for
    B, C and D the two disagree on some (triple, action) cells.
    """

    kind: str
    true_table: ScoringTable
    baseline: Mapping[ObservationTriple, tuple[CognitiveState, Action]]
    negation_rule: bool = False
    negation_blocked_tasks: frozenset = frozenset()
    needs_focused_gaze: bool = False
    hesitation_strict: bool = False

    def performs_well(self, triple: ObservationTriple, action: Action) -> bool:
        """Whether this partner would succeed given the observation and action."""
        baseline_action = self.baseline[triple][1]
        if self.needs_focused_gaze and triple.gaze is not GazeClass.FOCUSED:
            return False
        if self.negation_rule and action.negation is not NegationType.AFFIRMATION:
            if triple.capacity is not CapacityClass.LOW:
                return False
            if triple.task in self.negation_blocked_tasks:
                return False
            if self.hesitation_strict and action.hesitation is not baseline_action.hesitation:
                return False
            return True
        return action == baseline_action


def make_user(kind: str, table: ScoringTable | None = None) -> UserModel:
    """Build one of the four synthetic user types from a base rubric.

    The users nest (see ``_USER_TYPES``), so the disagreement with the base
    rubric grows monotonically: 2, 7 and 10 edited votes for B, C and D.
    """
    if kind not in USER_KINDS:
        raise ValueError(f"unknown user kind {kind!r}, expected one of {USER_KINDS}")
    base = table or default_scoring_table()
    votes: dict[tuple[str, str, str], float] = {}
    flags: dict = {}
    for name, edits, quirks in _USER_TYPES:
        votes.update(((category, value, NEGATION), float(vote)) for category, value, vote in edits)
        flags.update(quirks)
        if name == kind:
            break
    true_table = replace(base, entries={**base.entries, **votes}) if votes else base
    return UserModel(kind=kind, true_table=true_table, baseline=base.truth, **flags)


# The paper's campaign size.
CAMPAIGN_RUNS = 500


@dataclass(frozen=True)
class RunSpec(Checked):
    """Everything one reproducible run needs; cheap to ship to a worker.

    Checked when built, at the kernel's ranges: ``horizon`` >= 0,
    ``deviation_rate`` in [0, 1], and finite non-negative solve times in
    either order.  Its defaults are every run's: ``simulate_outcome`` and
    the config's simulation section read them from here.
    """

    user_kind: str
    preconfigured: bool
    seed: int
    horizon: int = bounded(100, 0)
    hyper: Hyperparameters = DEFAULT_HYPER
    deviation_rate: float = bounded(0.05, 0.0, 1.0)
    time_low: float = bounded(1.0, 0.0)
    time_high: float = bounded(10.0, 0.0)
    table: ScoringTable | None = None

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except ValueError as exc:
            if str(exc).startswith(("time_low ", "time_high ")):
                raise ValueError(f"solve times: {exc}") from None
            raise


def simulate_outcome(
    user: UserModel,
    triple: ObservationTriple,
    action: Action,
    rng: random.Random,
    deviation_rate: float = RunSpec.deviation_rate,
    time_low: float = RunSpec.time_low,
    time_high: float = RunSpec.time_high,
) -> TaskPerformance:
    """One synthetic task attempt.  Draw order is part of the contract:
    deviation first, then the two solve times."""
    deviate = rng.random() < deviation_rate
    comprehension_time = rng.uniform(time_low, time_high)
    enabledness_time = rng.uniform(time_low, time_high)
    well = user.performs_well(triple, action)
    if deviate:
        well = not well
    return TaskPerformance(
        comprehension_ok=well,
        comprehension_time=comprehension_time,
        enabledness_ok=well,
        enabledness_time=enabledness_time,
    )


@dataclass(frozen=True)
class RunResult:
    seed: int
    series: tuple[float, ...]

    @property
    def final_reward(self) -> float:
        return self.series[-1] if self.series else 0.0

    @property
    def recovery(self) -> int | None:
        return recovery_episode(self.series)


def recovery_episode(series: Sequence[float]) -> int | None:
    """First 1-based episode where the cumulative reward returns to >= 0
    after having been negative.  0 means it never dipped; None means it
    dipped and never came back within the horizon."""
    dipped = False
    for index, value in enumerate(series, start=1):
        if dipped and value >= 0:
            return index
        if value < 0:
            dipped = True
    return None if dipped else 0


def _setup(spec: RunSpec) -> tuple[ScoringTable, QTable, random.Random]:
    """What a run needs before its first episode: rubric, policy, stream."""
    table = spec.table or default_scoring_table()
    qtable = init_from_scoring(table, spec.hyper, preconfigured=spec.preconfigured)
    return table, qtable, random.Random(spec.seed)


# (kind, state index of every triple) -> 30x6 success matrix, built once per
# process from ``performs_well``.  Outcomes depend on a table only through its
# 30 ground-truth actions, and each state names exactly one, so the state
# indices key the table by value (tables themselves are unhashable).  Cleared
# when full, so that a long-lived process stays bounded.
_OUTCOMES: dict[tuple[str, tuple[int, ...]], tuple[tuple[bool, ...], ...]] = {}
_OUTCOMES_MAX = 256


def _outcome_matrix(
    kind: str, table: ScoringTable
) -> tuple[tuple[int, ...], tuple[tuple[bool, ...], ...]]:
    """State index and ``performs_well`` per action index, for every triple
    in ``table.truth`` order."""
    states = tuple(STATE_INDEX[state] for state, _ in table.truth.values())
    key = (kind, states)
    wins = _OUTCOMES.get(key)
    if wins is None:
        user = make_user(kind, table)
        wins = tuple(
            tuple(user.performs_well(triple, action) for action in ACTIONS)
            for triple in table.truth
        )
        if len(_OUTCOMES) >= _OUTCOMES_MAX:
            _OUTCOMES.clear()
        _OUTCOMES[key] = wins
    return states, wins


def run_simulation(spec: RunSpec) -> RunResult:
    """One run: ``horizon`` episodes over uniformly sampled observations.

    Per episode the stream is: action selection, deviation draw, two solve
    times, next observation index.  The value update bootstraps on the next
    episode's observation, chaining the walk together.  The loop runs on
    state and action indices with the stdlib draws inlined: ``uniform`` as
    ``low + span * random()``, ``randrange`` as ``_below``, and each score as
    ``timed_performance_score``'s ``sign * exp(-REWARD_DECAY * t)``.  It still
    reproduces, draw for draw, the object-level loop in ``tests/oracles.py``.
    ``RunSpec`` admits only finite non-negative solve-time bounds, which only
    ever draw finite non-negative times.
    """
    low, high = spec.time_low, spec.time_high
    table, qtable, rng = _setup(spec)
    # The seeded index stream picks from all_observation_triples() order,
    # which is the order table.truth is built in.
    states, wins = _outcome_matrix(spec.user_kind, table)
    select, update = qtable.select_index, qtable.update_index
    draw, exp = rng.random, math.exp
    deviation_rate, span, rate = spec.deviation_rate, high - low, -REWARD_DECAY
    cells = len(states)

    series: list[float] = []
    cumulative = 0.0
    index = _below(rng, cells)
    for _ in range(spec.horizon):
        state = states[index]
        action = select(state, rng)
        sign = 1.0 if wins[index][action] is not (draw() < deviation_rate) else -1.0
        comprehension = sign * exp(rate * (low + span * draw()))
        enabledness = sign * exp(rate * (low + span * draw()))
        reward = (comprehension + enabledness) / 2.0
        index = _below(rng, cells)
        update(state, action, reward, states[index])
        cumulative += reward
        series.append(cumulative)
    return RunResult(seed=spec.seed, series=tuple(series))


@dataclass(frozen=True)
class EpisodeScript:
    """One scripted episode for dynamic mode: fixations, then a task."""

    gaze_targets: tuple[int, ...]
    task: str


def run_dynamic(spec: RunSpec, script: Sequence[EpisodeScript]) -> RunResult:
    """Scripted-mode run: drives the full partner-model pipeline per episode
    instead of sampling observation triples uniformly."""
    table, qtable, rng = _setup(spec)
    user = make_user(spec.user_kind, table)
    session = Session(table, qtable, partner=PartnerModel(), rng=rng)

    def environment(triple: ObservationTriple, action: Action) -> TaskPerformance:
        return simulate_outcome(
            user, triple, action, rng, spec.deviation_rate, spec.time_low, spec.time_high
        )

    for episode in script:
        session.step(episode.gaze_targets, episode.task, environment)
    series = tuple(record.cumulative_reward for record in session.records)
    return RunResult(seed=spec.seed, series=series)


@dataclass(frozen=True)
class CampaignSummary:
    runs: int
    z_mean: float
    z_sd: float
    reward_mean: float
    reward_sd: float
    recovery_rate: float
    non_recovery_rate: float


@dataclass(frozen=True)
class CampaignResult:
    horizon: int
    results: tuple[RunResult, ...]

    def summary(self) -> CampaignSummary:
        return summarize(self.results, self.horizon)


def summarize(results: Sequence[RunResult], horizon: int) -> CampaignSummary:
    """Aggregate a batch of runs; censored runs count at the horizon."""
    recoveries = [r.recovery for r in results]
    z_values = [horizon if z is None else z for z in recoveries]
    finals = [r.final_reward for r in results]
    censored = sum(1 for z in recoveries if z is None)
    n = len(results)
    return CampaignSummary(
        runs=n,
        z_mean=fmean(z_values),
        z_sd=pstdev(z_values),
        reward_mean=fmean(finals),
        reward_sd=pstdev(finals),
        recovery_rate=(n - censored) / n,
        non_recovery_rate=censored / n,
    )


def _run_seed(template: RunSpec, seed: int) -> RunResult:
    """One campaign run: the template, checked once already, with ``seed``.

    At module level so that a pool can pickle it, and calling
    ``run_simulation`` by its global name so that a tracer sees every run.
    """
    spec = object.__new__(RunSpec)
    spec.__dict__.update(template.__dict__, seed=seed)
    return run_simulation(spec)


def _campaigns(templates: Sequence[RunSpec], runs: int, workers: int) -> Iterator[CampaignResult]:
    """One campaign per template: ``runs`` runs from the template's seed on.

    Run i is the template with its seed plus i, serial or parallel, so both
    give the same result.  With ``workers > 1`` every campaign runs in one
    pool, which receives a template, table included, once per chunk of runs.
    """
    for name, count in (("runs", runs), ("workers", workers)):
        if count < 1:
            raise ValueError(f"{name} must be in [1, inf], got {count!r}")
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for template in templates:
            run = functools.partial(_run_seed, template)
            seeds = range(template.seed, template.seed + runs)
            if pool is None:
                results = tuple(map(run, seeds))
            else:
                results = tuple(pool.map(run, seeds, chunksize=max(1, runs // (workers * 4))))
            yield CampaignResult(horizon=template.horizon, results=results)


def run_campaign(
    user_kind: str,
    preconfigured: bool,
    *,
    runs: int = CAMPAIGN_RUNS,
    base_seed: int = 0,
    workers: int = 1,
    **spec,
) -> CampaignResult:
    """A batch of independent runs with seeds base_seed .. base_seed+runs-1.

    ``spec`` takes any other ``RunSpec`` field; together they make the
    template that every run copies, checked once.
    """
    template = RunSpec(user_kind, preconfigured, base_seed, **spec)
    (campaign,) = _campaigns((template,), runs, workers)
    return campaign


SWEEP_ALPHAS = (0.25, 0.5)
SWEEP_GAMMAS = (0.0, 0.5, 0.95)
SWEEP_EPSILON = 0.75


@dataclass(frozen=True)
class SweepRow:
    preconfigured: bool
    alpha: float
    gamma: float
    epsilon: float
    z_mean: float
    z_sd: float
    reward_mean: float
    reward_sd: float


def run_sweep(
    user_kind: str = "A",
    hyper: Hyperparameters | None = None,
    *,
    runs: int = CAMPAIGN_RUNS,
    base_seed: int = 0,
    workers: int = 1,
    **spec,
) -> list[SweepRow]:
    """The 12-row hyperparameter study: both initialisations crossed with
    two learning rates and three discount factors, epsilon fixed.

    ``hyper`` supplies every policy value but the three swept ones; the other
    keywords mean what they mean to ``run_campaign``.  Every row is that
    campaign, and with ``workers > 1`` all twelve share one pool.
    """
    templates = [
        RunSpec(
            user_kind,
            preconfigured,
            base_seed,
            hyper=replace(hyper or DEFAULT_HYPER, alpha=alpha, gamma=gamma, epsilon=SWEEP_EPSILON),
            **spec,
        )
        for alpha, gamma, preconfigured in itertools.product(
            SWEEP_ALPHAS, SWEEP_GAMMAS, (False, True)
        )
    ]
    rows: list[SweepRow] = []
    for template, campaign in zip(templates, _campaigns(templates, runs, workers), strict=True):
        stats = campaign.summary()
        rows.append(
            SweepRow(
                preconfigured=template.preconfigured,
                alpha=template.hyper.alpha,
                gamma=template.hyper.gamma,
                epsilon=SWEEP_EPSILON,
                z_mean=stats.z_mean,
                z_sd=stats.z_sd,
                reward_mean=stats.reward_mean,
                reward_sd=stats.reward_sd,
            )
        )
    return rows


def write_campaign_csv(campaign: CampaignResult, path: str | Path) -> None:
    """One row per run plus a trailing aggregate row.

    The aggregate row reuses the columns: Z holds the mean recovery episode
    (censored at horizon), censored holds the non-recovery rate, final_reward
    holds the mean final cumulative reward.
    """
    stats = campaign.summary()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "Z", "censored", "final_reward"])
        for result in campaign.results:
            recovery = result.recovery
            writer.writerow(
                [
                    result.seed,
                    "" if recovery is None else recovery,
                    str(recovery is None).lower(),
                    repr(result.final_reward),
                ]
            )
        writer.writerow(
            [
                "aggregate",
                repr(stats.z_mean),
                repr(stats.non_recovery_rate),
                repr(stats.reward_mean),
            ]
        )


def write_series_csv(campaign: CampaignResult, path: str | Path) -> None:
    """Per-episode mean and spread of the cumulative reward, for plotting."""
    horizon = campaign.horizon
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["episode", "mean_cumulative_reward", "sd"])
        for index in range(horizon):
            values = [result.series[index] for result in campaign.results]
            writer.writerow([index + 1, repr(fmean(values)), repr(pstdev(values))])


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["H_S", "alpha", "gamma", "epsilon", "Z_m", "Z_sd", "R_m", "R_sd"])
        for row in rows:
            writer.writerow(
                [
                    "T" if row.preconfigured else "F",
                    repr(row.alpha),
                    repr(row.gamma),
                    repr(row.epsilon),
                    repr(row.z_mean),
                    repr(row.z_sd),
                    repr(row.reward_mean),
                    repr(row.reward_sd),
                ]
            )
