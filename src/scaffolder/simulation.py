"""Desk-scale simulation study: synthetic users, runs, campaigns, sweeps.

Four synthetic user types probe how quickly the policy recovers when the
partner's real needs disagree with the rubric's assumptions.  Each is one
``_USER_TYPES`` entry naming the observation values it refuses:

* ``A`` refuses nothing and behaves exactly as the rubric predicts.
* ``B`` refuses high capacity: corrections only land while capacity is low.
* ``C`` also refuses the tasks it has misexecuted or solved, and insists on
  the rubric's hesitation cue.
* ``D`` also refuses a distracted or uncertain gaze, under which every
  action fails.

Every run is a fixed-order random stream, so a (user, hyperparameters, seed)
triple is fully reproducible, serial or parallel.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from statistics import fmean, pstdev
from typing import Iterator, Mapping, Sequence

from .partner_model import PartnerModel
from .policy import DEFAULT_HYPER, Hyperparameters, QTable, _below, init_from_scoring
from .schema import Checked, bounded
from .scoring import CATEGORY_VALUES, NEGATION, ScoringTable, default_scoring_table, write_csv
from .session import REWARD_DECAY, Session, TaskPerformance
from .states import (
    ACTIONS,
    Action,
    CognitiveState,
    NegationType,
    ObservationTriple,
    STATE_INDEX,
)

# One entry per kind: (kind, the category it reads differently, the values of
# that category it refuses, whether it insists on the rubric's hesitation
# cue).  Each kind keeps every refusal and the cue of the kinds above it.
_USER_TYPES = (
    ("A", None, (), False),
    ("B", "capacity", ("high",), False),
    ("C", "task", ("misc_enabledness", "success"), True),
    ("D", "gaze", ("distracted", "uncertain"), False),
)
USER_KINDS = tuple(kind for kind, *_ in _USER_TYPES)


@dataclass(frozen=True)
class UserModel:
    """A synthetic partner: the rubric plus the observation values it refuses.

    ``refused`` holds (category, observation) pairs.  ``true_table`` states
    them as votes but is descriptive only: for B, C and D it disagrees with
    ``performs_well`` on some (triple, action) cells.
    """

    kind: str
    true_table: ScoringTable
    baseline: Mapping[ObservationTriple, tuple[CognitiveState, Action]]
    refused: frozenset[tuple[str, str]] = frozenset()
    hesitation_strict: bool = False

    def performs_well(self, triple: ObservationTriple, action: Action) -> bool:
        """Whether this partner would succeed given the observation and action.

        A refused gaze fails every action.  A partner that refuses anything
        takes any negation unless its capacity or task is refused or, when
        ``hesitation_strict``, the hesitation is not the rubric's.  Every
        other action succeeds only if it is the rubric's own.
        """
        capacity, gaze, task = triple.as_labels()
        if ("gaze", gaze) in self.refused:
            return False
        baseline_action = self.baseline[triple][1]
        if self.refused and action.negation is not NegationType.AFFIRMATION:
            if ("capacity", capacity) in self.refused or ("task", task) in self.refused:
                return False
            return not self.hesitation_strict or action.hesitation is baseline_action.hesitation
        return action == baseline_action


def make_user(kind: str, table: ScoringTable | None = None) -> UserModel:
    """Build one of the four synthetic user types from a base rubric.

    The kind's ``_USER_TYPES`` entry and those above it give its refusals.
    ``true_table`` is the base rubric with a negation vote of 0 for each
    refused value and 1 for the rest of its category: 2, 7 and 10 edited
    votes for B, C and D.
    """
    if kind not in USER_KINDS:
        raise ValueError(f"unknown user kind {kind!r}, expected one of {USER_KINDS}")
    base = table or default_scoring_table()
    entries = _USER_TYPES[: USER_KINDS.index(kind) + 1]
    refused = frozenset((category, value) for _, category, values, _ in entries for value in values)
    votes = {
        (category, value, NEGATION): float((category, value) not in refused)
        for category, _ in refused
        for value in CATEGORY_VALUES[category]
    }
    true_table = replace(base, entries={**base.entries, **votes}) if votes else base
    strict = any(cue for *_, cue in entries)
    return UserModel(kind, true_table, base.truth, refused, strict)


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
    """One row of the sweep CSV, its fields in the CSV's column order."""

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
    rows = []
    for run in campaign.results:
        z = run.recovery
        rows.append([run.seed, "" if z is None else z, str(z is None).lower(), run.final_reward])
    rows.append(["aggregate", stats.z_mean, stats.non_recovery_rate, stats.reward_mean])
    write_csv(path, ["seed", "Z", "censored", "final_reward"], rows)


def write_series_csv(campaign: CampaignResult, path: str | Path) -> None:
    """Per-episode mean and spread of the cumulative reward, for plotting."""
    columns = zip(*(result.series for result in campaign.results))
    rows = ([index, fmean(values), pstdev(values)] for index, values in enumerate(columns, 1))
    write_csv(path, ["episode", "mean_cumulative_reward", "sd"], rows)


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    cells = (["T" if row.preconfigured else "F", *astuple(row)[1:]] for row in rows)
    write_csv(path, ["H_S", "alpha", "gamma", "epsilon", "Z_m", "Z_sd", "R_m", "R_sd"], cells)
