"""Configurable scoring rubric turning observation triples into strategy needs.

A scoring table holds one vote per (category, observation value, strategy).
The scaffolding score of a strategy for a triple is the weighted mean vote of
the triple's three observation values.  Scores are then discretised: the
negation score picks one of three negation types, the hesitation score one of
two hesitation types, and the resulting pair names a cognitive state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .states import (
    Action,
    CapacityClass,
    CognitiveState,
    GazeClass,
    GROUND_TRUTH_ACTION,
    HesitationType,
    NegationType,
    ObservationTriple,
    STATE_FOR_ACTION,
    TaskClass,
    all_observation_triples,
)

NEGATION = "negation"
HESITATION = "hesitation"

CATEGORY_VALUES: dict[str, tuple[str, ...]] = {
    "capacity": tuple(v.value for v in CapacityClass),
    "gaze": tuple(v.value for v in GazeClass),
    "task": tuple(v.value for v in TaskClass),
}

_NEGATION_LEVELS = tuple(NegationType)
_HESITATION_LEVELS = tuple(HesitationType)


@dataclass(frozen=True)
class ScoringTable:
    """Immutable rubric: votes per (category, observation, strategy) plus weights.

    ``strategies`` fixes the column order.  ``weights`` scales each strategy's
    score; ``score_max`` normalises the vote sum (by default the number of
    categories, so 0/1 votes yield scores in [0, weight]).
    """

    entries: Mapping[tuple[str, str, str], float]
    strategies: tuple[str, ...] = (NEGATION, HESITATION)
    weights: Mapping[str, float] = field(default_factory=dict)
    score_max: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for strategy in (NEGATION, HESITATION):
            if strategy not in self.strategies:
                raise ValueError(f"scoring table must define strategy {strategy!r}")
        for strategy in self.strategies:
            for category, values in CATEGORY_VALUES.items():
                for value in values:
                    if (category, value, strategy) not in self.entries:
                        raise ValueError(
                            f"missing entry ({category}, {value}, {strategy})"
                        )
        object.__setattr__(
            self,
            "weights",
            {s: float(self.weights.get(s, 1.0)) for s in self.strategies},
        )
        object.__setattr__(
            self,
            "score_max",
            {s: int(self.score_max.get(s, len(CATEGORY_VALUES))) for s in self.strategies},
        )
        for strategy, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight of {strategy!r} must be positive, got {weight}")
        for strategy, smax in self.score_max.items():
            if smax <= 0:
                raise ValueError(f"score_max of {strategy!r} must be positive, got {smax}")

    def entry(self, category: str, observation: str, strategy: str) -> float:
        return self.entries[(category, observation, strategy)]

    @cached_property
    def truth(self) -> dict[ObservationTriple, tuple[CognitiveState, Action]]:
        """For every triple: its cognitive state and that state's correct action.

        Reduced once per table and shared by every reader, so treat it as
        read-only; ``ground_truth_map`` hands out a copy.  It is a plain dict
        so that a table whose map was built still pickles.
        """
        result: dict[ObservationTriple, tuple[CognitiveState, Action]] = {}
        for triple in all_observation_triples():
            state = reduce_observation(self, triple)
            result[triple] = (state, GROUND_TRUTH_ACTION[state])
        return result

    def reweighted(self, strategy: str, weight: float) -> "ScoringTable":
        """A new table version with one strategy weight replaced."""
        if strategy not in self.strategies:
            raise KeyError(strategy)
        return replace(self, weights={**self.weights, strategy: weight})

    def with_entry(self, category: str, observation: str, strategy: str, vote: float) -> "ScoringTable":
        """A new table version with one vote replaced."""
        key = (category, observation, strategy)
        if key not in self.entries:
            raise KeyError(key)
        return replace(self, entries={**self.entries, key: float(vote)})


def _vote_fraction(table: ScoringTable, triple: ObservationTriple, strategy: str) -> float:
    """Unweighted vote sum over the three categories, divided by score_max."""
    if strategy not in table.strategies:
        raise KeyError(f"unknown strategy {strategy!r}")
    capacity, gaze, task = triple.as_labels()
    total = (
        table.entry("capacity", capacity, strategy)
        + table.entry("gaze", gaze, strategy)
        + table.entry("task", task, strategy)
    )
    return total / table.score_max[strategy]


def scaffolding_score(table: ScoringTable, triple: ObservationTriple, strategy: str) -> float:
    """Weighted need for one strategy given a triple: weight * (vote sum) / score_max."""
    return table.weights[strategy] * _vote_fraction(table, triple, strategy)


def _level(normalised: float, count: int) -> int:
    """Uniform binning of [0, 1] into ``count`` levels, boundaries closed below."""
    for k in range(1, count):
        if normalised <= k / count:
            return k - 1
    return count - 1


def reduce_components(
    table: ScoringTable, triple: ObservationTriple
) -> tuple[NegationType, HesitationType]:
    """Discretise the two strategy scores into a (negation, hesitation) pair.

    Each strategy's unweighted vote fraction is placed into as many uniform
    bins as the strategy has types: thirds for negation, halves for
    hesitation.  The runtime weight scales the score's magnitude, never the
    binning, so re-weighting a strategy cannot flip a reduction.
    """
    negation_score = _vote_fraction(table, triple, NEGATION)
    hesitation_score = _vote_fraction(table, triple, HESITATION)
    negation = _NEGATION_LEVELS[_level(negation_score, len(_NEGATION_LEVELS))]
    hesitation = _HESITATION_LEVELS[_level(hesitation_score, len(_HESITATION_LEVELS))]
    return negation, hesitation


def reduce_observation(table: ScoringTable, triple: ObservationTriple) -> CognitiveState:
    """Map a triple to the cognitive state named by its reduced component pair."""
    negation, hesitation = reduce_components(table, triple)
    return STATE_FOR_ACTION[Action(negation, hesitation)]


def ground_truth_map(
    table: ScoringTable,
) -> dict[ObservationTriple, tuple[CognitiveState, Action]]:
    """For every triple: its cognitive state and that state's correct action.

    A copy of ``table.truth``, so the caller may change it freely.
    """
    return dict(table.truth)


def _rows_to_entries(
    rows: Iterable[dict[str, str]], strategies: tuple[str, ...]
) -> dict[tuple[str, str, str], float]:
    entries: dict[tuple[str, str, str], float] = {}
    for row in rows:
        if None in row.values():
            raise ValueError(f"scoring CSV row needs {2 + len(strategies)} columns, got {row}")
        category = row["category"].strip()
        observation = row["observation"].strip()
        if category not in CATEGORY_VALUES:
            raise ValueError(f"unknown category {category!r}")
        if observation not in CATEGORY_VALUES[category]:
            raise ValueError(f"unknown {category} value {observation!r}")
        for strategy in strategies:
            key = (category, observation, strategy)
            if key in entries:
                raise ValueError(f"duplicate entry for {key}")
            entries[key] = float(row[strategy])
    return entries


def load_scoring_table(path: str | Path) -> ScoringTable:
    """Read a rubric from CSV: category, observation, then one column per strategy."""
    with open(path, newline="", encoding="utf-8") as handle:
        return _parse_scoring_csv(handle)


def _parse_scoring_csv(handle) -> ScoringTable:
    reader = csv.DictReader(handle)
    if reader.fieldnames is None or reader.fieldnames[:2] != ["category", "observation"]:
        raise ValueError("scoring CSV must start with columns: category, observation")
    strategies = tuple(reader.fieldnames[2:])
    entries = _rows_to_entries(reader, strategies)
    return ScoringTable(entries=entries, strategies=strategies)


@cache
def default_scoring_table() -> ScoringTable:
    """The rubric shipped with the package, parsed once per process."""
    source = resources.files("scaffolder").joinpath("data/default_scoring.csv")
    with source.open("r", encoding="utf-8", newline="") as handle:
        return _parse_scoring_csv(handle)


def dump_scoring_table(table: ScoringTable, path: str | Path) -> None:
    """Write a rubric back out in the CSV layout ``load_scoring_table`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["category", "observation", *table.strategies])
        for category, values in CATEGORY_VALUES.items():
            for value in values:
                row = [category, value]
                for strategy in table.strategies:
                    vote = table.entry(category, value, strategy)
                    row.append(str(int(vote)) if vote == int(vote) else str(vote))
                writer.writerow(row)
