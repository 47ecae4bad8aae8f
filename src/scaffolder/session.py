"""Session engine: the explain, act, observe, reward loop for one partner.

One episode runs through a fixed pipeline: ingest gaze, classify and reduce,
select an action, charge the partner's capacity for that action, wait for the
task performance, record awareness, turn the performance into a reward, and
feed the reward back into the policy using the freshly re-classified state.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .partner_model import PartnerModel
from .policy import QTable
from .scoring import ScoringTable
from .states import Action, CognitiveState, ObservationTriple


class SessionStateError(RuntimeError):
    """Raised when the query/complete protocol of a session is violated."""


@dataclass(frozen=True)
class TaskPerformance:
    """Outcome of one task attempt, split into comprehension and enabledness."""

    comprehension_ok: bool
    comprehension_time: float
    enabledness_ok: bool
    enabledness_time: float

    def __post_init__(self) -> None:
        for label, elapsed in (
            ("comprehension_time", self.comprehension_time),
            ("enabledness_time", self.enabledness_time),
        ):
            if not math.isfinite(elapsed) or elapsed < 0:
                raise ValueError(f"{label} must be finite and non-negative, got {elapsed}")


def timed_performance_score(success: bool, elapsed: float, decay: float = 0.1) -> float:
    """Signed, exponentially time-discounted score of one outcome dimension."""
    if not math.isfinite(elapsed) or elapsed < 0:
        raise ValueError(f"elapsed time must be finite and non-negative, got {elapsed}")
    sign = 1.0 if success else -1.0
    return sign * math.exp(-decay * elapsed)


def episode_reward(
    performance: TaskPerformance, decay: float = 0.1, scale: float = 1.0
) -> float:
    """Mean of the two dimension scores, scaled.  Always within [-scale, scale]."""
    comprehension = timed_performance_score(
        performance.comprehension_ok, performance.comprehension_time, decay
    )
    enabledness = timed_performance_score(
        performance.enabledness_ok, performance.enabledness_time, decay
    )
    return scale * (comprehension + enabledness) / 2.0


# Slotted: a served session holds one record per episode for its lifetime,
# and a slotted record is one allocation, not an object plus a values block.
@dataclass(frozen=True, slots=True)
class EpisodeRecord:
    index: int
    triple: ObservationTriple
    state: CognitiveState
    action: Action
    reward: float
    cumulative_reward: float


@dataclass(frozen=True)
class QueryResult:
    triple: ObservationTriple
    state: CognitiveState
    action: Action


@dataclass
class SessionConfig:
    reward_decay: float = 0.1
    reward_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.reward_decay) and self.reward_decay >= 0):
            raise ValueError(f"reward_decay must be finite and >= 0, got {self.reward_decay}")
        if not (math.isfinite(self.reward_scale) and self.reward_scale > 0):
            raise ValueError(f"reward_scale must be finite and > 0, got {self.reward_scale}")


class Session:
    """One partner, one policy, one reward channel."""

    def __init__(
        self,
        table: ScoringTable,
        qtable: QTable,
        partner: PartnerModel | None = None,
        config: SessionConfig | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.table = table
        self.qtable = qtable
        self.partner = partner or PartnerModel()
        self.config = config or SessionConfig()
        self.rng = rng or random.Random()
        self.records: list[EpisodeRecord] = []
        self.cumulative_reward: float = 0.0
        self._pending: tuple[str, QueryResult] | None = None

    @property
    def pending_task(self) -> str | None:
        return self._pending[0] if self._pending else None

    def ingest_gaze(self, target: int) -> None:
        self.partner.apply_gaze(target)

    def query(self, task: str) -> QueryResult:
        """Classify, reduce, pick an action, and charge capacity for it.

        The episode stays open until ``complete`` or ``abort_pending``.
        """
        if self._pending is not None:
            raise SessionStateError(f"query already pending for task {self._pending[0]!r}")
        triple = self.partner.classify(task)
        state = self.table.truth[triple][0]
        action = self.qtable.select_action(state, self.rng)
        self.partner.apply_action(action)
        result = QueryResult(triple=triple, state=state, action=action)
        self._pending = (task, result)
        return result

    def complete(self, performance: TaskPerformance) -> EpisodeRecord:
        """Close the open episode with an observed task performance."""
        if self._pending is None:
            raise SessionStateError("no pending query")
        task, result = self._pending
        self._pending = None
        self.partner.record_outcome(
            task, performance.comprehension_ok, performance.enabledness_ok
        )
        reward = episode_reward(
            performance, self.config.reward_decay, self.config.reward_scale
        )
        next_state = self.table.truth[self.partner.classify(task)][0]
        self.qtable.update(result.state, result.action, reward, next_state)
        return self._record(result, reward)

    def abort_pending(self) -> EpisodeRecord | None:
        """Drop the open episode without feedback: recorded, but no value update."""
        if self._pending is None:
            return None
        _, result = self._pending
        self._pending = None
        return self._record(result, 0.0)

    def _record(self, result: QueryResult, reward: float) -> EpisodeRecord:
        self.cumulative_reward += reward
        record = EpisodeRecord(
            index=len(self.records) + 1,
            triple=result.triple,
            state=result.state,
            action=result.action,
            reward=reward,
            cumulative_reward=self.cumulative_reward,
        )
        self.records.append(record)
        return record

    def step(
        self,
        gaze_events: Iterable[int],
        task: str,
        environment: Callable[[ObservationTriple, Action], TaskPerformance],
    ) -> EpisodeRecord:
        """Run one full episode against an environment callback."""
        for target in gaze_events:
            self.ingest_gaze(target)
        result = self.query(task)
        performance = environment(result.triple, result.action)
        return self.complete(performance)


def write_episode_csv(records: Sequence[EpisodeRecord], path: str | Path) -> None:
    """Dump episode records; one row per episode, floats via repr."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "episode",
                "capacity_class",
                "gaze_class",
                "task_class",
                "cognitive_state",
                "negation_type",
                "hesitation_type",
                "reward",
                "cumulative_reward",
            ]
        )
        for record in records:
            capacity, gaze, task = record.triple.as_labels()
            writer.writerow(
                [
                    record.index,
                    capacity,
                    gaze,
                    task,
                    record.state.value,
                    record.action.negation.value,
                    record.action.hesitation.value,
                    repr(record.reward),
                    repr(record.cumulative_reward),
                ]
            )
