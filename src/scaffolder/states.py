"""Shared domain vocabulary: observation classes, strategies, and cognitive states.

Observations about the partner are discretised into a triple
(capacity class, gaze class, task awareness class).  The system reacts with a
verbal action composed of a negation component and a hesitation component.
Each cognitive state carries the action that is considered correct for a
partner in that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product


class CapacityClass(str, Enum):
    LOW = "low"
    HIGH = "high"


class GazeClass(str, Enum):
    DISTRACTED = "distracted"
    UNCERTAIN = "uncertain"
    FOCUSED = "focused"


class TaskClass(str, Enum):
    """Awareness the partner has of a task, judged from past outcomes."""

    UNKNOWN = "unknown"
    FAILURE = "failure"
    MISC_ENABLEDNESS = "misc_enabledness"
    MISC_COMPREHENSION = "misc_comprehension"
    SUCCESS = "success"


class NegationType(str, Enum):
    AFFIRMATION = "affirmation"
    NEGATION_AFFIRMATION = "negation_affirmation"
    NEGATION = "negation"


class HesitationType(str, Enum):
    NONE = "none"
    HESITATION = "hesitation"


@dataclass(frozen=True)
class Action:
    """A verbal strategy: one negation type combined with one hesitation type."""

    negation: NegationType
    hesitation: HesitationType

    @property
    def label(self) -> str:
        if self.hesitation is HesitationType.HESITATION:
            return f"{self.negation.value}+hesitation"
        return self.negation.value

    @classmethod
    def from_label(cls, label: str) -> "Action":
        name, _, suffix = label.partition("+")
        hesitation = HesitationType.HESITATION if suffix == "hesitation" else HesitationType.NONE
        if suffix not in ("", "hesitation"):
            raise ValueError(f"unknown action label: {label!r}")
        return cls(NegationType(name), hesitation)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.label


# Fixed action order; also the column order of the learned value table.
ACTIONS: tuple[Action, ...] = tuple(
    Action(negation, hesitation)
    for negation in NegationType
    for hesitation in HesitationType
)
ACTION_INDEX: dict[Action, int] = {action: i for i, action in enumerate(ACTIONS)}


class CognitiveState(str, Enum):
    ENGAGED_OBSERVER = "EngagedObserver"
    ENGAGED_MISINTERPRETER = "EngagedMisinterpreter"
    DISTRACTED_MISINTERPRETER = "DistractedMisinterpreter"
    OVERWHELMED_STRUGGLER = "OverwhelmedStruggler"
    UNFOCUSED = "Unfocused"
    UNCERTAIN = "Uncertain"


STATES: tuple[CognitiveState, ...] = tuple(CognitiveState)
STATE_INDEX: dict[CognitiveState, int] = {state: i for i, state in enumerate(STATES)}

# The action each cognitive state calls for.  The pairing is what defines the
# state: every (negation type, hesitation type) combination names one state.
GROUND_TRUTH_ACTION: dict[CognitiveState, Action] = {
    CognitiveState.ENGAGED_OBSERVER: Action(NegationType.AFFIRMATION, HesitationType.NONE),
    CognitiveState.ENGAGED_MISINTERPRETER: Action(
        NegationType.NEGATION_AFFIRMATION, HesitationType.NONE
    ),
    CognitiveState.DISTRACTED_MISINTERPRETER: Action(NegationType.NEGATION, HesitationType.NONE),
    CognitiveState.OVERWHELMED_STRUGGLER: Action(
        NegationType.AFFIRMATION, HesitationType.HESITATION
    ),
    CognitiveState.UNFOCUSED: Action(
        NegationType.NEGATION_AFFIRMATION, HesitationType.HESITATION
    ),
    CognitiveState.UNCERTAIN: Action(NegationType.NEGATION, HesitationType.HESITATION),
}

STATE_FOR_ACTION: dict[Action, CognitiveState] = {
    action: state for state, action in GROUND_TRUTH_ACTION.items()
}


@dataclass(frozen=True)
class ObservationTriple:
    capacity: CapacityClass
    gaze: GazeClass
    task: TaskClass

    def as_labels(self) -> tuple[str, str, str]:
        return (self.capacity.value, self.gaze.value, self.task.value)


@cache
def all_observation_triples() -> tuple[ObservationTriple, ...]:
    """All 30 observable triples, in a fixed enumeration order."""
    return tuple(
        ObservationTriple(capacity, gaze, task)
        for capacity, gaze, task in product(CapacityClass, GazeClass, TaskClass)
    )
