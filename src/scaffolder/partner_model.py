"""Partner monitoring: processing capacity, gaze distribution, task awareness.

Three lightweight observers approximate what a human partner can take in at
the moment:

* a capacity battery that drains under explanations and recovers under
  repetition,
* a gaze model holding one attention weight per target plus a focus-shift
  counter,
* a per-task awareness memory fed by observed task outcomes.

``classify`` folds all three into one of the 30 observation triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .states import (
    Action,
    CapacityClass,
    GazeClass,
    HesitationType,
    NegationType,
    ObservationTriple,
    TaskClass,
)


@dataclass
class PartnerModelConfig:
    """Constants of the partner model; defaults match the reference setup."""

    capacity_max: float = 100.0
    capacity_min: float = 0.0
    repetition_gain: float = 5.0       # recovery when an action repeats
    demanding_cost: float = 20.0       # drain of a cognitively demanding action
    nondemanding_cost: float = 10.0    # drain of any other action
    capacity_threshold: float = 50.0   # high/low boundary

    num_targets: int = 3
    gaze_gain: float = 10.0            # weight gained by the fixated target
    weight_min: float = 0.0

    shift_increment: float = 1.0
    shift_decrement: float = 1.0
    shift_min: float = 0.0
    shift_max: float = 10.0

    focused_share: float = 0.6         # min max-weight share for "focused"
    distracted_share: float = 0.4      # max-weight share below this is "distracted"
    focused_shift_max: float = 3.0
    distracted_shift_min: float = 7.0

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if not math.isfinite(value):
                raise ValueError(f"{item.name} must be finite, got {value}")
        if self.num_targets < 1:
            raise ValueError(f"num_targets must be >= 1, got {self.num_targets}")

    def initial_weights(self) -> list[float]:
        return [self.capacity_max / self.num_targets] * self.num_targets

    def is_demanding(self, action: Action) -> bool:
        """Hesitant speech gives the partner room to breathe; plain
        affirmations are routine.  Everything else asks for real processing."""
        if action.hesitation is HesitationType.HESITATION:
            return False
        return action.negation is not NegationType.AFFIRMATION


@dataclass(frozen=True)
class CapacityState:
    value: float
    last_action: Action | None = None


@dataclass(frozen=True)
class GazeState:
    weights: tuple[float, ...]
    focus_shift: float = 0.0
    last_focus: int | None = None


@dataclass(frozen=True)
class TaskAwareness:
    outcomes: dict[str, TaskClass] = field(default_factory=dict)

    def classify(self, task: str) -> TaskClass:
        return self.outcomes.get(task, TaskClass.UNKNOWN)


def update_capacity(state: CapacityState, action: Action, config: PartnerModelConfig) -> CapacityState:
    """Apply one action to the capacity battery.

    A repeated action lets the partner recover; a demanding action drains
    hard; anything else drains mildly.  The result stays inside
    [capacity_min, capacity_max].
    """
    if state.last_action is not None and action == state.last_action:
        value = min(state.value + config.repetition_gain, config.capacity_max)
    elif config.is_demanding(action):
        value = max(state.value - config.demanding_cost, config.capacity_min)
    else:
        value = max(state.value - config.nondemanding_cost, config.capacity_min)
    return CapacityState(value=value, last_action=action)


def update_gaze_weights(state: GazeState, fixated: int, config: PartnerModelConfig) -> GazeState:
    """Shift attention weight toward the fixated target.

    The fixated weight grows by gaze_gain, clamped at capacity_max; every
    other weight gives up an equal share of the actually realised gain,
    clamped at weight_min.
    """
    n = len(state.weights)
    if not 0 <= fixated < n:
        raise ValueError(f"fixated target {fixated} out of range 0..{n - 1}")
    focused_weight = state.weights[fixated]
    gain = min(focused_weight + config.gaze_gain, config.capacity_max) - focused_weight
    loss = gain / (n - 1) if n > 1 else 0.0
    weights = tuple(
        focused_weight + gain if i == fixated else max(w - loss, config.weight_min)
        for i, w in enumerate(state.weights)
    )
    return replace(state, weights=weights)


def update_focus_shift(state: GazeState, fixated: int, config: PartnerModelConfig) -> GazeState:
    """Count focus changes: switching targets raises the counter, staying lowers it."""
    if not 0 <= fixated < len(state.weights):
        raise ValueError(f"fixated target {fixated} out of range 0..{len(state.weights) - 1}")
    if state.last_focus is None or state.last_focus != fixated:
        shift = min(state.focus_shift + config.shift_increment, config.shift_max)
    else:
        shift = max(state.focus_shift - config.shift_decrement, config.shift_min)
    return replace(state, focus_shift=shift, last_focus=fixated)


def record_task_outcome(
    awareness: TaskAwareness, task: str, comprehension_ok: bool, enabledness_ok: bool
) -> TaskAwareness:
    """Fold one observed task outcome into the awareness memory, in place.

    Full success and full failure map directly; the mixed cases name the
    dimension that went wrong.  Returns the same awareness: copying the
    outcomes per task would make each episode cost grow with the tasks seen.
    """
    if comprehension_ok and enabledness_ok:
        outcome = TaskClass.SUCCESS
    elif not comprehension_ok and not enabledness_ok:
        outcome = TaskClass.FAILURE
    elif comprehension_ok:
        outcome = TaskClass.MISC_ENABLEDNESS
    else:
        outcome = TaskClass.MISC_COMPREHENSION
    awareness.outcomes[task] = outcome
    return awareness


def classify_capacity(state: CapacityState, config: PartnerModelConfig) -> CapacityClass:
    return CapacityClass.HIGH if state.value >= config.capacity_threshold else CapacityClass.LOW


def classify_gaze(state: GazeState, config: PartnerModelConfig) -> GazeClass:
    """Discretise the gaze model.

    Before any fixation arrives there is no evidence of distraction, so a
    fresh model counts as focused.  Afterwards the max-weight share and the
    focus-shift counter decide, with the distracted test taking precedence.
    """
    if state.last_focus is None:
        return GazeClass.FOCUSED
    total = sum(state.weights)
    share = max(state.weights) / total if total > 0 else 1.0
    if share < config.distracted_share or state.focus_shift >= config.distracted_shift_min:
        return GazeClass.DISTRACTED
    if share >= config.focused_share and state.focus_shift <= config.focused_shift_max:
        return GazeClass.FOCUSED
    return GazeClass.UNCERTAIN


class PartnerModel:
    """Mutable container bundling the three observers for one partner."""

    def __init__(self, config: PartnerModelConfig | None = None) -> None:
        self.config = config or PartnerModelConfig()
        self.capacity = CapacityState(value=self.config.capacity_max)
        self.gaze = GazeState(weights=tuple(self.config.initial_weights()))
        self.awareness = TaskAwareness()

    def apply_gaze(self, fixated: int) -> None:
        self.gaze = update_gaze_weights(self.gaze, fixated, self.config)
        self.gaze = update_focus_shift(self.gaze, fixated, self.config)

    def apply_action(self, action: Action) -> None:
        self.capacity = update_capacity(self.capacity, action, self.config)

    def record_outcome(self, task: str, comprehension_ok: bool, enabledness_ok: bool) -> None:
        self.awareness = record_task_outcome(self.awareness, task, comprehension_ok, enabledness_ok)

    def classify(self, task: str) -> ObservationTriple:
        return ObservationTriple(
            capacity=classify_capacity(self.capacity, self.config),
            gaze=classify_gaze(self.gaze, self.config),
            task=self.awareness.classify(task),
        )
