import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_capacity, oracle_focus_shift, oracle_weights
from scaffolder.partner_model import (
    CapacityState,
    GazeState,
    PartnerModel,
    PartnerModelConfig,
    TaskAwareness,
    classify_capacity,
    classify_gaze,
    record_task_outcome,
    update_capacity,
    update_focus_shift,
    update_gaze_weights,
)
from scaffolder.states import (
    Action,
    CapacityClass,
    GazeClass,
    HesitationType,
    NegationType,
    TaskClass,
)

CFG = PartnerModelConfig()

AFFIRM = Action(NegationType.AFFIRMATION, HesitationType.NONE)
AFFIRM_HES = Action(NegationType.AFFIRMATION, HesitationType.HESITATION)
NEGAFF = Action(NegationType.NEGATION_AFFIRMATION, HesitationType.NONE)
NEGAFF_HES = Action(NegationType.NEGATION_AFFIRMATION, HesitationType.HESITATION)
NEGATE = Action(NegationType.NEGATION, HesitationType.NONE)
NEGATE_HES = Action(NegationType.NEGATION, HesitationType.HESITATION)


class TestCapacity:
    def test_repeated_action_recovers(self):
        state = CapacityState(value=50, last_action=AFFIRM)
        assert update_capacity(state, AFFIRM, CFG).value == 55

    def test_repeated_action_clamps_at_max(self):
        state = CapacityState(value=100, last_action=NEGATE)
        assert update_capacity(state, NEGATE, CFG).value == 100

    def test_demanding_action_clamps_at_min(self):
        state = CapacityState(value=15, last_action=None)
        assert update_capacity(state, NEGATE, CFG).value == 0

    def test_demanding_costs_twenty(self):
        state = CapacityState(value=100)
        assert update_capacity(state, NEGATE, CFG).value == 80
        assert update_capacity(state, NEGAFF, CFG).value == 80

    def test_non_demanding_costs_ten(self):
        state = CapacityState(value=100)
        assert update_capacity(state, AFFIRM, CFG).value == 90
        # Any hesitation-bearing action gives processing time: non-demanding.
        assert update_capacity(state, NEGATE_HES, CFG).value == 90
        assert update_capacity(state, NEGAFF_HES, CFG).value == 90
        assert update_capacity(state, AFFIRM_HES, CFG).value == 90

    def test_first_action_is_not_repeated(self):
        state = CapacityState(value=50, last_action=None)
        assert update_capacity(state, AFFIRM, CFG).value == 40

    def test_last_action_is_recorded(self):
        state = CapacityState(value=50)
        assert update_capacity(state, NEGATE, CFG).last_action == NEGATE

    def test_monotone_recovery_over_repeats(self):
        state = CapacityState(value=30, last_action=AFFIRM)
        for _ in range(25):
            previous = state.value
            state = update_capacity(state, AFFIRM, CFG)
            assert state.value >= previous
        assert state.value == 100

    @given(
        value=st.floats(min_value=0, max_value=100),
        repeated=st.booleans(),
        action=st.sampled_from(
            [AFFIRM, AFFIRM_HES, NEGAFF, NEGAFF_HES, NEGATE, NEGATE_HES]
        ),
    )
    def test_matches_oracle(self, value, repeated, action):
        last = action if repeated else None
        got = update_capacity(CapacityState(value=value, last_action=last), action, CFG)
        expected = oracle_capacity(value, repeated, CFG.is_demanding(action))
        assert got.value == pytest.approx(expected, abs=1e-9)
        assert CFG.capacity_min <= got.value <= CFG.capacity_max


class TestGazeWeights:
    def test_fixation_shifts_weight(self):
        state = GazeState(weights=(50, 30, 20))
        got = update_gaze_weights(state, 0, CFG)
        assert got.weights == pytest.approx((60, 25, 15))

    def test_gain_clamped_at_capacity_max(self):
        state = GazeState(weights=(98, 1, 1))
        got = update_gaze_weights(state, 0, CFG)
        assert got.weights == pytest.approx((100, 0, 0))

    def test_saturated_fixation_is_noop(self):
        state = GazeState(weights=(100, 0, 0))
        got = update_gaze_weights(state, 0, CFG)
        assert got.weights == pytest.approx((100, 0, 0))

    def test_out_of_range_target_rejected(self):
        state = GazeState(weights=(50, 30, 20))
        with pytest.raises(ValueError):
            update_gaze_weights(state, 3, CFG)
        with pytest.raises(ValueError):
            update_gaze_weights(state, -1, CFG)

    @given(
        weights=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_matches_oracle(self, weights, data):
        fixated = data.draw(st.integers(min_value=0, max_value=len(weights) - 1))
        state = GazeState(weights=tuple(weights))
        got = update_gaze_weights(state, fixated, CFG)
        expected = oracle_weights(list(weights), fixated)
        assert list(got.weights) == pytest.approx(expected, abs=1e-9)

    def test_conservation_without_clamp(self):
        rng = random.Random(7)
        state = GazeState(weights=tuple(CFG.initial_weights()))
        for _ in range(200):
            fixated = rng.randrange(3)
            nxt = update_gaze_weights(state, fixated, CFG)
            if min(nxt.weights) > 0 and max(nxt.weights) < 100:
                assert sum(nxt.weights) == pytest.approx(sum(state.weights), abs=1e-9)
            state = nxt


class TestFocusShift:
    def test_change_increments(self):
        state = GazeState(weights=(1, 1, 1), focus_shift=3, last_focus=1)
        assert update_focus_shift(state, 2, CFG).focus_shift == 4

    def test_clamped_at_max(self):
        state = GazeState(weights=(1, 1, 1), focus_shift=10, last_focus=1)
        assert update_focus_shift(state, 2, CFG).focus_shift == 10

    def test_same_target_decrements_and_clamps(self):
        state = GazeState(weights=(1, 1, 1), focus_shift=0, last_focus=2)
        assert update_focus_shift(state, 2, CFG).focus_shift == 0

    def test_unset_last_focus_counts_as_change(self):
        state = GazeState(weights=(1, 1, 1), focus_shift=0, last_focus=None)
        got = update_focus_shift(state, 0, CFG)
        assert got.focus_shift == 1
        assert got.last_focus == 0

    @given(
        shift=st.floats(min_value=0, max_value=10),
        last=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
        fixated=st.integers(min_value=0, max_value=2),
    )
    def test_matches_oracle(self, shift, last, fixated):
        state = GazeState(weights=(1, 1, 1), focus_shift=shift, last_focus=last)
        got = update_focus_shift(state, fixated, CFG)
        changed = last is None or last != fixated
        assert got.focus_shift == pytest.approx(oracle_focus_shift(shift, changed), abs=1e-9)


class TestApplyGaze:
    @settings(max_examples=300)
    @given(
        weights=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6),
        shift=st.floats(min_value=0, max_value=10),
        data=st.data(),
    )
    def test_matches_composition(self, weights, shift, data):
        n = len(weights)
        last = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
        fixated = data.draw(st.integers(min_value=-2, max_value=n + 1))
        state = GazeState(weights=tuple(weights), focus_shift=shift, last_focus=last)
        model = PartnerModel()
        model.gaze = state
        try:
            expected = update_focus_shift(update_gaze_weights(state, fixated, CFG), fixated, CFG)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                model.apply_gaze(fixated)
            assert str(raised.value) == str(exc)
            assert model.gaze == state
        else:
            model.apply_gaze(fixated)
            assert model.gaze == expected


class TestTaskAwareness:
    def test_double_positive_is_success(self):
        ta = record_task_outcome(TaskAwareness(), "t", True, True)
        assert ta.classify("t") is TaskClass.SUCCESS

    def test_double_negative_is_failure(self):
        ta = record_task_outcome(TaskAwareness(), "t", False, False)
        assert ta.classify("t") is TaskClass.FAILURE

    def test_mixed_cases(self):
        ta = record_task_outcome(TaskAwareness(), "t", True, False)
        assert ta.classify("t") is TaskClass.MISC_ENABLEDNESS
        ta = record_task_outcome(TaskAwareness(), "t", False, True)
        assert ta.classify("t") is TaskClass.MISC_COMPREHENSION

    def test_unseen_task_is_unknown(self):
        assert TaskAwareness().classify("never-seen") is TaskClass.UNKNOWN

    def test_latest_outcome_wins(self):
        ta = TaskAwareness()
        ta = record_task_outcome(ta, "t", False, False)
        ta = record_task_outcome(ta, "t", True, True)
        assert ta.classify("t") is TaskClass.SUCCESS

    def test_record_outcome_updates_in_place(self):
        # A copy per outcome would make each episode cost grow with the
        # number of tasks the session has seen.
        partner = PartnerModel()
        outcomes = partner.awareness.outcomes
        for index in range(3):
            partner.record_outcome(f"t{index}", True, False)
        assert partner.awareness.outcomes is outcomes
        assert len(outcomes) == 3
        assert partner.classify("t2").task is TaskClass.MISC_ENABLEDNESS


class TestClassification:
    def test_capacity_threshold(self):
        assert classify_capacity(CapacityState(value=50), CFG) is CapacityClass.HIGH
        assert classify_capacity(CapacityState(value=49.999), CFG) is CapacityClass.LOW
        assert classify_capacity(CapacityState(value=0), CFG) is CapacityClass.LOW

    def test_focused_needs_share_and_stability(self):
        state = GazeState(weights=(70, 20, 10), focus_shift=1, last_focus=0)
        assert classify_gaze(state, CFG) is GazeClass.FOCUSED

    def test_low_share_is_distracted(self):
        state = GazeState(weights=(35, 35, 30), focus_shift=0, last_focus=0)
        assert classify_gaze(state, CFG) is GazeClass.DISTRACTED

    def test_high_shift_is_distracted_even_with_high_share(self):
        state = GazeState(weights=(90, 5, 5), focus_shift=7, last_focus=0)
        assert classify_gaze(state, CFG) is GazeClass.DISTRACTED

    def test_middle_ground_is_uncertain(self):
        state = GazeState(weights=(50, 30, 20), focus_shift=2, last_focus=0)
        assert classify_gaze(state, CFG) is GazeClass.UNCERTAIN

    def test_focused_share_with_too_many_shifts_is_uncertain(self):
        state = GazeState(weights=(70, 20, 10), focus_shift=5, last_focus=0)
        assert classify_gaze(state, CFG) is GazeClass.UNCERTAIN

    def test_share_boundaries(self):
        # share exactly 0.4 is not distracted; share exactly 0.6 is focused
        at_040 = GazeState(weights=(40, 30, 30), focus_shift=0, last_focus=0)
        assert classify_gaze(at_040, CFG) is GazeClass.UNCERTAIN
        at_060 = GazeState(weights=(60, 20, 20), focus_shift=3, last_focus=0)
        assert classify_gaze(at_060, CFG) is GazeClass.FOCUSED

    def test_fresh_model_counts_as_focused(self):
        # Before any fixation there is no evidence of distraction.
        state = GazeState(weights=(100 / 3, 100 / 3, 100 / 3), focus_shift=0, last_focus=None)
        assert classify_gaze(state, CFG) is GazeClass.FOCUSED


class TestPartnerModel:
    def test_example_trace_high_focused_success(self):
        model = PartnerModel()
        model.capacity = CapacityState(value=80)
        model.gaze = GazeState(weights=(70, 20, 10), focus_shift=1, last_focus=0)
        model.record_outcome("task", True, True)
        model.record_outcome("task", True, True)
        triple = model.classify("task")
        assert triple.as_labels() == ("high", "focused", "success")

    def test_fresh_model_unseen_task(self):
        triple = PartnerModel().classify("unseen")
        assert triple.capacity is CapacityClass.HIGH
        assert triple.gaze is GazeClass.FOCUSED
        assert triple.task is TaskClass.UNKNOWN

    def test_zero_capacity_always_low(self):
        model = PartnerModel()
        model.capacity = CapacityState(value=0)
        assert model.classify("x").capacity is CapacityClass.LOW

    def test_gaze_event_updates_weights_then_shift(self):
        model = PartnerModel()
        model.apply_gaze(0)
        assert model.gaze.last_focus == 0
        assert model.gaze.focus_shift == 1
        assert model.gaze.weights[0] == pytest.approx(100 / 3 + 10)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            PartnerModel().apply_gaze(3)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=2), max_size=60), st.integers(0, 5))
    def test_clamping_invariants_and_determinism(self, targets, n_actions):
        actions = [AFFIRM, NEGATE, NEGAFF_HES, AFFIRM_HES, NEGATE_HES, NEGAFF][:n_actions]

        def play():
            model = PartnerModel()
            for target in targets:
                model.apply_gaze(target)
            for action in actions:
                model.apply_action(action)
            return model

        first, second = play(), play()
        assert CFG.capacity_min <= first.capacity.value <= CFG.capacity_max
        assert all(CFG.weight_min <= w <= CFG.capacity_max for w in first.gaze.weights)
        assert CFG.shift_min <= first.gaze.focus_shift <= CFG.shift_max
        assert first.capacity == second.capacity
        assert first.gaze == second.gaze

    def test_classification_totality(self):
        rng = random.Random(3)
        model = PartnerModel()
        for step in range(300):
            model.apply_gaze(rng.randrange(3))
            if step % 3 == 0:
                model.apply_action(NEGATE if step % 2 else AFFIRM)
            if step % 5 == 0:
                model.record_outcome("t", rng.random() < 0.5, rng.random() < 0.5)
            triple = model.classify("t")
            assert isinstance(triple.capacity, CapacityClass)
            assert isinstance(triple.gaze, GazeClass)
            assert isinstance(triple.task, TaskClass)
