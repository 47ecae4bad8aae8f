import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_epsilon_greedy, oracle_epsilon_schedule, oracle_q_update
from scaffolder.policy import Hyperparameters, QTable, init_from_scoring
from scaffolder.states import (
    ACTIONS,
    GROUND_TRUTH_ACTION,
    STATES,
    Action,
    CognitiveState,
    HesitationType,
    NegationType,
)

EO = CognitiveState.ENGAGED_OBSERVER
AFFIRM = Action(NegationType.AFFIRMATION, HesitationType.NONE)


class TestHyperparameters:
    def test_defaults(self):
        hyper = Hyperparameters()
        assert hyper.alpha == 0.25
        assert hyper.gamma == 0.0
        assert hyper.epsilon == 0.75
        assert hyper.epsilon_decay == 0.95
        assert hyper.epsilon_min == 0.01
        assert hyper.q_init == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"gamma": 1.0},
            {"gamma": -0.1},
            {"epsilon": 1.2},
            {"epsilon": -0.1},
            {"epsilon_decay": 0.0},
            {"epsilon_min": -0.5},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)


class TestInit:
    def test_exactly_six_nonzero_cells(self, truth):
        qtable = init_from_scoring(truth, q_init=0.5)
        nonzero = [
            (state, action)
            for state in STATES
            for action in ACTIONS
            if qtable.value(state, action) != 0.0
        ]
        assert len(nonzero) == 6
        states_with_nonzero = {state for state, _ in nonzero}
        assert states_with_nonzero == set(STATES)

    def test_engaged_observer_row(self, truth):
        qtable = init_from_scoring(truth, q_init=0.5)
        for action in ACTIONS:
            expected = 0.5 if action == AFFIRM else 0.0
            assert qtable.value(EO, action) == expected

    def test_nonzero_cells_sit_on_ground_truth_actions(self, truth):
        qtable = init_from_scoring(truth, q_init=0.5)
        for state in STATES:
            assert qtable.value(state, GROUND_TRUTH_ACTION[state]) == 0.5

    def test_zero_q_init_is_blank_table(self, truth):
        qtable = init_from_scoring(truth, q_init=0.0)
        assert all(v == 0.0 for row in qtable.values for v in row)

    def test_visits_start_at_zero(self, truth):
        qtable = init_from_scoring(truth, q_init=0.5)
        assert all(v == 0 for row in qtable.visits for v in row)

    def test_incomplete_map_rejected(self, truth):
        partial = dict(list(truth.items())[:29])
        with pytest.raises(ValueError):
            init_from_scoring(partial, q_init=0.5)


class TestSelect:
    def test_pure_exploitation_unique_argmax(self, truth):
        qtable = init_from_scoring(truth, q_init=0.5, hyper=Hyperparameters(epsilon=0.0))
        rng = random.Random(0)
        for _ in range(50):
            assert qtable.select_action(EO, rng) == AFFIRM

    def test_full_exploration_prefers_unvisited(self):
        hyper = Hyperparameters(epsilon=1.0, epsilon_decay=1.0, epsilon_min=1.0)
        qtable = QTable(hyper)
        qtable.visits[0][0] = 3
        rng = random.Random(123)
        counts = Counter(qtable.select_action(STATES[0], rng) for _ in range(100_000))
        assert ACTIONS[0] not in counts
        for action in ACTIONS[1:]:
            assert counts[action] / 100_000 == pytest.approx(0.2, abs=0.01)

    def test_exploration_covers_all_when_all_visited(self):
        hyper = Hyperparameters(epsilon=1.0, epsilon_decay=1.0, epsilon_min=1.0)
        qtable = QTable(hyper)
        for index in range(6):
            qtable.visits[0][index] = 1
        rng = random.Random(7)
        seen = {qtable.select_action(STATES[0], rng) for _ in range(500)}
        assert seen == set(ACTIONS)

    def test_exploit_ties_broken_uniformly(self):
        qtable = QTable(Hyperparameters(epsilon=0.0))
        qtable.values[0][2] = 0.7
        qtable.values[0][5] = 0.7
        rng = random.Random(99)
        counts = Counter(qtable.select_action(STATES[0], rng) for _ in range(20_000))
        assert set(counts) == {ACTIONS[2], ACTIONS[5]}
        assert counts[ACTIONS[2]] / 20_000 == pytest.approx(0.5, abs=0.02)

    def test_unvisited_first_until_row_complete(self):
        hyper = Hyperparameters(epsilon=1.0, epsilon_decay=1.0, epsilon_min=1.0)
        qtable = QTable(hyper)
        rng = random.Random(5)
        chosen = []
        for _ in range(6):
            action = qtable.select_action(STATES[0], rng)
            chosen.append(action)
            qtable.update(STATES[0], action, 0.0, STATES[0])
        assert len(set(chosen)) == 6

    @given(
        values=st.lists(st.sampled_from([0.0, 0.5, -0.25, 1.0]), min_size=6, max_size=6),
        visits=st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6),
        epsilon=st.sampled_from([0.0, 0.3, 0.75, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200)
    def test_choice_and_draws_match_oracle(self, values, visits, epsilon, seed):
        qtable = QTable(Hyperparameters(epsilon=epsilon))
        qtable.values[2] = list(values)
        qtable.visits[2] = list(visits)
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = oracle_epsilon_greedy(values, visits, qtable.epsilon, reference)
            assert qtable.select_index(2, rng) == expected
            assert rng.getstate() == reference.getstate()

    def test_epsilon_decays_after_every_selection(self):
        qtable = QTable(Hyperparameters())
        rng = random.Random(1)
        qtable.select_action(EO, rng)
        assert qtable.epsilon == pytest.approx(0.7125, abs=1e-12)

    def test_epsilon_floor(self):
        qtable = QTable(Hyperparameters())
        rng = random.Random(1)
        for _ in range(500):
            qtable.select_action(EO, rng)
        assert qtable.epsilon == 0.01

    def test_epsilon_never_increases_from_zero(self):
        qtable = QTable(Hyperparameters(epsilon=0.0))
        rng = random.Random(1)
        for _ in range(10):
            qtable.select_action(EO, rng)
            assert qtable.epsilon == 0.0

    @given(
        epsilon=st.floats(min_value=0.01, max_value=1.0),
        decay=st.floats(min_value=0.5, max_value=1.0),
        steps=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=60)
    def test_epsilon_schedule_matches_oracle(self, epsilon, decay, steps):
        hyper = Hyperparameters(epsilon=epsilon, epsilon_decay=decay)
        qtable = QTable(hyper)
        rng = random.Random(0)
        for _ in range(steps):
            qtable.select_action(EO, rng)
        expected = oracle_epsilon_schedule(epsilon, decay, hyper.epsilon_min, steps)
        assert qtable.epsilon == pytest.approx(expected, abs=1e-12)
        # closed form while above the floor
        closed = max(epsilon * decay**steps, hyper.epsilon_min)
        assert qtable.epsilon == pytest.approx(closed, rel=1e-9)


class TestUpdate:
    def test_update_example(self):
        qtable = QTable(Hyperparameters())
        qtable.values[0][0] = 0.5
        got = qtable.update(STATES[0], ACTIONS[0], 1.0, STATES[1])
        assert got == pytest.approx(0.625, abs=1e-12)

    def test_zero_fixed_point(self):
        qtable = QTable(Hyperparameters())
        got = qtable.update(STATES[0], ACTIONS[0], 0.0, STATES[1])
        assert got == 0.0

    def test_bootstrap_with_gamma(self):
        qtable = QTable(Hyperparameters(gamma=0.5))
        qtable.values[0][0] = 0.5
        qtable.values[1][3] = 1.0
        got = qtable.update(STATES[0], ACTIONS[0], 0.0, STATES[1])
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_visits_increment(self):
        qtable = QTable(Hyperparameters())
        qtable.update(STATES[2], ACTIONS[4], 0.3, STATES[2])
        qtable.update(STATES[2], ACTIONS[4], 0.3, STATES[2])
        assert qtable.visit_count(STATES[2], ACTIONS[4]) == 2
        assert sum(sum(row) for row in qtable.visits) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward_rejected(self, bad):
        qtable = QTable(Hyperparameters())
        with pytest.raises(ValueError):
            qtable.update(STATES[0], ACTIONS[0], bad, STATES[1])

    @given(
        rewards=st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=40),
        q_init=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60)
    def test_gamma_zero_values_stay_in_convex_hull(self, rewards, q_init):
        qtable = QTable(Hyperparameters(gamma=0.0))
        qtable.values[0][0] = q_init
        for reward in rewards:
            qtable.update(STATES[0], ACTIONS[0], reward, STATES[1])
            bounds = rewards + [q_init]
            assert min(bounds) - 1e-9 <= qtable.values[0][0] <= max(bounds) + 1e-9

    @given(
        value=st.floats(min_value=-2, max_value=2),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        gamma=st.floats(min_value=0.0, max_value=0.99),
        reward=st.floats(min_value=-1, max_value=1),
        next_max=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=100)
    def test_matches_oracle(self, value, alpha, gamma, reward, next_max):
        qtable = QTable(Hyperparameters(alpha=alpha, gamma=gamma))
        qtable.values[0][0] = value
        qtable.values[1] = [next_max] * 6
        got = qtable.update(STATES[0], ACTIONS[0], reward, STATES[1])
        assert got == pytest.approx(
            oracle_q_update(value, alpha, gamma, reward, next_max), abs=1e-9
        )


class TestConvergence:
    def test_greedy_action_converges_under_stationary_reward(self, truth):
        # +1 for one target action, -1 otherwise; exploration must die out
        # and the greedy choice settle on the rewarded action.
        target = ACTIONS[3]
        converged = 0
        runs = 500
        for seed in range(runs):
            rng = random.Random(seed)
            hyper = Hyperparameters(epsilon=0.75, epsilon_min=0.0)
            qtable = init_from_scoring(truth, q_init=0.5, hyper=hyper)
            for _ in range(200):
                action = qtable.select_action(EO, rng)
                reward = 1.0 if action == target else -1.0
                qtable.update(EO, action, reward, EO)
            greedy = max(ACTIONS, key=lambda a: qtable.value(EO, a))
            if greedy == target:
                converged += 1
        assert converged / runs >= 0.99


class TestSnapshot:
    def test_round_trip(self, truth, tmp_path):
        qtable = init_from_scoring(truth, q_init=0.5)
        rng = random.Random(0)
        for _ in range(20):
            action = qtable.select_action(EO, rng)
            qtable.update(EO, action, rng.uniform(-1, 1), EO)
        path = tmp_path / "snapshot.csv"
        qtable.save(path)
        loaded = QTable.load(path, qtable.hyper)
        assert loaded.values == qtable.values
        assert loaded.visits == qtable.visits
