import csv
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_epsilon_greedy, oracle_epsilon_schedule, oracle_q_update
from scaffolder.policy import Hyperparameters, QTable, _below, init_from_scoring
from scaffolder.scoring import ScoringTable
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
            {"q_init": math.nan},
            {"q_init": math.inf},
            {"q_init": -math.inf},
            {"epsilon_min": math.inf},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)


class TestInit:
    def test_exactly_six_nonzero_cells(self, default_table):
        qtable = init_from_scoring(default_table)
        nonzero = [
            (state, action)
            for state in STATES
            for action in ACTIONS
            if qtable.value(state, action) != 0.0
        ]
        assert len(nonzero) == 6
        states_with_nonzero = {state for state, _ in nonzero}
        assert states_with_nonzero == set(STATES)

    def test_engaged_observer_row(self, default_table):
        qtable = init_from_scoring(default_table)
        for action in ACTIONS:
            expected = 0.5 if action == AFFIRM else 0.0
            assert qtable.value(EO, action) == expected

    def test_nonzero_cells_sit_on_ground_truth_actions(self, default_table):
        qtable = init_from_scoring(default_table)
        for state in STATES:
            assert qtable.value(state, GROUND_TRUTH_ACTION[state]) == 0.5

    def test_zero_q_init_is_blank_table(self, default_table):
        qtable = init_from_scoring(default_table, Hyperparameters(q_init=0.0))
        assert all(v == 0.0 for row in qtable.values for v in row)

    def test_visits_start_at_zero(self, default_table):
        qtable = init_from_scoring(default_table)
        assert all(v == 0 for row in qtable.visits for v in row)

    def test_not_preconfigured_is_blank_table(self, default_table):
        hyper = Hyperparameters(q_init=0.75)
        qtable = init_from_scoring(default_table, hyper, preconfigured=False)
        blank = QTable(hyper)
        assert qtable.values == blank.values
        assert qtable.visits == blank.visits
        assert qtable.hyper is hyper

    def test_prior_follows_the_table_image(self, default_table):
        # Every triple of an all-zero table reduces to EngagedObserver, so only
        # its cell and Uncertain's (which no triple reaches) get the prior.
        table = ScoringTable(entries={key: 0.0 for key in default_table.entries})
        qtable = init_from_scoring(table, Hyperparameters(q_init=0.75))
        seeded = {
            (state, action)
            for state in STATES
            for action in ACTIONS
            if qtable.value(state, action) != 0.0
        }
        uncertain = CognitiveState.UNCERTAIN
        assert seeded == {(EO, AFFIRM), (uncertain, GROUND_TRUTH_ACTION[uncertain])}
        assert all(qtable.value(state, action) == 0.75 for state, action in seeded)


class TestSelect:
    def test_pure_exploitation_unique_argmax(self, default_table):
        qtable = init_from_scoring(default_table, Hyperparameters(epsilon=0.0))
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

    @given(
        values=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.25]), min_size=6, max_size=6),
        visits=st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
        epsilon=st.sampled_from([0.0, 0.3, 0.75, 1.0]),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    @settings(max_examples=300)
    def test_signed_zero_ties_and_tried_rows_match_oracle(self, values, visits, epsilon, seed):
        # -0.0 == 0.0 is a tie, and a row with no untried action explores
        # over all six; both must draw as the oracle does.
        qtable = QTable(Hyperparameters(epsilon=epsilon))
        qtable.values[4] = list(values)
        qtable.visits[4] = list(visits)
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = oracle_epsilon_greedy(values, visits, qtable.epsilon, reference)
            assert qtable.select_index(4, rng) == expected
            assert rng.getstate() == reference.getstate()

    @given(n=st.integers(min_value=1, max_value=64), seed=st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=300)
    def test_below_draws_as_randrange(self, n, seed):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _below(rng, n) == reference.randrange(n)
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
    def test_greedy_action_converges_under_stationary_reward(self, default_table):
        # +1 for one target action, -1 otherwise; exploration must die out
        # and the greedy choice settle on the rewarded action.
        target = ACTIONS[3]
        converged = 0
        runs = 500
        for seed in range(runs):
            rng = random.Random(seed)
            hyper = Hyperparameters(epsilon=0.75, epsilon_min=0.0)
            qtable = init_from_scoring(default_table, hyper)
            for _ in range(200):
                action = qtable.select_action(EO, rng)
                reward = 1.0 if action == target else -1.0
                qtable.update(EO, action, reward, EO)
            greedy = max(ACTIONS, key=lambda a: qtable.value(EO, a))
            if greedy == target:
                converged += 1
        assert converged / runs >= 0.99


class TestSnapshot:
    def test_round_trip(self, default_table, tmp_path):
        qtable = init_from_scoring(default_table)
        rng = random.Random(0)
        for _ in range(20):
            action = qtable.select_action(EO, rng)
            qtable.update(EO, action, rng.uniform(-1, 1), EO)
        path = tmp_path / "snapshot.csv"
        qtable.save(path)
        loaded = QTable.load(path, qtable.hyper)
        assert loaded.values == qtable.values
        assert loaded.visits == qtable.visits

    @staticmethod
    def save_with(path, column, bad):
        """Save a blank table with ``bad`` in ``column`` of its eighth row; returns the rows."""
        QTable().save(path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        rows[7][column] = bad
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return rows

    @pytest.mark.parametrize(
        "column, bad",
        [
            ("value", "nan"),
            ("value", "inf"),
            ("value", "-inf"),
            ("visits", "-1"),
            ("value", "x"),
            ("visits", "1.5"),
        ],
    )
    def test_non_finite_value_or_negative_visits_rejected(self, tmp_path, column, bad):
        # A NaN cell would be picked as the argmax (list.count and list.index
        # match it by identity), and an inf cell turns NaN after one update.
        path = tmp_path / "snapshot.csv"
        rows = self.save_with(path, column, bad)
        with pytest.raises(ValueError) as info:
            QTable.load(path)
        assert rows[7]["state"] in str(info.value)
        assert rows[7]["action"] in str(info.value)

    @pytest.mark.parametrize(
        "column, bad",
        [("state", "Calm"), ("action", "shout"), ("action", "affirmation+mumble")],
    )
    def test_unknown_label_names_its_row(self, tmp_path, column, bad):
        path = tmp_path / "snapshot.csv"
        self.save_with(path, column, bad)
        # The header is row 1, so rows[7] is row 9.
        with pytest.raises(ValueError, match=re.escape(f"row 9: unknown {column} {bad!r}")):
            QTable.load(path)

    @staticmethod
    def rewrite(path, keep):
        """Rewrite a saved snapshot, keeping the columns and rows ``keep`` picks."""
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(keep(rows))

    @pytest.mark.parametrize(
        "keep, message",
        [
            (lambda rows: rows[:2], "cell (EngagedObserver, affirmation+hesitation) is missing"),
            (
                lambda rows: rows[:8] + rows[9:],
                "cell (EngagedMisinterpreter, affirmation+hesitation) is missing",
            ),
            (
                lambda rows: rows + [rows[4]],
                "cell (EngagedObserver, negation_affirmation+hesitation) appears twice",
            ),
            (
                lambda rows: rows[:3] + [rows[1]] + rows[3:],
                "cell (EngagedObserver, affirmation) appears twice",
            ),
        ],
        ids=["one_row", "one_cell_missing", "repeated_at_end", "repeated_at_start"],
    )
    def test_partial_or_repeated_snapshot_rejected(self, tmp_path, keep, message):
        # Before, a missing cell loaded as value 0 with no visits, and a
        # repeated cell kept its last row.
        path = tmp_path / "snapshot.csv"
        QTable().save(path)
        self.rewrite(path, keep)
        with pytest.raises(ValueError, match=re.escape(message)):
            QTable.load(path)

    @pytest.mark.parametrize("column", range(4))
    def test_missing_column_rejected(self, tmp_path, column):
        path = tmp_path / "snapshot.csv"
        QTable().save(path)
        self.rewrite(path, lambda rows: [row[:column] + row[column + 1 :] for row in rows])
        with pytest.raises(ValueError, match="state,action,value,visits"):
            QTable.load(path)

    @pytest.mark.parametrize("keep", [lambda row: row[:3], lambda row: row + ["1"]], ids=["short", "long"])
    def test_ragged_row_rejected(self, tmp_path, keep):
        path = tmp_path / "snapshot.csv"
        QTable().save(path)
        self.rewrite(path, lambda rows: rows[:4] + [keep(rows[4])] + rows[5:])
        with pytest.raises(ValueError, match="expected 4"):
            QTable.load(path)
