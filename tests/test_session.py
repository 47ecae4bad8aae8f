import csv
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_reward, oracle_tp_score
from scaffolder.policy import Hyperparameters, init_from_scoring
from scaffolder.scoring import reduce_observation
from scaffolder.session import (
    EpisodeRecord,
    Session,
    SessionConfig,
    SessionStateError,
    TaskPerformance,
    episode_reward,
    timed_performance_score,
    write_episode_csv,
)
from scaffolder.states import (
    Action,
    CognitiveState,
    HesitationType,
    NegationType,
)

AFFIRM = Action(NegationType.AFFIRMATION, HesitationType.NONE)


def make_session(default_table, epsilon=0.0, seed=0):
    hyper = Hyperparameters(epsilon=epsilon)
    qtable = init_from_scoring(default_table, hyper)
    return Session(default_table, qtable, rng=random.Random(seed))


def perf(ok_a=True, t_a=0.0, ok_b=True, t_b=0.0):
    return TaskPerformance(
        comprehension_ok=ok_a,
        comprehension_time=t_a,
        enabledness_ok=ok_b,
        enabledness_time=t_b,
    )


class TestTimedScore:
    def test_instant_success_is_one(self):
        assert timed_performance_score(True, 0.0, 0.1) == 1.0

    def test_ten_seconds_decays_to_e_minus_one(self):
        assert timed_performance_score(True, 10.0, 0.1) == pytest.approx(0.36788, abs=1e-5)

    def test_failure_flips_sign(self):
        assert timed_performance_score(False, 10.0, 0.1) == pytest.approx(-0.36788, abs=1e-5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            timed_performance_score(True, -1.0, 0.1)

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError):
            timed_performance_score(True, math.inf, 0.1)

    @given(
        success=st.booleans(),
        elapsed=st.floats(min_value=0, max_value=100),
        decay=st.floats(min_value=0, max_value=1),
    )
    def test_matches_oracle(self, success, elapsed, decay):
        got = timed_performance_score(success, elapsed, decay)
        assert got == pytest.approx(oracle_tp_score(success, elapsed, decay), abs=1e-9)
        assert -1.0 <= got <= 1.0


class TestReward:
    def test_instant_double_success(self):
        assert episode_reward(perf()) == 1.0

    def test_mixed_outcome_at_equal_times_is_zero(self):
        assert episode_reward(perf(True, 3.0, False, 3.0)) == 0.0

    def test_double_failure_at_ten_seconds(self):
        assert episode_reward(perf(False, 10.0, False, 10.0)) == pytest.approx(
            -0.36788, abs=1e-5
        )

    def test_negative_time_rejected_at_construction(self):
        with pytest.raises(ValueError):
            perf(t_a=-0.5)

    @given(
        ok_a=st.booleans(),
        t_a=st.floats(min_value=0, max_value=60),
        ok_b=st.booleans(),
        t_b=st.floats(min_value=0, max_value=60),
        scale=st.floats(min_value=0.1, max_value=3),
    )
    def test_matches_oracle_and_bounds(self, ok_a, t_a, ok_b, t_b, scale):
        got = episode_reward(perf(ok_a, t_a, ok_b, t_b), decay=0.1, scale=scale)
        assert got == pytest.approx(
            oracle_reward(ok_a, t_a, ok_b, t_b, 0.1, scale), abs=1e-9
        )
        assert -scale <= got + 1e-12
        assert got <= scale + 1e-12


class TestSessionPipeline:
    def test_fresh_session_unseen_task(self, default_table):
        session = make_session(default_table)
        result = session.query("assemble")
        assert result.triple.as_labels() == ("high", "focused", "unknown")
        assert result.state is CognitiveState.ENGAGED_OBSERVER
        assert result.action == AFFIRM

    def test_reward_feeds_q_update(self, default_table):
        session = make_session(default_table)
        result = session.query("assemble")
        assert session.qtable.value(result.state, result.action) == 0.5
        session.complete(perf())
        # 0.5 + 0.25 * (1.0 - 0.5) with the next state's bootstrap scaled by gamma=0
        assert session.qtable.value(result.state, result.action) == pytest.approx(0.625)

    def test_capacity_recovers_on_repeated_action(self, default_table):
        session = make_session(default_table)
        session.query("assemble")
        session.complete(perf(False, 1.0, False, 1.0))
        first = session.partner.capacity.value
        session.query("assemble")
        session.complete(perf(False, 1.0, False, 1.0))
        second = session.partner.capacity.value
        assert first == 90.0
        assert second == 95.0

    def test_next_state_reflects_recorded_outcome(self, default_table):
        session = make_session(default_table)
        session.query("assemble")
        session.complete(perf())
        triple = session.partner.classify("assemble")
        assert triple.task.value == "success"

    def test_query_while_pending_rejected(self, default_table):
        session = make_session(default_table)
        session.query("assemble")
        with pytest.raises(SessionStateError):
            session.query("assemble")

    def test_complete_without_query_rejected(self, default_table):
        session = make_session(default_table)
        with pytest.raises(SessionStateError):
            session.complete(perf())

    def test_abort_records_episode_without_update(self, default_table):
        session = make_session(default_table)
        result = session.query("assemble")
        record = session.abort_pending()
        assert record.reward == 0.0
        assert record.index == 1
        assert session.qtable.value(result.state, result.action) == 0.5
        assert session.qtable.visit_count(result.state, result.action) == 0
        assert session.abort_pending() is None

    def test_cumulative_reward_is_prefix_sum(self, default_table):
        session = make_session(default_table)
        rng = random.Random(4)
        for index in range(10):
            session.query(f"task-{index % 3}")
            session.complete(
                perf(rng.random() < 0.5, rng.uniform(0, 5), rng.random() < 0.5, rng.uniform(0, 5))
            )
        total = 0.0
        for record in session.records:
            total += record.reward
            assert record.cumulative_reward == pytest.approx(total)
            assert -1.0 <= record.reward <= 1.0

    def test_step_runs_whole_episode(self, default_table):
        session = make_session(default_table)

        def environment(triple, action):
            return perf(True, 1.0, True, 2.0)

        record = session.step([0, 1], "assemble", environment)
        assert record.index == 1
        assert record.reward == pytest.approx(
            (math.exp(-0.1) + math.exp(-0.2)) / 2
        )
        assert session.partner.gaze.last_focus == 1

    def test_unknown_gaze_target_rejected(self, default_table):
        session = make_session(default_table)
        with pytest.raises(ValueError):
            session.ingest_gaze(5)

    def test_determinism_bit_for_bit(self, default_table):
        def play(seed):
            session = make_session(default_table, epsilon=0.75, seed=seed)
            rng = random.Random(seed + 1000)

            def environment(triple, action):
                return perf(
                    rng.random() < 0.7,
                    rng.uniform(0, 10),
                    rng.random() < 0.7,
                    rng.uniform(0, 10),
                )

            for index in range(30):
                session.step([index % 3], f"task-{index % 4}", environment)
            return session.records

        assert play(7) == play(7)
        assert play(7) != play(8)

    @settings(max_examples=30)
    @given(scale=st.floats(min_value=0.5, max_value=2.0), seed=st.integers(0, 1000))
    def test_reward_bounds_invariant(self, default_table, scale, seed):
        hyper = Hyperparameters(epsilon=0.5)
        qtable = init_from_scoring(default_table, hyper)
        session = Session(
            default_table,
            qtable,
            config=SessionConfig(reward_scale=scale),
            rng=random.Random(seed),
        )
        rng = random.Random(seed)
        for _ in range(10):
            session.query("t")
            session.complete(
                perf(rng.random() < 0.5, rng.uniform(0, 20), rng.random() < 0.5, rng.uniform(0, 20))
            )
        for record in session.records:
            assert -scale - 1e-12 <= record.reward <= scale + 1e-12


class TestEpisodeCsv:
    def test_schema_and_content(self, default_table, tmp_path):
        session = make_session(default_table)
        session.query("assemble")
        session.complete(perf(True, 2.0, True, 4.0))
        path = tmp_path / "episodes.csv"
        write_episode_csv(session.records, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == [
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
        assert rows[0]["episode"] == "1"
        assert rows[0]["capacity_class"] == "high"
        assert rows[0]["gaze_class"] == "focused"
        assert rows[0]["task_class"] == "unknown"
        assert rows[0]["cognitive_state"] == "EngagedObserver"
        assert rows[0]["negation_type"] == "affirmation"
        assert rows[0]["hesitation_type"] == "none"
        assert float(rows[0]["reward"]) == pytest.approx(
            (math.exp(-0.2) + math.exp(-0.4)) / 2
        )
