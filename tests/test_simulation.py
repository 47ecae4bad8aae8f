import csv
import inspect
import itertools
import math
import pickle
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_run_simulation
from scaffolder import simulation
from scaffolder.config import SimulationConfig
from scaffolder.policy import Hyperparameters, QTable, init_from_scoring
from scaffolder.scoring import HESITATION, NEGATION, default_scoring_table, scaffolding_score
from scaffolder.simulation import (
    USER_KINDS,
    EpisodeScript,
    RunSpec,
    _outcome_matrix,
    make_user,
    recovery_episode,
    run_campaign,
    run_dynamic,
    run_simulation,
    run_sweep,
    simulate_outcome,
    summarize,
    write_campaign_csv,
    write_series_csv,
    write_sweep_csv,
)
from scaffolder.states import (
    ACTIONS,
    STATE_INDEX,
    Action,
    CapacityClass,
    GazeClass,
    HesitationType,
    NegationType,
    ObservationTriple,
    TaskClass,
    all_observation_triples,
)

T = ObservationTriple


def table_diff(left, right):
    return {key for key in left.entries if left.entries[key] != right.entries[key]}


def edited_table(table):
    """A rubric whose reduction differs from ``table``'s on some triples."""
    return table.with_entry("capacity", "low", NEGATION, 1).with_entry(
        "gaze", "focused", HESITATION, 0
    )


class TestMakeUser:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_user("E")

    def test_user_a_keeps_the_default_table(self, default_table):
        user = make_user("A")
        assert user.true_table.entries == default_table.entries

    def test_nesting_2_7_10(self, default_table):
        diffs = {
            kind: table_diff(make_user(kind).true_table, default_table)
            for kind in ("B", "C", "D")
        }
        assert len(diffs["B"]) == 2
        assert len(diffs["C"]) == 7
        assert len(diffs["D"]) == 10
        assert diffs["B"] < diffs["C"] < diffs["D"]

    def test_only_negation_column_perturbed(self, default_table):
        for kind in ("B", "C", "D"):
            diff = table_diff(make_user(kind).true_table, default_table)
            assert all(strategy == NEGATION for _, _, strategy in diff)
            for (category, observation, _strategy) in default_table.entries:
                assert make_user(kind).true_table.entry(
                    category, observation, HESITATION
                ) == default_table.entry(category, observation, HESITATION)

    def test_user_b_capacity_rows_inverted(self, default_table):
        table = make_user("B").true_table
        assert table.entry("capacity", "low", NEGATION) == 1
        assert table.entry("capacity", "high", NEGATION) == 0

    def test_user_c_task_rows(self):
        table = make_user("C").true_table
        assert table.entry("task", "unknown", NEGATION) == 1
        assert table.entry("task", "failure", NEGATION) == 1
        assert table.entry("task", "misc_comprehension", NEGATION) == 1
        assert table.entry("task", "misc_enabledness", NEGATION) == 0
        assert table.entry("task", "success", NEGATION) == 0

    def test_user_d_gaze_rows(self):
        table = make_user("D").true_table
        assert table.entry("gaze", "distracted", NEGATION) == 0
        assert table.entry("gaze", "uncertain", NEGATION) == 0
        assert table.entry("gaze", "focused", NEGATION) == 1

    def test_user_a_ground_truth_example(self, truth):
        triple = T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.SUCCESS)
        _, action = truth[triple]
        assert action == Action(NegationType.NEGATION_AFFIRMATION, HesitationType.NONE)

    def test_user_b_negation_score_example(self):
        triple = T(CapacityClass.LOW, GazeClass.FOCUSED, TaskClass.SUCCESS)
        a_score = scaffolding_score(make_user("A").true_table, triple, NEGATION)
        b_score = scaffolding_score(make_user("B").true_table, triple, NEGATION)
        assert a_score == pytest.approx(1 / 3)
        assert b_score == pytest.approx(2 / 3)

    def test_user_d_negation_score_example(self):
        triple = T(CapacityClass.HIGH, GazeClass.DISTRACTED, TaskClass.MISC_ENABLEDNESS)
        a_score = scaffolding_score(make_user("A").true_table, triple, NEGATION)
        d_score = scaffolding_score(make_user("D").true_table, triple, NEGATION)
        assert a_score == pytest.approx(1.0)
        assert d_score == 0.0


class TestSimulateOutcome:
    def test_matching_action_with_no_deviation_succeeds(self, truth):
        user = make_user("A")
        rng = random.Random(0)
        for triple in all_observation_triples():
            _, action = truth[triple]
            outcome = simulate_outcome(user, triple, action, rng, deviation_rate=0.0)
            assert outcome.comprehension_ok and outcome.enabledness_ok

    def test_mismatching_action_with_no_deviation_fails(self, truth):
        user = make_user("A")
        rng = random.Random(0)
        wrong = Action(NegationType.NEGATION, HesitationType.HESITATION)
        triple = T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.UNKNOWN)
        assert truth[triple][1] != wrong
        outcome = simulate_outcome(user, triple, wrong, rng, deviation_rate=0.0)
        assert not outcome.comprehension_ok and not outcome.enabledness_ok

    def test_deviation_rate_monte_carlo(self, truth):
        user = make_user("A")
        rng = random.Random(42)
        triple = T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.UNKNOWN)
        _, action = truth[triple]
        trials = 100_000
        successes = sum(
            simulate_outcome(user, triple, action, rng, deviation_rate=0.05).comprehension_ok
            for _ in range(trials)
        )
        assert successes / trials == pytest.approx(0.95, abs=0.005)

    def test_both_dimensions_agree(self, truth):
        user = make_user("C")
        rng = random.Random(5)
        for triple in all_observation_triples():
            _, action = truth[triple]
            outcome = simulate_outcome(user, triple, action, rng)
            assert outcome.comprehension_ok == outcome.enabledness_ok

    def test_solve_times_in_range(self, truth):
        user = make_user("A")
        rng = random.Random(9)
        triple = all_observation_triples()[0]
        _, action = truth[triple]
        for _ in range(500):
            outcome = simulate_outcome(user, triple, action, rng)
            assert 1.0 <= outcome.comprehension_time <= 10.0
            assert 1.0 <= outcome.enabledness_time <= 10.0

    def test_user_d_fails_when_not_focused(self, truth):
        user = make_user("D")
        rng = random.Random(1)
        for gaze in (GazeClass.DISTRACTED, GazeClass.UNCERTAIN):
            triple = T(CapacityClass.LOW, gaze, TaskClass.FAILURE)
            _, action = truth[triple]
            outcome = simulate_outcome(user, triple, action, rng, deviation_rate=0.0)
            assert not outcome.comprehension_ok


class TestRecovery:
    def test_recovers_after_dip(self):
        assert recovery_episode([-1.0, -0.5, 0.2, 0.4]) == 3

    def test_never_negative_is_zero(self):
        assert recovery_episode([0.5, 1.0, 1.5]) == 0

    def test_never_recovers_is_censored(self):
        assert recovery_episode([-1.0, -2.0, -3.0]) is None

    def test_boundary_zero_counts_as_recovered(self):
        assert recovery_episode([-0.1, 0.0, -0.2]) == 2


class TestRun:
    def test_perfect_prior_no_exploration_hits_horizon(self):
        spec = RunSpec(
            user_kind="A",
            preconfigured=True,
            seed=11,
            horizon=100,
            hyper=Hyperparameters(epsilon=0.0),
            deviation_rate=0.0,
            time_low=0.0,
            time_high=0.0,
        )
        result = run_simulation(spec)
        assert result.final_reward == pytest.approx(100.0)
        assert result.recovery == 0

    def test_unconfigured_cannot_hit_horizon(self):
        spec = RunSpec(
            user_kind="A",
            preconfigured=False,
            seed=11,
            horizon=100,
            hyper=Hyperparameters(epsilon=0.0),
            deviation_rate=0.0,
            time_low=0.0,
            time_high=0.0,
        )
        result = run_simulation(spec)
        assert result.final_reward < 100.0

    def test_same_seed_same_series(self):
        spec = RunSpec(user_kind="B", preconfigured=True, seed=3, horizon=50)
        assert run_simulation(spec).series == run_simulation(spec).series
        other = replace(spec, seed=4)
        assert run_simulation(spec).series != run_simulation(other).series

    def test_series_length_is_horizon(self):
        spec = RunSpec(user_kind="A", preconfigured=True, seed=0, horizon=37)
        assert len(run_simulation(spec).series) == 37

    def test_dynamic_mode_runs_full_pipeline(self):
        spec = RunSpec(user_kind="A", preconfigured=True, seed=5, horizon=10)
        script = [
            EpisodeScript(gaze_targets=(episode % 3, (episode + 1) % 3), task=f"t-{episode % 2}")
            for episode in range(10)
        ]
        first = run_dynamic(spec, script)
        second = run_dynamic(spec, script)
        assert first.series == second.series
        assert len(first.series) == 10


class TestKernel:
    HYPERS = (
        Hyperparameters(),
        Hyperparameters(alpha=0.5, gamma=0.95),
        Hyperparameters(epsilon=0.0),
        Hyperparameters(epsilon=1.0, epsilon_decay=1.0),
    )

    @pytest.mark.parametrize("kind", USER_KINDS)
    def test_matches_object_oracle(self, kind, default_table):
        tables = (None, edited_table(default_table))
        for preconfigured, hyper, seed, table in itertools.product(
            (True, False), self.HYPERS, range(25), tables
        ):
            spec = RunSpec(kind, preconfigured, seed, hyper=hyper, table=table)
            assert run_simulation(spec).series == oracle_run_simulation(spec).series, spec

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec("A", True, 3, horizon=0),
            RunSpec("B", False, 4, horizon=1),
            RunSpec("C", True, 5, time_low=0.0, time_high=0.0),
            RunSpec("D", True, 7919),
            RunSpec("A", False, 2**31 + 5),
            RunSpec("B", True, 2**40 + 3),
            RunSpec("C", False, 6, deviation_rate=0.5),
            RunSpec("B", True, 8, horizon=1000),
            RunSpec("D", False, 9, time_low=10.0, time_high=1.0),
            RunSpec("C", True, 10, table=edited_table(default_scoring_table())),
        ],
    )
    def test_edge_specs_match_object_oracle(self, spec):
        assert run_simulation(spec).series == oracle_run_simulation(spec).series

    def test_negative_solve_times_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(RunSpec("A", True, 0, time_low=-5.0, time_high=-1.0))

    @pytest.mark.parametrize(
        "low, high", [(-1.0, 5.0), (math.nan, 10.0), (1.0, math.inf), (-5.0, -1.0)]
    )
    def test_bad_solve_times_rejected_before_the_first_episode(self, low, high):
        with pytest.raises(ValueError, match="solve times"):
            run_simulation(RunSpec("A", True, 0, horizon=0, time_low=low, time_high=high))

    @pytest.mark.parametrize("kind", USER_KINDS)
    def test_outcome_matrix_is_performs_well(self, kind, default_table):
        edited = edited_table(default_table)
        assert edited.truth != default_table.truth
        for table in (default_table, edited):
            states, wins = _outcome_matrix(kind, table)
            user = make_user(kind, table)
            assert states == tuple(STATE_INDEX[state] for state, _ in table.truth.values())
            for row, triple in zip(wins, all_observation_triples(), strict=True):
                assert row == tuple(user.performs_well(triple, action) for action in ACTIONS)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


ANY_SCALAR = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 12), st.booleans()
)


class TestRunSpecChecked:
    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("horizon", -5),
            ("deviation_rate", 7.0),
            ("deviation_rate", -0.1),
            ("deviation_rate", math.nan),
            ("preconfigured", 1),
            ("time_low", math.inf),
            ("time_high", -1.0),
        ],
    )
    def test_bad_value_rejected_when_built(self, name, value):
        fields_ = {"user_kind": "A", "preconfigured": True, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            RunSpec(**fields_)

    @pytest.mark.parametrize("name", ["runs", "workers"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: run_campaign("A", True, horizon=5, **kw),
            lambda **kw: run_sweep("A", horizon=5, **kw),
        ],
        ids=["run_campaign", "run_sweep"],
    )
    def test_campaign_counts_below_one_rejected(self, call, name):
        with pytest.raises(ValueError, match=name):
            call(**{"runs": 3, name: 0})

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(USER_KINDS),
        seed=st.integers(-(2**70), 2**70),
        fields_=st.fixed_dictionaries(
            {
                "preconfigured": st.booleans(),
                "horizon": st.integers(0, 12),
                "deviation_rate": st.floats(0.0, 1.0),
                "time_low": st.floats(0.0, 20.0),
                "time_high": st.floats(0.0, 20.0),
            }
        ),
        # About half the specs get one field replaced by any scalar.
        bad=st.none() | st.tuples(
            st.sampled_from(["preconfigured", "horizon", "deviation_rate", "time_low", "time_high"]),
            ANY_SCALAR,
        ),
    )
    def test_spec_is_rejected_when_built_or_matches_oracle(self, kind, seed, fields_, bad):
        if bad is not None:
            fields_[bad[0]] = bad[1]
        preconfigured, horizon = fields_["preconfigured"], fields_["horizon"]
        valid = (
            isinstance(preconfigured, bool)
            and _is_number(horizon) and isinstance(horizon, int) and horizon >= 0
            and all(
                _is_number(value) and 0.0 <= value < math.inf
                for value in (fields_["deviation_rate"], fields_["time_low"], fields_["time_high"])
            )
            and fields_["deviation_rate"] <= 1.0
        )
        try:
            spec = RunSpec(kind, seed=seed, **fields_)
        except ValueError:
            assert not valid
            return
        assert valid
        assert run_simulation(spec).series == oracle_run_simulation(spec).series

    def test_run_defaults_agree(self):
        config = SimulationConfig()
        spec = RunSpec("A", True, 0)
        outcome = inspect.signature(simulate_outcome).parameters
        assert (spec.horizon, spec.deviation_rate, spec.time_low, spec.time_high) == (
            config.horizon,
            config.deviation_rate,
            config.solve_time_low,
            config.solve_time_high,
        )
        assert (spec.deviation_rate, spec.time_low, spec.time_high) == tuple(
            outcome[name].default for name in ("deviation_rate", "time_low", "time_high")
        )
        for function in (run_campaign, run_sweep):
            params = inspect.signature(function).parameters
            assert (config.runs, config.seed, config.workers) == tuple(
                params[name].default for name in ("runs", "base_seed", "workers")
            )

    def test_specs_share_one_default_hyper(self):
        first, second = RunSpec("B", True, 5), RunSpec("A", False, 6)
        assert first.hyper is second.hyper
        assert QTable().hyper is first.hyper
        assert init_from_scoring(default_scoring_table()).hyper is first.hyper
        assert first.hyper == Hyperparameters()
        assert pickle.loads(pickle.dumps(first)) == first

    def test_campaign_checks_its_spec_once(self, monkeypatch):
        checked = []
        check = RunSpec.__post_init__

        def counting(spec):
            checked.append(spec.seed)
            check(spec)

        monkeypatch.setattr(RunSpec, "__post_init__", counting)
        campaign = run_campaign("B", True, runs=10, horizon=5, base_seed=20)
        assert [result.seed for result in campaign.results] == list(range(20, 30))
        assert checked == [20]


class TestCampaign:
    def test_single_run_has_zero_sd(self):
        campaign = run_campaign("A", True, runs=1, horizon=20, base_seed=9)
        stats = campaign.summary()
        assert stats.z_sd == 0.0
        assert stats.reward_sd == 0.0
        assert stats.runs == 1

    def test_seeds_are_base_plus_index(self):
        campaign = run_campaign("A", True, runs=5, horizon=10, base_seed=100)
        assert [r.seed for r in campaign.results] == [100, 101, 102, 103, 104]

    def test_bit_reproducible(self):
        first = run_campaign("C", False, runs=20, horizon=40, base_seed=1)
        second = run_campaign("C", False, runs=20, horizon=40, base_seed=1)
        assert first.results == second.results

    def test_parallel_equals_serial(self, default_table):
        # A table whose truth map is already cached must still ship to workers.
        built = default_table.with_entry("capacity", "low", NEGATION, 1)
        built.truth
        for table in (None, built):
            serial = run_campaign("B", True, runs=24, horizon=50, base_seed=7, table=table, workers=1)
            parallel = run_campaign("B", True, runs=24, horizon=50, base_seed=7, table=table, workers=3)
            assert serial.results == parallel.results

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_run_is_the_template_with_its_seed(self, default_table, workers):
        spec = dict(
            horizon=17,
            hyper=Hyperparameters(alpha=0.5, gamma=0.5, epsilon=0.3, q_init=0.25),
            deviation_rate=0.2,
            time_low=2.0,
            time_high=4.0,
            table=edited_table(default_table),
        )
        defaults = RunSpec("C", True, 0)
        for name, value in spec.items():
            assert value != getattr(defaults, name)
        assert set(spec) == {item.name for item in fields(RunSpec)} - {
            "user_kind", "preconfigured", "seed"
        }
        campaign = run_campaign("C", True, runs=6, base_seed=40, workers=workers, **spec)
        assert campaign.horizon == 17
        assert campaign.results == tuple(
            run_simulation(RunSpec("C", True, 40 + offset, **spec)) for offset in range(6)
        )

    def test_positional_campaign_arguments_rejected(self):
        # Everything after ``preconfigured`` is keyword-only, so a stray
        # positional value cannot bind to base_seed silently.
        with pytest.raises(TypeError):
            run_campaign("A", True, 10, 50)
        with pytest.raises(TypeError):
            run_campaign("A", True, 10)

    def test_censored_runs_counted_at_horizon(self):
        from scaffolder.simulation import RunResult

        results = (
            RunResult(seed=0, series=(-1.0, 0.5)),
            RunResult(seed=1, series=(-1.0, -2.0)),
        )
        stats = summarize(results, horizon=2)
        assert stats.z_mean == pytest.approx(2.0)  # (2 + 2) / 2
        assert stats.non_recovery_rate == 0.5
        assert stats.recovery_rate == 0.5


class TestCsvOutputs:
    def test_campaign_csv_shape(self, tmp_path):
        campaign = run_campaign("A", True, runs=4, horizon=30, base_seed=2)
        path = tmp_path / "campaign.csv"
        write_campaign_csv(campaign, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["seed", "Z", "censored", "final_reward"]
        assert len(rows) == 1 + 4 + 1
        assert rows[-1][0] == "aggregate"
        stats = campaign.summary()
        assert float(rows[-1][1]) == pytest.approx(stats.z_mean)
        assert float(rows[-1][3]) == pytest.approx(stats.reward_mean)

    def test_series_csv_shape(self, tmp_path):
        campaign = run_campaign("A", True, runs=3, horizon=25, base_seed=2)
        path = tmp_path / "series.csv"
        write_series_csv(campaign, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["episode", "mean_cumulative_reward", "sd"]
        assert len(rows) == 1 + 25
        assert [row[0] for row in rows[1:4]] == ["1", "2", "3"]

    def test_sweep_csv_shape(self, tmp_path):
        rows_data = run_sweep(runs=2, horizon=10, base_seed=0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows_data, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["H_S", "alpha", "gamma", "epsilon", "Z_m", "Z_sd", "R_m", "R_sd"]
        assert len(rows) == 1 + 12
        flags = [row[0] for row in rows[1:]]
        assert flags == ["F", "T"] * 6
        alphas = {row[1] for row in rows[1:]}
        gammas = {row[2] for row in rows[1:]}
        assert alphas == {"0.25", "0.5"}
        assert gammas == {"0.0", "0.5", "0.95"}


class TestSweep:
    def test_parallel_sweep_equals_serial_in_one_pool(self, monkeypatch):
        pools = []

        class CountingPool(simulation.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        campaign = dict(runs=5, horizon=15, base_seed=3)
        serial = run_sweep("B", **campaign)
        monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
        assert run_sweep("B", workers=2, **campaign) == serial
        assert len(pools) == 1

    def test_row_is_campaign_with_swept_values(self):
        base = Hyperparameters(q_init=2.0, epsilon_decay=0.5, epsilon_min=0.1)
        campaign = dict(
            runs=6, horizon=20, base_seed=4, deviation_rate=0.3, time_low=0.5, time_high=3.0
        )
        rows = run_sweep("C", hyper=base, **campaign)
        row = rows[9]  # alpha 0.5, gamma 0.5, preconfigured
        assert (row.alpha, row.gamma, row.epsilon, row.preconfigured) == (0.5, 0.5, 0.75, True)
        hyper = replace(base, alpha=0.5, gamma=0.5, epsilon=0.75)
        stats = run_campaign("C", True, hyper=hyper, **campaign).summary()
        assert (row.z_mean, row.z_sd, row.reward_mean, row.reward_sd) == (
            stats.z_mean,
            stats.z_sd,
            stats.reward_mean,
            stats.reward_sd,
        )
