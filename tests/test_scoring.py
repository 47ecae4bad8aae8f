import itertools
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import oracle_score
from scaffolder.scoring import (
    CATEGORY_VALUES,
    HESITATION,
    NEGATION,
    ScoringTable,
    default_scoring_table,
    dump_scoring_table,
    ground_truth_map,
    load_scoring_table,
    reduce_components,
    reduce_observation,
    scaffolding_score,
)
from scaffolder.states import (
    CapacityClass,
    CognitiveState,
    GazeClass,
    HesitationType,
    NegationType,
    ObservationTriple,
    TaskClass,
    all_observation_triples,
)

T = ObservationTriple

# The shipped rubric, spelled out row by row: (negation, hesitation) votes.
EXPECTED_DEFAULT_VOTES = {
    ("capacity", "low"): (0, 1),
    ("capacity", "high"): (1, 0),
    ("gaze", "distracted"): (1, 1),
    ("gaze", "uncertain"): (1, 1),
    ("gaze", "focused"): (0, 0),
    ("task", "unknown"): (0, 1),
    ("task", "failure"): (0, 1),
    ("task", "misc_enabledness"): (1, 0),
    ("task", "misc_comprehension"): (0, 1),
    ("task", "success"): (1, 0),
}


class TestTableContent:
    def test_shipped_table_matches_expected_votes(self, default_table):
        for (category, observation), (neg, hes) in EXPECTED_DEFAULT_VOTES.items():
            assert default_table.entry(category, observation, NEGATION) == neg
            assert default_table.entry(category, observation, HESITATION) == hes

    def test_default_weights_and_max(self, default_table):
        assert default_table.weights[NEGATION] == 1.0
        assert default_table.weights[HESITATION] == 1.0
        assert default_table.score_max[NEGATION] == 3
        assert default_table.score_max[HESITATION] == 3

    def test_csv_round_trip(self, default_table, tmp_path):
        path = tmp_path / "table.csv"
        dump_scoring_table(default_table, path)
        again = load_scoring_table(path)
        assert again.entries == default_table.entries

    def test_incomplete_table_rejected(self, default_table):
        entries = dict(default_table.entries)
        entries.pop(("capacity", "low", NEGATION))
        with pytest.raises(ValueError):
            ScoringTable(entries=entries)

    def test_missing_strategy_rejected(self, default_table):
        entries = {
            key: vote for key, vote in default_table.entries.items() if key[2] == NEGATION
        }
        with pytest.raises(ValueError):
            ScoringTable(entries=entries)

    def test_with_entry_replaces_one_vote(self, default_table):
        table = default_table.with_entry("capacity", "low", NEGATION, 1)
        assert table.entry("capacity", "low", NEGATION) == 1
        assert default_table.entry("capacity", "low", NEGATION) == 0
        diff = {
            key
            for key in table.entries
            if table.entries[key] != default_table.entries[key]
        }
        assert diff == {("capacity", "low", NEGATION)}

    def test_with_entry_unknown_key_rejected(self, default_table):
        with pytest.raises(KeyError):
            default_table.with_entry("capacity", "medium", NEGATION, 1)


class TestScore:
    def test_high_focused_success_negation(self, default_table):
        triple = T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.SUCCESS)
        assert scaffolding_score(default_table, triple, NEGATION) == pytest.approx(2 / 3)

    def test_high_focused_success_hesitation(self, default_table):
        triple = T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.SUCCESS)
        assert scaffolding_score(default_table, triple, HESITATION) == 0.0

    def test_all_zero_table_scores_zero(self, default_table):
        entries = {key: 0.0 for key in default_table.entries}
        table = ScoringTable(entries=entries)
        for triple in all_observation_triples():
            assert scaffolding_score(table, triple, NEGATION) == 0.0
            assert scaffolding_score(table, triple, HESITATION) == 0.0

    def test_unknown_strategy_rejected(self, default_table):
        triple = T(CapacityClass.LOW, GazeClass.FOCUSED, TaskClass.SUCCESS)
        with pytest.raises(KeyError):
            scaffolding_score(default_table, triple, "encouragement")

    def test_score_bounds_and_weight_scaling(self, default_table):
        doubled = default_table.reweighted(NEGATION, 2.0)
        for triple in all_observation_triples():
            score = scaffolding_score(default_table, triple, NEGATION)
            assert 0.0 <= score <= default_table.weights[NEGATION]
            assert scaffolding_score(doubled, triple, NEGATION) == pytest.approx(2 * score)

    def test_monotone_in_entries(self, default_table):
        triple = T(CapacityClass.LOW, GazeClass.FOCUSED, TaskClass.SUCCESS)
        baseline = scaffolding_score(default_table, triple, NEGATION)
        raised = default_table.with_entry("capacity", "low", NEGATION, 1)
        assert scaffolding_score(raised, triple, NEGATION) > baseline

    @given(
        votes=st.tuples(
            st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
        ),
        weight=st.floats(min_value=0.1, max_value=5),
    )
    def test_matches_oracle(self, default_table, votes, weight):
        table = default_table.reweighted(NEGATION, weight)
        table = table.with_entry("capacity", "low", NEGATION, votes[0])
        table = table.with_entry("gaze", "focused", NEGATION, votes[1])
        table = table.with_entry("task", "unknown", NEGATION, votes[2])
        triple = T(CapacityClass.LOW, GazeClass.FOCUSED, TaskClass.UNKNOWN)
        got = scaffolding_score(table, triple, NEGATION)
        assert got == pytest.approx(oracle_score(list(votes), weight), abs=1e-9)


class TestReduce:
    def test_low_distracted_failure_is_overwhelmed(self, default_table):
        triple = T(CapacityClass.LOW, GazeClass.DISTRACTED, TaskClass.FAILURE)
        assert reduce_observation(default_table, triple) is CognitiveState.OVERWHELMED_STRUGGLER

    def test_high_focused_misc_enabledness_is_misinterpreter(self, default_table):
        triple = T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.MISC_ENABLEDNESS)
        assert reduce_observation(default_table, triple) is CognitiveState.ENGAGED_MISINTERPRETER

    def test_high_distracted_success_is_distracted_misinterpreter(self, default_table):
        triple = T(CapacityClass.HIGH, GazeClass.DISTRACTED, TaskClass.SUCCESS)
        assert reduce_observation(default_table, triple) is CognitiveState.DISTRACTED_MISINTERPRETER

    def test_negation_bins(self, default_table):
        # score 1/3 stays affirmation, 2/3 negation_affirmation, 1 negation
        cases = {
            T(CapacityClass.LOW, GazeClass.FOCUSED, TaskClass.SUCCESS): NegationType.AFFIRMATION,
            T(CapacityClass.HIGH, GazeClass.FOCUSED, TaskClass.SUCCESS): (
                NegationType.NEGATION_AFFIRMATION
            ),
            T(CapacityClass.HIGH, GazeClass.DISTRACTED, TaskClass.SUCCESS): NegationType.NEGATION,
        }
        for triple, expected in cases.items():
            negation, _ = reduce_components(default_table, triple)
            assert negation is expected

    def test_hesitation_bin(self, default_table):
        # one vote of three: none; two votes: hesitation
        one_vote = T(CapacityClass.HIGH, GazeClass.DISTRACTED, TaskClass.SUCCESS)
        assert reduce_components(default_table, one_vote)[1] is HesitationType.NONE
        two_votes = T(CapacityClass.HIGH, GazeClass.DISTRACTED, TaskClass.UNKNOWN)
        assert reduce_components(default_table, two_votes)[1] is HesitationType.HESITATION

    def test_totality_under_arbitrary_tables(self, default_table):
        flipped = default_table
        for (category, observation), _ in EXPECTED_DEFAULT_VOTES.items():
            flipped = flipped.with_entry(
                category,
                observation,
                NEGATION,
                1 - flipped.entry(category, observation, NEGATION),
            )
        for triple in all_observation_triples():
            assert isinstance(reduce_observation(flipped, triple), CognitiveState)

    def test_default_image_is_exactly_five_states(self, default_table):
        image = {reduce_observation(default_table, t) for t in all_observation_triples()}
        assert image == {
            CognitiveState.ENGAGED_OBSERVER,
            CognitiveState.ENGAGED_MISINTERPRETER,
            CognitiveState.DISTRACTED_MISINTERPRETER,
            CognitiveState.OVERWHELMED_STRUGGLER,
            CognitiveState.UNFOCUSED,
        }
        assert CognitiveState.UNCERTAIN not in image

    def test_default_image_distribution(self, default_table):
        counts = Counter(
            reduce_observation(default_table, t) for t in all_observation_triples()
        )
        assert counts == {
            CognitiveState.UNFOCUSED: 10,
            CognitiveState.OVERWHELMED_STRUGGLER: 9,
            CognitiveState.ENGAGED_OBSERVER: 5,
            CognitiveState.DISTRACTED_MISINTERPRETER: 4,
            CognitiveState.ENGAGED_MISINTERPRETER: 2,
        }

    def test_prose_consistency_overwhelmed(self, default_table):
        # Low capacity + a task class that votes for hesitation + full
        # hesitation score always lands on the struggling state.
        for gaze, task in itertools.product(GazeClass, TaskClass):
            triple = T(CapacityClass.LOW, gaze, task)
            if task not in (TaskClass.UNKNOWN, TaskClass.FAILURE, TaskClass.MISC_COMPREHENSION):
                continue
            hes = scaffolding_score(default_table, triple, HESITATION)
            if hes > 2 / 3:
                assert (
                    reduce_observation(default_table, triple)
                    is CognitiveState.OVERWHELMED_STRUGGLER
                )

    def test_prose_consistency_engaged_observer(self, default_table):
        # Focused gaze with a weak negation score and a weak hesitation score
        # is the engaged observer.
        for capacity, task in itertools.product(CapacityClass, TaskClass):
            triple = T(capacity, GazeClass.FOCUSED, task)
            neg = scaffolding_score(default_table, triple, NEGATION)
            hes = scaffolding_score(default_table, triple, HESITATION)
            if neg <= 1 / 3 and hes <= 1 / 2:
                assert (
                    reduce_observation(default_table, triple)
                    is CognitiveState.ENGAGED_OBSERVER
                )

    def test_reweighting_does_not_change_reduction(self, default_table):
        scaled = default_table.reweighted(NEGATION, 3.5).reweighted(HESITATION, 0.25)
        for triple in all_observation_triples():
            assert reduce_observation(scaled, triple) is reduce_observation(
                default_table, triple
            )


class TestTableVersions:
    @pytest.fixture
    def three_columns(self, default_table):
        entries = dict(default_table.entries)
        for category, values in CATEGORY_VALUES.items():
            entries.update({(category, value, "pause"): 1.0 for value in values})
        return ScoringTable(
            entries=entries,
            strategies=(NEGATION, HESITATION, "pause"),
            weights={NEGATION: 0.5, "pause": 2.0},
            score_max={HESITATION: 4, "pause": 5},
        )

    @staticmethod
    def assert_only_changed(old, new, name, value):
        for item in fields(ScoringTable):
            expected = value if item.name == name else getattr(old, item.name)
            assert getattr(new, item.name) == expected, item.name

    def test_with_entry_changes_one_vote(self, three_columns):
        key = ("gaze", "focused", "pause")
        edited = three_columns.with_entry(*key, 0)
        self.assert_only_changed(three_columns, edited, "entries", {**three_columns.entries, key: 0.0})
        assert three_columns.entries[key] == 1.0

    def test_reweighted_changes_one_weight(self, three_columns):
        edited = three_columns.reweighted("pause", 3.0)
        expected = {NEGATION: 0.5, HESITATION: 1.0, "pause": 3.0}
        self.assert_only_changed(three_columns, edited, "weights", expected)
        assert three_columns.weights["pause"] == 2.0


class TestGroundTruthMap:
    def test_covers_all_thirty_triples(self, truth):
        assert len(truth) == 30
        assert set(truth) == set(all_observation_triples())

    def test_action_matches_state(self, truth):
        from scaffolder.states import GROUND_TRUTH_ACTION

        for state, action in truth.values():
            assert GROUND_TRUTH_ACTION[state] == action

    def test_all_zero_table_maps_to_engaged_observer(self, default_table):
        entries = {key: 0.0 for key in default_table.entries}
        table = ScoringTable(entries=entries)
        for state, action in ground_truth_map(table).values():
            assert state is CognitiveState.ENGAGED_OBSERVER
            assert action.negation is NegationType.AFFIRMATION
            assert action.hesitation is HesitationType.NONE

    @given(votes=st.lists(st.integers(0, 1), min_size=20, max_size=20))
    def test_matches_fresh_reduction(self, default_table, votes):
        from scaffolder.states import GROUND_TRUTH_ACTION

        default_table.truth  # a derived table must not inherit this map
        table = default_table
        for key, vote in zip(sorted(default_table.entries), votes):
            table = table.with_entry(*key, vote)
        expected = {}
        for triple in all_observation_triples():
            state = reduce_observation(table, triple)
            expected[triple] = (state, GROUND_TRUTH_ACTION[state])
        got = ground_truth_map(table)
        assert got == expected
        got.clear()
        assert ground_truth_map(table) == expected

    def test_all_one_hesitation_column_forces_hesitation(self, default_table):
        table = default_table
        for (category, observation), _ in EXPECTED_DEFAULT_VOTES.items():
            table = table.with_entry(category, observation, HESITATION, 1)
        for _, action in ground_truth_map(table).values():
            assert action.hesitation is HesitationType.HESITATION
