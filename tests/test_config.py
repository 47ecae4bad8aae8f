import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaffolder
from scaffolder.config import (
    CONFIG_ENV_VAR,
    AppConfig,
    ServerConfig,
    SimulationConfig,
    config_digest,
    load_config,
)
from scaffolder.partner_model import PartnerModelConfig
from scaffolder.policy import Hyperparameters
from scaffolder.schema import Checked, check_fields
from scaffolder.scoring import default_scoring_table
from scaffolder.server import StrategyService
from scaffolder.session import SessionConfig
from scaffolder.simulation import RunSpec


class TestDefaults:
    def test_default_sections(self):
        config = load_config()
        assert config.partner_model.capacity_max == 100
        assert config.partner_model.capacity_threshold == 50
        assert config.policy.alpha == 0.25
        assert config.policy.gamma == 0.0
        assert config.policy.epsilon == 0.75
        assert config.session.reward_decay == 0.1
        assert config.session.reward_scale == 1.0
        assert config.simulation.runs == 500
        assert config.simulation.horizon == 100
        assert config.server.query_timeout == 60.0
        assert config.scoring_csv is None

    def test_scoring_table_default(self):
        table = load_config().scoring_table()
        assert table.entry("capacity", "low", "negation") == 0


class TestFilePrecedence:
    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("policy:\n  alpha: 0.5\nserver:\n  port: 9000\n")
        config = load_config(path)
        assert config.policy.alpha == 0.5
        assert config.server.port == 9000
        assert config.policy.gamma == 0.0

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("policy:\n  alpha: 0.5\n  gamma: 0.9\n")
        config = load_config(path, overrides={"policy": {"alpha": 0.75}})
        assert config.policy.alpha == 0.75
        assert config.policy.gamma == 0.9

    def test_env_var_supplies_path(self, tmp_path, monkeypatch):
        path = tmp_path / "config.yaml"
        path.write_text("simulation:\n  runs: 7\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert load_config().simulation.runs == 7

    def test_explicit_path_beats_env_var(self, tmp_path, monkeypatch):
        env_path = tmp_path / "env.yaml"
        env_path.write_text("simulation:\n  runs: 7\n")
        arg_path = tmp_path / "arg.yaml"
        arg_path.write_text("simulation:\n  runs: 9\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_path))
        assert load_config(arg_path).simulation.runs == 9


class TestValidation:
    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("mystery:\n  x: 1\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("policy:\n  learning_rate: 0.5\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            "[]\n",
            "0\n",
            "false\n",
            "''\n",
            "policy: []\n",
            "server: 0\n",
            "simulation: false\n",
            "session: ''\n",
        ],
    )
    def test_non_mapping_document_or_section_rejected(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match="mapping"):
            load_config(path)

    def test_non_mapping_section_rejected_under_override(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("simulation: 5\n")
        with pytest.raises(ValueError, match="simulation"):
            load_config(path, {"simulation": {"runs": 2}})

    @pytest.mark.parametrize("text", ["", "# nothing here\n", "policy:\n", "server: null\n"])
    def test_empty_document_or_null_section_is_default(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert load_config(path) == AppConfig()

    def test_invalid_policy_value_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("policy:\n  alpha: 2.0\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize(
        "values",
        [
            {"runs": 0},
            {"runs": -3},
            {"horizon": 0},
            {"horizon": -1},
            {"workers": 0},
            {"deviation_rate": -0.1},
            {"deviation_rate": 1.5},
            {"deviation_rate": float("nan")},
            {"solve_time_low": -1.0},
            {"solve_time_low": 5.0, "solve_time_high": 2.0},
            {"solve_time_high": float("inf")},
            {"solve_time_low": float("nan")},
        ],
    )
    def test_invalid_simulation_value_rejected(self, values):
        with pytest.raises(ValueError):
            load_config(overrides={"simulation": values})

    @pytest.mark.parametrize(
        ("section", "values"),
        [
            ("partner_model", {"num_targets": 0}),
            ("partner_model", {"num_targets": -2}),
            ("partner_model", {"gaze_gain": float("nan")}),
            ("partner_model", {"capacity_max": float("inf")}),
            ("partner_model", {"shift_max": float("-inf")}),
            ("session", {"reward_decay": -1.0}),
            ("session", {"reward_decay": float("nan")}),
            ("session", {"reward_decay": float("inf")}),
            ("session", {"reward_scale": 0.0}),
            ("session", {"reward_scale": -1.0}),
            ("session", {"reward_scale": float("nan")}),
            ("server", {"query_timeout": 0.0}),
            ("server", {"query_timeout": -1.0}),
            ("server", {"query_timeout": float("nan")}),
            ("server", {"query_timeout": float("inf")}),
        ],
    )
    def test_invalid_service_value_rejected(self, section, values):
        with pytest.raises(ValueError):
            load_config(overrides={section: values})

    @pytest.mark.parametrize(
        ("section", "values"),
        [
            ("simulation", {"runs": "500"}),
            ("server", {"query_timeout": "5"}),
            ("policy", {"alpha": None}),
            ("simulation", {"runs": True}),
            ("policy", {"epsilon": True}),
            ("simulation", {"runs": 2.5}),
            ("partner_model", {"num_targets": 2.5}),
            ("server", {"preconfigured": "false"}),
            ("server", {"host": 5}),
            ("server", {"port": -5}),
            ("server", {"port": "x"}),
            ("server", {"port": True}),
            ("server", {"port": 70000}),
            ("partner_model", {"capacity_max": 10**400}),
            ("partner_model", {"num_targets": 10**400}),
            ("partner_model", {"num_targets": 1001}),
            ("simulation", {"runs": 10**400}),
            ("policy", {"epsilon_min": "1e-3"}),
        ],
    )
    def test_wrong_type_or_range_rejected(self, section, values):
        (name,) = values
        with pytest.raises(ValueError, match=name):
            load_config(overrides={section: values})

    @pytest.mark.parametrize(
        ("cls", "kwargs"),
        [
            (Hyperparameters, {"alpha": "0.5"}),
            (SessionConfig, {"reward_scale": None}),
            (PartnerModelConfig, {"num_targets": 2.5}),
        ],
    )
    def test_direct_construction_checked(self, cls, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            cls(**kwargs)

    def test_yaml_exponent_needs_a_dot(self, tmp_path):
        # PyYAML reads 1e-3 as a string, which is rejected; 1.0e-3 is a float.
        path = tmp_path / "config.yaml"
        path.write_text("policy:\n  epsilon_min: 1.0e-3\n")
        assert load_config(path).policy.epsilon_min == 0.001

    def test_yaml_syntax_error_names_the_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("simulation: [1,\n")
        with pytest.raises(ValueError, match="broken.yaml"):
            load_config(path)


class TestDigest:
    def test_stable_for_equal_configs(self):
        assert config_digest(AppConfig()) == config_digest(AppConfig())

    def test_valid_configs_keep_their_digest(self, data_dir):
        # Every session_opened reply carries this fingerprint: checking
        # values must not change it for a valid config.
        assert config_digest(AppConfig()) == "f59ded1ecd42"
        assert config_digest(load_config(data_dir / "golden_config.yaml")) == "79d29a45e942"

    def test_readme_config_block_is_the_default(self, tmp_path):
        # README's annotated configuration must name every key with its default.
        readme = Path(__file__).parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
        path = tmp_path / "readme.yaml"
        path.write_text(section.split("```yaml\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        config = load_config(path)
        assert config == AppConfig()
        assert config_digest(config) == config_digest(AppConfig())

    def test_changes_when_config_changes(self):
        base = config_digest(load_config())
        changed = config_digest(load_config(overrides={"policy": {"epsilon": 0.0}}))
        assert base != changed
        assert len(base) == 12


SECTION_FIELDS = [
    (section, item.name)
    for section, cls in (
        ("partner_model", PartnerModelConfig),
        ("policy", Hyperparameters),
        ("session", SessionConfig),
        ("simulation", SimulationConfig),
        ("server", ServerConfig),
    )
    for item in dataclasses.fields(cls)
]

ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)


class TestSchemaProperty:
    @settings(max_examples=300)
    @given(target=st.sampled_from(SECTION_FIELDS), value=ANY_VALUE)
    def test_value_is_kept_exactly_or_rejected(self, target, value):
        section, name = target
        try:
            config = load_config(overrides={section: {name: value}})
        except ValueError:
            return
        kept = getattr(getattr(config, section), name)
        assert type(kept) is type(value) and kept == value

    # num_targets is capped, so an accepted config opens a session cheaply.
    @settings(max_examples=150)
    @given(target=st.sampled_from(SECTION_FIELDS), value=ANY_VALUE)
    def test_accepted_value_opens_a_session(self, target, value):
        section, name = target
        try:
            config = load_config(overrides={section: {name: value}})
        except ValueError:
            return
        reply = StrategyService(config).dispatch('{"kind": "open_session"}').reply
        assert reply["kind"] == "session_opened"

    def test_most_targets_open_a_session(self):
        config = load_config(overrides={"partner_model": {"num_targets": 1000}})
        reply = StrategyService(config).dispatch('{"kind": "open_session"}').reply
        assert reply["kind"] == "session_opened"


class TestSchemaCoverage:
    def test_record_typed_fields_are_left_to_their_records(self):
        # ``hyper`` and ``table`` are records that check themselves when built.
        check_fields(RunSpec("A", True, 0, table=default_scoring_table()))

    def test_every_checked_record_builds_with_its_defaults(self):
        for module in pkgutil.iter_modules(scaffolder.__path__):
            importlib.import_module(f"scaffolder.{module.name}")
        records = Checked.__subclasses__()
        assert {RunSpec, SimulationConfig, Hyperparameters} <= set(records)
        # Values for the fields that have no default.
        required = {"user_kind": "A", "preconfigured": True, "seed": 0}
        for cls in records:
            record = cls(**{
                item.name: required[item.name]
                for item in dataclasses.fields(cls)
                if item.default is dataclasses.MISSING
                and item.default_factory is dataclasses.MISSING
            })
            check_fields(record)
