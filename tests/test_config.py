import pytest

from scaffolder.config import CONFIG_ENV_VAR, AppConfig, config_digest, load_config


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

    def test_changes_when_config_changes(self):
        base = config_digest(load_config())
        changed = config_digest(load_config(overrides={"policy": {"epsilon": 0.0}}))
        assert base != changed
        assert len(base) == 12
