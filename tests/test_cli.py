import csv

import pytest

from scaffolder import server as server_mod
from scaffolder.cli import build_parser, main
from scaffolder.policy import Hyperparameters
from scaffolder.simulation import run_sweep, write_sweep_csv


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([])
        assert err.value.code == 2

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["simulate", "--frobnicate"])
        assert err.value.code == 2

    def test_bad_user_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--user", "E"])

    def test_bad_bool_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--preconfigured", "maybe"])

    def test_bool_spellings(self):
        parser = build_parser()
        for text, value in (("true", True), ("1", True), ("no", False), ("0", False)):
            args = parser.parse_args(["simulate", "--preconfigured", text])
            assert args.preconfigured is value

    def test_bad_bind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--bind", "no-port-here"])


class TestSimulate:
    ARGS = [
        "simulate",
        "--user",
        "A",
        "--runs",
        "8",
        "--horizon",
        "20",
        "--seed",
        "7",
    ]

    def test_prints_summary(self, capsys):
        code, out = run_cli(self.ARGS, capsys)
        assert code == 0
        assert "user=A" in out
        assert "preconfigured=True" in out
        assert "runs=8" in out
        assert "Z_m=" in out and "R_m=" in out

    def test_output_files_are_reproducible(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        series_a = tmp_path / "sa.csv"
        series_b = tmp_path / "sb.csv"
        run_cli(self.ARGS + ["--out", str(first), "--series", str(series_a)], capsys)
        run_cli(self.ARGS + ["--out", str(second), "--series", str(series_b)], capsys)
        assert first.read_bytes() == second.read_bytes()
        assert series_a.read_bytes() == series_b.read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(self.ARGS + ["--out", str(first)], capsys)
        run_cli(self.ARGS[:-1] + ["8", "--out", str(second)], capsys)
        assert first.read_bytes() != second.read_bytes()

    def test_campaign_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        run_cli(self.ARGS + ["--out", str(out)], capsys)
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["seed", "Z", "censored", "final_reward"]
        assert len(rows) == 1 + 8 + 1  # header, one per run, aggregate
        assert rows[-1][0] == "aggregate"
        assert [row[0] for row in rows[1:-1]] == [str(7 + i) for i in range(8)]

    def test_series_csv_shape(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        run_cli(self.ARGS + ["--series", str(series)], capsys)
        with series.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["episode", "mean_cumulative_reward", "sd"]
        assert len(rows) == 1 + 20
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(1, 21)]

    def test_parallel_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        run_cli(self.ARGS + ["--out", str(serial)], capsys)
        run_cli(self.ARGS + ["--workers", "3", "--out", str(parallel)], capsys)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_unconfigured_flag_changes_result(self, capsys):
        _, pre = run_cli(self.ARGS, capsys)
        _, un = run_cli(self.ARGS + ["--preconfigured", "false"], capsys)
        assert "preconfigured=False" in un
        assert pre != un

    def test_config_file_sets_defaults(self, tmp_path, capsys):
        config = tmp_path / "app.yaml"
        config.write_text("simulation:\n  runs: 3\n  horizon: 5\n  seed: 11\n")
        code, out = run_cli(["simulate", "--config", str(config)], capsys)
        assert code == 0
        assert "runs=3" in out and "horizon=5" in out

    def test_cli_overrides_config_file(self, tmp_path, capsys):
        config = tmp_path / "app.yaml"
        config.write_text("simulation:\n  runs: 3\n  horizon: 5\n")
        _, out = run_cli(
            ["simulate", "--config", str(config), "--runs", "4", "--seed", "1"],
            capsys,
        )
        assert "runs=4" in out and "horizon=5" in out


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--runs", "0"],
            ["simulate", "--alpha", "2"],
            ["sweep", "--horizon", "-1"],
            ["inspect", "--config", "missing.yaml"],
            ["simulate", "--config", "broken.yaml"],
            ["simulate", "--config", "missing_csv.yaml"],
            ["inspect", "--config", "short_csv.yaml"],
            ["sweep", "--config", "bad_vote.yaml"],
            ["serve", "--bind", "127.0.0.1:0", "--config", "no_targets.yaml"],
        ],
    )
    def test_usage_error(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        header = "category,observation,negation,hesitation\n"
        files = {
            "broken.yaml": "simulation: [1,\n",
            "missing_csv.yaml": "scoring_csv: missing.csv\n",
            "short_csv.yaml": "scoring_csv: short.csv\n",
            "short.csv": header + "capacity,low,1\n",
            "bad_vote.yaml": "scoring_csv: bad_vote.csv\n",
            "bad_vote.csv": header + "capacity,low,x,1\n",
            "no_targets.yaml": "partner_model:\n  num_targets: 0\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        started = []

        async def fake_serve(*args, **kwargs):
            started.append(args)

        monkeypatch.setattr(server_mod, "serve", fake_serve)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert not started


class TestSweep:
    def test_writes_twelve_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, text = run_cli(
            ["sweep", "--runs", "2", "--horizon", "5", "--seed", "0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "wrote 12 rows" in text
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["H_S", "alpha", "gamma", "epsilon", "Z_m", "Z_sd", "R_m", "R_sd"]
        assert len(rows) == 13
        assert [row[0] for row in rows[1:]] == ["F", "T"] * 6

    def test_sweep_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--runs", "2", "--horizon", "5", "--seed", "3"]
        run_cli(args + ["--out", str(a)], capsys)
        run_cli(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_reaches_every_campaign(self, tmp_path, capsys):
        config = tmp_path / "app.yaml"
        config.write_text(
            "simulation:\n  deviation_rate: 0.2\n  solve_time_low: 2.0\n  solve_time_high: 5.0\n"
            "policy:\n  q_init: 2.0\n  epsilon_decay: 0.5\n  epsilon_min: 0.1\n"
        )
        args = ["sweep", "--user", "B", "--runs", "4", "--horizon", "15", "--seed", "2"]
        configured, default, expected = (tmp_path / name for name in ("c.csv", "d.csv", "e.csv"))
        run_cli(args + ["--config", str(config), "--out", str(configured)], capsys)
        run_cli(args + ["--out", str(default)], capsys)
        rows = run_sweep(
            "B",
            hyper=Hyperparameters(q_init=2.0, epsilon_decay=0.5, epsilon_min=0.1),
            runs=4,
            horizon=15,
            base_seed=2,
            deviation_rate=0.2,
            time_low=2.0,
            time_high=5.0,
        )
        write_sweep_csv(rows, expected)
        assert configured.read_bytes() == expected.read_bytes()
        assert configured.read_bytes() != default.read_bytes()


class TestInspect:
    def test_lists_full_reduction_map(self, capsys):
        code, out = run_cli(["inspect"], capsys)
        assert code == 0
        lines = out.splitlines()
        map_lines = [line for line in lines if " -> " in line]
        assert len(map_lines) == 30
        assert "distinct cognitive states: 5" in out
        assert "scoring table:" in out
        assert "q-table snapshot" in out

    def test_snapshot_has_all_state_action_cells(self, capsys):
        _, out = run_cli(["inspect"], capsys)
        section = out.split("(state,action,value,visits):", 1)[1]
        rows = [line for line in section.splitlines() if "," in line]
        assert len(rows) == 36

    def test_respects_scoring_csv_from_config(self, tmp_path, capsys, default_table):
        # flip every vote; the reduction map must change
        from scaffolder.scoring import dump_scoring_table, ScoringTable

        flipped = ScoringTable(
            entries={key: 1.0 - value for key, value in default_table.entries.items()},
            weights=default_table.weights,
        )
        path = tmp_path / "flipped.csv"
        dump_scoring_table(flipped, path)
        config = tmp_path / "app.yaml"
        config.write_text(f"scoring_csv: {path}\n")
        _, flipped_out = run_cli(["inspect", "--config", str(config)], capsys)
        _, default_out = run_cli(["inspect"], capsys)
        assert flipped_out != default_out
