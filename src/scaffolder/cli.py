"""Command-line front door: simulation campaigns, the hyperparameter sweep,
the TCP service, and table/Q-table inspection.

Flag precedence everywhere: command line over config file over defaults.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Any, Sequence

from . import server as server_mod
from .config import AppConfig, load_config
from .policy import Hyperparameters, init_from_scoring
from .scoring import CATEGORY_VALUES, HESITATION, NEGATION, ScoringTable
from .simulation import (
    USER_KINDS,
    run_campaign,
    run_sweep,
    write_campaign_csv,
    write_series_csv,
    write_sweep_csv,
)
from .states import ACTIONS, STATES, all_observation_triples


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _parse_bind(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad port in {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaffolder",
        description="Adaptive scaffolding strategies: simulate, sweep, serve, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one simulation campaign")
    simulate.add_argument("--user", choices=USER_KINDS, default="A")
    simulate.add_argument("--alpha", type=float, default=None)
    simulate.add_argument("--gamma", type=float, default=None)
    simulate.add_argument("--epsilon", type=float, default=None)
    simulate.add_argument("--preconfigured", type=_parse_bool, default=True, metavar="true|false")
    simulate.add_argument("--runs", type=int, default=None)
    simulate.add_argument("--horizon", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", default=None, help="per-run CSV path")
    simulate.add_argument("--series", default=None, help="per-episode mean-series CSV path")
    simulate.add_argument("--workers", type=int, default=None)
    simulate.add_argument("--config", default=None)

    sweep = sub.add_parser("sweep", help="run the 12-row hyperparameter study")
    sweep.add_argument("--user", choices=USER_KINDS, default="A")
    sweep.add_argument("--runs", type=int, default=None)
    sweep.add_argument("--horizon", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default="sweep.csv")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--config", default=None)

    serve = sub.add_parser("serve", help="run the line-delimited TCP service")
    serve.add_argument("--bind", type=_parse_bind, default=None, metavar="HOST:PORT")
    serve.add_argument("--config", default=None)

    inspect = sub.add_parser(
        "inspect", help="print the scoring table, ground-truth map, and Q-table"
    )
    inspect.add_argument("--config", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> AppConfig:
    overrides: dict[str, Any] = {}
    for section, names in (
        ("policy", ("alpha", "gamma", "epsilon")),
        ("simulation", ("runs", "horizon", "seed", "workers")),
    ):
        values = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
        if values:
            overrides[section] = values
    return load_config(args.config, overrides)


def _campaign_args(config: AppConfig, table: ScoringTable) -> dict[str, Any]:
    """``run_campaign``'s keywords from the simulation and policy sections."""
    sim = config.simulation
    return dict(
        runs=sim.runs,
        horizon=sim.horizon,
        base_seed=sim.seed,
        hyper=config.policy,
        deviation_rate=sim.deviation_rate,
        time_low=sim.solve_time_low,
        time_high=sim.solve_time_high,
        table=table,
        workers=sim.workers,
    )


def _cmd_simulate(args: argparse.Namespace, config: AppConfig, table: ScoringTable) -> int:
    campaign = run_campaign(args.user, args.preconfigured, **_campaign_args(config, table))
    stats = campaign.summary()
    if args.out:
        write_campaign_csv(campaign, args.out)
    if args.series:
        write_series_csv(campaign, args.series)
    print(
        f"user={args.user} preconfigured={args.preconfigured} "
        f"runs={stats.runs} horizon={campaign.horizon}"
    )
    print(f"Z_m={stats.z_mean:.4f} Z_sd={stats.z_sd:.4f}")
    print(f"R_m={stats.reward_mean:.4f} R_sd={stats.reward_sd:.4f}")
    print(
        f"recovery_rate={stats.recovery_rate:.4f} "
        f"non_recovery_rate={stats.non_recovery_rate:.4f}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace, config: AppConfig, table: ScoringTable) -> int:
    rows = run_sweep(args.user, **_campaign_args(config, table))
    write_sweep_csv(rows, args.out)
    for row in rows:
        flag = "T" if row.preconfigured else "F"
        print(
            f"H_S={flag} alpha={row.alpha} gamma={row.gamma} epsilon={row.epsilon} "
            f"Z_m={row.z_mean:.2f} Z_sd={row.z_sd:.2f} "
            f"R_m={row.reward_mean:.2f} R_sd={row.reward_sd:.2f}"
        )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace, config: AppConfig, table: ScoringTable) -> int:
    host = port = None
    if args.bind is not None:
        host, port = args.bind
    try:
        asyncio.run(server_mod.serve(config, host=host, port=port))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_inspect(args: argparse.Namespace, config: AppConfig, table: ScoringTable) -> int:
    print("scoring table:")
    print("  category,observation,negation,hesitation")
    for category, values in CATEGORY_VALUES.items():
        for observation in values:
            negation = table.entry(category, observation, NEGATION)
            hesitation = table.entry(category, observation, HESITATION)
            print(f"  {category},{observation},{negation:g},{hesitation:g}")
    print()
    truth = table.truth
    print(f"ground-truth map ({len(truth)} triples):")
    states_seen = set()
    for triple in all_observation_triples():
        state, action = truth[triple]
        states_seen.add(state)
        capacity, gaze, task = triple.as_labels()
        print(f"  {capacity},{gaze},{task} -> {state.value} [{action.label}]")
    print(f"  distinct cognitive states: {len(states_seen)}")
    print()
    hyper: Hyperparameters = config.policy
    qtable = init_from_scoring(truth, hyper.q_init, hyper)
    print("q-table snapshot (state,action,value,visits):")
    for state in STATES:
        for action in ACTIONS:
            value = qtable.value(state, action)
            visits = qtable.visit_count(state, action)
            print(f"  {state.value},{action.label},{value!r},{visits}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        table = config.scoring_table()
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "inspect": _cmd_inspect,
    }
    return handlers[args.command](args, config, table)


if __name__ == "__main__":
    sys.exit(main())
