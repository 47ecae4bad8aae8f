"""Benchmark of the scaffolder package, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it measures the package in that
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the separate traced pass and prints the
per-layer metrics instead.  Named figures go to stdout one per line, and the
last line is one JSON object: correct, attempted, failed, metrics.

``--workload all`` runs every workload, one after another, each followed by
its own result line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from harness import BENCHMARK_JSON, OUT, BenchError, Report, expected_metrics, import_package

WORKLOADS = ("desk_study", "live_sessions", "session_churn")
CONFIG_CALLS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    import desk
    import service

    report = Report()
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}", flush=True)
    if not trace:
        {"desk_study": desk.run, "live_sessions": service.run_live, "session_churn": service.run_churn}[
            workload
        ](seed, seconds, report)
    else:
        from tracing import Tracer

        config_tracer = time_config_layer(Tracer())
        tracer = Tracer()
        if workload == "desk_study":
            extras = desk.run_traced(seed, seconds, report, tracer)
        else:
            extras = service.run_traced(workload, seed, seconds, report, tracer)
        for name, (value, unit) in layer_metrics(tracer, config_tracer, extras).items():
            report.metric(name, value, unit)
        if tracer.missing:
            print(f"  not found, reported as 0 calls: {', '.join(tracer.missing)}", flush=True)
        tracer.write(OUT / f"spans_{workload}_{seed}.tsv")
    report.show("failed_share", report.failed / max(report.attempted, 1), "share", report.attempted)
    return report


def time_config_layer(tracer):
    """The config layer, traced on its own: load, scoring table, digest."""
    from scaffolder import config as config_mod

    from tracing import TARGETS

    with tracer.installed([t for t in TARGETS if t[2].startswith("config.")]):
        for _ in range(CONFIG_CALLS):
            config = config_mod.load_config()
            config.scoring_table()
            config_mod.config_digest(config)
    return tracer


DISPATCH = ("open_session", "gaze_event", "query_strategy", "task_performance", "close_session", "error")
ERRORS = ("unknown_session", "no_pending_query", "task_mismatch", "target_out_of_range")


def layer_metrics(tracer, config_tracer, extras: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; a layer the workload never calls reads 0.

    "Per run" means per simulated run on desk_study and per opened session on
    the service workloads.
    """
    runs = extras.get("runs") or extras.get("sessions") or 0
    episodes = extras.get("episodes", 0)

    def per(name: str, base: float) -> float:
        return tracer.stats(name)[0] / base if base else 0.0

    def self_us(name: str) -> float:
        calls, _, self_ns = tracer.stats(name)
        return self_ns / calls / 1e3 if calls else 0.0

    def total_ms(t, name: str) -> float:
        calls, total_ns, _ = t.stats(name)
        return total_ns / calls / 1e6 if calls else 0.0

    dispatch_ns = sum(tracer.stats(f"server.dispatch.{kind}")[1] for kind in DISPATCH)
    metrics = {
        "scoring.reduce_observation.calls_per_episode": (per("scoring.reduce_observation", episodes), "count"),
        "scoring.reduce_observation.self_us": (self_us("scoring.reduce_observation"), "us"),
        "scoring.ground_truth_map.calls_per_run": (per("scoring.ground_truth_map", runs), "count"),
        "scoring.default_scoring_table.calls_per_run": (per("scoring.default_scoring_table", runs), "count"),
        "scoring.default_scoring_table.self_us": (self_us("scoring.default_scoring_table"), "us"),
        "policy.select_action.self_us": (self_us("policy.select_action"), "us"),
        "policy.update.self_us": (self_us("policy.update"), "us"),
        "policy.init_from_scoring.self_us": (self_us("policy.init_from_scoring"), "us"),
        "simulation.run_simulation.ms_per_run": (total_ms(tracer, "simulation.run_simulation"), "ms"),
        "simulation.run_setup_share": (
            tracer.lead_ns / tracer.lead_total_ns if tracer.lead_total_ns else 0.0,
            "share",
        ),
        "simulation.make_user.self_us": (self_us("simulation.make_user"), "us"),
        "simulation.simulate_outcome.self_us": (self_us("simulation.simulate_outcome"), "us"),
        "simulation.pool.spec_pickle_bytes": (extras.get("simulation.pool.spec_pickle_bytes", 0), "B"),
        "simulation.pool.spec_pickle_bytes_with_table": (
            extras.get("simulation.pool.spec_pickle_bytes_with_table", 0),
            "B",
        ),
        "simulation.pool.overhead_s": (extras.get("simulation.pool.overhead_s", 0.0), "s"),
        "simulation.pool.episodes_per_s_w2": (extras.get("simulation.pool.episodes_per_s_w2", 0.0), "1/s"),
        "partner_model.apply_gaze.self_us": (self_us("partner_model.apply_gaze"), "us"),
        "partner_model.classify.self_us": (self_us("partner_model.classify"), "us"),
        "session.query.self_us": (self_us("session.query"), "us"),
        "session.complete.self_us": (self_us("session.complete"), "us"),
        "session.records_held": (extras.get("session.records_held", 0), "count"),
    }
    for kind in DISPATCH:
        metrics[f"server.dispatch.{kind}.self_us"] = (self_us(f"server.dispatch.{kind}"), "us")
    metrics["server.serialize.self_us"] = (self_us("server.serialize"), "us")
    metrics["server.json_decode_share"] = (
        tracer.stats("server.json_decode")[1] / dispatch_ns if dispatch_ns else 0.0,
        "share",
    )
    metrics["server.transport_us"] = (extras.get("server.transport_us", 0.0), "us")
    for reason in ERRORS:
        metrics[f"server.error_replies.{reason}"] = (extras.get(f"server.error_replies.{reason}", 0), "count")
    metrics["config.load_config.ms"] = (total_ms(config_tracer, "config.load_config"), "ms")
    metrics["config.scoring_table.ms"] = (total_ms(config_tracer, "config.scoring_table"), "ms")
    metrics["config.config_digest.ms"] = (total_ms(config_tracer, "config.config_digest"), "ms")
    metrics["trace.overhead_share"] = (extras["trace.overhead_share"], "share")
    metrics["client.cpu_share"] = (extras.get("client.cpu_share", 0.0), "share")
    metrics["client.turnaround_us"] = (extras.get("client.turnaround_us", 0.0), "us")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["run_seconds"])
    try:
        import_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        started = time.perf_counter()
        report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        want = expected_metrics(bool(args.trace))
        got = {name: m["unit"] for name, m in report.metrics.items()}
        if got != want:
            print(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
            return 3
        print(f"  ({workload} took {time.perf_counter() - started:.1f} s)", flush=True)
        print(report.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
