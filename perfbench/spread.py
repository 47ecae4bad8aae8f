"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (IQR over median) against its bound.

    python3 perfbench/spread.py --workload session_churn --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out baseline.json

Every run is a fresh ``perfbench/run.py`` process, run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="write the summary (and machine info) as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(), "system": platform.system(),
                    "machine": platform.machine()},
        "seeds": args.seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)
        table = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            table[name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else ("within bound" if stats["spread"] <= bound else "TOO WIDE")
            print(f"  {workload:<14} {name:<18} median {stats['median']:>12.6g} {stats['unit']:<4} "
                  f"spread {stats['spread']:.4f} (bound {bound}) {flag}", flush=True)
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": table,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
