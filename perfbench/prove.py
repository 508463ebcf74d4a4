"""Run the benchmark over several seeds, workloads interleaved, and report
each metric's median and quartile spread against the bounds in
BENCHMARK.json.

    python3 perfbench/prove.py --seeds 10            # plain runs, seeds 1-10
    python3 perfbench/prove.py --seeds 2 --trace 1   # traced runs

For each seed every workload runs once, one after another, so slow phases
of a shared machine fall on all workloads alike rather than on one. The
spread of a metric is the distance between the first and third quartiles
of its per-run values (``statistics.quantiles(values, n=4)``) as a share of
their median; a spread at or above a third of the bound is flagged. The
exit code is 1 when any run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(1, 1 + args.seeds):
        for workload in results:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            results[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in ("wall_s", "setup_s", "cli.main_s", "trace.coverage")),
                  flush=True)

    bound_of = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    all_correct = True
    for workload, rows in results.items():
        all_correct &= all(r["correct"] for r in rows)
        print(f"\n{workload}: {len(rows)} runs, "
              f"{sum(r['failed'] for r in rows)} of {sum(r['attempted'] for r in rows)} attempts failed")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            unit = rows[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            line = f"  {name:30s} median {median:12.6g} {unit:6s}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
                line += f" q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f}"
                bound = bound_of.get(name)
                if bound is not None:
                    line += f" bound {bound}" + ("  WIDE" if spread >= bound / 3 else "")
            print(line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
