"""leakaudit benchmark: one workload, timed from outside, outputs checked.

    python3 perfbench/run.py --workload audit-full --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. The seed makes the workload's inputs (see ``gen.py``);
generating them is not timed. The run and all its children are pinned to
one CPU. Then:

* With ``--trace 0`` the real CLI runs in a fresh subprocess, again and
  again for ``--seconds``. Each invocation is timed from spawn to exit, its
  CPU time and peak RSS come from ``os.wait4``, and its exit code and output
  files are checked. After each invocation a fresh interpreter imports
  leakaudit and loads the workload's input files: the set-up sample. Every
  timed child is bracketed by timings of a fixed reference computation,
  and its wall and CPU times are scaled to the machine speed at which that
  computation takes ``REFERENCE_NOMINAL_S``. Metrics are medians over
  invocations (``setup_s`` over set-up samples). The record keeps the raw
  times and the scale of every sample.
* With ``--trace 1`` traced invocations (``tracer.py``) alternate with plain
  ones for ``--seconds``, and the per-layer metrics are medians over the
  traced ones. ``trace.plain_wall_s`` beside ``cli.main_s`` and
  ``trace.wall_s`` shows the tracing overhead.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it is a record of the machine and of every
invocation, including host steal ticks from ``/proc/stat``. Both are also
written, with the spans of traced runs, under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LABELS = ",".join(gen.LABELS)
# fewest invocations per run: plain, and traced + plain alternating
MIN_ROUNDS = {0: 5, 1: 2}
# reference_work() takes this long at the nominal machine speed that
# plain-mode times are scaled to
REFERENCE_NOMINAL_S = 0.2
SETUP_SNIPPET = (
    "import sys, leakaudit\n"
    "from leakaudit.data import Manifest, load_jsonl\n"
    "manifest = Manifest(labels=tuple(sys.argv[1].split(',')))\n"
    "for path in sys.argv[2:]:\n"
    "    load_jsonl(path, manifest)\n"
)


class Workload:
    """A CLI command over generated inputs, with its expected outcome."""

    expected_exit = 0
    inputs = ("data.jsonl",)
    outputs: tuple[str, ...] = ()

    def prepare(self, work: Path, seed: int, env: dict) -> list[str]:
        """Untimed set-up before the first invocation; returns problems."""
        return []

    def argv(self, work: Path, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, truth: dict, work: Path, out: Path) -> list[str]:
        raise NotImplementedError


def _bundle(out: Path) -> dict:
    return json.loads((out / "bundle.json").read_text(encoding="utf-8"))


class AuditFull(Workload):
    expected_exit = 2
    outputs = ("bundle.json",)

    def argv(self, work, seed, out):
        return ["audit", str(work / "data.jsonl"), "--labels", LABELS,
                "--json", str(out / "bundle.json")]

    def check(self, truth, work, out):
        bundle = _bundle(out)
        problems = []
        top = bundle["keywords"]["top"][0]
        if (top["token"], top["top_label"]) != (truth["shortcut_token"], truth["shortcut_label"]):
            problems.append(f"top token is {top['token']!r} -> {top['top_label']!r}")
        if bundle["duplicates"]["n_exact_clusters"] < truth["n_triples"]:
            problems.append(f"{bundle['duplicates']['n_exact_clusters']} exact clusters")
        if bundle["id_leak"]["summary"]["3"]["verdict"] != "severe":
            problems.append(f"k=3 verdict {bundle['id_leak']['summary']['3']['verdict']}")
        return problems


class AuditSplitViral(Workload):
    expected_exit = 2
    outputs = ("bundle.json",)

    def prepare(self, work, seed, env):
        argv = ["split", str(work / "data.jsonl"), "--labels", LABELS,
                "--seed", str(seed), "--out", str(work / "split.json")]
        code = subprocess.run([sys.executable, "-m", "leakaudit", *argv], env=env,
                              stdout=subprocess.DEVNULL).returncode
        return [] if code == 0 else [f"split exited {code}"]

    def argv(self, work, seed, out):
        return ["audit", str(work / "data.jsonl"), "--labels", LABELS,
                "--split", str(work / "split.json"), "--k", "2",
                "--json", str(out / "bundle.json")]

    def check(self, truth, work, out):
        bundle = _bundle(out)
        problems = []
        largest = bundle["duplicates"]["largest_clusters"][0]["size"]
        if largest != len(truth["copy_ids"]):
            problems.append(f"largest cluster has {largest} records")
        split = json.loads((work / "split.json").read_text(encoding="utf-8"))
        copies = set(truth["copy_ids"])
        in_train = len(copies.intersection(split["train_ids"]))
        in_other = len(copies.intersection(split["dev_ids"])) + len(copies.intersection(split["test_ids"]))
        if bundle["contamination"]["n_pairs"] < in_train * in_other:
            problems.append(f"{bundle['contamination']['n_pairs']} contamination pairs "
                            f"< {in_train} x {in_other}")
        return problems


class RebalanceDense(Workload):
    inputs = ("data.jsonl", "pool.jsonl")
    outputs = ("rebalanced.jsonl", "report.json")

    def argv(self, work, seed, out):
        return ["rebalance", str(work / "data.jsonl"), "--labels", LABELS,
                "--pool", str(work / "pool.jsonl"), "--anchor-label", gen.ANCHOR_LABEL,
                "--window", "7d", "--seed", str(seed),
                "--out", str(out / "rebalanced.jsonl"), "--report", str(out / "report.json")]

    def check(self, truth, work, out):
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems = []
        if report["n_replaced"] + report["n_rejected"] != truth["n_non_anchor"]:
            problems.append(f"replaced {report['n_replaced']} + rejected {report['n_rejected']} "
                            f"!= {truth['n_non_anchor']} non-anchor records")
        with open(work / "data.jsonl", encoding="utf-8") as before, \
                open(out / "rebalanced.jsonl", encoding="utf-8") as after:
            pairs = [(json.loads(a), json.loads(b)) for a, b in zip(before, after, strict=True)]
        changed = sum(1 for a, b in pairs if a["label"] == gen.ANCHOR_LABEL and a != b)
        if changed:
            problems.append(f"{changed} anchor records changed")
        before_score = report["leak_before"]["leakage_score"]
        after_score = report["leak_after"]["leakage_score"]
        if not after_score < before_score:
            problems.append(f"leak score {before_score} -> {after_score}")
        return problems


WORKLOADS = {
    "audit-full": AuditFull(),
    "audit-split-viral": AuditSplitViral(),
    "rebalance-dense": RebalanceDense(),
}

# per-layer metric -> (span name, "total" or "self"), summed over calls
SPAN_TIMES = {
    "data.load_s": ("data.load", "total"),
    "data.validate_s": ("data.validate", "total"),
    "data.save_s": ("data.save", "total"),
    "data.by_id_s": ("data.by_id", "total"),
    "splits.random_split_s": ("splits.random_split", "total"),
    "splits.import_split_s": ("splits.import_split", "total"),
    "idleak.probe_self_s": ("idleak.probe", "self"),
    "idleak.digit_features_s": ("idleak.digit_features", "total"),
    "forest.fit_s": ("forest.fit", "total"),
    "forest.predict_s": ("forest.predict", "total"),
    "metrics.from_pairs_s": ("metrics.from_pairs", "total"),
    "textleak.scan_s": ("textleak.scan", "total"),
    "dedup.scan_s": ("dedup.scan", "total"),
    "dedup.contamination_s": ("dedup.contamination", "total"),
    "rebalance.total_s": ("rebalance.time_rebalance", "total"),
    "rebalance.self_s": ("rebalance.time_rebalance", "self"),
    "snowflake.histogram_s": ("snowflake.histogram", "total"),
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
    "trace.count_s": ("trace.count", "total"),
}
SPAN_CALLS = {
    "data.by_id_calls": "data.by_id",
    "splits.random_split_calls": "splits.random_split",
    "idleak.probe_runs": "idleak.probe",
    "forest.fit_calls": "forest.fit",
}
COUNTS = (
    "idleak.digit_rows", "forest.patterns", "forest.nodes", "forest.predict_rows",
    "textleak.tokens", "dedup.nodes", "dedup.exact_clusters", "dedup.near_clusters",
    "dedup.records_in_near", "dedup.contamination_pairs", "rebalance.replaced",
    "rebalance.rejected",
)


def layer_metrics(payload: dict) -> dict[str, float]:
    """Per-layer numbers of one traced invocation."""
    spans = payload["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + duration
        own[span["name"]] = own.get(span["name"], 0.0) + duration - child_time[i]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    out = {
        metric: (total if kind == "total" else own).get(name, 0.0)
        for metric, (name, kind) in SPAN_TIMES.items()
    }
    out.update({metric: calls.get(name, 0) for metric, name in SPAN_CALLS.items()})
    counts = payload["counts"]
    out.update({name: counts.get(name, 0) for name in COUNTS})
    rows = counts.get("forest.predict_rows", 0)
    out["forest.predict_distinct_ratio"] = counts.get("forest.predict_distinct", 0) / rows if rows else 0.0
    taken = out["rebalance.replaced"] + out["rebalance.rejected"]
    out["rebalance.replace_ratio"] = out["rebalance.replaced"] / taken if taken else 0.0
    out["proc.import_s"] = payload["import_s"]
    return out


def reference_work() -> float:
    """Fixed work unrelated to leakaudit (JSON, regex, dicts, a sort and a
    little numpy); returns its wall time, a reading of the machine's speed."""
    start = time.perf_counter()
    rng = random.Random(20150101)
    words = ["".join(rng.choices(string.ascii_lowercase, k=6)) for _ in range(2000)]
    rows = [{"id": str(550_000_000_000_000_000 + i * 7919), "text": " ".join(rng.choices(words, k=10))}
            for i in range(8000)]
    counts: dict[str, int] = {}
    for line in [json.dumps(row, sort_keys=True) for row in rows]:
        for token in re.findall(r"\w+", json.loads(line)["text"]):
            counts[token] = counts.get(token, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    digits = np.frombuffer("".join(row["id"][:3] for row in rows).encode(), dtype=np.uint8)
    np.unique(digits.reshape(-1, 3) - ord("0"), axis=0)
    return time.perf_counter() - start


def steal_ticks() -> int:
    """Host steal time of the whole machine, in clock ticks (read only)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def spawn(argv: list[str], env: dict) -> dict:
    """Run argv to completion; wall, CPU and peak RSS of that child alone."""
    steal = steal_ticks()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "steal_ticks": steal_ticks() - steal,
        "stderr": stderr.decode("utf-8", "replace")[-2000:],
    }


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "leakaudit" / "cli.py").is_file():
        print(f"error: no leakaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Everything runs on one CPU. On a shared 2-core VM the two vCPUs see
    # different and changing contention from other tenants; letting the
    # scheduler pick one per invocation spread run medians by about 25%,
    # pinning by about 7%. Children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    truth = gen.generate(args.workload, args.seed, work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    prepare_problems = workload.prepare(work, args.seed, env)
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, LABELS,
                  *(str(work / name) for name in workload.inputs)]
    tracer_py = str(HERE / "tracer.py")
    setup: list[dict] = []
    runs: list[dict] = []
    layers: list[dict] = []
    reference = None
    started = time.perf_counter()
    # Even pinned, the host's speed drifts by up to 2x for minutes at a time.
    # In plain mode each timed child is bracketed by readings of the reference
    # work on the same CPU, and its times are scaled to the nominal speed.
    # Traced mode compares raw times of one run and takes no readings.
    last_reading = 0.0 if args.trace else reference_work()

    def spawn_scaled(argv: list[str]) -> dict:
        nonlocal last_reading
        result = spawn(argv, env)
        reading = reference_work()
        result["speed_scale"] = 2 * REFERENCE_NOMINAL_S / (last_reading + reading)
        last_reading = reading
        return result

    # One CLI invocation, then (plain mode) one set-up sample, per round, so
    # both sample the same stretch of a shared machine's slow and fast phases.
    while True:
        round_start = time.perf_counter()
        traced = args.trace == 1 and len(runs) % 2 == 0
        out = work / f"run{len(runs)}"
        out.mkdir()
        cli_argv = workload.argv(work, args.seed, out)
        spans_path = out / "spans.json"
        if traced:
            run = spawn([sys.executable, tracer_py, str(spans_path), "--", *cli_argv], env)
        elif args.trace:
            run = spawn([sys.executable, "-m", "leakaudit", *cli_argv], env)
        else:
            run = spawn_scaled([sys.executable, "-m", "leakaudit", *cli_argv])
        run["traced"] = traced
        run["problems"] = []
        if run["exit_code"] != workload.expected_exit:
            run["problems"].append(f"exit code {run['exit_code']}, expected "
                                   f"{workload.expected_exit}: {run['stderr']}")
        else:
            # any malformed output (a missing file, a null where a section
            # belongs, a short list) counts as a failed attempt
            try:
                run["problems"] += workload.check(truth, work, out)
                output_digest = digest(out / name for name in workload.outputs)
                if traced:
                    layers.append(layer_metrics(json.loads(spans_path.read_text(encoding="utf-8"))))
            except Exception as exc:
                run["problems"].append(f"unreadable output: {exc!r}")
            else:
                reference = reference or output_digest
                if output_digest != reference:
                    run["problems"].append("outputs differ from the first run of this seed")
        del run["stderr"]
        runs.append(run)
        for name in workload.outputs:
            (out / name).unlink(missing_ok=True)
        if not args.trace:
            sample = spawn_scaled(setup_argv)
            sample["problems"] = [f"exit code {sample['exit_code']}: {sample['stderr']}"] if sample["exit_code"] else []
            del sample["stderr"]
            setup.append(sample)

        now = time.perf_counter()
        if len(runs) >= MIN_ROUNDS[args.trace] and now - started + (now - round_start) > args.seconds:
            break

    plain = [r for r in runs if not r["traced"]]
    # attempts: every CLI invocation, every set-up sample, and the preparation
    problems = prepare_problems + [p for r in runs + setup for p in r["problems"]]
    failed = sum(1 for r in runs + setup if r["problems"]) + (1 if prepare_problems else 0)
    attempted = len(runs) + len(setup) + 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]} if layers else {}
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.plain_wall_s"] = plain_wall
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in runs if r["traced"])
        if layers:
            covered = metrics["cli.main_s"] - metrics["trace.count_s"] + metrics["proc.import_s"]
            metrics["trace.coverage"] = covered / plain_wall
            if set(metrics) != set(names):
                raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}")
        metrics = {name: metrics.get(name, 0.0) for name in names}
    else:
        wall = statistics.median(r["wall_s"] * r["speed_scale"] for r in plain)
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] * r["speed_scale"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "records_per_s": truth["records"] / wall,
            "setup_s": statistics.median(s["wall_s"] * s["speed_scale"] for s in setup),
            "ok_share": 1.0 - failed / attempted,
        }
    unit_of = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        },
        "records": truth["records"],
        "setup": setup,
        "prepare_problems": prepare_problems,
        "runs": runs,
    }
    (work / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n",
                                      encoding="utf-8")
    for name in workload.inputs:
        (work / name).unlink(missing_ok=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
