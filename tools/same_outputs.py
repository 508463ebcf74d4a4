"""Check that two source trees give byte-identical benchmark outputs.

    python3 tools/same_outputs.py BEFORE_TREE AFTER_TREE

For each ``perfbench`` workload and seeds 1-3, BEFORE_TREE's ``perfbench/gen.py``
writes the inputs once. Each tree then runs the workload's commands as
``perfbench/run.py`` does, with BEFORE_TREE's ``run.py`` giving the argv:
the ``split`` that ``audit-split-viral`` prepares, then the ``audit`` or
``rebalance`` itself, with the tree's ``src/`` on ``PYTHONPATH``. Both trees
run in the same directories, so paths in the outputs match. Compared are
every output file, the split file, stdout and the exit code.

No workload's inputs hold a row that is not plain (an optional field, an
extra key, an id written as a JSON number), so the tool also derives a
rich variant of ``rebalance-dense`` seed 1 from its generated inputs: every
fifth data and pool line gains ``event``, ``reply_count`` and one extra
key, and one data id is written as a JSON number. On it, both trees run the
``rebalance`` and an ``inspect --json`` of each input.

Exit 0 when everything matches; exit 1 naming the first file whose bytes
differ. Only the standard library is imported here; the commands need what
the trees need.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("audit-full", "audit-split-viral", "rebalance-dense")
SEEDS = (1, 2, 3)
# the workload and seed whose inputs the rich variant rewrites
RICH = ("rebalance-dense", 1)

# run in a child with the tree's src/ and perfbench/ importable: prepare the
# workload (which may run the tree's CLI) and print the CLI argv
ARGV_SNIPPET = """\
import json, os, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
workload = run.WORKLOADS[sys.argv[2]]
work, seed, out = Path(sys.argv[3]), int(sys.argv[4]), Path(sys.argv[5])
problems = workload.prepare(work, seed, dict(os.environ))
print(json.dumps({"problems": problems, "argv": workload.argv(work, seed, out)}))
"""


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave both trees as they are
    return env


def enrich(work: Path) -> None:
    """Rewrite the data and pool files in ``work`` as the rich variant."""
    for name in ("data.jsonl", "pool.jsonl"):
        path = work / name
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for i, row in enumerate(rows[::5]):
            row.update(event=f"event-{i % 3}", reply_count=i % 7, lang="en")
        if name == "data.jsonl":
            rows[1]["id"] = int(rows[1]["id"])
        path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                        encoding="utf-8")


def outputs(tree: Path, bench: Path, workload: str, seed: int, work: Path,
            inspect: bool = False) -> dict[str, bytes]:
    """Every output of one workload run by ``tree``'s program, by name; with
    ``inspect``, those of an ``inspect --json`` of each input too."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    (work / "split.json").unlink(missing_ok=True)
    env = _env(tree)
    prepared = subprocess.run(
        [sys.executable, "-c", ARGV_SNIPPET, str(bench), workload, str(work), str(seed), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    plan = json.loads(prepared.stdout.splitlines()[-1])
    if plan["problems"]:
        sys.exit(f"{tree}: {workload} seed {seed}: {plan['problems']}")
    argv = plan["argv"]
    commands = [argv]
    if inspect:
        labels = argv[argv.index("--labels") + 1]
        commands += [["inspect", str(work / name), "--labels", labels,
                      "--json", str(out / f"inspect-{name}.json")]
                     for name in ("data.jsonl", "pool.jsonl")]
    found = {}
    for command in commands:
        run = subprocess.run([sys.executable, "-m", "leakaudit", *command], env=env,
                             capture_output=True)
        name = f"{command[0]} {Path(command[1]).name}"
        found[f"{name} exit code"] = str(run.returncode).encode()
        found[f"{name} stdout"] = run.stdout
    if (work / "split.json").exists():
        found["split.json"] = (work / "split.json").read_bytes()
    for path in sorted(out.iterdir()):
        found[path.name] = path.read_bytes()
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="source tree whose outputs are the reference")
    parser.add_argument("after", type=Path, help="source tree to compare with it")
    args = parser.parse_args()
    trees = [args.before.resolve(), args.after.resolve()]
    for tree in trees:
        if not (tree / "src" / "leakaudit" / "cli.py").is_file():
            parser.error(f"no leakaudit sources under {tree / 'src'}")
    bench = trees[0] / "perfbench"
    runs = [(workload, seed, False) for workload in WORKLOADS for seed in SEEDS]
    runs.append((*RICH, True))
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        for workload, seed, rich in runs:
            label = f"{workload} seed {seed}{' rich' if rich else ''}"
            work = Path(scratch) / label.replace(" ", "-")
            generate = [sys.executable, str(bench / "gen.py"), workload, str(seed), str(work)]
            subprocess.run(generate, env=_env(trees[0]), check=True)
            if rich:
                enrich(work)
            before, after = (outputs(tree, bench, workload, seed, work, rich) for tree in trees)
            for name in sorted(before.keys() | after.keys()):
                if before.get(name) != after.get(name):
                    print(f"differs: {label}: {name}")
                    return 1
            print(f"same: {label}: {', '.join(sorted(before))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
