"""Check that two source trees give byte-identical benchmark outputs.

    python3 tools/same_outputs.py BEFORE_TREE AFTER_TREE

For each ``perfbench`` workload and seeds 1-3, BEFORE_TREE's ``perfbench/gen.py``
writes the inputs once. Each tree then runs the workload's commands as
``perfbench/run.py`` does, with BEFORE_TREE's ``run.py`` giving the argv:
the ``split`` that ``audit-split-viral`` prepares, then the ``audit`` or
``rebalance`` itself, with the tree's ``src/`` on ``PYTHONPATH``. Both trees
run in the same directories, so paths in the outputs match. Compared are
every output file, the split file, stdout, stderr and the exit code.

No workload's inputs hold a row that is not plain (an optional field, an
extra key, an id written as a JSON number), so the tool also derives a
rich variant of ``rebalance-dense`` seed 1 from its generated inputs: every
fifth data and pool line gains an ``event`` (one of the PHEME events the
shipped presets name), a ``reply_count`` and one extra key, every fifth of
those lines an ``article_id`` too, and one data id is written as a JSON
number. On it, both trees run the ``rebalance``, an ``inspect --json`` of
each input, a ``split --preset NAME --seed 1`` of the data for each
shipped preset, and an ``aggregate`` of the data with its own labels as
the predictions.

Every workload text is lowercase ASCII words, so the tool derives a
punctuated variant of ``audit-full`` seed 1 as well: every fifth text of
its ``data.jsonl`` gains words with sigils, punctuation, URLs, underscores
and non-ASCII letters and digits, which take the keyword scan's token
pattern, URL stripping and the duplicate scan's shingles off the plain-word
path. On it, both trees run the ``audit``.

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
# the events the rich variant gives its rewritten lines: the nine PHEME
# events, of which the presets' event filters name the first five
EVENTS = ("charliehebdo", "sydneysiege", "ferguson", "ottawashooting", "germanwings-crash",
          "putinmissing", "prince-toronto", "gurlitt", "ebola-essien")
# the shipped split presets, each run on the rich variant's data
PRESETS = ("gossipcop", "pheme5-3way", "pheme5-lc", "pheme5-rnr", "pheme9-4way", "pheme9-tf",
           "politifact", "twitter15", "twitter15-tf", "twitter16", "twitter16-tf", "wnut2020")
# the words the punctuated variant adds, a few to each text it rewrites
PUNCTUATED_WORDS = ("#Breaking2015!", "@user:", "don't", "https://t.co/Ab1", "www.x.org/y",
                    "x_y", "café", "٣٤", "ＡＢＣ", "(RT)", "--", "U.S.")

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


def _rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write_rows(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                    encoding="utf-8")


def enrich(work: Path) -> None:
    """Rewrite the data and pool files in ``work`` as the rich variant."""
    for name in ("data.jsonl", "pool.jsonl"):
        rows = _rows(work / name)
        for i, row in enumerate(rows[::5]):
            row.update(event=EVENTS[i % len(EVENTS)], reply_count=i % 7, lang="en")
            if i % 5 == 0:
                # articles of one label each, but for one that mixes labels
                row["article_id"] = "mixed" if i % 25 == 0 else f"{row['label']}-{i // 5 % 40}"
        if name == "data.jsonl":
            rows[1]["id"] = int(rows[1]["id"])
        _write_rows(work / name, rows)


def punctuate(work: Path) -> None:
    """Rewrite the data file in ``work`` as the punctuated variant: the
    i-th rewritten text gains three of ``PUNCTUATED_WORDS`` from the i-th
    on, the first before its words and the others after."""
    rows = _rows(work / "data.jsonl")
    n = len(PUNCTUATED_WORDS)
    for i, row in enumerate(rows[::5]):
        first, *rest = (PUNCTUATED_WORDS[(i + j) % n] for j in range(3))
        row["text"] = " ".join((first, row["text"], *rest))
    _write_rows(work / "data.jsonl", rows)


def rich_commands(work: Path, out: Path, labels: str) -> dict[str, list[str]]:
    """The rich variant's further commands, by name."""
    data = str(work / "data.jsonl")
    commands = {f"inspect {name}": ["inspect", str(work / name), "--labels", labels,
                                    "--json", str(out / f"inspect-{name}.json")]
                for name in ("data.jsonl", "pool.jsonl")}
    for preset in PRESETS:
        commands[f"split {preset}"] = ["split", data, "--labels", labels, "--preset", preset,
                                       "--seed", "1", "--out", str(out / f"split-{preset}.json")]
    commands["aggregate"] = ["aggregate", data, "--labels", labels, "--pred", data,
                             "--out", str(out / "articles.csv")]
    return commands


# each variant: the workload and seed whose inputs it rewrites, how, and
# the further commands it runs, if any
VARIANTS = {
    "rich": ("rebalance-dense", 1, enrich, rich_commands),
    "punctuated": ("audit-full", 1, punctuate, None),
}


def outputs(tree: Path, bench: Path, workload: str, seed: int, work: Path,
            more=None) -> dict[str, bytes]:
    """Every output of one workload run by ``tree``'s program, by name; with
    ``more``, a variant's further commands, their outputs too."""
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
    commands = {f"{argv[0]} {Path(argv[1]).name}": argv}
    if more is not None:
        commands.update(more(work, out, argv[argv.index("--labels") + 1]))
    found = {}
    for name, command in commands.items():
        run = subprocess.run([sys.executable, "-m", "leakaudit", *command], env=env,
                             capture_output=True)
        found[f"{name} exit code"] = str(run.returncode).encode()
        found[f"{name} stdout"] = run.stdout
        found[f"{name} stderr"] = run.stderr
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
    runs = [(f"{workload} seed {seed}", workload, seed, None, None)
            for workload in WORKLOADS for seed in SEEDS]
    runs += [(f"{workload} seed {seed} {variant}", workload, seed, rewrite, more)
             for variant, (workload, seed, rewrite, more) in VARIANTS.items()]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        for label, workload, seed, rewrite, more in runs:
            work = Path(scratch) / label.replace(" ", "-")
            generate = [sys.executable, str(bench / "gen.py"), workload, str(seed), str(work)]
            subprocess.run(generate, env=_env(trees[0]), check=True)
            if rewrite is not None:
                rewrite(work)
            before, after = (outputs(tree, bench, workload, seed, work, more) for tree in trees)
            for name in sorted(before.keys() | after.keys()):
                if before.get(name) != after.get(name):
                    print(f"differs: {label}: {name}")
                    return 1
            print(f"same: {label}: {', '.join(sorted(before))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
