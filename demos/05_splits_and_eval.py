"""Cut a reproducible benchmark split and score a prediction file.

Splits are driven by a declarative spec (ratios, stratification,
grouping, event holdouts, quotas) and a seed; the same spec and seed
always produce byte-identical exports. Named presets bundle the specs
used by common rumor/fake-news benchmarks. Scoring takes plain
{id: label} mappings and reports per-class precision/recall/F1.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from leakaudit import (
    LabelSet,
    build_dataset,
    evaluate,
    export_split,
    load_presets,
    preset_split,
)

rng = np.random.default_rng(5)
labels = ("true", "false", "unverified", "non-rumor")

rows = []
for i in range(800):
    rows.append({
        "id": str(3_000_000 + i),
        "text": f"claim {i} about subject {i % 31}",
        "label": labels[i % 4],
        "event": ("charliehebdo", "sydneysiege", "ferguson",
                  "ottawashooting", "germanwings-crash")[i % 5],
    })
dataset = build_dataset(rows, labels=labels, name="demo-corpus")

print("available presets:", ", ".join(sorted(load_presets())))

split = preset_split(dataset, "pheme5-3way", seed=42)
print(f"\npheme5-3way seed=42: train {len(split.train_ids)} / "
      f"dev {len(split.dev_ids)} / test {len(split.test_ids)}")

# identical inputs give a byte-identical export file
with tempfile.TemporaryDirectory() as tmp:
    a, b = Path(tmp, "a.json"), Path(tmp, "b.json")
    export_split(split, a)
    export_split(preset_split(dataset, "pheme5-3way", seed=42), b)
    print("re-export is byte-identical:", a.read_bytes() == b.read_bytes())
    spec = json.loads(a.read_text())["spec"]
    print("spec on disk:", {k: spec[k] for k in ("name", "seed", "ratios")})

# score a deliberately mediocre prediction mapping on the test ids; a
# split holds positions in its dataset, and test_ids names them
gold = {rid: dataset.records[i].label for rid, i in zip(split.test_ids, split.test)}
preds = {}
for rid in split.test_ids:
    if rng.random() < 0.1:
        continue                      # unanswered: scored per --missing policy
    if rng.random() < 0.7:
        preds[rid] = gold[rid]
    else:
        preds[rid] = labels[int(rng.integers(0, 3))]

result = evaluate(gold, preds, LabelSet.of("true", "false", "unverified"), missing="wrong")
print(f"\nmacro-F1 {result.macro_f1:.4f}  micro-F1 {result.micro_f1:.4f}  "
      f"accuracy {result.accuracy:.4f}")
print(f"scored {result.n_scored} ids, {result.n_missing} missing")
for m in result.per_class:
    print(f"  {m.label:<11} P={m.precision:.3f} R={m.recall:.3f} "
          f"F1={m.f1:.3f} (n={m.support})")
