"""Catch repeated and near-repeated texts before they contaminate a split.

Social datasets are full of retweets and light edits of the same post.
If copies land on both sides of a train/test split, the test set stops
measuring generalization. The scanner groups exact copies (after
case/URL/whitespace normalization) and near copies (word 3-shingle sets
at Jaccard >= 0.8, all found by an exact prefix filter and verified by
true Jaccard); the same scan then checks a concrete split for
cross-partition contamination.
"""

import numpy as np

from leakaudit import (
    SplitSpec,
    build_dataset,
    make_split,
    scan_duplicates,
)

rng = np.random.default_rng(4)

rows = []
for i in range(300):
    words = " ".join(f"w{v}" for v in rng.integers(0, 2_000, 12))
    rows.append({"id": str(900_000 + i), "text": words, "label": "x"})

# plant one family of exact copies (normalization catches all four)
viral = "breaking: the statue moved again tonight"
for j, variant in enumerate((viral,
                             viral.upper(),
                             viral + " https://t.co/abc123",
                             "  " + viral + "  ")):
    rows.append({"id": str(990_000 + j), "text": variant, "label": "x"})

# plant a near pair: one token changed out of thirty
tokens = [f"n{v}" for v in rng.integers(0, 2_000, 30)]
edited = list(tokens)
edited[11] = "swapped"
rows.append({"id": "991000", "text": " ".join(tokens), "label": "x"})
rows.append({"id": "991001", "text": " ".join(edited), "label": "x"})

dataset = build_dataset(rows, labels=("x",), name="retweet-soup")
scan = scan_duplicates(dataset, jaccard_threshold=0.8)

print(f"scanned {scan.n_records} records at threshold {scan.jaccard_threshold}")
print(f"exact clusters: {scan.n_exact_clusters}  near clusters: {scan.n_near_clusters}")
for cluster in scan.clusters:
    if cluster.size > 1:
        print(f"  [{cluster.kind}] {sorted(cluster.member_ids)} "
              f"(min Jaccard to representative {cluster.min_jaccard_to_representative:.2f})")

# do any duplicates straddle a split?
split = make_split(dataset, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=1, stratify=False))
leaks = scan.contamination(split)
print(f"\ncross-split contaminated pairs: {leaks.n_pairs}")
for pair in leaks.worst:  # the first 25, worst first
    print(f"  train {pair.train_id} ~ {pair.partition} {pair.other_id} "
          f"(J={pair.jaccard:.2f}, {pair.kind})")
