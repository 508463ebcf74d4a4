"""Seeded corpus generators for the three benchmark workloads.

Each generator writes JSONL files that leakaudit reads, plus a
``truth.json`` with the planted properties the output checks need. The
program under test never sees ``truth.json``. The same seed always gives
byte-identical files.

Run on its own to write a workload's inputs into a directory:

    python3 perfbench/gen.py audit-full 1 /tmp/corpus
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

LABELS = ("true", "false", "unverified", "non-rumor")
TWITTER_EPOCH_MS = 1288834974657
DAY_MS = 86_400_000
START_MS = 1_420_070_400_000  # 2015-01-01
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))

# Sizes are scaled from the 100k-record shapes in the README so that one
# CLI invocation takes a few seconds on a 2-core machine; the layer shares
# they stress are kept.
AUDIT_FULL = {"n": 8_000, "window_days": 8, "spread_share": 0.3,
              "shortcut_share": 0.2, "n_triples": 40}
SPLIT_VIRAL = {"n": 6_000, "viral_posts": 4, "viral_edits": 80,
               "viral_words": 40, "copies": 500}
REBALANCE_DENSE = {"n": 15_000, "anchor_share": 0.05, "burst_days": 2,
                   "n_pool": 16_000, "pool_lo_days": 6, "pool_hi_days": 1}
VOCAB_SIZE = 50_000
SHORTCUT_TOKEN = "breaking2015"
SHORTCUT_LABEL = "false"
ANCHOR_LABEL = "non-rumor"


def vocabulary(rng: np.random.Generator, size: int = VOCAB_SIZE) -> list[str]:
    """Distinct lowercase words of 4 to 9 letters, in draw order."""
    words: dict[str, None] = {}
    while len(words) < size:
        lengths = rng.integers(4, 10, size)
        codes = LETTERS[rng.integers(0, 26, (size, 9))]
        for row, n in zip(codes, lengths):
            words.setdefault("".join(row[:n]), None)
    return list(words)[:size]


def zipf_probabilities(size: int, exponent: float = 1.05) -> np.ndarray:
    weights = 1.0 / np.arange(2, size + 2, dtype=np.float64) ** exponent
    return weights / weights.sum()


def texts(rng, vocab, n, lo=6, hi=15, probabilities=None) -> list[str]:
    """n texts of lo..hi words; Zipf-like when probabilities are given."""
    lengths = rng.integers(lo, hi + 1, n)
    total = int(lengths.sum())
    if probabilities is None:
        picks = rng.integers(0, len(vocab), total)
    else:
        picks = rng.choice(len(vocab), size=total, p=probabilities)
    words = [vocab[i] for i in picks.tolist()]
    out, pos = [], 0
    for length in lengths.tolist():
        out.append(" ".join(words[pos : pos + length]))
        pos += length
    return out


def snowflake_ids(rng: np.random.Generator, ts_ms: np.ndarray, taken: set[int]) -> list[str]:
    """Ids minting each timestamp, unique across every call sharing ``taken``."""
    ids = ((ts_ms.astype(np.int64) - TWITTER_EPOCH_MS) << 22) | rng.integers(0, 1 << 22, len(ts_ms))
    out = []
    for ts, value in zip(ts_ms.tolist(), ids.tolist()):
        while value in taken:
            value = ((ts - TWITTER_EPOCH_MS) << 22) | int(rng.integers(0, 1 << 22))
        taken.add(value)
        out.append(str(value))
    return out


def balanced_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.permutation(np.arange(n) % len(LABELS))


def window_timestamps(rng, label_idx, window_days, spread_share) -> np.ndarray:
    """Each label owns a consecutive window; a share is drawn over all of them."""
    n = len(label_idx)
    window = window_days * DAY_MS
    own = START_MS + label_idx * window + rng.integers(0, window, n)
    anywhere = START_MS + rng.integers(0, len(LABELS) * window, n)
    return np.where(rng.random(n) < spread_share, anywhere, own)


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def rows_of(ids, text_list, label_idx) -> list[dict]:
    return [
        {"id": i, "text": t, "label": LABELS[lab]}
        for i, t, lab in zip(ids, text_list, label_idx.tolist())
    ]


def gen_audit_full(rng, out: Path) -> dict:
    cfg = AUDIT_FULL
    vocab = vocabulary(rng)
    n = cfg["n"]
    label_idx = balanced_labels(rng, n)
    ids = snowflake_ids(rng, window_timestamps(rng, label_idx, cfg["window_days"], cfg["spread_share"]), set())
    body = texts(rng, vocab, n, probabilities=zipf_probabilities(len(vocab)))

    # exact-copy triples: the same text as written, upper-cased, and with a URL
    picks = rng.permutation(n)
    triple_rows = picks[: 3 * cfg["n_triples"]].reshape(-1, 3)
    for base, (a, b, c) in zip(texts(rng, vocab, cfg["n_triples"], 10, 15), triple_rows.tolist()):
        body[a] = base
        body[b] = base.upper()
        body[c] = f"{base} https://t.co/{a:x}{c:x}"

    target = LABELS.index(SHORTCUT_LABEL)
    for i in picks[3 * cfg["n_triples"] :].tolist():
        if label_idx[i] == target and rng.random() < cfg["shortcut_share"]:
            words = body[i].split(" ")
            words.insert(int(rng.integers(0, len(words) + 1)), SHORTCUT_TOKEN)
            body[i] = " ".join(words)
    write_jsonl(out / "data.jsonl", rows_of(ids, body, label_idx))
    return {
        "records": n,
        "shortcut_token": SHORTCUT_TOKEN,
        "shortcut_label": SHORTCUT_LABEL,
        "n_triples": cfg["n_triples"],
    }


def gen_split_viral(rng, out: Path) -> dict:
    cfg = SPLIT_VIRAL
    vocab = vocabulary(rng)
    body = texts(rng, vocab, cfg["n"])
    for base in texts(rng, vocab, cfg["viral_posts"], cfg["viral_words"], cfg["viral_words"]):
        words = base.split(" ")
        body.append(base)
        for _ in range(cfg["viral_edits"]):
            edited = list(words)
            edited[int(rng.integers(0, len(words)))] = vocab[int(rng.integers(0, len(vocab)))]
            body.append(" ".join(edited))
    copy_text = texts(rng, vocab, 1, 12, 12)[0]
    copy_start = len(body)
    for j in range(cfg["copies"]):
        body.append(copy_text if j % 2 == 0 else f"{copy_text.upper()} http://t.co/c{j:x}")

    n = len(body)
    order = rng.permutation(n)
    label_idx = balanced_labels(rng, n)
    ids = snowflake_ids(rng, window_timestamps(rng, label_idx, 60, 0.3), set())
    rows = rows_of(ids, [body[i] for i in order.tolist()], label_idx)
    write_jsonl(out / "data.jsonl", rows)
    is_copy = order >= copy_start
    return {
        "records": n,
        "copy_ids": [ids[i] for i in np.flatnonzero(is_copy).tolist()],
    }


def gen_rebalance_dense(rng, out: Path) -> dict:
    cfg = REBALANCE_DENSE
    vocab = vocabulary(rng)
    anchor = LABELS.index(ANCHOR_LABEL)
    others = np.array([i for i in range(len(LABELS)) if i != anchor])
    n = cfg["n"]
    n_anchor = int(n * cfg["anchor_share"])
    label_idx = np.concatenate([
        np.full(n_anchor, anchor),
        others[np.arange(n - n_anchor) % len(others)],
    ])
    label_idx = rng.permutation(label_idx)

    burst = START_MS + len(LABELS) * 60 * DAY_MS
    window = 60 * DAY_MS
    slot = np.searchsorted(others, label_idx).clip(0, len(others) - 1)
    ts = np.where(
        label_idx == anchor,
        burst + rng.integers(0, cfg["burst_days"] * DAY_MS, n),
        START_MS + slot * window + rng.integers(0, window, n),
    )
    taken: set[int] = set()
    ids = snowflake_ids(rng, ts, taken)
    write_jsonl(out / "data.jsonl", rows_of(ids, texts(rng, vocab, n), label_idx))

    m = cfg["n_pool"]
    pool_idx = others[np.arange(m) % len(others)]
    pool_ts = burst - rng.integers(cfg["pool_hi_days"] * DAY_MS, cfg["pool_lo_days"] * DAY_MS, m)
    pool_ids = snowflake_ids(rng, pool_ts, taken)
    write_jsonl(out / "pool.jsonl", rows_of(pool_ids, texts(rng, vocab, m), pool_idx))
    return {"records": n + m, "n_anchor": n_anchor, "n_non_anchor": n - n_anchor}


GENERATORS = {
    "audit-full": gen_audit_full,
    "audit-split-viral": gen_split_viral,
    "rebalance-dense": gen_rebalance_dense,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``out``; return the truth."""
    out.mkdir(parents=True, exist_ok=True)
    truth = GENERATORS[workload](np.random.default_rng([seed, 0x1EA4]), out)
    truth.update(workload=workload, seed=seed)
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
    return truth


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        sys.exit(f"usage: gen.py {{{','.join(GENERATORS)}}} SEED OUT_DIR")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
