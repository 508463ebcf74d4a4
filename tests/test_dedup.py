"""Duplicate scanner tests.

The hand case: two 30-token texts differing in one middle word share 25 of
their 28 trigram shingles, so Jaccard = 25 / (25 + 3 + 3) = 25/31, just
above the 0.8 default threshold. The randomized cases rebuild the whole
duplicate graph with set arithmetic and compare components and
cross-split pairs.
"""

import numpy as np
import pytest

from leakaudit import SplitSpec, build_dataset, scan_duplicates
from leakaudit.dedup import normalize_text, shingle_hashes
from leakaudit.splits import Split


def test_normalize_text():
    assert normalize_text("Hello   WORLD") == "hello world"
    assert normalize_text("see https://t.co/Ab12 now") == "see now"
    assert normalize_text("WWW.site.com/x leads") == "leads"
    assert normalize_text("  tabs\tand\nnewlines  ") == "tabs and newlines"
    assert normalize_text("http://only.url") == ""


def test_shingle_hashes():
    assert shingle_hashes([]) == []
    one = shingle_hashes(["a", "b"])
    assert len(one) == 1
    assert shingle_hashes(["a", "b", "c"]) == shingle_hashes(["a", "b", "c"])
    four = shingle_hashes(["a", "b", "c", "d"])
    assert len(four) == 2
    assert four == sorted(four)
    # repeated shingles collapse
    rep = shingle_hashes(["x", "x", "x", "x"])
    assert len(rep) == 1


def _words(n, offset=0):
    return " ".join(f"w{offset + i:03d}" for i in range(n))


def test_exact_duplicates_found():
    rows = [
        {"id": "12", "text": "Hello  WORLD http://a.b/c", "label": "x"},
        {"id": "3", "text": "hello world", "label": "x"},
        {"id": "7", "text": _words(10), "label": "x"},
    ]
    ds = build_dataset(rows, labels=["x"])
    scan = scan_duplicates(ds)
    assert scan.n_exact_clusters == 1 and scan.n_near_clusters == 0
    cluster = scan.clusters[0]
    assert cluster.kind == "exact"
    assert cluster.member_ids == ("3", "12")
    assert cluster.representative_id == "3"
    assert cluster.min_jaccard_to_representative == 1.0
    assert cluster.size == 2
    assert scan.n_records_in_exact == 2


def test_hand_jaccard_25_of_31():
    base = _words(30).split()
    variant = list(base)
    variant[15] = "zzz"
    rows = [
        {"id": "100", "text": " ".join(base), "label": "x"},
        {"id": "200", "text": " ".join(variant), "label": "x"},
        {"id": "300", "text": _words(12, offset=500), "label": "x"},
    ]
    ds = build_dataset(rows, labels=["x"])

    scan = scan_duplicates(ds, jaccard_threshold=0.8)
    assert scan.n_near_clusters == 1 and scan.n_exact_clusters == 0
    cluster = scan.clusters[0]
    assert cluster.kind == "near"
    assert cluster.member_ids == ("100", "200")
    assert cluster.min_jaccard_to_representative == pytest.approx(25 / 31)

    strict = scan_duplicates(ds, jaccard_threshold=0.85)
    assert strict.n_near_clusters == 0


def test_scan_is_order_independent():
    rng = np.random.default_rng(9)
    rows = []
    for i in range(40):
        rows.append({"id": str(1000 + i), "text": _words(15, offset=20 * i), "label": "x"})
    # two planted pairs
    rows.append({"id": "5000", "text": rows[0]["text"], "label": "x"})
    near = rows[1]["text"].split()
    near[7] = "changed"
    rows.append({"id": "5001", "text": " ".join(near), "label": "x"})

    ds1 = build_dataset(rows, labels=["x"])
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    ds2 = build_dataset(shuffled, labels=["x"])
    scan1 = scan_duplicates(ds1)
    scan2 = scan_duplicates(ds2)
    assert scan1.clusters == scan2.clusters


def _brute_force_links(rows, threshold):
    """Normalized texts, and (i, j, jaccard, kind) for every linked row
    pair i < j: tuple shingles and set Jaccard, no hashing or LSH."""

    def norm_tokens(text):
        return [w for w in text.lower().split() if not w.startswith("http")]

    def shingles(tokens):
        if not tokens:
            return set()
        if len(tokens) < 3:
            return {tuple(tokens)}
        return {tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2)}

    norms = [" ".join(norm_tokens(r["text"])) for r in rows]
    shingle_sets = [shingles(norm_tokens(r["text"])) for r in rows]
    links = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            si, sj = shingle_sets[i], shingle_sets[j]
            if not si or not sj:
                continue
            if norms[i] == norms[j]:
                links.append((i, j, 1.0, "exact"))
            elif len(si & sj) / len(si | sj) >= threshold:
                links.append((i, j, len(si & sj) / len(si | sj), "near"))
    return norms, links


def _brute_force_components(rows, threshold):
    """Independent duplicate graph: the brute-force links, then BFS."""
    norms, links = _brute_force_links(rows, threshold)
    n = len(rows)
    adj = {i: set() for i in range(n)}
    for i, j, _, _ in links:
        adj[i].add(j)
        adj[j].add(i)
    seen = set()
    components = []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], []
        seen.add(i)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(comp)

    exact_groups = {}
    for i, norm in enumerate(norms):
        exact_groups.setdefault(norm, []).append(i)
    exact = {
        frozenset(rows[i]["id"] for i in grp)
        for grp in exact_groups.values()
        if len(grp) >= 2
    }
    near = {
        frozenset(rows[i]["id"] for i in comp)
        for comp in components
        if len(comp) >= 2 and len({norms[i] for i in comp}) >= 2
    }
    return exact, near


def _random_corpus(rng, n_base, n_edits, n_copies):
    """Random texts, one- or two-token edits of them, and upper-cased
    copies with a URL, which normalize to exact duplicates."""
    vocab = [f"w{i:02d}" for i in range(60)]
    rows = []

    def add(text):
        rows.append({"id": str(5000 + len(rows)), "text": text, "label": "a"})

    base_texts = []
    for _ in range(n_base):
        length = int(rng.integers(8, 26))
        words = [vocab[int(rng.integers(len(vocab)))] for _ in range(length)]
        base_texts.append(" ".join(words))
        add(base_texts[-1])
    for _ in range(n_edits):
        words = base_texts[int(rng.integers(len(base_texts)))].split()
        for _ in range(int(rng.integers(1, 3))):
            words[int(rng.integers(len(words)))] = vocab[int(rng.integers(len(vocab)))]
        add(" ".join(words))
    for _ in range(n_copies):
        text = base_texts[int(rng.integers(len(base_texts)))]
        add(text.upper() + "  http://t.co/XYZ")
    return rows


def test_clusters_match_brute_force_graph():
    rows = _random_corpus(np.random.default_rng(33), n_base=120, n_edits=35, n_copies=15)
    ds = build_dataset(rows, labels=["a"])
    scan = scan_duplicates(ds, jaccard_threshold=0.8)
    got_exact = {frozenset(c.member_ids) for c in scan.clusters if c.kind == "exact"}
    got_near = {frozenset(c.member_ids) for c in scan.clusters if c.kind == "near"}
    want_exact, want_near = _brute_force_components(rows, 0.8)
    assert got_exact == want_exact
    assert got_near == want_near


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contamination_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rows = _random_corpus(rng, n_base=40, n_edits=30, n_copies=40)
    # some records sit in no partition and must never be reported
    parts = [("train", "dev", "test", None)[int(i)] for i in rng.integers(0, 4, len(rows))]
    part_of = {r["id"]: part for r, part in zip(rows, parts)}
    split = Split(
        train_ids=tuple(rid for rid, part in part_of.items() if part == "train"),
        dev_ids=tuple(rid for rid, part in part_of.items() if part == "dev"),
        test_ids=tuple(rid for rid, part in part_of.items() if part == "test"),
    )

    want = []
    for i, j, jaccard, kind in _brute_force_links(rows, 0.8)[1]:
        a, b = rows[i]["id"], rows[j]["id"]
        if part_of[b] == "train":
            a, b = b, a
        if part_of[a] == "train" and part_of[b] in ("dev", "test"):
            want.append((a, b, part_of[b], jaccard, kind))
    want.sort(key=lambda p: (-p[3], int(p[0]), int(p[1])))

    pairs = scan_duplicates(build_dataset(rows, labels=["a"])).contamination(split)
    got = [(p.train_id, p.other_id, p.partition, p.jaccard, p.kind) for p in pairs]
    assert {"exact", "near"} <= {p[4] for p in want}
    assert got == want


def test_cross_split_contamination():
    base = _words(30).split()
    near = list(base)
    near[15] = "flip"
    rows = [
        {"id": "1", "text": "Copied tweet text here", "label": "x"},   # train
        {"id": "2", "text": _words(20, offset=100), "label": "x"},     # train
        {"id": "3", "text": " ".join(base), "label": "x"},             # train
        {"id": "4", "text": "copied tweet  text here", "label": "x"},  # test, exact of 1
        {"id": "5", "text": " ".join(near), "label": "x"},             # dev, near of 3
        {"id": "6", "text": _words(20, offset=200), "label": "x"},     # test
        {"id": "7", "text": _words(20, offset=100), "label": "x"},     # train, exact of 2
    ]
    ds = build_dataset(rows, labels=["x"])
    split = Split(
        train_ids=("1", "2", "3", "7"),
        dev_ids=("5",),
        test_ids=("4", "6"),
        spec=SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0),
    )
    pairs = scan_duplicates(ds).contamination(split)
    assert [(p.train_id, p.other_id, p.partition, p.kind) for p in pairs] == [
        ("1", "4", "test", "exact"),
        ("3", "5", "dev", "near"),
    ]
    assert pairs[0].jaccard == 1.0
    assert pairs[1].jaccard == pytest.approx(25 / 31)
    # train-train duplicate (2, 7) must not be reported


def test_scan_parameter_validation(leaky):
    small = build_dataset(
        [{"id": "1", "text": "a b c", "label": "true"}], labels=["true"]
    )
    with pytest.raises(ValueError):
        scan_duplicates(small, jaccard_threshold=0.0)
    with pytest.raises(ValueError):
        scan_duplicates(small, jaccard_threshold=1.2)


def test_skipped_empty_and_wrapper():
    rows = [
        {"id": "1", "text": "http://u.rl", "label": "x"},
        {"id": "2", "text": "some words here", "label": "x"},
        {"id": "3", "text": "some words here", "label": "x"},
    ]
    ds = build_dataset(rows, labels=["x"])
    scan = scan_duplicates(ds)
    assert scan.n_skipped_empty == 1
    assert scan.n_records == 3
    assert [c.member_ids for c in scan.clusters] == [("2", "3")]
