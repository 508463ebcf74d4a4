"""Duplicate scanner tests.

The hand case: two 30-token texts differing in one middle word share 25 of
their 28 trigram shingles, so Jaccard = 25 / (25 + 3 + 3) = 25/31, just
above the 0.8 default threshold. The randomized cases rebuild the whole
duplicate graph with set arithmetic and compare components and
cross-split pairs.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle_splits import split_of
from leakaudit import SplitSpec, build_dataset, make_split, scan_duplicates
from leakaudit import dedup
from leakaudit.dedup import (
    WORST_PAIRS,
    _min_overlap,
    _NodeIndex,
    _NodeRows,
    _prefix_buckets,
    _shingle_array,
)
from leakaudit.splits import PARTITIONS
from leakaudit.text import assign_ids, normalize_text


def test_normalize_text():
    assert normalize_text("Hello   WORLD") == "hello world"
    assert normalize_text("see https://t.co/Ab12 now") == "see now"
    assert normalize_text("WWW.site.com/x leads") == "leads"
    assert normalize_text("  tabs\tand\nnewlines  ") == "tabs and newlines"
    assert normalize_text("http://only.url") == ""


_TOKEN_IDS = {"": -1}  # one id per token across every call of _shingles


def _shingles(tokens):
    """Sorted distinct shingle hashes of one text; no tokens make no text."""
    token_ids = assign_ids(tokens, _TOKEN_IDS)[0]
    lengths = np.array([len(tokens)] if tokens else [], dtype=np.int64)
    hashes, owner = _shingle_array(token_ids, lengths)
    assert not owner.any()
    return sorted(set(hashes.tolist()))


def test_shingle_hashes():
    assert _shingles([]) == []
    one = _shingles(["a", "b"])
    assert len(one) == 1
    assert _shingles(["a", "b", "c"]) == _shingles(["a", "b", "c"])
    four = _shingles(["a", "b", "c", "d"])
    assert len(four) == 2
    assert four == sorted(four)
    # repeated shingles collapse
    rep = _shingles(["x", "x", "x", "x"])
    assert len(rep) == 1
    assert len(_shingles(["x", "y", "z", "x", "y", "z"])) == 3
    # a shingle is its tokens in order
    assert _shingles(["a", "b", "c"]) != _shingles(["c", "b", "a"])
    assert _shingles(["a", "b", "c"]) != _shingles(["a", "c", "b"])
    assert _shingles(["a", "b"]) != _shingles(["b", "a"])
    assert len(_shingles(["a", "b", "a"])) == 1
    assert len(_shingles(["a", "b", "a", "b"])) == 2
    # a whole-text shingle is told apart by its length, and tokens stay whole
    short = {*_shingles(["a"]), *_shingles(["a", "a"]), *_shingles(["a", "a", "a"])}
    assert len(short) == 3
    assert _shingles(["ab"]) != _shingles(["a", "b"])
    assert _shingles(["a", "bc", "d"]) != _shingles(["ab", "c", "d"])


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


def _norm_tokens(text):
    return [w for w in text.lower().split() if not w.startswith("http")]


def _brute_shingles(text):
    tokens = _norm_tokens(text)
    if not tokens:
        return set()
    if len(tokens) < 3:
        return {tuple(tokens)}
    return {tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2)}


def _brute_force_links(rows, threshold):
    """Normalized texts, and (i, j, jaccard, kind) for every linked row
    pair i < j: tuple shingles and set Jaccard, no hashing or LSH."""
    norms = [" ".join(_norm_tokens(r["text"])) for r in rows]
    shingle_sets = [_brute_shingles(r["text"]) for r in rows]
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
        if norm:  # a record without usable text is skipped, not grouped
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


def _split_of(dataset, part_of):
    return split_of(
        dataset, *([rid for rid, part in part_of.items() if part == p] for p in PARTITIONS)
    )


def _brute_force_contamination(rows, part_of, threshold):
    """Every linked record pair across the train boundary, in report order."""
    want = []
    for i, j, jaccard, kind in _brute_force_links(rows, threshold)[1]:
        a, b = rows[i]["id"], rows[j]["id"]
        if part_of[b] == "train":
            a, b = b, a
        if part_of[a] == "train" and part_of[b] in ("dev", "test"):
            want.append((a, b, part_of[b], jaccard, kind))
    want.sort(key=lambda p: (-p[3], int(p[0]), int(p[1])))
    return want


def _report(leaks):
    worst = [(p.train_id, p.other_id, p.partition, p.jaccard, p.kind) for p in leaks.worst]
    return leaks.n_pairs, worst


@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_contamination_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    # seed 5 is small enough that worst is the whole list
    n_copies = 16 if seed == 5 else 40
    rows = _random_corpus(rng, n_base=40, n_edits=30, n_copies=n_copies)
    # some records sit in no partition and must never be reported
    parts = [("train", "dev", "test", None)[int(i)] for i in rng.integers(0, 4, len(rows))]
    part_of = {r["id"]: part for r, part in zip(rows, parts)}

    want = _brute_force_contamination(rows, part_of, 0.8)
    ds = build_dataset(rows, labels=["a"])
    leaks = scan_duplicates(ds).contamination(_split_of(ds, part_of))
    assert {"exact", "near"} <= {p[4] for p in want}
    assert _report(leaks) == (len(want), want[:WORST_PAIRS])
    if seed == 5:
        assert len(want) <= WORST_PAIRS


_RECORDS = st.lists(
    st.tuples(
        # four words, so texts repeat, share and repeat shingles, and
        # distinct texts can have one shingle set ("a a a a", "a a a")
        st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=10),
        st.booleans(),  # an upper-cased copy with a URL
        st.sampled_from(["train", "dev", "test", None]),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(records=_RECORDS, threshold=st.sampled_from([0.14, 0.7, 0.8, 1.0]))
@example(
    records=[
        ([], False, "train"),  # no tokens
        (["a", "a", "a", "a"], False, "train"),  # a repeated shingle
        (["a"], False, "test"),  # one token
        (["a", "b"], False, "train"),  # two tokens
        (["a", "b"], True, "dev"),  # its exact copy, which sorts after the
        (["a", "a", "a"], False, "test"),  # near pair at J = 1.0 of ids 42, 930
        (["b", "c", "dd", "a", "b"], False, None),  # in no partition
        (["b", "c", "dd", "a", "b"], True, "dev"),
    ],
    threshold=0.8,
)
def test_scan_and_contamination_match_brute_force(records, threshold):
    rows, part_of = [], {}
    for i, (words, shout, part) in enumerate(records):
        text = " ".join(words)
        if shout:
            text = text.upper() + " http://t.co/Xy"
        rid = str(37 * i * i + 5)  # 5, 42, 153, ...: string order is not numeric order
        rows.append({"id": rid, "text": text, "label": "a"})
        part_of[rid] = part
    ds = build_dataset(rows, labels=["a"])
    scan = scan_duplicates(ds, jaccard_threshold=threshold)

    want_exact, want_near = _brute_force_components(rows, threshold)
    assert {frozenset(c.member_ids) for c in scan.clusters if c.kind == "exact"} == want_exact
    near = [c for c in scan.clusters if c.kind == "near"]
    assert {frozenset(c.member_ids) for c in near} == want_near
    shingles = {r["id"]: _brute_shingles(r["text"]) for r in rows}
    for cluster in near:
        assert cluster.representative_id == min(cluster.member_ids, key=int)
        rep = shingles[cluster.representative_id]
        assert cluster.min_jaccard_to_representative == min(
            len(rep & shingles[m]) / len(rep | shingles[m]) for m in cluster.member_ids
        )

    want = _brute_force_contamination(rows, part_of, threshold)
    assert _report(scan.contamination(_split_of(ds, part_of))) == (len(want), want[:WORST_PAIRS])


def test_min_overlap_matches_the_float_test():
    sizes = np.arange(1, 200)
    overshoots = 0
    for k in range(1, 101):
        t = k / 100
        want = [next(o for o in range(1, n + 1) if o / n >= t) for n in sizes.tolist()]
        assert _min_overlap(sizes, t).tolist() == want, t
        overshoots += sum(math.ceil(t * n) > o for n, o in zip(sizes.tolist(), want))
    # e.g. ceil(0.14 * 50) = 8, but 7 / 50 >= 0.14
    assert overshoots == 22


def _index_of(sets):
    """A node index whose node i has the shingle ids sets[i]."""
    n_shingles = max(map(max, sets)) + 1
    keys = np.array(
        sorted(node * n_shingles + s for node, shingles in enumerate(sets) for s in shingles),
        dtype=np.int64,
    )
    starts = np.searchsorted(keys, np.arange(len(sets) + 1) * n_shingles)
    rows = _NodeRows(np.arange(len(sets)), np.arange(len(sets) + 1))
    return _NodeIndex(rows, keys, starts, np.arange(n_shingles), 0)


# thresholds, and set sizes n with t * n integral: a subset of t * n
# elements of an n-set sits exactly at Jaccard t
_SET_SIZES = {0.14: (50, 100), 0.7: (10, 20, 30), 0.8: (5, 10, 15), 1.0: (1, 2, 3)}


@st.composite
def _shingle_sets(draw):
    """A threshold and a few shingle sets over a tiny vocabulary: each is
    n or t * n ids drawn from the vocabulary or from an earlier set."""
    t = draw(st.sampled_from(sorted(_SET_SIZES)))
    sizes = [s for n in _SET_SIZES[t] for s in (n, round(t * n))]
    vocabulary = list(range(max(sizes) + draw(st.integers(0, max(sizes) // 2))))
    sets = []
    for _ in range(draw(st.integers(2, 8))):
        size = draw(st.sampled_from(sizes))
        pools = [vocabulary] + [sorted(s) for s in sets if len(s) >= size]
        pool = draw(st.sampled_from(pools))
        sets.append(set(draw(st.permutations(pool))[:size]))
    return t, sets


@settings(max_examples=200, deadline=None)
@given(case=_shingle_sets())
@example(case=(0.14, [set(range(50)), set(range(43, 50))]))  # ceil(0.14 * 50) misses this
@example(case=(0.7, [set(range(30)), set(range(9, 30)), set(range(21))]))
def test_prefix_buckets_hold_every_pair_at_the_threshold(case):
    t, sets = case
    bucket, node = _prefix_buckets(_index_of(sets), t)
    assert np.all(np.diff(bucket) >= 0)
    shared = set()
    for b in np.unique(bucket).tolist():
        members = node[bucket == b].tolist()
        assert len(members) == len(set(members)) >= 2
        shared.update((x, y) for x in members for y in members if x < y)
    for x in range(len(sets)):
        for y in range(x + 1, len(sets)):
            if len(sets[x] & sets[y]) / len(sets[x] | sets[y]) >= t:
                assert (x, y) in shared, (x, y)


def _verified_pairs(monkeypatch, rows, threshold=0.8):
    """The number of node pairs that scan_duplicates passes to _jaccard."""
    count = [0]
    original = dedup._jaccard

    def counted(index, a, b):
        count[0] += len(a)
        return original(index, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(dedup, "_jaccard", counted)
        scan_duplicates(build_dataset(rows, labels=["x"]), jaccard_threshold=threshold)
    return count[0]


def _templated(n, seed=0):
    """n texts of 11 fixed words plus 3 random ones: every pair sits at
    Jaccard 9/15 = 0.6, like bot or news-alert posts."""
    rng = np.random.default_rng(seed)
    tail = rng.integers(0, 10**9, size=(n, 3))
    return [
        {"id": str(10_000 + i), "text": f"{_words(11)} r{a} r{b} r{c}", "label": "x"}
        for i, (a, b, c) in enumerate(tail.tolist())
    ]


def test_templated_texts_verify_linearly_many_pairs(monkeypatch):
    small = _verified_pairs(monkeypatch, _templated(1000))
    large = _verified_pairs(monkeypatch, _templated(2000))
    assert large <= 2.5 * small


def test_small_vocabulary_verifies_a_bounded_number_of_pairs(monkeypatch):
    rng = np.random.default_rng(0)
    words = rng.integers(0, 30, size=(8000, 12)).tolist()
    rows = [
        {"id": str(10_000 + i), "text": " ".join(f"v{w}" for w in row), "label": "x"}
        for i, row in enumerate(words)
    ]
    assert _verified_pairs(monkeypatch, rows) <= 20_000


def test_near_copy_family_scans_in_bounded_time():
    """A 40-word post and 1000 one-token edits of it share buckets in
    about 500k pairs, most of them below threshold. The scan verifies a
    pair only when it would join two components, so it stays linear."""
    rng = np.random.default_rng(8)
    post = _words(40).split()
    texts = [" ".join(post)]
    for k in range(1000):
        edited = list(post)
        edited[int(rng.integers(len(post)))] = f"edit{k}"
        texts.append(" ".join(edited))
    texts += [_words(12, offset=100 + 12 * k) for k in range(2000)]
    rows = [
        {"id": str(10_000 + i), "text": texts[j], "label": "x"}
        for i, j in enumerate(rng.permutation(len(texts)))
    ]
    ds = build_dataset(rows, labels=["x"])
    start = time.perf_counter()
    scan = scan_duplicates(ds)
    elapsed = time.perf_counter() - start
    assert [(c.kind, c.size) for c in scan.clusters] == [("near", 1001)]
    assert elapsed < 3.0


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
    split = split_of(
        ds,
        train_ids=("1", "2", "3", "7"),
        dev_ids=("5",),
        test_ids=("4", "6"),
        spec=SplitSpec(ratios=(0.6, 0.2, 0.2), seed=0),
    )
    leaks = scan_duplicates(ds).contamination(split)
    assert leaks.n_pairs == 2
    pairs = leaks.worst
    assert [(p.train_id, p.other_id, p.partition, p.kind) for p in pairs] == [
        ("1", "4", "test", "exact"),
        ("3", "5", "dev", "near"),
    ]
    assert pairs[0].jaccard == 1.0
    assert pairs[1].jaccard == pytest.approx(25 / 31)
    # train-train duplicate (2, 7) must not be reported


def test_contamination_refuses_a_split_of_another_dataset(leaky, control):
    # same ids and texts in the same order, but another dataset object
    split = make_split(leaky, SplitSpec(ratios=(0.7, 0.1, 0.2), seed=0))
    with pytest.raises(ValueError, match="another dataset"):
        scan_duplicates(control).contamination(split)


def test_scan_parameter_validation(leaky):
    small = build_dataset(
        [{"id": "1", "text": "a b c", "label": "true"}], labels=["true"]
    )
    for bad in (0.0, 1.2, float("nan"), True, False):
        with pytest.raises(ValueError) as exc:
            scan_duplicates(small, jaccard_threshold=bad)
        assert str(exc.value) == f"jaccard_threshold must be a number in (0, 1], got {bad}"
    assert scan_duplicates(small, 1).jaccard_threshold == 1


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
