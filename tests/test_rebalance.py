"""Time-randomization mitigation tests.

The leaky fixture gives every label its own collection window; the pool
blankets the anchor label's window. After rebalancing, ids must stop
predicting labels and every non-anchor daily histogram must sit close to
the anchor's.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakaudit.forest as forest_module
from leakaudit import SplitSpec, build_dataset, make_split, run_id_leak_test, time_rebalance
from leakaudit.data import Dataset, LabelSet, Record, label_distribution, save_jsonl
from leakaudit.errors import (
    AllIdsTooShortError,
    EmptyPoolError,
    EmptySplitError,
    NoAnchorRecordsError,
    UnknownLabelError,
)
from leakaudit.rebalance import _AlivePool

ANCHOR = "non-rumor"


@pytest.fixture(scope="module")
def rebalanced(leaky, pool):
    return time_rebalance(leaky, pool, ANCHOR, seed=0)


def test_leak_score_drops(rebalanced):
    _, report = rebalanced
    assert report.leak_before.leakage_score > 0.4
    assert report.leak_before.verdict == "severe"
    assert report.leak_after.leakage_score < 0.15
    assert report.leak_after.leakage_score < report.leak_before.leakage_score
    assert report.leak_after.verdict in ("none", "mild")


def test_anchor_records_untouched_and_order_kept(leaky, rebalanced):
    out, report = rebalanced
    assert len(out) == len(leaky)
    assert [r.label for r in out.records] == [r.label for r in leaky.records]
    for before, after in zip(leaky.records, out.records):
        if before.label == ANCHOR:
            assert after == before
    assert report.n_anchor == 500
    assert label_distribution(out) == label_distribution(leaky)
    assert out.name.endswith("-rebalanced")


def test_no_pool_record_reused(leaky, pool, rebalanced):
    out, report = rebalanced
    original_ids = {r.id for r in leaky.records}
    pool_ids = {r.id for r in pool.records}
    drawn = [r.id for r in out.records if r.id not in original_ids]
    assert len(drawn) == len(set(drawn))
    assert len(drawn) == report.n_replaced
    assert all(rid in pool_ids for rid in drawn)
    assert report.n_replaced + report.n_rejected == 1500
    assert report.n_replaced >= 0.95 * 1500


def test_time_histograms_converge_to_anchor(rebalanced):
    _, report = rebalanced
    assert set(report.tv_before) == {"true", "false", "unverified"}
    for label, before in report.tv_before.items():
        after = report.tv_after[label]
        assert before > 0.9  # disjoint windows
        assert after < 0.2
        assert after < before


def test_deltas_respect_window(rebalanced):
    _, report = rebalanced
    assert 0 <= report.mean_abs_delta_ms <= report.window_ms
    assert 0 <= report.max_abs_delta_ms <= report.window_ms


def test_one_ms_window_rejects_everything(leaky, pool):
    out, report = time_rebalance(
        leaky, pool, ANCHOR, window_ms=1, seed=0, measure_leak=False
    )
    assert report.n_replaced == 0
    assert report.n_rejected == 1500
    assert [r.id for r in out.records] == [r.id for r in leaky.records]
    assert report.leak_before is None and report.leak_after is None


def test_rebalance_is_deterministic(leaky, pool):
    out1, rep1 = time_rebalance(leaky, pool, ANCHOR, seed=9, measure_leak=False)
    out2, rep2 = time_rebalance(leaky, pool, ANCHOR, seed=9, measure_leak=False)
    assert [r.id for r in out1.records] == [r.id for r in out2.records]
    assert rep1.to_json_dict() == rep2.to_json_dict()
    out3, _ = time_rebalance(leaky, pool, ANCHOR, seed=10, measure_leak=False)
    assert [r.id for r in out3.records] != [r.id for r in out1.records]


# SHA-256 of the rebalanced JSONL and of the report JSON as the CLI writes
# it, for the leaky and pool fixtures; pinned from the per-record draw loop
REBALANCE_DIGESTS = {
    (0, True): (
        "d5a0807739dc0d85c26cf4fb59e7390050bcc2f6cbf1acf297dbf3648240513d",
        "8264083c3088c189de7b5412fcde1c63ef63753197fe6273460705cd0c280260",
    ),
    (9, False): (
        "3d324105f4319dd88188241597d42e4ee9c25c3c9112df112ae908704f0f327a",
        "417707f2c97e2b6c0391935b5119d5e50bb0f33bf9b06650e386736601cddcb5",
    ),
}


@pytest.mark.parametrize("seed,measure_leak", sorted(REBALANCE_DIGESTS))
def test_rebalance_outputs_are_pinned(leaky, pool, rebalanced, tmp_path, seed, measure_leak):
    if (seed, measure_leak) == (0, True):
        out, report = rebalanced
    else:
        out, report = time_rebalance(leaky, pool, ANCHOR, seed=seed, measure_leak=measure_leak)
    save_jsonl(out, tmp_path / "rebalanced.jsonl")
    report_text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2, ensure_ascii=False)
    digests = (
        hashlib.sha256((tmp_path / "rebalanced.jsonl").read_bytes()).hexdigest(),
        hashlib.sha256((report_text + "\n").encode("utf-8")).hexdigest(),
    )
    assert digests == REBALANCE_DIGESTS[seed, measure_leak]


@pytest.mark.parametrize("n", [1, 2, 3, 500, 2**16 + 1, 2**31 - 1, 2**32, 2**32 + 1, 2**40])
def test_one_sized_draw_equals_single_draws(n):
    # rebalance draws every target index in one call; the pinned outputs
    # rest on numpy giving the same stream as one draw per record
    for seed in range(5):
        singles = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        expected = [int(singles.integers(0, n)) for _ in range(300)]
        batch = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        assert batch.integers(0, n, size=300).tolist() == expected


def _ts_id(ts_ms, low=1):
    # snowflake layout: timestamp in the high bits above 22
    return str(((ts_ms - 1288834974657) << 22) | low)


def test_pool_id_collisions_dropped():
    t0 = 1420070400000  # 2015-01-01
    day = 86_400_000
    rows = [
        {"id": _ts_id(t0), "text": "a0", "label": "n"},
        {"id": _ts_id(t0 + day), "text": "a1", "label": "n"},
        {"id": _ts_id(t0 + 40 * day), "text": "r0", "label": "r"},
    ]
    ds = build_dataset(rows, labels=["n", "r"])
    pool_rows = [
        {"id": _ts_id(t0 + 40 * day), "text": "colliding", "label": "r"},
        {"id": _ts_id(t0 + 2 * day, low=7), "text": "fresh", "label": "r"},
    ]
    pool = build_dataset(pool_rows, labels=["n", "r"])
    out, report = time_rebalance(ds, pool, "n", seed=1, measure_leak=False)
    assert report.pool_id_collisions == 1
    assert report.n_replaced == 1
    assert out.records[2].id == _ts_id(t0 + 2 * day, low=7)
    assert out.records[2].label == "r"


T0 = 1420070400000  # 2015-01-01
DAY = 86_400_000


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pool_collisions_match_a_set_oracle(data):
    # (day, low bits) keys from a small space, so pool ids often equal dataset
    # ids; day 20,000 puts ids near 2**63, where float64 cannot tell them apart
    key = st.tuples(st.sampled_from([0, 1, 2, 20_000]), st.integers(1, 3))
    ds_keys = data.draw(st.lists(key, min_size=2, max_size=10, unique=True), label="ds_keys")
    ds_labels = ["n", *data.draw(st.lists(st.sampled_from("nr"), min_size=len(ds_keys) - 1,
                                          max_size=len(ds_keys) - 1), label="ds_labels")]
    pool_rows = data.draw(st.lists(st.tuples(key, st.sampled_from("nr")), min_size=1,
                                   max_size=10, unique_by=lambda row: row[0]), label="pool")
    ds = build_dataset(
        [{"id": _ts_id(T0 + day * DAY, low), "text": "d", "label": label}
         for (day, low), label in zip(ds_keys, ds_labels)],
        labels=["n", "r"],
    )
    pool = build_dataset(
        [{"id": _ts_id(T0 + day * DAY, low), "text": "p", "label": label}
         for (day, low), label in pool_rows],
        labels=["n", "r"],
    )
    known = {r.id for r in ds.records}
    usable = [r.id for r in pool.records if r.label == "r"]
    fresh = {rid for rid in usable if rid not in known}
    if not fresh:
        with pytest.raises(EmptyPoolError):
            time_rebalance(ds, pool, "n", seed=0, measure_leak=False)
        return
    out, report = time_rebalance(ds, pool, "n", seed=0, measure_leak=False, window_ms=10**12)
    assert report.pool_id_collisions == len(usable) - len(fresh)
    drawn = {after.id for before, after in zip(ds.records, out.records) if after != before}
    assert drawn <= fresh and len(drawn) == report.n_replaced


def _probe_case(data):
    """An input whose anchor ``n`` sits in January 2015 and whose ``a`` and
    ``b`` rows sit 40 days later, some with ids too short for k=3 or with
    no timestamp, and a pool of ``a`` and ``b`` rows near the anchor."""
    n_anchor = data.draw(st.integers(1, 25), label="n_anchor")
    kinds = st.sampled_from(["long", "short", "untimed"])
    others = data.draw(st.lists(st.tuples(st.sampled_from("ab"), kinds), min_size=1, max_size=40),
                       label="others")
    pool_rows = data.draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 10 * DAY)),
                                   min_size=1, max_size=50), label="pool")
    rows = [{"id": _ts_id(T0 + i * DAY // 4, low=i + 1), "text": "n", "label": "n"}
            for i in range(n_anchor)]
    for j, (label, kind) in enumerate(others):
        rid = {"long": _ts_id(T0 + 40 * DAY + j * DAY // 7, low=j + 1),
               "short": str(j + 1), "untimed": str(1000 + j)}[kind]
        rows.append({"id": rid, "text": label, "label": label})
    pool = [{"id": _ts_id(T0 + offset, low=5000 + i), "text": "p", "label": label}
            for i, (label, offset) in enumerate(pool_rows)]
    labels = ["n", "a", "b"]
    return build_dataset(rows, labels), build_dataset(pool, labels)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_joint_leak_probe_equals_each_dataset_alone(data):
    # the two probes share one split and one fit; each report, or the first
    # error, is the one the probe of its dataset alone gives
    ds, pool = _probe_case(data)
    seed = data.draw(st.integers(0, 2**32), label="seed")
    spec = SplitSpec(ratios=(0.7, 0.1, 0.2), seed=seed, stratify=True)
    out, _ = time_rebalance(ds, pool, "n", seed=seed, measure_leak=False)
    want = []
    for dataset in (ds, out):
        try:
            want.append(run_id_leak_test(dataset, make_split(dataset, spec), k=3))
        except (EmptySplitError, AllIdsTooShortError) as exc:
            with pytest.raises(type(exc)) as got:
                time_rebalance(ds, pool, "n", seed=seed)
            assert str(got.value) == str(exc)
            return
    _, report = time_rebalance(ds, pool, "n", seed=seed)
    assert [report.leak_before, report.leak_after] == want


def test_rebalance_grows_both_probes_once_and_draws_each_tree_once(leaky, pool, monkeypatch):
    growers, substreams = [], []
    grower = forest_module._LockstepGrower
    tree_rng = forest_module._tree_rng

    def counted_grower(*args):
        growers.append(args)
        return grower(*args)

    def counted_rng(seed, t):
        substreams.append(t)
        return tree_rng(seed, t)

    monkeypatch.setattr(forest_module, "_LockstepGrower", counted_grower)
    monkeypatch.setattr(forest_module, "_tree_rng", counted_rng)
    _, report = time_rebalance(leaky, pool, ANCHOR, seed=0)
    # both probes keep every row, so their forests share each tree's draw
    assert report.leak_before.n_train == report.leak_after.n_train
    assert len(growers) == 1
    # the grower takes 200 trees' alive-entry counts and 100 order streams
    assert (len(growers[0][6]), len(growers[0][7])) == (200, 100)
    assert sorted(substreams) == list(range(100))


@pytest.mark.parametrize("stratify", [True, False])
@pytest.mark.parametrize("seed", [0, 5])
def test_rebalanced_dataset_splits_as_its_input(leaky, rebalanced, seed, stratify):
    # the probe's one split serves both datasets: rebalancing keeps each
    # row's label, and a random split reads only the labels and the seed
    out, _ = rebalanced
    spec = SplitSpec(ratios=(0.7, 0.1, 0.2), seed=seed, stratify=stratify)
    want, got = make_split(leaky, spec), make_split(out, spec)
    for part in ("train", "dev", "test"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def _brute_force_take(entries, used, target, window_ms):
    """(record, timestamp) of the nearest unused entry of the (timestamp,
    id)-sorted list, or None.

    Nearer timestamps win; on equal distance the earlier side wins; among
    equal timestamps the entry nearest the target's place in the order wins.
    """
    place = sum(1 for ts, _ in entries if ts < target)
    keys = [
        (abs(ts - target), ts >= target, abs(i - place), i)
        for i, (ts, _) in enumerate(entries)
        if i not in used
    ]
    best = min(keys, default=None)
    if best is None or best[0] > window_ms:
        return None
    used.add(best[3])
    ts, record = entries[best[3]]
    return record, ts


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pool_take_nearest_matches_brute_force(data):
    timestamps = data.draw(st.lists(st.integers(0, 40), max_size=30), label="timestamps")
    ids = data.draw(
        st.lists(st.integers(1, 10**6), min_size=len(timestamps), max_size=len(timestamps),
                 unique=True),
        label="ids",
    )
    takes = data.draw(
        st.lists(st.tuples(st.integers(-10, 50), st.integers(0, 15)), max_size=45),
        label="takes",
    )
    records = [Record(id=str(rid), text="", label="r") for rid in ids]
    entries = sorted(zip(timestamps, records), key=lambda e: (e[0], int(e[1].id)))
    pool = _AlivePool([ts for ts, _ in entries], [record for _, record in entries])
    used: set[int] = set()
    for target, window_ms in takes:
        want = _brute_force_take(entries, used, target, window_ms)
        assert pool.take_nearest(target, window_ms) == want


@pytest.mark.parametrize("edge", ["left", "right"])
def test_pool_takes_at_one_edge_stay_near_linear(edge):
    # every take lands beside the run of slots taken before it; walking that
    # dead run anew on each take makes 100k takes run for minutes
    n, takes = 200_000, 100_000
    records = [Record(id=str(i + 1), text="", label="r") for i in range(n)]
    pool = _AlivePool(list(range(n)), records)
    target = -1 if edge == "left" else n
    start = time.perf_counter()
    got = [pool.take_nearest(target, 2 * n) for _ in range(takes)]
    elapsed = time.perf_counter() - start
    want = range(takes) if edge == "left" else range(n - 1, n - takes - 1, -1)
    assert [(r.id, ts) for r, ts in got] == [(records[i].id, i) for i in want]
    assert elapsed < 5.0, f"{takes} takes at the {edge} edge took {elapsed:.1f} s"


def test_rebalance_error_cases(leaky, pool):
    with pytest.raises(UnknownLabelError):
        time_rebalance(leaky, pool, "ghost", seed=0)
    # a window below 1 ms rejects every record, and the report needs an int
    for window_ms in (0, -5, True, 1.5, np.int64(7)):
        with pytest.raises(ValueError) as exc:
            time_rebalance(leaky, pool, ANCHOR, window_ms=window_ms, seed=0)
        assert str(exc.value) == f"window_ms must be an int >= 1, got {window_ms!r}"
    with pytest.raises(TypeError):
        time_rebalance(leaky, pool, ANCHOR)
    # a bool would run as seed 0 or 1, and the others would fail deep in the split code
    for seed in (True, 1.5, "3", np.int64(2)):
        with pytest.raises(ValueError) as exc:
            time_rebalance(leaky, pool, ANCHOR, seed=seed, measure_leak=False)
        assert str(exc.value) == f"seed must be an int, got {seed!r}"

    # anchor records whose ids predate the snowflake epoch have no timestamp
    no_ts = build_dataset(
        [
            {"id": "12", "text": "old", "label": "n"},
            {"id": _ts_id(1420070400000), "text": "x", "label": "r"},
        ],
        labels=["n", "r"],
    )
    with pytest.raises(NoAnchorRecordsError):
        time_rebalance(no_ts, pool, "n", seed=0, measure_leak=False)

    ds = build_dataset(
        [
            {"id": _ts_id(1420070400000), "text": "a", "label": "n"},
            {"id": _ts_id(1423070400000), "text": "b", "label": "r"},
        ],
        labels=["n", "r"],
    )
    anchor_only_pool = build_dataset(
        [{"id": _ts_id(1420070500000, low=3), "text": "p", "label": "n"}],
        labels=["n", "r"],
    )
    with pytest.raises(EmptyPoolError):
        time_rebalance(ds, anchor_only_pool, "n", seed=0, measure_leak=False)

    # no dataset holds a label outside its set: the constructor refuses it
    with pytest.raises(UnknownLabelError) as exc:
        Dataset(records=(*ds.records, Record(id="7", text="c", label="zzz")),
                label_set=ds.label_set)
    assert str(exc.value) == f"line {len(ds) + 1}: label 'zzz' not in manifest labels ['n', 'r']"


def test_pool_labels_match_by_name(leaky, pool):
    # a pool whose label set is in another order, with rows of two labels
    # the dataset lacks, gives what the pool without those rows gives
    foreign = [
        r._replace(id=str(int(r.id) + 1), label=("zzz", "yyy")[i % 2])
        for i, r in enumerate(pool.records[::4])
    ]
    records = [r for pair in zip(pool.records, foreign) for r in pair]
    records += pool.records[len(foreign):]
    assert len({r.id for r in (*records, *leaky.records)}) == len(records) + len(leaky)
    shuffled = Dataset(records=tuple(records),
                       label_set=LabelSet(("zzz", *reversed(pool.label_set.labels), "yyy")))
    want_out, want_report = time_rebalance(leaky, pool, ANCHOR, seed=4, measure_leak=False)
    got_out, got_report = time_rebalance(leaky, shuffled, ANCHOR, seed=4, measure_leak=False)
    assert got_out.records == want_out.records
    assert got_report == want_report


def test_report_json_round_trip(rebalanced):
    _, report = rebalanced
    blob = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
    assert blob["anchor_label"] == ANCHOR
    assert blob["n_records"] == 2000
    assert blob["leak_before"]["verdict"] == "severe"
    assert blob["leak_after"]["leakage_score"] < 0.15
    assert set(blob["tv_after"]) == {"true", "false", "unverified"}
