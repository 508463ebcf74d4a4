"""Keyword shortcut scanner tests.

Log-odds expectations are hand-derived from the 2x2 tables: a dataset of
six "r" records (five containing "bomb") and four "n" records (none) gives
"bomb" a smoothed log-odds of ln((5.5*4.5)/(0.5*1.5)) = ln(33) for "r".
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit import LabelSet, build_dataset, keyword_label_table, scan_discriminative_tokens
from leakaudit.data import Dataset, Record
from leakaudit.errors import UnknownLabelError
from leakaudit.textleak import TokenStats, token_set, tokenize


def test_tokenize_rules():
    assert tokenize("Check https://x.co/Ab @user #Tag42 done") == [
        "check",
        "user",
        "tag42",
        "done",
    ]
    assert tokenize("see www.Foo.com/bar rest") == ["see", "rest"]
    assert tokenize("snake_case stays split") == ["snake", "case", "stays", "split"]
    assert tokenize("Café CAFÉ") == ["café", "café"]
    assert tokenize("covid19 2020") == ["covid19", "2020"]
    assert tokenize("") == []
    assert tokenize("https://only.a.url/x") == []
    assert token_set("a b a") == {"a", "b"}


def _shortcut_dataset():
    rows = []
    for i in range(5):
        rows.append({"id": str(100 + i), "text": "the bomb", "label": "r"})
    rows.append({"id": "105", "text": "the calm", "label": "r"})
    for i in range(4):
        rows.append({"id": str(200 + i), "text": "the calm", "label": "n"})
    return build_dataset(rows, labels=["r", "n"])


def test_log_odds_hand_computed():
    stats = scan_discriminative_tokens(_shortcut_dataset(), min_df=5)
    by_token = {s.token: s for s in stats}
    ln33 = math.log(33.0)

    bomb = by_token["bomb"]
    assert bomb.doc_freq == 5
    assert bomb.per_label_counts == {"r": 5, "n": 0}
    assert bomb.per_label_log_odds["r"] == pytest.approx(ln33)
    assert bomb.per_label_log_odds["n"] == pytest.approx(-ln33)
    assert bomb.top_label == "r"
    assert bomb.log_odds == pytest.approx(ln33)
    assert bomb.excluded_labels == ("n",)
    assert bomb.is_label_excluding

    calm = by_token["calm"]
    assert calm.per_label_log_odds["r"] == pytest.approx(-ln33)
    assert calm.excluded_labels == ()
    assert not calm.is_label_excluding

    the = by_token["the"]
    assert the.doc_freq == 10
    assert the.per_label_log_odds["r"] == pytest.approx(math.log(6.5 * 0.5) - math.log(4.5 * 0.5))
    assert the.excluded_labels == ()

    # ranking: |ln 33| twice, then "the"; the tie orders by token string
    assert [s.token for s in stats] == ["bomb", "calm", "the"]


def test_min_df_filters_rare_tokens():
    stats = scan_discriminative_tokens(_shortcut_dataset(), min_df=6)
    assert [s.token for s in stats] == ["the"]


def test_scan_skips_empty_token_records():
    ds = build_dataset(
        [
            {"id": "1", "text": "the", "label": "r"},
            {"id": "2", "text": "http://a.co", "label": "n"},
        ],
        labels=["r", "n"],
    )
    stats = scan_discriminative_tokens(ds, min_df=1)
    assert [s.token for s in stats] == ["the"]
    # the URL-only record must not count toward any label total:
    # a=1, b=0, c=0, d=0 -> ln((1.5*0.5)/(0.5*0.5)) = ln 3
    assert stats[0].per_label_log_odds["r"] == pytest.approx(math.log(3.0))


def test_keyword_label_table_token_mode():
    ds = build_dataset(
        [
            {"id": "1", "text": "a bombshell report", "label": "r"},
            {"id": "2", "text": "the Bomb squad", "label": "r"},
            {"id": "3", "text": "calm seas", "label": "n"},
        ],
        labels=["r", "n"],
    )
    table = keyword_label_table(ds, ["Bomb", "calm", "ghost"])
    # token mode: "bombshell" is not the token "bomb"
    assert table["Bomb"] == {"r": 1, "n": 0}
    assert table["calm"] == {"r": 0, "n": 1}
    assert table["ghost"] == {"r": 0, "n": 0}

    sub = keyword_label_table(ds, ["Bomb"], substring=True)
    assert sub["Bomb"] == {"r": 2, "n": 0}

    # a repeated keyword counts each record once, in both modes
    assert keyword_label_table(ds, ["calm", "calm"]) == {"calm": {"r": 0, "n": 1}}
    assert keyword_label_table(ds, ["Bomb", "bomb", "Bomb"], substring=True) == {
        "Bomb": {"r": 2, "n": 0}, "bomb": {"r": 2, "n": 0},
    }


def test_a_label_outside_the_set_is_refused_by_both_functions():
    # the stray record has no tokens: a scan that skipped it before checking
    # its label, or a table that only looked up labels on a hit, would pass
    ds = Dataset(
        records=(Record(id="1", text="calm", label="r"), Record(id="2", text="", label="x")),
        label_set=LabelSet.of("r", "n"),
    )
    for call in (
        lambda: scan_discriminative_tokens(ds, min_df=1),
        lambda: keyword_label_table(ds, ["calm"]),
        lambda: keyword_label_table(ds, ["calm"], substring=True),
    ):
        with pytest.raises(UnknownLabelError) as exc_info:
            call()
        assert str(exc_info.value) == "label 'x' not in ('r', 'n')"


# --- properties against per-record loops -------------------------------------

WORDS = ("foo", "Foo", "BAR", "bar", "café", "CAFÉ", "x1", "#Tag", "@foo", "snake_case",
         "http://t.co/Foo", "www.bar.com/x")
TEXTS = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
KEYWORDS = ("foo", "FOO", "Bar", "café", "tag", "case", "co", "nowhere", "t.co")


@st.composite
def datasets(draw, labels=("r", "n", "m")):
    rows = draw(st.lists(st.tuples(TEXTS, st.sampled_from(labels)), max_size=25))
    return build_dataset(
        [{"id": str(i), "text": text, "label": label} for i, (text, label) in enumerate(rows, 1)],
        labels=labels,
    )


def _scan_oracle(dataset, min_df):
    """The scan as per-token label dicts, scoring the labels that some
    record with tokens carries."""
    totals = dict.fromkeys(dataset.label_set, 0)
    counts = {}
    for record in dataset.records:
        tokens = token_set(record.text)
        totals[record.label] += bool(tokens)
        for tok in tokens:
            counts.setdefault(tok, dict.fromkeys(dataset.label_set, 0))[record.label] += 1
    scored = [label for label in dataset.label_set if totals[label]]
    n_total = sum(totals.values())
    stats = []
    for tok, row in counts.items():
        df = sum(row.values())
        if df < min_df:
            continue
        lo = {}
        for label in scored:
            a, b = row[label], df - row[label]
            c, d = totals[label] - a, n_total - totals[label] - b
            lo[label] = math.log((a + 0.5) * (d + 0.5)) - math.log((b + 0.5) * (c + 0.5))
        top = max(scored, key=lambda lab: (abs(lo[lab]), -scored.index(lab)))
        excluded = tuple(label for label in scored if row[label] == 0)
        stats.append(TokenStats(tok, df, row, lo, lo[top], top, excluded))
    return sorted(stats, key=lambda s: (-abs(s.log_odds), s.token))


@settings(max_examples=150, deadline=None)
@given(dataset=datasets(), min_df=st.integers(1, 4))
def test_scan_matches_per_token_dict_oracle(dataset, min_df):
    assert scan_discriminative_tokens(dataset, min_df=min_df) == _scan_oracle(dataset, min_df)


@settings(max_examples=150, deadline=None)
@given(dataset=datasets(), keywords=st.lists(st.sampled_from(KEYWORDS), max_size=6))
def test_keyword_table_reads_the_scan_counts(dataset, keywords):
    by_token = {s.token: s.per_label_counts for s in scan_discriminative_tokens(dataset, min_df=1)}
    zeros = dict.fromkeys(dataset.label_set, 0)
    assert keyword_label_table(dataset, list(by_token)) == by_token
    table = keyword_label_table(dataset, keywords)
    assert table == {kw: by_token.get(kw.lower(), zeros) for kw in keywords}

    substring = keyword_label_table(dataset, keywords, substring=True)
    for kw in keywords:
        expected = dict(zeros)
        for record in dataset.records:
            expected[record.label] += kw.lower() in record.text.lower()
        assert substring[kw] == expected


@settings(max_examples=100, deadline=None)
@given(dataset=datasets(), at=st.integers(0, 3))
def test_a_label_no_record_carries_changes_no_score(dataset, at):
    names = list(dataset.label_set)
    widened = Dataset(dataset.records, LabelSet(tuple(names[:at] + ["unused"] + names[at:])))
    expected = [
        dataclasses.replace(s, per_label_counts={**s.per_label_counts, "unused": 0})
        for s in scan_discriminative_tokens(dataset, min_df=1)
    ]
    assert scan_discriminative_tokens(widened, min_df=1) == expected
