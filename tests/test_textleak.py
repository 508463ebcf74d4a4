"""Keyword shortcut scanner tests.

Log-odds expectations are hand-derived from the 2x2 tables: a dataset of
six "r" records (five containing "bomb") and four "n" records (none) gives
"bomb" a smoothed log-odds of ln((5.5*4.5)/(0.5*1.5)) = ln(33) for "r".
"""

import math

import pytest

from leakaudit import build_dataset, keyword_label_table, scan_discriminative_tokens
from leakaudit.textleak import token_set, tokenize


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
