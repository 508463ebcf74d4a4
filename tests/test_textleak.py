"""Keyword shortcut scanner tests.

Log-odds expectations are hand-derived from the 2x2 tables: a dataset of
six "r" records (five containing "bomb") and four "n" records (none) gives
"bomb" a smoothed log-odds of ln((5.5*4.5)/(0.5*1.5)) = ln(33) for "r".
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakaudit import (
    LabelSet,
    _arrays,
    build_dataset,
    keyword_label_table,
    scan_discriminative_tokens,
    scan_duplicates,
    text,
    textleak,
)
from leakaudit.data import Dataset
from leakaudit.text import TOKEN_RE, build_text_table, normalize_text, strip_urls
from leakaudit.textleak import TokenStats, _word_tokens


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

    # a repeated keyword counts each record once
    assert keyword_label_table(ds, ["calm", "calm"]) == {"calm": {"r": 0, "n": 1}}
    assert keyword_label_table(ds, ["Bomb", "bomb", "Bomb"]) == {
        "Bomb": {"r": 1, "n": 0}, "bomb": {"r": 1, "n": 0},
    }


def test_keyword_label_table_refuses_a_bare_string():
    # "bomb" would otherwise read as the keywords "b", "o", "m", "b"
    with pytest.raises(TypeError, match="^keywords must be a sequence of strings"):
        keyword_label_table(_shortcut_dataset(), "bomb")
    assert keyword_label_table(_shortcut_dataset(), ("bomb",)) == {"bomb": {"r": 5, "n": 0}}


@pytest.mark.parametrize("min_df", [0, -3, True, False, 1.5, 2.0, "2", None, np.int64(2)])
def test_min_df_must_be_an_int_of_at_least_one(min_df):
    with pytest.raises(ValueError) as exc_info:
        scan_discriminative_tokens(_shortcut_dataset(), min_df=min_df)
    assert str(exc_info.value) == f"min_df must be an integer >= 1, got {min_df}"


# --- one text table for both scans ------------------------------------------

SPECIAL = ("\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", " ", "\t", "_",
           "\u0301", "\u0663", "\uff13", "\u017f", "\u0130", "\u03a3", "\u00df", "A", "Z")
URLS = ("http://t.co/Ab", "https://x.io/q?a=1", "www.Foo.com/x", "HTTP://A.B", "WWW.c.d", "www.")
PUNCT = ("(", ")", ".", ",", "!", '"', "#", "@", "/", ":")
UNICODE_TEXTS = st.lists(
    st.one_of(st.text(max_size=6), *(st.sampled_from(pool) for pool in (SPECIAL, URLS, PUNCT))),
    max_size=12,
).map("".join)


def _table_tokens(texts):
    """Each text's tokens as the text table and the keyword scan's word
    tokenization give them."""
    table = build_text_table(texts)
    tokens, flat, n_tokens = _word_tokens(table.vocab)
    vocab = table.vocab.split(" ")[:-1]
    word_tokens = np.split(flat, np.cumsum(n_tokens)[:-1]) if len(vocab) else []
    word_bounds = np.concatenate(([0], np.cumsum(table.n_words)))
    got = []
    for raw, node in zip(texts, table.node.tolist()):
        words = table.words[word_bounds[node] : word_bounds[node + 1]].tolist() if node >= 0 else []
        assert " ".join(vocab[w] for w in words) == normalize_text(raw)
        got.append([tokens[t] for w in words for t in word_tokens[w].tolist()])
    return got


def test_tokenize_rules():
    cases = {
        "Check https://x.co/Ab @user #Tag42 done": ["check", "user", "tag42", "done"],
        "see www.Foo.com/bar rest": ["see", "rest"],
        "snake_case stays split": ["snake", "case", "stays", "split"],
        "Café CAFÉ": ["café", "café"],
        "covid19 2020": ["covid19", "2020"],
        "": [],
        "https://only.a.url/x": [],
    }
    assert _table_tokens(list(cases)) == list(cases.values())


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(UNICODE_TEXTS, min_size=1, max_size=4))
@example(texts=["http://a.co/x starts", "ends www.b.org", "(http://c.d/e), x.www.y.z",
                "\u2028https://q.r\x85A\u03a3\u0301 snake_case", "\u0130\u017f\u0663\xa0x\x1cy"])
def test_table_tokens_match_the_token_regex(texts):
    expected = [TOKEN_RE.findall(strip_urls(t.lower())) for t in texts]
    # normalizing keeps the tokens, so the table may key on normalized text
    assert [TOKEN_RE.findall(normalize_text(t)) for t in texts] == expected
    assert _table_tokens(texts) == expected


def test_small_batches_build_the_same_tables(monkeypatch):
    texts = [f"W{i % 7} w{i % 5} {'x ' * (i % 3)}http://u.co/{i} #t{i % 4}" for i in range(60)]
    ds = build_dataset(
        [{"id": str(i), "text": t, "label": "rnm"[i % 3]} for i, t in enumerate(texts, 1)],
        labels=["r", "n", "m"],
    )
    table = build_text_table(texts)
    scan, duplicates = scan_discriminative_tokens(ds, min_df=1), scan_duplicates(ds, 0.5)
    monkeypatch.setattr(text, "_BATCH_TEXTS", 1)
    monkeypatch.setattr(_arrays, "_BATCH", 1)
    monkeypatch.setattr(textleak, "_BATCH_CHARS", 1)
    small = build_text_table(texts)
    for name in ("node", "words", "n_words", "vocab"):
        assert np.array_equal(getattr(small, name), getattr(table, name)), name
    fresh = Dataset(ds.records, ds.label_set)
    assert scan_discriminative_tokens(fresh, min_df=1) == scan
    assert scan_duplicates(fresh, 0.5) == duplicates


# --- properties against per-record loops -------------------------------------

WORDS = ("foo", "Foo", "BAR", "bar", "café", "CAFÉ", "x1", "#Tag", "@foo", "snake_case",
         "http://t.co/Foo", "www.bar.com/x")
TEXTS = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
KEYWORDS = ("foo", "FOO", "Bar", "café", "tag", "case", "co", "nowhere", "t.co")
# ways to write a text that normalize to the same node
VARIANTS = (
    str,
    str.upper,
    str.title,
    lambda t: t.replace(" ", "\t"),
    lambda t: t.replace(" ", " \u2028"),
    lambda t: f"{t} https://t.co/Zz9",
    lambda t: f"WWW.x.org/a {t}",
)


@st.composite
def datasets(draw, labels=("r", "n", "m")):
    """Records whose text is drawn on its own or is one of a few texts
    written in one of VARIANTS, so the records of one node can carry
    different labels."""
    bases = draw(st.lists(TEXTS, min_size=1, max_size=25))
    variant_texts = st.builds(lambda base, variant: variant(base),
                              st.sampled_from(bases), st.sampled_from(VARIANTS))
    rows = draw(st.lists(st.tuples(st.one_of(TEXTS, variant_texts), st.sampled_from(labels)),
                         max_size=25))
    return build_dataset(
        [{"id": str(i), "text": text, "label": label} for i, (text, label) in enumerate(rows, 1)],
        labels=labels,
    )


@given(base=TEXTS)
def test_variants_normalize_to_one_text(base):
    assert {normalize_text(variant(base)) for variant in VARIANTS} == {normalize_text(base)}


def _scan_oracle(dataset, min_df):
    """The scan as per-token label dicts, scoring the labels that some
    record with tokens carries."""
    totals = dict.fromkeys(dataset.label_set, 0)
    counts = {}
    for record in dataset.records:
        tokens = set(TOKEN_RE.findall(strip_urls(record.text.lower())))
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
