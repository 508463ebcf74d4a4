"""Command-level tests: exit codes, stdout lines, and emitted JSON files.

Every emitted JSON artifact is validated against the schema shipped in
leakaudit/schemas/, so the schemas are part of the tested contract.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import leakaudit
from leakaudit import Manifest, data, dedup, load_jsonl
from leakaudit.cli import main, parse_window
from leakaudit.data import build_dataset, label_distribution, save_jsonl

LABELS = "true,false,unverified,non-rumor"
SCHEMA_DIR = Path(leakaudit.__file__).parent / "schemas"


def check_schema(payload, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def env(tmp_path_factory, leaky, control, pool):
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root}
    for key, dataset in (("leaky", leaky), ("control", control), ("pool", pool)):
        paths[key] = root / f"{key}.jsonl"
        save_jsonl(dataset, paths[key])
    return paths


def test_schemas_share_their_report_and_fingerprint_shapes():
    # the shapes are written out in each schema that embeds them; they must agree
    bundle, rebalance, inspect = (
        json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text(encoding="utf-8"))
        for name in ("audit-bundle", "rebalance-report", "inspect")
    )
    assert bundle["$defs"]["id_leak_report"] == rebalance["$defs"]["id_leak_report"]
    assert bundle["$defs"]["fingerprint"] == inspect["properties"]["fingerprint"]


def test_parse_window():
    assert parse_window("5000") == 5000
    assert parse_window("90s") == 90_000
    assert parse_window("2m") == 120_000
    assert parse_window("1.5h") == 5_400_000
    assert parse_window("7d") == 604_800_000
    assert parse_window(" 7D ") == 604_800_000
    with pytest.raises(ValueError):
        parse_window("abc")
    with pytest.raises(ValueError):
        parse_window("")


def test_version_flag(capsys):
    # argparse version action exits directly instead of returning
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("leakaudit ")


def test_audit_leaky_fails_gate(env, capsys):
    bundle_path = env["root"] / "bundle-leaky.json"
    rc = main([
        "audit", str(env["leaky"]), "--labels", LABELS,
        "--k", "3", "--n-splits", "2", "--json", str(bundle_path),
    ])
    out = capsys.readouterr().out
    assert rc == 2
    assert "[FAIL] worst id-leak score" in out
    assert "id-leak probe (2 generated splits):" in out
    assert "keyword scan:" in out
    assert "duplicates:" in out

    bundle = read_json(bundle_path)
    check_schema(bundle, "audit-bundle.schema.json")
    assert bundle["id_leak"]["gate"] == "fail"
    assert bundle["id_leak"]["worst_leakage_score"] > 0.9
    assert len(bundle["id_leak"]["reports"]) == 2
    assert set(bundle["id_leak"]["summary"]) == {"3"}
    assert bundle["fingerprint"]["n_records"] == 2000
    assert set(bundle["fingerprint"]["label_distribution"].values()) == {500}
    assert bundle["duplicates"] is not None
    assert bundle["contamination"] is None


def test_audit_high_gate_passes(env, capsys):
    bundle_path = env["root"] / "bundle-gate.json"
    rc = main([
        "audit", str(env["leaky"]), "--labels", LABELS,
        "--k", "2", "--n-splits", "1", "--fail-over", "1.1",
        "--skip-duplicates", "--json", str(bundle_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] worst id-leak score" in out
    bundle = read_json(bundle_path)
    check_schema(bundle, "audit-bundle.schema.json")
    assert bundle["id_leak"]["gate"] == "pass"
    assert bundle["duplicates"] is None
    assert bundle["contamination"] is None


def test_audit_control_passes_default_gate(env, capsys):
    bundle_path = env["root"] / "bundle-control.json"
    rc = main([
        "audit", str(env["control"]), "--labels", LABELS,
        "--k", "3", "--n-splits", "2", "--skip-duplicates",
        "--json", str(bundle_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out
    bundle = read_json(bundle_path)
    check_schema(bundle, "audit-bundle.schema.json")
    assert bundle["id_leak"]["worst_leakage_score"] < 0.15


def test_audit_canonical_split_reports_contamination(env, capsys):
    split_path = env["root"] / "canonical.json"
    assert main([
        "split", str(env["leaky"]), "--labels", LABELS,
        "--seed", "5", "--out", str(split_path),
    ]) == 0

    bundle_path = env["root"] / "bundle-canonical.json"
    rc = main([
        "audit", str(env["leaky"]), "--labels", LABELS,
        "--split", str(split_path), "--k", "2,3", "--json", str(bundle_path),
    ])
    out = capsys.readouterr().out
    assert rc == 2
    assert "(canonical split):" in out
    assert "cross-split contamination:" in out

    bundle = read_json(bundle_path)
    check_schema(bundle, "audit-bundle.schema.json")
    # one report per k against the fixed split
    assert len(bundle["id_leak"]["reports"]) == 2
    assert set(bundle["id_leak"]["summary"]) == {"2", "3"}
    assert bundle["contamination"] is not None
    assert bundle["contamination"]["n_pairs"] >= 0


def test_audit_reads_a_csv_dataset_as_its_jsonl(env, leaky, tmp_path, capsys):
    # the same records under the same file stem give the same bundle and stdout
    csv_path = tmp_path / "leaky.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        writer.writerows((r.id, r.text, r.label) for r in leaky.records)
    bundle_path = env["root"] / "bundle-csv.json"
    runs = []
    for data_path in (env["leaky"], csv_path):
        capsys.readouterr()
        assert main(["audit", str(data_path), "--labels", LABELS, "--k", "2",
                     "--n-splits", "1", "--json", str(bundle_path)]) == 2
        runs.append((capsys.readouterr().out, bundle_path.read_bytes()))
    assert runs[0] == runs[1]


def test_audit_without_json_writes_no_file(env, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["audit", str(env["leaky"]), "--labels", LABELS,
               "--k", "2", "--n-splits", "1", "--skip-duplicates"])
    assert rc == 2
    assert "[FAIL] worst id-leak score" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_audit_keyword_lines_ignore_a_label_no_record_carries(env, capsys):
    def keyword_lines(labels):
        assert main(["audit", str(env["leaky"]), "--labels", labels,
                     "--k", "2", "--n-splits", "1", "--skip-duplicates"]) == 2
        out = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(out) if line.startswith("keyword scan:"))
        return out[start:next(i for i, line in enumerate(out) if line.startswith("["))]

    lines = keyword_lines(LABELS)
    assert len(lines) == 26
    assert keyword_lines(LABELS + ",satire") == lines
    assert keyword_lines("satire," + LABELS) == lines


def test_audit_bundle_does_not_depend_on_the_hash_seed(env, tmp_path):
    # the children import the package these tests import
    src = str(Path(leakaudit.__file__).resolve().parents[1])
    bundles = []
    for hash_seed in ("0", "1"):
        bundle_path = tmp_path / f"bundle-{hash_seed}.json"
        environ = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "leakaudit", "audit", str(env["leaky"]), "--labels", LABELS,
             "--k", "2", "--n-splits", "1", "--json", str(bundle_path)],
            env=environ, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        bundles.append(bundle_path.read_bytes())
    assert bundles[0] == bundles[1]


def test_audit_split_builds_duplicate_index_once(env, monkeypatch):
    split_path = env["root"] / "once.json"
    assert main(["split", str(env["leaky"]), "--labels", LABELS,
                 "--seed", "3", "--out", str(split_path)]) == 0
    calls = dict.fromkeys(("build_text_table", "_build_nodes", "_prefix_buckets"), 0)
    for module, name in ((data, "build_text_table"), (dedup, "_build_nodes"),
                         (dedup, "_prefix_buckets")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    bundle_path = env["root"] / "bundle-once.json"
    audit = ["audit", str(env["leaky"]), "--labels", LABELS, "--split", str(split_path),
             "--k", "2", "--json", str(bundle_path)]
    assert main(audit) == 2
    assert read_json(bundle_path)["contamination"] is not None
    # the keyword scan and the duplicate scan share one text table
    assert calls == {"build_text_table": 1, "_build_nodes": 1, "_prefix_buckets": 1}
    calls.update(dict.fromkeys(calls, 0))
    assert main(audit + ["--skip-duplicates"]) == 2
    assert calls == {"build_text_table": 1, "_build_nodes": 0, "_prefix_buckets": 0}


def test_audit_min_df_must_be_an_int_of_at_least_one(env, capsys):
    for value in ("0", "-3", "1.5", "true"):
        assert main(["audit", str(env["leaky"]), "--labels", LABELS, f"--min-df={value}"]) == 1
        assert "--min-df" in capsys.readouterr().err


def test_audit_usage_errors(env, capsys):
    # no label vocabulary
    assert main(["audit", str(env["leaky"])]) == 1
    assert "provide --manifest FILE or --labels" in capsys.readouterr().err

    # missing data file
    assert main(["audit", str(env["root"] / "nope.jsonl"), "--labels", LABELS]) == 1
    assert "error:" in capsys.readouterr().err

    # malformed or out-of-range flags name the flag
    base = ["audit", str(env["leaky"]), "--labels", LABELS, "--json", str(env["root"] / "never.json")]
    for flags, named in (
        (["--k", "abc"], "--k"),
        (["--k", "0"], "--k"),
        (["--k", ","], "--k"),
        (["--k", "3,3"], "--k"),
        (["--k", "2,3,2"], "--k"),
        (["--n-splits", "0"], "--n-splits"),
        (["--fail-over=-1"], "--fail-over"),
        (["--fail-over", "nan"], "--fail-over"),
        (["--jaccard", "0"], "--jaccard"),
        (["--jaccard", "1.5"], "--jaccard"),
        (["--jaccard", "nan"], "--jaccard"),
        (["--jaccard", "5", "--skip-duplicates"], "--jaccard"),
        (["--min-df", "0"], "--min-df"),
        (["--min-df=-3"], "--min-df"),
        (["--top-tokens=-1"], "--top-tokens"),
        # the bundle's schema gives the forest seed a minimum of 0
        (["--seed=-1"], "--seed"),
    ):
        assert main(base + flags) == 1
        assert f"error: {named} " in capsys.readouterr().err
    assert not (env["root"] / "never.json").exists()

    # unknown subcommand and empty argv are argument errors, not crashes
    assert main(["bogus"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--split", "SPLIT", "--n-splits", "9"], "--n-splits applies only without --split"),
        (["--n-splits", "5", "--split", "SPLIT"], "--n-splits applies only without --split"),
        (["--skip-duplicates", "--jaccard", "0.9"],
         "--jaccard applies only without --skip-duplicates"),
        (["--jaccard", "0.8", "--skip-duplicates"],
         "--jaccard applies only without --skip-duplicates"),
    ],
    ids=["split-then-n-splits", "n-splits-then-split", "skip-then-jaccard", "jaccard-then-skip"],
)
def test_audit_refuses_a_flag_it_would_ignore(env, capsys, tmp_path, flags, message):
    split_path = tmp_path / "split.json"
    assert main(["split", str(env["leaky"]), "--labels", LABELS,
                 "--seed", "1", "--out", str(split_path)]) == 0
    capsys.readouterr()
    bundle_path = tmp_path / "bundle.json"
    flags = [str(split_path) if flag == "SPLIT" else flag for flag in flags]
    assert main(["audit", str(env["leaky"]), "--labels", LABELS, *flags,
                 "--json", str(bundle_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not bundle_path.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("audit", []),
        ("split", ["--seed", "0", "--out", "OUT"]),
        ("eval", ["--split", "SPLIT", "--pred", "PRED"]),
        ("aggregate", ["--pred", "PRED", "--out", "OUT"]),
        ("rebalance", ["--pool", "POOL", "--anchor-label", "non-rumor", "--seed", "0",
                       "--out", "OUT"]),
        ("inspect", []),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_labels_with_manifest_is_refused(env, capsys, tmp_path, command, flags):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"labels": LABELS.split(",")}), encoding="utf-8")
    paths = {name: str(tmp_path / name.lower()) for name in ("SPLIT", "PRED", "OUT")}
    paths["POOL"] = str(env["pool"])
    flags = [paths.get(flag, flag) for flag in flags]
    assert main([command, str(env["leaky"]), "--manifest", str(manifest),
                 "--labels", "bogus,labels", *flags]) == 1
    assert capsys.readouterr() == ("", "error: --labels applies only without --manifest\n")
    assert sorted(tmp_path.iterdir()) == [manifest]


@pytest.mark.parametrize(
    "bad",
    [
        {"provenance": None},
        {"spec": 5},
        {"test_ids": [None]},
        {"spec": {"mystery": 1}},
        {"spec": {"ratios": [0.5, 0.5, 0.5]}},
    ],
    ids=["provenance-null", "spec-number", "id-null", "spec-unknown-field", "spec-bad-ratios"],
)
def test_audit_rejects_malformed_split_file(env, capsys, tmp_path, bad):
    split_path = tmp_path / "split.json"
    payload = {"train_ids": ["1"], "dev_ids": [], "test_ids": ["2"], **bad}
    split_path.write_text(json.dumps(payload), encoding="utf-8")
    bundle_path = tmp_path / "bundle.json"
    assert main(["audit", str(env["leaky"]), "--labels", LABELS, "--split", str(split_path),
                 "--json", str(bundle_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {split_path}: ") and err.count("\n") == 1
    assert not bundle_path.exists()


def test_split_deterministic_and_schema(env, capsys):
    out1 = env["root"] / "split-a.json"
    out2 = env["root"] / "split-b.json"
    argv = ["split", str(env["leaky"]), "--labels", LABELS, "--seed", "11"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert "train 1400 / dev 200 / test 400" in capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()

    payload = read_json(out1)
    check_schema(payload, "split-file.schema.json")
    assert len(payload["train_ids"]) == 1400
    assert len(payload["dev_ids"]) == 200
    assert len(payload["test_ids"]) == 400
    assert payload["spec"]["seed"] == 11


def test_split_errors(env, capsys, monkeypatch, tmp_path):
    out = env["root"] / "never-written.json"
    base = ["split", str(env["leaky"]), "--labels", LABELS, "--out", str(out)]

    assert main(base) == 1
    assert "--seed is required" in capsys.readouterr().err

    assert main(base + ["--seed", "1", "--ratios", "0.5,0.5"]) == 1
    assert "three numbers" in capsys.readouterr().err

    for ratios in ("a,b,c", "0.7,x,0.2"):
        assert main(base + ["--seed", "1", "--ratios", ratios]) == 1
        assert f"error: --ratios needs three numbers, got {ratios!r}" in capsys.readouterr().err
    assert main(base + ["--seed", "1", "--ratios", "0.5,0.4,0.3"]) == 1
    assert main(base + ["--seed", "1", "--preset", "no-such-preset"]) == 1
    assert not out.exists()

    # --seed and --ratios are checked before the data file is opened
    missing = ["split", str(env["root"] / "nope.jsonl"), "--labels", LABELS, "--out", str(out)]
    assert main(missing) == 1
    assert "--seed is required" in capsys.readouterr().err
    assert main(missing + ["--seed", "1", "--ratios", "0.7,x,0.2"]) == 1
    assert "--ratios" in capsys.readouterr().err
    assert main(missing + ["--seed", "1", "--ratios", "0.5,0.4,0.3"]) == 1
    assert "ratios sum to" in capsys.readouterr().err

    # --preset fixes the whole spec: every other split flag is refused by name
    preset = missing + ["--seed", "1", "--preset", "twitter16"]
    for extra in (
        ["--ratios", "0.7,0.1,0.2"],
        ["--no-stratify"],
        ["--group-by", "article_id"],
        ["--holdout-event", "storm"],
        ["--label-filter", "true,false"],
        ["--exclude-conflicting-groups"],
    ):
        assert main(preset + extra) == 1
        assert f"error: --preset takes no other split flags, got {extra[0]}\n" == (
            capsys.readouterr().err
        )
    several = ["--no-stratify", "--group-by", "article_id", "--ratios", "0.5,0.5,0"]
    assert main(preset + several) == 1
    assert "got --ratios, --no-stratify, --group-by" in capsys.readouterr().err

    # groups are article_id or event; anything else is refused by argparse
    for field in ("extra", "__class__"):
        assert main(missing + ["--seed", "1", "--group-by", field]) == 1
        err = capsys.readouterr().err
        assert "argument --group-by: invalid choice" in err and repr(field) in err

    # quotas of user presets are checked before the data file is opened
    user = {
        "presets": {
            "negative": {"spec": {"quotas": {"true": -1, "false": 2}}},
            "zeros": {"spec": {"quotas": {"true": 0, "false": 0}}},
        }
    }
    (tmp_path / "presets.json").write_text(json.dumps(user), encoding="utf-8")
    monkeypatch.setenv("LEAKAUDIT_CONFIG_DIR", str(tmp_path))
    assert main(missing + ["--seed", "1", "--preset", "negative"]) == 1
    assert "quotas: 'true' needs a non-negative integer count, got -1" in capsys.readouterr().err
    assert main(missing + ["--seed", "1", "--preset", "zeros"]) == 1
    assert "quotas: at least one label needs a positive count" in capsys.readouterr().err
    assert not out.exists()


def test_split_preset_field_types(env, capsys, monkeypatch, tmp_path):
    # ratios and min_reply_count of user presets are type-checked before
    # the data file is opened
    ratios = "ratios: need three numbers, got "
    count = "min_reply_count: needs a non-negative integer, got "
    bad = {
        "letters": ({"ratios": ["a", 0.5, 0.5]}, ratios + "('a', 0.5, 0.5)"),
        "bools": ({"ratios": [True, 0, 0]}, ratios + "(True, 0, 0)"),
        "text-count": ({"min_reply_count": "3"}, count + "'3'"),
        "negative-count": ({"min_reply_count": -1}, count + "-1"),
        "bool-count": ({"min_reply_count": True}, count + "True"),
        "float-count": ({"min_reply_count": 2.5}, count + "2.5"),
    }
    user = {"presets": {name: {"spec": spec} for name, (spec, _) in bad.items()}}
    (tmp_path / "presets.json").write_text(json.dumps(user), encoding="utf-8")
    monkeypatch.setenv("LEAKAUDIT_CONFIG_DIR", str(tmp_path))
    out = env["root"] / "never-written.json"
    missing = ["split", str(env["root"] / "nope.jsonl"), "--labels", LABELS, "--out", str(out)]
    for name, (_, message) in bad.items():
        assert main(missing + ["--seed", "1", "--preset", name]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        "[]",
        '{"presets": []}',
        '{"presets": {"mine": {"description": "no spec"}}}',
        '{"presets": {"mine": {"spec": {"ratios": 5}}}}',
        '{"presets": {"mine": {"spec": {"quotas": ["true"]}}}}',
    ],
)
def test_malformed_user_presets_exit_cleanly(env, capsys, monkeypatch, tmp_path, content):
    presets = tmp_path / "presets.json"
    presets.write_text(content, encoding="utf-8")
    monkeypatch.setenv("LEAKAUDIT_CONFIG_DIR", str(tmp_path))
    data = [str(env["leaky"]), "--labels", LABELS]
    for argv in (
        ["inspect", *data],
        ["audit", *data, "--k", "2", "--n-splits", "1", "--skip-duplicates"],
        ["split", *data, "--seed", "1", "--out", str(tmp_path / "split.json")],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {presets}: ") and err.count("\n") == 1
    assert not (tmp_path / "split.json").exists()


def test_split_preset(env, capsys):
    out = env["root"] / "preset.json"
    rc = main([
        "split", str(env["leaky"]), "--labels", LABELS,
        "--preset", "pheme9-tf", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert "train 700 / dev 100 / test 200" in capsys.readouterr().out
    payload = read_json(out)
    check_schema(payload, "split-file.schema.json")
    assert payload["spec"]["name"] == "pheme9-tf"
    assert payload["spec"]["label_filter"] == ["true", "false"]


def _write_predictions(path, split_payload, gold, drop=0):
    test_ids = split_payload["test_ids"]
    kept = test_ids[: len(test_ids) - drop]
    lines = ["id,label"] + [f"{rid},{gold[rid]}" for rid in kept]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_eval_perfect_predictions(env, leaky, capsys):
    split_path = env["root"] / "eval-split.json"
    assert main([
        "split", str(env["leaky"]), "--labels", LABELS,
        "--seed", "17", "--out", str(split_path),
    ]) == 0

    gold = {r.id: r.label for r in leaky.records}
    pred_path = env["root"] / "perfect.csv"
    _write_predictions(pred_path, read_json(split_path), gold)

    result_path = env["root"] / "eval-result.json"
    rc = main([
        "eval", str(env["leaky"]), "--labels", LABELS,
        "--split", str(split_path), "--pred", str(pred_path),
        "--json", str(result_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "macro-F1 1.0000" in out
    assert "evaluated 400 predictions (0 missing, mode wrong)" in out

    payload = read_json(result_path)
    check_schema(payload, "eval-result.schema.json")
    assert payload["macro_f1"] == 1.0
    assert payload["n_scored"] == 400
    assert payload["n_missing"] == 0


def test_eval_missing_mode_and_errors(env, leaky, capsys):
    split_path = env["root"] / "eval-split2.json"
    assert main([
        "split", str(env["leaky"]), "--labels", LABELS,
        "--seed", "17", "--out", str(split_path),
    ]) == 0

    gold = {r.id: r.label for r in leaky.records}
    pred_path = env["root"] / "partial.csv"
    _write_predictions(pred_path, read_json(split_path), gold, drop=10)

    result_path = env["root"] / "eval-partial.json"
    rc = main([
        "eval", str(env["leaky"]), "--labels", LABELS,
        "--split", str(split_path), "--pred", str(pred_path),
        "--missing", "exclude", "--json", str(result_path),
    ])
    assert rc == 0
    capsys.readouterr()
    payload = read_json(result_path)
    check_schema(payload, "eval-result.schema.json")
    assert payload["n_scored"] == 390
    assert payload["n_missing"] == 10
    assert payload["missing_mode"] == "exclude"
    assert payload["macro_f1"] == 1.0

    # bad --missing choice is an argument error
    assert main([
        "eval", str(env["leaky"]), "--labels", LABELS,
        "--split", str(split_path), "--pred", str(pred_path),
        "--missing", "bogus",
    ]) == 1
    # missing prediction file
    assert main([
        "eval", str(env["leaky"]), "--labels", LABELS,
        "--split", str(split_path), "--pred", str(env["root"] / "nope.csv"),
    ]) == 1
    assert "error:" in capsys.readouterr().err


def _aggregate_fixture(root):
    rows = [
        ("9001", "alpha beta", "x", "artA"),
        ("9002", "beta gamma", "x", "artA"),
        ("9003", "gamma delta", "y", "artA"),
        ("9004", "delta epsilon", "x", "artA"),
        ("9005", "epsilon zeta", "y", "artB"),
        ("9006", "zeta eta", "y", "artB"),
        ("9007", "eta theta", "x", "artB"),
        ("9008", "theta iota", "x", "artC"),
        ("9009", "iota kappa", "y", None),
    ]
    data_path = root / "articles.jsonl"
    lines = []
    for rid, text, label, article in rows:
        row = {"id": rid, "text": text, "label": label}
        if article is not None:
            row["article_id"] = article
        lines.append(json.dumps(row))
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    pred_path = root / "article-preds.csv"
    preds = ["id,label"] + [f"{rid},{label}" for rid, _, label, _ in rows]
    pred_path.write_text("\n".join(preds) + "\n", encoding="utf-8")
    return data_path, pred_path


def test_aggregate_votes(env, capsys):
    data_path, pred_path = _aggregate_fixture(env["root"])
    out_path = env["root"] / "votes.csv"
    rc = main([
        "aggregate", str(data_path), "--labels", "x,y",
        "--pred", str(pred_path), "--out", str(out_path),
    ])
    assert rc == 0
    assert "2 article votes (>= 3 tweets each)" in capsys.readouterr().out
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
    # artC has one tweet (below the floor); 9009 has no article
    assert rows == [["article_id", "label"], ["artA", "x"], ["artB", "y"]]

    rc = main([
        "aggregate", str(data_path), "--labels", "x,y",
        "--pred", str(pred_path), "--min-tweets", "1", "--out", str(out_path),
    ])
    assert rc == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
    assert rows == [
        ["article_id", "label"],
        ["artA", "x"],
        ["artB", "y"],
        ["artC", "x"],
    ]

    for min_tweets in ("0", "-5"):
        rc = main([
            "aggregate", str(data_path), "--labels", "x,y",
            "--pred", str(pred_path), f"--min-tweets={min_tweets}", "--out", str(out_path),
        ])
        assert rc == 1
        assert f"error: --min-tweets must be >= 1, got {min_tweets}" in capsys.readouterr().err


def test_commands_on_plain_inputs_build_no_records(env, leaky, monkeypatch, tmp_path):
    # audit, split and rebalance read the loaded columns only, so a plain
    # input never has its Record tuples made; one text in ten repeats the
    # one before it, so duplicate clusters and contamination pairs are named
    dupes = tmp_path / "dupes.jsonl"
    save_jsonl(build_dataset([
        {"id": r.id, "text": leaky.records[i - 1].text if i % 10 == 1 else r.text, "label": r.label}
        for i, r in enumerate(leaky.records)
    ], LABELS.split(",")), dupes)
    records = data.Dataset.records
    built = []

    class Watched:
        def __get__(self, dataset, owner):
            if dataset is None:
                return self
            built.append(dataset.name)
            return records.__get__(dataset, owner)

    monkeypatch.setattr(data.Dataset, "records", Watched())
    split = tmp_path / "split.json"
    runs = [
        (["audit", str(dupes), "--labels", LABELS, "--n-splits", "2",
          "--json", str(tmp_path / "generated.json")], 2),
        (["split", str(dupes), "--labels", LABELS, "--seed", "3", "--out", str(split)], 0),
        (["audit", str(dupes), "--labels", LABELS, "--split", str(split),
          "--json", str(tmp_path / "imported.json")], 2),
        (["rebalance", str(env["leaky"]), "--labels", LABELS, "--pool", str(env["pool"]),
          "--anchor-label", "non-rumor", "--seed", "0", "--out", str(tmp_path / "out.jsonl"),
          "--report", str(tmp_path / "report.json")], 0),
    ]
    for argv, exit_code in runs:
        assert main(argv) == exit_code
    bundle = read_json(tmp_path / "imported.json")
    assert bundle["duplicates"]["n_exact_clusters"] > 0
    assert bundle["contamination"]["n_pairs"] > 0
    assert built == []


def test_rebalance_cli(env, capsys):
    out_path = env["root"] / "rebalanced.jsonl"
    report_path = env["root"] / "rebalance-report.json"
    rc = main([
        "rebalance", str(env["leaky"]), "--labels", LABELS,
        "--pool", str(env["pool"]), "--anchor-label", "non-rumor",
        "--window", "7d", "--seed", "0",
        "--out", str(out_path), "--report", str(report_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rebalanced dataset written" in out
    assert "leak score k=" in out

    report = read_json(report_path)
    check_schema(report, "rebalance-report.schema.json")
    assert report["n_records"] == 2000
    assert report["n_anchor"] == 500
    assert report["n_replaced"] + report["n_rejected"] == 1500
    assert report["window_ms"] == 604_800_000
    assert report["leak_before"]["leakage_score"] > 0.4
    assert report["leak_after"]["leakage_score"] < 0.15
    assert _sha256(report_path) == PINNED["rebalance-report"]

    manifest = Manifest(labels=tuple(LABELS.split(",")))
    rebuilt = load_jsonl(out_path, manifest)
    assert len(rebuilt) == 2000
    assert label_distribution(rebuilt) == {label: 500 for label in manifest.labels}
    # anchors pass through byte-identical, in place
    original = load_jsonl(env["leaky"], manifest)
    anchor_in = [r.id for r in original.records if r.label == "non-rumor"]
    anchor_out = [r.id for r in rebuilt.records if r.label == "non-rumor"]
    assert anchor_in == anchor_out


def test_rebalance_no_probe_and_errors(env, capsys):
    out_path = env["root"] / "rebalanced2.jsonl"
    report_path = env["root"] / "rebalance-report2.json"
    rc = main([
        "rebalance", str(env["leaky"]), "--labels", LABELS,
        "--pool", str(env["pool"]), "--anchor-label", "non-rumor",
        "--seed", "1", "--no-leak-probe",
        "--out", str(out_path), "--report", str(report_path),
    ])
    assert rc == 0
    assert "leak score" not in capsys.readouterr().out
    report = read_json(report_path)
    check_schema(report, "rebalance-report.schema.json")
    assert report["leak_before"] is None
    assert report["leak_after"] is None

    base = [
        "rebalance", str(env["leaky"]), "--labels", LABELS,
        "--pool", str(env["pool"]), "--out", str(out_path),
    ]
    assert main(base + ["--anchor-label", "non-rumor"]) == 1
    assert "--seed is required" in capsys.readouterr().err
    for window in ("abc", "7days", "infd"):
        assert main(base + ["--anchor-label", "non-rumor", "--seed", "1", "--window", window]) == 1
        assert f"error: --window needs ms or a number with an s/m/h/d suffix, got {window!r}" \
            in capsys.readouterr().err
    for window in ("0", "-7d"):
        assert main(base + ["--anchor-label", "non-rumor", "--seed", "1", f"--window={window}"]) == 1
        assert "error: --window must be positive" in capsys.readouterr().err
    assert main(base + ["--anchor-label", "no-such-label", "--seed", "1"]) == 1
    assert "error:" in capsys.readouterr().err

    # --seed and --window are checked before any file is opened
    missing = [
        "rebalance", str(env["root"] / "nope.jsonl"), "--labels", LABELS,
        "--pool", str(env["root"] / "nope-pool.jsonl"), "--anchor-label", "non-rumor",
        "--out", str(out_path),
    ]
    assert main(missing) == 1
    assert "--seed is required" in capsys.readouterr().err
    assert main(missing + ["--seed", "1", "--window", "abc"]) == 1
    assert "error: --window needs ms" in capsys.readouterr().err


def test_rebalance_pool_manifest_maps_the_pool_columns(env, pool, tmp_path, capsys):
    # the pool's ids under another column name give the same dataset and report
    renamed = tmp_path / "pool.jsonl"
    renamed.write_text("".join(
        json.dumps({"tweet_id": r.id, "text": r.text, "label": r.label}) + "\n"
        for r in pool.records
    ), encoding="utf-8")
    pool_manifest = tmp_path / "pool-manifest.json"
    pool_manifest.write_text(json.dumps(
        {"labels": LABELS.split(","), "fields": {"id": "tweet_id"}}
    ), encoding="utf-8")
    out_path, report_path = tmp_path / "out.jsonl", tmp_path / "report.json"
    base = ["rebalance", str(env["leaky"]), "--labels", LABELS, "--anchor-label", "non-rumor",
            "--seed", "3", "--out", str(out_path), "--report", str(report_path)]
    runs = []
    for extra in (["--pool", str(env["pool"])],
                  ["--pool", str(renamed), "--pool-manifest", str(pool_manifest)]):
        assert main(base + extra) == 0
        capsys.readouterr()
        runs.append((out_path.read_bytes(), report_path.read_bytes()))
    assert runs[0] == runs[1]


def test_inspect_cli(env, capsys):
    json_path = env["root"] / "fingerprint.json"
    rc = main(["inspect", str(env["leaky"]), "--labels", LABELS, "--json", str(json_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(2000 records)" in out
    assert "time span: 2015-01" in out
    assert "violations: 0" in out

    payload = read_json(json_path)
    check_schema(payload, "inspect.schema.json")
    info = payload["fingerprint"]
    assert info["n_records"] == 2000
    assert sum(info["label_distribution"].values()) == 2000
    assert info["n_undecodable_ids"] == 0
    assert info["n_violations"] == 0
    assert info["min_timestamp_ms"] < info["max_timestamp_ms"]
    assert _sha256(json_path) == PINNED["inspect"]


def test_inspect_rejects_malformed_manifest(env, capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"labels": ["true"], "fields": {"id": ["x"]}}', encoding="utf-8")
    assert main(["inspect", str(env["leaky"]), "--manifest", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {manifest}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "labels, message",
    [("a,a", "duplicate labels in ('a', 'a')"), (",", "label set is empty")],
)
def test_bad_labels_are_refused_before_the_data_file_is_opened(env, capsys, labels, message):
    assert main(["inspect", str(env["root"] / "nope.jsonl"), "--labels", labels]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_manifest_file_with_a_repeated_label_is_refused(env, capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"labels": ["a", "a"]}', encoding="utf-8")
    for data_path in (env["leaky"], env["root"] / "nope.jsonl"):
        assert main(["inspect", str(data_path), "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: manifest {manifest}: duplicate labels in ('a', 'a')\n"


def test_manifest_file_mapping_an_unknown_field_is_refused(env, capsys, tmp_path):
    # named like the file's other refusals, before the data file is opened
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"labels": ["a"], "fields": {"bogus": "x"}}', encoding="utf-8")
    for data_path in (env["leaky"], env["root"] / "nope.jsonl"):
        assert main(["inspect", str(data_path), "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: manifest {manifest}: field map names unknown fields: ['bogus']\n"


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "leakaudit", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("leakaudit ")


# --- pinned outputs -----------------------------------------------------------
#
# SHA-256 of the files the commands write, pinned before splits became
# dataset positions: the split representation must not change a byte.
# "inspect" and "rebalance-report" were pinned before the fingerprint's
# n_violations became a constant and the reports' serializers became asdict.
# The "-stdout" entries are what ``audit`` prints without --json, keyword
# lines included, pinned before the keyword scan moved to one count table.
PINNED = {
    "audit-generated": "0eb18492967747ec46e87c550b8d1d620cb6930449b57a7ceb7de5d88b3ec8fa",
    "split": "040ef6ae4032947311614ab1f12611a566b72e5ddd5f8af5aa1a5fbf2858c6ea",
    "split-duplicated": "4d31d04f28af2b94b3c35b1e5bf3cc54a8f793059378551ef0a4d6e464ab538b",
    "audit-duplicated": "2eea8e1a779e0f985958ed5983628b4818935482b7a7093ad82c12374e155e4c",
    "audit-generated-stdout": "23d13cf9bcb80689733c1903876e8608c76dcd8a9092c3ca2b8076922f95b0d3",
    "audit-duplicated-stdout": "b09dc27d55a4d7385515d71e03d9b2946434a90bd6562f966a7c72a6921a1c4c",
    "eval": "e526471a06568261b7322104dc34b9dec63122bd95ee87371af81ebf58bfb5ed",
    "inspect": "7aa9f9ef20b1644e5c0e023f75e787b13d767cbda0282426d2deada82a4f7755",
    "rebalance-report": "a7d1a7f7e20ccc340b78d432bfc69ed30de12eb7efaa1a1055391a4b8a29bb38",
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _stdout_sha256(argv, capsys):
    capsys.readouterr()
    main(argv)
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_audit_bundle_with_generated_splits_is_pinned(env, capsys):
    argv = ["audit", str(env["leaky"]), "--labels", LABELS, "--k", "2,3", "--n-splits", "2"]
    assert _stdout_sha256(argv, capsys) == PINNED["audit-generated-stdout"]
    bundle_path = env["root"] / "bundle-pinned.json"
    assert main(argv + ["--json", str(bundle_path)]) == 2
    capsys.readouterr()
    assert _sha256(bundle_path) == PINNED["audit-generated"]


@pytest.fixture(scope="module")
def duplicated(env, leaky):
    """The leaky corpus with 30 planted families, each an original text, an
    exact copy and a near copy (one of 20 tokens changed), spread over the
    corpus so a random split puts members in different partitions."""
    rows = [{"id": r.id, "text": r.text, "label": r.label} for r in leaky.records]
    for family in range(30):
        words = [f"f{family}w{j}" for j in range(20)]
        for copy, at in enumerate(range(family * 61, len(rows), 677)[:3]):
            text = words if copy < 2 else words[:-1] + ["edited"]
            rows[at]["text"] = " ".join(text)
    path = env["root"] / "duplicated.jsonl"
    save_jsonl(build_dataset(rows, labels=leaky.label_set.labels, name="duplicated"), path)
    return path


def test_split_file_is_pinned(env, capsys):
    split_path = env["root"] / "split-pinned.json"
    assert main([
        "split", str(env["leaky"]), "--labels", LABELS, "--seed", "23", "--out", str(split_path),
    ]) == 0
    capsys.readouterr()
    assert _sha256(split_path) == PINNED["split"]


def test_audit_bundle_with_split_and_contamination_is_pinned(env, duplicated, capsys):
    split_path = env["root"] / "split-duplicated.json"
    assert main([
        "split", str(duplicated), "--labels", LABELS, "--seed", "4", "--out", str(split_path),
    ]) == 0
    argv = ["audit", str(duplicated), "--labels", LABELS, "--split", str(split_path), "--k", "2,3"]
    assert _stdout_sha256(argv, capsys) == PINNED["audit-duplicated-stdout"]
    bundle_path = env["root"] / "bundle-duplicated.json"
    assert main(argv + ["--json", str(bundle_path)]) == 2
    capsys.readouterr()
    worst = read_json(bundle_path)["contamination"]["worst"]
    assert {p["kind"] for p in worst} == {"exact", "near"}
    assert {p["partition"] for p in worst} == {"dev", "test"}
    assert _sha256(split_path) == PINNED["split-duplicated"]
    assert _sha256(bundle_path) == PINNED["audit-duplicated"]


def test_eval_json_is_pinned(env, leaky, capsys):
    split_path = env["root"] / "eval-split-pinned.json"
    assert main([
        "split", str(env["leaky"]), "--labels", LABELS, "--seed", "29", "--out", str(split_path),
    ]) == 0
    labels = leaky.label_set.labels
    gold = {r.id: r.label for r in leaky.records}
    # every seventh prediction takes the next label; the last 15 test ids
    # have none
    wrong = {
        rid: labels[(labels.index(gold[rid]) + 1) % len(labels)] if i % 7 == 0 else gold[rid]
        for i, rid in enumerate(gold)
    }
    pred_path = env["root"] / "pinned.csv"
    _write_predictions(pred_path, read_json(split_path), wrong, drop=15)
    result_path = env["root"] / "eval-pinned.json"
    assert main([
        "eval", str(env["leaky"]), "--labels", LABELS,
        "--split", str(split_path), "--pred", str(pred_path), "--json", str(result_path),
    ]) == 0
    capsys.readouterr()
    assert _sha256(result_path) == PINNED["eval"]
