"""Command-line interface.

Subcommands: audit, split, eval, aggregate, rebalance, inspect.

Exit codes are a contract for CI use:
    0  command ran; audit gate (when one applies) passed
    2  audit gate failure: measured id-leak score at or above --fail-over
    1  execution error of any kind (bad arguments, missing file, bad data)

Human-readable summaries go to stdout; machine-readable JSON goes to the
path given by --json/--report flags, never interleaved into stdout.
JSON payloads carry no wall-clock timestamps, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .data import (
    Dataset, Manifest, label_distribution, load_csv, load_jsonl, save_jsonl, write_json,
)
from .dedup import scan_duplicates
from .errors import LeakAuditError
from .forest import ForestConfig
from .idleak import probe_splits, run_id_leak_suite, summarize_id_leak_suite
from .metrics import (
    MISSING_MODES,
    aggregate_article_votes,
    evaluate_prediction_file,
    read_prediction_file,
)
from .rebalance import DEFAULT_WINDOW_MS, time_rebalance
from .splits import (
    GROUP_FIELDS,
    SplitSpec,
    export_split,
    get_preset,
    import_split,
    load_presets,
    make_split,
)
from .textleak import scan_discriminative_tokens

BUNDLE_FORMAT_VERSION = 1


class UsageError(LeakAuditError):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for the audit gate; argument problems are
    # execution errors (exit 1), so argparse failures become UsageError
    def error(self, message):
        raise UsageError(message)


def _comma_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def parse_window(raw: str) -> int:
    """Window durations: plain ms, or s/m/h/d suffixed (e.g. '7d')."""
    raw = raw.strip().lower()
    units = {"s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}
    if raw and raw[-1] in units:
        return int(float(raw[:-1]) * units[raw[-1]])
    return int(raw)


def _manifest_from_args(args) -> Manifest:
    if args.manifest and args.labels is not None:
        raise UsageError("--labels applies only without --manifest")
    if args.manifest:
        return Manifest.from_json_file(args.manifest)
    if args.labels:
        return Manifest(labels=tuple(_comma_list(args.labels)))
    raise UsageError("provide --manifest FILE or --labels a,b,c")


def _load_dataset(path: str, manifest: Manifest) -> Dataset:
    if Path(path).suffix.lower() == ".csv":
        return load_csv(path, manifest)
    return load_jsonl(path, manifest)


def _fingerprint(dataset: Dataset) -> dict:
    timed = dataset.timestamps[dataset.timestamps >= 0]
    return {
        "name": dataset.name,
        "n_records": len(dataset),
        "label_distribution": label_distribution(dataset),
        "n_undecodable_ids": len(dataset) - len(timed),
        "n_empty_texts": sum(1 for text in dataset.texts if not text.strip()),
        "min_timestamp_ms": int(timed.min()) if len(timed) else None,
        "max_timestamp_ms": int(timed.max()) if len(timed) else None,
        # every dataset came through the record checker, which refuses each record rule
        "n_violations": 0,
    }


# --- audit ------------------------------------------------------------------


def _k_values(raw: str) -> list[int]:
    try:
        k_values = [int(k) for k in _comma_list(raw)]
    except ValueError:
        raise UsageError(f"--k needs comma-separated integers, got {raw!r}") from None
    if not k_values or min(k_values) < 1:
        raise UsageError(f"--k needs prefix lengths >= 1, got {raw!r}")
    if len(set(k_values)) < len(k_values):
        raise UsageError(f"--k repeats a prefix length, got {raw!r}")
    return k_values


def cmd_audit(args) -> int:
    k_values = _k_values(args.k)
    if args.split and args.n_splits is not None:
        raise UsageError("--n-splits applies only without --split")
    if args.skip_duplicates and args.jaccard is not None:
        raise UsageError("--jaccard applies only without --skip-duplicates")
    n_splits = 5 if args.n_splits is None else args.n_splits
    jaccard = 0.8 if args.jaccard is None else args.jaccard
    if n_splits < 1:
        raise UsageError(f"--n-splits must be >= 1, got {n_splits}")
    if args.seed < 0:  # the bundle records it as the forest seed, which is >= 0
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if not args.fail_over >= 0.0:  # also rejects nan
        raise UsageError(f"--fail-over must be >= 0, got {args.fail_over}")
    if not 0.0 < jaccard <= 1.0:  # also rejects nan
        raise UsageError(f"--jaccard must be in (0, 1], got {jaccard}")
    if args.min_df < 1:
        raise UsageError(f"--min-df must be >= 1, got {args.min_df}")
    if args.top_tokens < 0:
        raise UsageError(f"--top-tokens must be >= 0, got {args.top_tokens}")
    manifest = _manifest_from_args(args)
    dataset = _load_dataset(args.data, manifest)
    config = ForestConfig(seed=args.seed)

    split = import_split(args.split, dataset) if args.split else None
    splits = [split] if split else probe_splits(dataset, n_splits, args.seed)
    reports = run_id_leak_suite(splits, k_values, config)
    summary = summarize_id_leak_suite(reports)

    worst = max(r.leakage_score for r in reports)
    gate_failed = worst >= args.fail_over

    print(f"dataset: {dataset.name} ({len(dataset)} records)")
    print(f"id-leak probe ({'canonical split' if split else f'{n_splits} generated splits'}):")
    for k, row in summary.items():
        print(
            f"  k={k}: macro-F1 {row['macro_f1_mean']:.3f} +/- {row['macro_f1_std']:.3f} "
            f"(baseline {row['baseline_mean']:.3f}), leak score {row['leakage_mean']:.3f}, "
            f"verdict {row['verdict']}"
        )

    tokens = scan_discriminative_tokens(dataset, min_df=args.min_df)
    excluding = [t for t in tokens if t.is_label_excluding]
    print(f"keyword scan: {len(tokens)} tokens at min_df={args.min_df}, "
          f"{len(excluding)} label-excluding")
    for t in tokens[: args.top_tokens]:
        flags = f" excludes={','.join(t.excluded_labels)}" if t.excluded_labels else ""
        print(f"  {t.token:<24} df={t.doc_freq:<6} log-odds {t.log_odds:+.2f} "
              f"-> {t.top_label}{flags}")

    duplicates = None
    if not args.skip_duplicates:
        duplicates = scan_duplicates(dataset, jaccard_threshold=jaccard)
        print(
            f"duplicates: {duplicates.n_exact_clusters} exact clusters "
            f"({duplicates.n_records_in_exact} records), "
            f"{duplicates.n_near_clusters} near clusters "
            f"({duplicates.n_records_in_near} records) at J>={jaccard}"
        )

    contamination = None
    if split is not None and not args.skip_duplicates:
        contamination = duplicates.contamination(split)
        print(f"cross-split contamination: {contamination.n_pairs} duplicate pairs "
              f"reach test/dev from train")

    verdict_line = "FAIL" if gate_failed else "PASS"
    print(f"[{verdict_line}] worst id-leak score {worst:.3f} vs gate {args.fail_over}")
    exit_code = 2 if gate_failed else 0
    if not args.json:
        return exit_code

    bundle = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "tool": {"name": "leakaudit", "version": __version__},
        "fingerprint": _fingerprint(dataset),
        "id_leak": {
            "reports": [r.to_json_dict() for r in reports],
            "summary": {str(k): v for k, v in summary.items()},
            "fail_over": args.fail_over,
            "worst_leakage_score": worst,
            "gate": "fail" if gate_failed else "pass",
        },
        "keywords": {
            "min_df": args.min_df,
            "n_tokens": len(tokens),
            "n_label_excluding": len(excluding),
            "top": [
                {
                    "token": t.token,
                    "doc_freq": t.doc_freq,
                    "log_odds": t.log_odds,
                    "top_label": t.top_label,
                    "excluded_labels": list(t.excluded_labels),
                }
                for t in tokens[: args.top_tokens]
            ],
        },
        "duplicates": None
        if duplicates is None
        else {
            "jaccard_threshold": duplicates.jaccard_threshold,
            "n_skipped_empty": duplicates.n_skipped_empty,
            "n_exact_clusters": duplicates.n_exact_clusters,
            "n_near_clusters": duplicates.n_near_clusters,
            "n_records_in_exact": duplicates.n_records_in_exact,
            "n_records_in_near": duplicates.n_records_in_near,
            "largest_clusters": [
                {
                    "kind": c.kind,
                    "size": c.size,
                    "representative_id": c.representative_id,
                    "min_jaccard_to_representative": c.min_jaccard_to_representative,
                }
                for c in sorted(duplicates.clusters, key=lambda c: -c.size)[:10]
            ],
        },
        "contamination": None
        if contamination is None
        else {
            "n_pairs": contamination.n_pairs,
            "worst": [asdict(p) for p in contamination.worst],
        },
    }
    write_json(bundle, args.json)
    print(f"bundle written to {args.json}")
    return exit_code


# --- split -------------------------------------------------------------------


def _ratios(raw: str) -> tuple[float, float, float]:
    try:
        ratios = tuple(float(x) for x in _comma_list(raw))
    except ValueError:
        ratios = ()
    if len(ratios) != 3:
        raise UsageError(f"--ratios needs three numbers, got {raw!r}")
    return ratios  # type: ignore[return-value]


# split flags a preset replaces: argparse dest -> flag
_SPEC_FLAGS = {
    "ratios": "--ratios",
    "no_stratify": "--no-stratify",
    "group_by": "--group-by",
    "holdout_event": "--holdout-event",
    "label_filter": "--label-filter",
    "exclude_conflicting_groups": "--exclude-conflicting-groups",
}


def cmd_split(args) -> int:
    if args.seed is None:
        raise UsageError("--seed is required for split")
    if args.preset:
        given = [f for dest, f in _SPEC_FLAGS.items() if getattr(args, dest) not in (None, False)]
        if given:
            raise UsageError(f"--preset takes no other split flags, got {', '.join(given)}")
        spec = replace(get_preset(args.preset), seed=args.seed)
    else:
        spec = SplitSpec(
            ratios=SplitSpec.ratios if args.ratios is None else _ratios(args.ratios),
            seed=args.seed,
            stratify=not args.no_stratify,
            group_by=args.group_by,
            holdout_event=args.holdout_event,
            label_filter=tuple(_comma_list(args.label_filter)) if args.label_filter else None,
            exclude_conflicting_groups=args.exclude_conflicting_groups,
        )
    spec.validated()
    manifest = _manifest_from_args(args)
    dataset = _load_dataset(args.data, manifest)
    split = make_split(dataset, spec)
    export_split(split, args.out)
    train_n, dev_n, test_n = split.sizes()
    print(f"split written to {args.out}")
    print(f"  train {train_n} / dev {dev_n} / test {test_n}")
    return 0


# --- eval --------------------------------------------------------------------


def cmd_eval(args) -> int:
    manifest = _manifest_from_args(args)
    dataset = _load_dataset(args.data, manifest)
    split = import_split(args.split, dataset)
    result = evaluate_prediction_file(dataset, split.test, args.pred, missing=args.missing)
    print(f"evaluated {result.n_scored} predictions "
          f"({result.n_missing} missing, mode {result.missing_mode})")
    print(f"macro-F1 {result.macro_f1:.4f}  accuracy {result.accuracy:.4f}")
    for m in result.per_class:
        print(
            f"  {m.label:<16} P {m.precision:.3f}  R {m.recall:.3f}  F1 {m.f1:.3f}  "
            f"support {m.support}"
        )
    if args.json:
        payload = {"format_version": 1, "tool": {"name": "leakaudit", "version": __version__}}
        payload.update(result.to_json_dict())
        write_json(payload, args.json)
        print(f"result written to {args.json}")
    return 0


# --- aggregate -----------------------------------------------------------------


def cmd_aggregate(args) -> int:
    if args.min_tweets < 1:
        raise UsageError(f"--min-tweets must be >= 1, got {args.min_tweets}")
    manifest = _manifest_from_args(args)
    dataset = _load_dataset(args.data, manifest)
    predictions = read_prediction_file(args.pred)
    article_of = dict(zip(dataset.ids, dataset.article_ids))  # None: a tweet with no article
    votes = aggregate_article_votes(
        predictions, article_of, dataset.label_set, min_tweets=args.min_tweets
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["article_id", "label"])
        for article in sorted(votes):
            writer.writerow([article, votes[article]])
    print(f"{len(votes)} article votes (>= {args.min_tweets} tweets each) written to {args.out}")
    return 0


# --- rebalance -----------------------------------------------------------------


def cmd_rebalance(args) -> int:
    if args.seed is None:
        raise UsageError("--seed is required for rebalance")
    try:
        window_ms = parse_window(args.window)
    except (ValueError, OverflowError):  # OverflowError: an infinite count of units
        raise UsageError(
            f"--window needs ms or a number with an s/m/h/d suffix, got {args.window!r}"
        ) from None
    if window_ms <= 0:
        raise UsageError(f"--window must be positive, got {args.window!r}")
    manifest = _manifest_from_args(args)
    pool_manifest = Manifest.from_json_file(args.pool_manifest) if args.pool_manifest else manifest
    dataset = _load_dataset(args.data, manifest)
    pool = _load_dataset(args.pool, pool_manifest)
    rebalanced, report = time_rebalance(
        dataset,
        pool,
        anchor_label=args.anchor_label,
        window_ms=window_ms,
        seed=args.seed,
        measure_leak=not args.no_leak_probe,
    )
    save_jsonl(rebalanced, args.out)
    print(f"rebalanced dataset written to {args.out}")
    print(f"  replaced {report.n_replaced} / rejected {report.n_rejected} "
          f"(anchor '{report.anchor_label}', {report.n_anchor} records kept)")
    if report.leak_before and report.leak_after:
        print(
            f"  leak score k={report.leak_before.k}: "
            f"{report.leak_before.leakage_score:.3f} -> {report.leak_after.leakage_score:.3f}"
        )
    if args.report:
        payload = {
            "format_version": 1,
            "tool": {"name": "leakaudit", "version": __version__},
        }
        payload.update(report.to_json_dict())
        write_json(payload, args.report)
        print(f"report written to {args.report}")
    return 0


# --- inspect -------------------------------------------------------------------


def cmd_inspect(args) -> int:
    manifest = _manifest_from_args(args)
    dataset = _load_dataset(args.data, manifest)
    info = _fingerprint(dataset)
    print(f"dataset: {info['name']} ({info['n_records']} records)")
    print(f"labels: {info['label_distribution']}")
    if info["min_timestamp_ms"] is not None:
        from datetime import datetime, timezone

        span = [
            datetime.fromtimestamp(info[key] / 1000, tz=timezone.utc).isoformat()
            for key in ("min_timestamp_ms", "max_timestamp_ms")
        ]
        print(f"time span: {span[0]} .. {span[1]}")
    print(f"undecodable ids: {info['n_undecodable_ids']}, "
          f"empty texts: {info['n_empty_texts']}, violations: {info['n_violations']}")
    if args.json:
        write_json({"format_version": 1, "fingerprint": info}, args.json)
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leakaudit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"leakaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("data", help="dataset file (.jsonl or .csv)")
        p.add_argument("--manifest", help="manifest JSON (labels + field mapping)")
        p.add_argument("--labels", help="comma-separated labels (identity field mapping)")

    p = sub.add_parser("audit", help="run the leakage audit and gate on the result")
    add_data_args(p)
    p.add_argument("--split", help="canonical split file to audit against")
    p.add_argument("--k", default="2,3", help="comma-separated digit-prefix lengths")
    p.add_argument("--seed", type=int, default=0, help="seed for generated splits and forests")
    p.add_argument("--n-splits", type=int, help="splits to generate when no --split (default 5)")
    p.add_argument("--fail-over", type=float, default=0.15,
                   help="exit 2 when any leak score (in [0, 1]) reaches this; "
                   "above 1 never fails")
    p.add_argument("--min-df", type=int, default=5, help="token document-frequency floor")
    p.add_argument("--top-tokens", type=int, default=25, help="tokens to show/emit")
    p.add_argument("--jaccard", type=float, help="near-duplicate threshold (default 0.8)")
    p.add_argument("--skip-duplicates", action="store_true",
                   help="skip the duplicate/contamination scans")
    p.add_argument("--json", help="write the audit bundle as JSON to this path")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("split", help="generate and export a split")
    add_data_args(p)
    p.add_argument("--preset", help=f"named protocol ({', '.join(sorted(load_presets()))})")
    p.add_argument("--ratios", help="train,dev,test fractions (default 0.7,0.1,0.2)")
    p.add_argument("--group-by", choices=GROUP_FIELDS, help="keep whole groups together")
    p.add_argument("--holdout-event", help="hold this event out as the test set")
    p.add_argument("--label-filter", help="comma-separated labels to keep")
    p.add_argument("--exclude-conflicting-groups", action="store_true",
                   help="drop groups whose records disagree on the label")
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--seed", type=int, help="required: all randomness flows from this")
    p.add_argument("--out", required=True, help="split file to write")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("eval", help="score a prediction file against a split's test set")
    add_data_args(p)
    p.add_argument("--split", required=True, help="split file")
    p.add_argument("--pred", required=True, help="predictions (.csv id,label or .jsonl)")
    p.add_argument("--missing", choices=MISSING_MODES, default="wrong")
    p.add_argument("--json", help="write the full result as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("aggregate", help="majority-vote tweet predictions to article level")
    add_data_args(p)
    p.add_argument("--pred", required=True, help="tweet-level predictions")
    p.add_argument("--min-tweets", type=int, default=3, help="votes needed per article")
    p.add_argument("--out", required=True, help="article-level CSV to write")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("rebalance", help="time-match non-anchor records from a pool")
    add_data_args(p)
    p.add_argument("--pool", required=True, help="replacement pool dataset")
    p.add_argument("--pool-manifest", help="manifest for the pool (defaults to the dataset's)")
    p.add_argument("--anchor-label", required=True)
    p.add_argument("--window", default=str(DEFAULT_WINDOW_MS),
                   help="max timestamp distance (ms, or s/m/h/d suffix; default 7d)")
    p.add_argument("--seed", type=int, help="required: all randomness flows from this")
    p.add_argument("--no-leak-probe", action="store_true",
                   help="skip the before/after id-leak measurement")
    p.add_argument("--out", required=True, help="rebalanced dataset (JSONL) to write")
    p.add_argument("--report", help="write the rebalance report as JSON")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser("inspect", help="print a dataset fingerprint")
    add_data_args(p)
    p.add_argument("--json", help="write the fingerprint as JSON")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        # the --preset help text reads the presets files, which can be malformed
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (LeakAuditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
