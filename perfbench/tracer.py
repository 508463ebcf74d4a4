"""Run one leakaudit CLI command in this process with every layer timed.

    python3 perfbench/tracer.py SPANS_JSON -- audit data.jsonl --labels ...

Before calling ``leakaudit.cli.main(argv)``, this replaces the public layer
functions on their modules with wrappers that record a span (name, start,
end, parent) per call, plus a few work counts taken after the span has
closed. Nothing under ``src/`` changes. Spans stay in memory and are written
to SPANS_JSON when the command returns; the exit code is the command's.

Counting runs outside the span it counts. Its time is recorded as a
``trace.count`` child span, so it is not charged to any layer.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter
_t_start = _clock()

import numpy as np  # noqa: E402

import leakaudit  # noqa: E402
import leakaudit.cli  # noqa: E402

_t_imported = _clock()

from leakaudit import data, dedup, forest, idleak, metrics, rebalance, snowflake, splits, textleak  # noqa: E402


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name: str) -> int:
        self.spans.append({
            "name": name,
            "start": _clock(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        })
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """A function that calls fn inside a span; count(args, kwargs, result)
        runs afterwards, inside a ``trace.count`` span."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                counting = self._open("trace.count")
                count(args, kwargs, result)
                self._close(counting)
            return result

        return traced


def _replace_everywhere(original, replacement) -> None:
    """Rebind every leakaudit module global that refers to original, so
    names imported with ``from .x import f`` are traced too."""
    for name, module in list(sys.modules.items()):
        if name != "leakaudit" and not name.startswith("leakaudit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions. A function the program no longer has is
    skipped, and its metrics read 0, so a refactor cannot break tracing."""
    add = tracer.add

    def patch_function(module, attr, span, count=None):
        original = getattr(module, attr, None)
        if original is not None:
            _replace_everywhere(original, tracer.wrap(span, original, count))

    def patch_method(cls, attr, span, count=None):
        raw = cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, count)))
        elif raw is not None:
            setattr(cls, attr, tracer.wrap(span, raw, count))

    def count_only(module, attr, count):
        original = getattr(module, attr, None)
        if original is None:
            return

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            count(args, kwargs, result)
            return result

        _replace_everywhere(original, counted)

    patch_function(data, "load_jsonl", "data.load")
    patch_function(data, "validate", "data.validate")
    patch_function(data, "save_jsonl", "data.save")
    patch_method(data.Dataset, "by_id", "data.by_id")
    patch_function(splits, "random_split", "splits.random_split")
    patch_function(splits, "import_split", "splits.import_split")
    patch_function(idleak, "run_id_leak_suite", "idleak.suite")
    patch_function(idleak, "run_id_leak_test", "idleak.probe")
    patch_function(
        idleak, "digit_features", "idleak.digit_features",
        lambda a, k, r: add("idleak.digit_rows", len(r[1])),
    )
    patch_function(
        forest, "fit_forest", "forest.fit",
        lambda a, k, r: add("forest.nodes", sum(t.n_nodes for t in r.trees)),
    )
    # _compress is private but is where the distinct patterns are formed;
    # counting its result costs one len() inside forest.fit.
    count_only(forest, "_compress", lambda a, k, r: add("forest.patterns", len(r[2])))

    def count_predict(args, kwargs, result):
        X = np.asarray(args[1])
        add("forest.predict_rows", len(X))
        add("forest.predict_distinct", len(np.unique(X, axis=0)))

    patch_method(forest.ForestModel, "predict", "forest.predict", count_predict)
    patch_method(metrics.ConfusionMatrix, "from_pairs", "metrics.from_pairs")
    patch_function(
        textleak, "scan_discriminative_tokens", "textleak.scan",
        lambda a, k, r: add("textleak.tokens", len(r)),
    )
    count_only(dedup, "_build_nodes", lambda a, k, r: add("dedup.nodes", len(r.node_records)))

    def count_scan(args, kwargs, result):
        add("dedup.exact_clusters", result.n_exact_clusters)
        add("dedup.near_clusters", result.n_near_clusters)
        add("dedup.records_in_near", result.n_records_in_near)

    patch_function(dedup, "scan_duplicates", "dedup.scan", count_scan)
    patch_function(
        dedup, "cross_split_contamination", "dedup.contamination",
        lambda a, k, r: add("dedup.contamination_pairs", len(r)),
    )

    def count_rebalance(args, kwargs, result):
        report = result[1]
        add("rebalance.replaced", report.n_replaced)
        add("rebalance.rejected", report.n_rejected)

    patch_function(rebalance, "time_rebalance", "rebalance.time_rebalance", count_rebalance)
    patch_function(snowflake, "timestamp_histogram", "snowflake.histogram")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 1
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    main_fn = tracer.wrap("cli.main", leakaudit.cli.main)
    code = main_fn(cli_argv)
    payload = {
        "exit_code": code,
        "import_s": _t_imported - _t_start,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
