"""leakaudit: confound and leakage audits for labeled social-media datasets.

The toolkit answers one question from several angles: could a model score
well on this dataset without understanding the text? It probes labels
recoverable from id-encoded creation times, keyword-label shortcuts, and
duplicate contamination across split boundaries; it also generates the
reproducible splits such audits need, evaluates prediction files, and
applies a time-randomization mitigation when the temporal probe fires.

The names below are the ones the README and the demos use; everything else
is imported from its submodule (``leakaudit.forest``, ``leakaudit.errors``,
and so on).
"""

from .data import LabelSet, Manifest, build_dataset, load_jsonl
from .dedup import scan_duplicates
from .idleak import run_id_leak_test
from .metrics import evaluate
from .rebalance import time_rebalance
from .snowflake import (
    TWITTER_EPOCH_MS,
    decode_timestamp,
    timestamp_histogram,
    try_decode_timestamp,
)
from .splits import SplitSpec, export_split, load_presets, make_split, preset_split
from .textleak import keyword_label_table, scan_discriminative_tokens

__version__ = "0.1.0"

__all__ = [
    "LabelSet",
    "Manifest",
    "SplitSpec",
    "TWITTER_EPOCH_MS",
    "build_dataset",
    "decode_timestamp",
    "evaluate",
    "export_split",
    "keyword_label_table",
    "load_jsonl",
    "load_presets",
    "make_split",
    "preset_split",
    "run_id_leak_test",
    "scan_discriminative_tokens",
    "scan_duplicates",
    "time_rebalance",
    "timestamp_histogram",
    "try_decode_timestamp",
]
