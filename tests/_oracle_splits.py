"""Record-by-record reference for the random and event-holdout splits, and
``split_of``, which builds a split from the ids a test names.

The reference is the per-label algorithm the array version in
``leakaudit.splits`` replaced: it compares label strings record by record,
once per label, and forks on ``stratify``. Both consume the seeded
generator the same way (one permutation of the partitioned records), so for
the same seed they must give the same id tuples.
"""

import numpy as np

from leakaudit.splits import Split, largest_remainder


def split_of(dataset, train_ids=(), dev_ids=(), test_ids=(), spec=None, provenance=None):
    """The Split of ``dataset`` whose partitions hold the records with the
    given ids, in the order given; an id absent from the dataset raises
    KeyError."""
    row_of = {r.id: row for row, r in enumerate(dataset.records)}
    parts = [[row_of[rid] for rid in ids] for ids in (train_ids, dev_ids, test_ids)]
    return Split(dataset, *parts, spec=spec, provenance=dict(provenance or {}))


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64)))


def _partition(records, label_set, ratios, rng, stratify):
    perm = rng.permutation(len(records))
    parts = ([], [], [])
    if stratify:
        for label in label_set:
            member = [int(i) for i in perm if records[i].label == label]
            start = 0
            for p, take in enumerate(largest_remainder(len(member), ratios)):
                parts[p].extend(member[start : start + take])
                start += take
    else:
        start = 0
        for p, take in enumerate(largest_remainder(len(records), ratios)):
            parts[p].extend(int(i) for i in perm[start : start + take])
            start += take
    return parts


def random_split_ids(dataset, ratios, seed, stratify):
    """(train, dev, test) id tuples of ``make_split`` with a spec that has
    no filters, holdout or grouping."""
    records = dataset.records
    parts = _partition(records, dataset.label_set, ratios, _rng(seed), stratify)
    return tuple(tuple(records[i].id for i in part) for part in parts)


def holdout_split_ids(dataset, event, dev_ratio, seed, stratify):
    """(train, dev, test) id tuples of ``make_split`` with ``holdout_event``."""
    test = tuple(r.id for r in dataset.records if r.event == event)
    rest = [r for r in dataset.records if r.event != event]
    ratios = (1.0 - dev_ratio, dev_ratio, 0.0)
    parts = _partition(rest, dataset.label_set, ratios, _rng(seed), stratify)
    return tuple(rest[i].id for i in parts[0]), tuple(rest[i].id for i in parts[1]), test
