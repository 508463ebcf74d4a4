"""Exception types raised across the toolkit.

Every error the library raises deliberately derives from LeakAuditError so
callers (and the CLI) can catch one base class and map it to a diagnostic
plus a nonzero exit code.
"""

from __future__ import annotations


class LeakAuditError(Exception):
    """Base class for all toolkit errors."""


# --- dataset loading / validation ---------------------------------------


class SchemaError(LeakAuditError):
    """A required column or field is missing from the input file."""


class RecordParseError(LeakAuditError):
    """A line or row could not be parsed into a record."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateIdError(RecordParseError):
    """Two records share an id."""


class UnknownLabelError(LeakAuditError):
    """A label is not part of the dataset's label set."""


class IdParseError(LeakAuditError):
    """An id is not a canonical decimal string in [1, 2**63 - 1].

    ``rule`` names the broken rule: "id-syntax", "id-range" or
    "id-leading-zero".
    """

    def __init__(self, message: str, rule: str = "id-syntax"):
        self.rule = rule
        super().__init__(message)


# --- snowflake decoding ---------------------------------------------------


class PreSnowflakeIdError(LeakAuditError):
    """The id carries no snowflake timestamp (a sequential-era id)."""


# --- tabular learner ------------------------------------------------------


class EmptyInputError(LeakAuditError):
    """Training or evaluation input contains no rows."""


class RaggedRowsError(LeakAuditError):
    """Feature rows do not all have the same width."""


class WidthMismatchError(LeakAuditError):
    """Prediction rows have a different width than the training rows."""


class EmptyDistributionError(LeakAuditError):
    """A label distribution sums to zero."""


# --- id-leak audit --------------------------------------------------------


class EmptySplitError(LeakAuditError):
    """A split partition needed by the operation has no records."""


class AllIdsTooShortError(LeakAuditError):
    """Every id in a partition is shorter than the prefix length."""


# --- splits ---------------------------------------------------------------


class RatioError(LeakAuditError):
    """A split spec is malformed: bad ratios (wrong arity, not numbers,
    negative, or sum != 1), a missing seed, fields that cannot combine, a
    group_by outside the group fields, bad quotas, or a min_reply_count
    that is not a non-negative integer."""


class MissingGroupFieldError(LeakAuditError):
    """A group split was requested on a field no record carries."""


class UnknownEventError(LeakAuditError):
    """The requested holdout event does not occur in the dataset."""


class InsufficientRecordsError(LeakAuditError):
    """A quota cannot be met by the eligible records of some label."""


class SplitFileError(LeakAuditError):
    """A split file or a presets file is malformed or inconsistent."""


class UnknownPresetError(LeakAuditError):
    """No registered split preset has the requested name."""


# --- rebalance ------------------------------------------------------------


class EmptyPoolError(LeakAuditError):
    """The replacement pool has no usable records."""


class NoAnchorRecordsError(LeakAuditError):
    """The dataset has no records of the anchor label with timestamps."""


# --- evaluation -----------------------------------------------------------


class PredictionFileError(RecordParseError):
    """A prediction file is malformed."""
