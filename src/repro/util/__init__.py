"""Shared low-level utilities: tag bit-vectors, validation, RNG, reports."""

from repro.util.bitset import Tag, popcount
from repro.util.validation import check_positive, check_nonnegative, check_in_range

__all__ = [
    "Tag",
    "popcount",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
]
