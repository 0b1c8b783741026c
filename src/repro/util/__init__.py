"""Shared low-level utilities: tag bit-vectors, validation, RNG, reports."""

from repro.util.bitset import Tag
from repro.util.validation import check_positive, check_in_range

__all__ = [
    "Tag",
    "check_positive",
    "check_in_range",
]
