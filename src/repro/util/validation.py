"""Small argument-validation helpers used across the library.

Centralising these keeps error messages uniform ("<name> must be …, got
<value>") and keeps the numeric hot paths free of ad-hoc branching.
"""

from __future__ import annotations

from typing import Any

__all__ = ["check_positive", "check_in_range"]


def check_positive(name: str, value: Any) -> int:
    """Validate that ``value`` is a positive integer and return it as int."""
    ivalue = _as_int(name, value)
    if ivalue <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return ivalue


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Validate ``lo <= value <= hi`` and return ``value`` as float."""
    fvalue = float(value)
    if not lo <= fvalue <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return fvalue


def _as_int(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    try:
        ivalue = int(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be an integer, got {value!r}") from exc
    if ivalue != value:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return ivalue
