"""Tests for argument-validation helpers."""

import pytest

from repro.util.validation import (
    check_in_range,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 5) == 5

    def test_accepts_numpy_like_integral_float(self):
        assert check_positive("x", 3.0) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -2)

    def test_rejects_fraction(self):
        with pytest.raises(TypeError):
            check_positive("x", 2.5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive("x", True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("x", "three")


class TestCheckInRange:
    def test_accepts_bounds(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("x", -0.1, 0.0, 1.0)
