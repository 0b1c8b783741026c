"""Tests for the Mapping artifact."""

import numpy as np
import pytest

from repro.core.mapping import Mapping


def mapping_of(orders, name="m"):
    return Mapping(name, {c: np.asarray(o) for c, o in orders.items()})


class TestMapping:
    def test_counts(self):
        m = mapping_of({0: [0, 1], 1: [2, 3, 4]})
        assert m.iteration_counts() == {0: 2, 1: 3}
        assert m.total_iterations == 5
        assert m.num_clients == 2

    def test_validate_partition_ok(self):
        m = mapping_of({0: [0, 2], 1: [1, 3]})
        m.validate(4)

    def test_validate_missing_iteration(self):
        m = mapping_of({0: [0, 1]})
        with pytest.raises(ValueError):
            m.validate(3)

    def test_validate_duplicate(self):
        m = mapping_of({0: [0, 1], 1: [1, 2]})
        with pytest.raises(ValueError):
            m.validate(3)

    def test_validate_out_of_range(self):
        m = mapping_of({0: [0, 5]})
        with pytest.raises(ValueError):
            m.validate(2)

    @pytest.mark.parametrize(
        "order, total, message",
        [
            ({0: [0, 1], 1: [1, 2]}, 3, "covers 4 of 3 iterations"),
            ({0: [0, 1], 1: [1]}, 3, "assigns some iteration twice"),
            ({0: [0, 5]}, 2, "out-of-range"),
            ({0: [-1, 1]}, 2, "out-of-range"),
            # A repeat outranks a stray rank.
            ({0: [0, 0, 7]}, 3, "assigns some iteration twice"),
        ],
    )
    def test_validate_names_the_fault(self, order, total, message):
        with pytest.raises(ValueError, match=message):
            mapping_of(order).validate(total)

    def test_client_of_iteration(self):
        m = mapping_of({0: [0, 3], 1: [1, 2]})
        assert m.client_of_iteration(4).tolist() == [0, 1, 1, 0]

    def test_client_of_iteration_incomplete(self):
        m = mapping_of({0: [0]})
        with pytest.raises(ValueError):
            m.client_of_iteration(2)

    def test_imbalance(self):
        assert mapping_of({0: [0, 1], 1: [2, 3]}).imbalance() == 0.0
        m = mapping_of({0: [0, 1, 2], 1: [3]})
        assert m.imbalance() == pytest.approx(0.5)

    def test_orders_coerced_to_int64(self):
        m = mapping_of({0: [0, 1]})
        assert m.client_order[0].dtype == np.int64

    def test_empty_client_allowed(self):
        m = mapping_of({0: [0], 1: []})
        m.validate(1)
        assert m.iteration_counts()[1] == 0
