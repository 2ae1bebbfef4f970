"""Unit tests for flow/demand validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidDemandError, InvalidFlowError
from repro.graphs.graph import Graph
from repro.util.validation import (
    check_demand,
    check_feasible_flow,
    check_flow_capacity,
    check_flow_conservation,
    flow_value,
    max_congestion,
    st_demand,
)


@pytest.fixture()
def path3():
    return Graph(3, [(0, 1, 2.0), (1, 2, 2.0)])


class TestDemand:
    def test_valid_demand_passes(self, path3):
        b = check_demand(path3, [1.0, 0.0, -1.0])
        assert b.dtype == float

    def test_wrong_length_rejected(self, path3):
        with pytest.raises(InvalidDemandError):
            check_demand(path3, [1.0, -1.0])

    def test_nonzero_sum_rejected(self, path3):
        with pytest.raises(InvalidDemandError):
            check_demand(path3, [1.0, 0.0, 0.0])

    def test_nan_rejected(self, path3):
        with pytest.raises(InvalidDemandError):
            check_demand(path3, [np.nan, 0.0, 0.0])

    def test_st_demand_layout(self, path3):
        b = st_demand(path3, 0, 2, 3.0)
        np.testing.assert_allclose(b, [3.0, 0.0, -3.0])

    def test_st_demand_same_node_rejected(self, path3):
        with pytest.raises(InvalidDemandError):
            st_demand(path3, 1, 1)

    def test_st_demand_out_of_range(self, path3):
        with pytest.raises(InvalidDemandError):
            st_demand(path3, 0, 7)


class TestFlowChecks:
    def test_conserving_flow_passes(self, path3):
        # route 1 unit 0 -> 2.
        check_flow_conservation(path3, [1.0, 1.0], [1.0, 0.0, -1.0])

    def test_violating_flow_rejected(self, path3):
        with pytest.raises(InvalidFlowError):
            check_flow_conservation(path3, [1.0, 0.0], [1.0, 0.0, -1.0])

    def test_capacity_ok(self, path3):
        check_flow_capacity(path3, [2.0, -2.0])

    def test_capacity_violation_rejected(self, path3):
        with pytest.raises(InvalidFlowError):
            check_flow_capacity(path3, [2.5, 0.0])

    def test_capacity_negative_direction_counts(self, path3):
        with pytest.raises(InvalidFlowError):
            check_flow_capacity(path3, [-2.5, 0.0])

    @pytest.mark.parametrize("flow", [[0.0], [0.0, 0.0, 0.0]])
    def test_capacity_wrong_length_rejected(self, path3, flow):
        """A flow of the wrong length is invalid, however small."""
        with pytest.raises(InvalidFlowError, match="shape"):
            check_flow_capacity(path3, flow)

    def test_feasible_combined(self, path3):
        check_feasible_flow(path3, [1.0, 1.0], [1.0, 0.0, -1.0])

    def test_flow_value(self, path3):
        assert flow_value(path3, [1.5, 1.5], 0, 2) == pytest.approx(1.5)

    def test_max_congestion(self, path3):
        assert max_congestion(path3, [1.0, -2.0]) == pytest.approx(1.0)

    def test_max_congestion_zero_flow(self, path3):
        assert max_congestion(path3, [0.0, 0.0]) == 0.0
