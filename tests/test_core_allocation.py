"""Tests for AllocationResult bookkeeping and its Theorem-1 invariants."""

from __future__ import annotations

import pytest

from helpers import make_point_query, make_snapshot
from repro.core import AllocationError, AllocationResult, PaymentInvariantError, check_distinct


class TestRecordAndAccounting:
    def test_record_accumulates(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, value_gain=8.0, payment=6.0)
        result.record("q2", snap, value_gain=6.0, payment=4.0)
        assert result.total_value == pytest.approx(14.0)
        assert result.total_cost == pytest.approx(10.0)
        assert result.total_utility == pytest.approx(4.0)
        assert result.sensor_income(0) == pytest.approx(10.0)
        assert result.query_payment("q1") == pytest.approx(6.0)
        assert result.query_utility("q1") == pytest.approx(2.0)

    def test_record_same_pair_twice_merges(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 5.0, 5.0)
        result.record("q1", snap, 5.0, 5.0)
        assert result.assignments["q1"] == (0,)
        assert result.values["q1"] == pytest.approx(10.0)

    def test_is_answered_and_count(self):
        result = AllocationResult()
        assert not result.is_answered("q1")
        result.record("q1", make_snapshot(0, cost=0.0), 1.0, 0.0)
        assert result.is_answered("q1")
        assert result.answered_count() == 1

    def test_record_accepts_query_objects(self):
        query = make_point_query(query_id="qx")
        result = AllocationResult()
        result.record(query, make_snapshot(0, cost=0.0), 1.0, 0.0)
        assert result.is_answered("qx")


class TestVerify:
    def test_valid_result_passes(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 12.0, 10.0)
        result.verify()

    def test_cost_recovery_violation(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 12.0, 7.0)  # underpays the sensor
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_negative_utility_violation(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 5.0, 10.0)  # pays more than its value
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_negative_payment_violation(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=0.0)
        result.record("q1", snap, 5.0, -1.0)
        with pytest.raises(PaymentInvariantError):
            result.verify()

    @pytest.mark.parametrize(
        "value, payment",
        [(float("nan"), float("nan")), (float("inf"), 1.0), (2.0, float("inf"))],
    )
    def test_non_finite_value_or_payment_violation(self, value, payment):
        # NaN compares False against every bound, so it must be rejected
        # explicitly rather than slip past the comparisons.
        result = AllocationResult()
        result.record("q", make_snapshot(1, cost=1.0), value, payment)
        with pytest.raises(PaymentInvariantError, match="non-finite"):
            result.verify()

    def test_unselected_sensor_assignment_violation(self):
        result = AllocationResult()
        result.assignments["q1"] = (99,)
        result.values["q1"] = 1.0
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_empty_result_passes(self):
        AllocationResult().verify()

    def test_tolerance_scales_with_cost(self):
        # A relative rounding error on a large cost must not trip the
        # absolute tolerance: the check scales by the announced cost.
        result = AllocationResult()
        cost = 1e9
        snap = make_snapshot(0, cost=cost)
        result.record("q1", snap, 2e9, cost * (1.0 + 1e-8))
        result.verify()

    def test_overpaid_sensor_is_also_a_violation(self):
        # Cost recovery is an equality: a sensor may not profit either.
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 30.0, 14.0)
        with pytest.raises(PaymentInvariantError):
            result.verify()


class TestMerge:
    def test_merge_combines_ledgers(self):
        a, b = AllocationResult(), AllocationResult()
        s0, s1 = make_snapshot(0, cost=10.0), make_snapshot(1, cost=10.0)
        a.record("q1", s0, 12.0, 10.0)
        b.record("q1", s1, 4.0, 0.0)
        b.record("q2", s1, 11.0, 10.0)
        a.merge(b)
        assert set(a.selected) == {0, 1}
        assert a.assignments["q1"] == (0, 1)
        assert a.values["q1"] == pytest.approx(16.0)
        a.verify()

    def test_merge_rejects_conflicting_costs(self):
        a, b = AllocationResult(), AllocationResult()
        a.record("q1", make_snapshot(0, cost=10.0), 12.0, 10.0)
        b.record("q2", make_snapshot(0, cost=5.0), 6.0, 5.0)
        with pytest.raises(AllocationError):
            a.merge(b)

    def test_merge_conflict_leaves_no_partial_sensor_overwrite(self):
        # The conflicting snapshot must not silently replace the original.
        a, b = AllocationResult(), AllocationResult()
        a.record("q1", make_snapshot(0, cost=10.0), 12.0, 10.0)
        b.record("q2", make_snapshot(0, cost=5.0), 6.0, 5.0)
        with pytest.raises(AllocationError):
            a.merge(b)
        assert a.selected[0].cost == pytest.approx(10.0)

    def test_merge_accepts_same_cost_reannouncement(self):
        a, b = AllocationResult(), AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        a.record("q1", snap, 12.0, 6.0)
        b.record("q2", make_snapshot(0, cost=10.0), 8.0, 4.0)
        a.merge(b)
        assert a.sensor_income(0) == pytest.approx(10.0)
        a.verify()

    def test_merge_accumulates_same_pair_payments(self):
        a, b = AllocationResult(), AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        a.record("q1", snap, 6.0, 4.0)
        b.record("q1", make_snapshot(0, cost=10.0), 7.0, 6.0)
        a.merge(b)
        assert a.values["q1"] == pytest.approx(13.0)
        assert a.payments[("q1", 0)] == pytest.approx(10.0)
        assert a.assignments["q1"] == (0,)
        a.verify()

    def test_merge_into_empty_result(self):
        a, b = AllocationResult(), AllocationResult()
        b.record("q1", make_snapshot(3, cost=2.0), 5.0, 2.0)
        a.merge(b)
        assert a.total_value == pytest.approx(5.0)
        assert a.total_cost == pytest.approx(2.0)
        a.verify()


class TestCheckDistinct:
    def test_duplicate_query_ids_rejected(self):
        queries = [make_point_query(query_id="dup"), make_point_query(query_id="dup")]
        with pytest.raises(AllocationError):
            check_distinct(queries, [])

    def test_duplicate_sensor_ids_rejected(self):
        sensors = [make_snapshot(1), make_snapshot(1, x=2)]
        with pytest.raises(AllocationError):
            check_distinct([], sensors)

    def test_distinct_inputs_pass(self):
        check_distinct([make_point_query()], [make_snapshot(0), make_snapshot(1)])
