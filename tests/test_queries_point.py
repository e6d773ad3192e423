"""Tests for point queries (eqs. 3-4) and multi-sensor point queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_point_query, make_snapshot
from repro.queries import MultiSensorPointQuery, PointQuery, QueryType, reading_quality
from repro.spatial import Location


class TestReadingQuality:
    def test_perfect_reading_at_query_location(self):
        snap = make_snapshot(x=0, y=0, inaccuracy=0.0, trust=1.0)
        assert reading_quality(snap, Location(0, 0), dmax=5.0) == pytest.approx(1.0)

    def test_decay_terms_multiply(self):
        snap = make_snapshot(x=3, y=0, inaccuracy=0.1, trust=0.8)
        # eq. 4: (1 - 0.1) * (1 - 3/5) * 0.8
        expected = 0.9 * 0.4 * 0.8
        assert reading_quality(snap, Location(0, 0), dmax=5.0) == pytest.approx(expected)

    def test_zero_beyond_dmax(self):
        snap = make_snapshot(x=6, y=0)
        assert reading_quality(snap, Location(0, 0), dmax=5.0) == 0.0

    def test_zero_at_exactly_dmax(self):
        snap = make_snapshot(x=5, y=0)
        assert reading_quality(snap, Location(0, 0), dmax=5.0) == pytest.approx(0.0)

    def test_invalid_dmax(self):
        with pytest.raises(ValueError):
            reading_quality(make_snapshot(), Location(0, 0), dmax=0.0)

    @given(
        st.floats(0, 10),
        st.floats(0, 0.99),
        st.floats(0, 1),
    )
    def test_quality_in_unit_interval(self, distance, gamma, tau):
        snap = make_snapshot(x=distance, y=0, inaccuracy=gamma, trust=tau)
        q = reading_quality(snap, Location(0, 0), dmax=5.0)
        assert 0.0 <= q <= 1.0


class TestPointQuery:
    def test_eq3_value(self):
        query = make_point_query(budget=20.0, theta_min=0.2, dmax=5.0)
        snap = make_snapshot(x=1, y=0)
        theta = reading_quality(snap, query.location, 5.0)
        assert query.value_single(snap) == pytest.approx(20.0 * theta)

    def test_value_zero_below_theta_min(self):
        query = make_point_query(budget=20.0, theta_min=0.9, dmax=5.0)
        snap = make_snapshot(x=3, y=0)  # theta = 0.4 < 0.9
        assert query.value_single(snap) == 0.0

    def test_set_value_is_best_single(self):
        query = make_point_query(budget=10.0)
        near = make_snapshot(0, x=0.5, y=0)
        far = make_snapshot(1, x=4, y=0)
        assert query.value([near, far]) == pytest.approx(query.value_single(near))

    def test_value_of_empty_set(self):
        assert make_point_query().value([]) == 0.0

    def test_best_sensor(self):
        query = make_point_query(budget=10.0)
        near = make_snapshot(0, x=0.5, y=0)
        far = make_snapshot(1, x=4, y=0)
        assert query.best_sensor([far, near]) is near
        assert query.best_sensor([make_snapshot(2, x=9, y=9)]) is None

    def test_relevant(self):
        query = make_point_query(theta_min=0.2, dmax=5.0)
        assert query.relevant(make_snapshot(x=1, y=0))
        assert not query.relevant(make_snapshot(x=5.5, y=0))

    def test_incremental_state_matches_value(self):
        query = make_point_query(budget=10.0)
        snaps = [make_snapshot(i, x=i * 0.7, y=0) for i in range(5)]
        state = query.new_state()
        for s in snaps:
            gain = state.gain(s)
            assert gain == pytest.approx(state.add(s))
        assert state.value == pytest.approx(query.value(snaps))

    def test_query_type_and_max_value(self):
        query = make_point_query(budget=17.0)
        assert query.query_type is QueryType.POINT
        assert query.max_value == 17.0

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_invalid_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            PointQuery(Location(0, 0), budget=budget)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointQuery(Location(0, 0), budget=1.0, theta_min=1.5)
        with pytest.raises(ValueError):
            PointQuery(Location(0, 0), budget=1.0, dmax=0.0)

    def test_unique_ids(self):
        a, b = make_point_query(), make_point_query()
        assert a.query_id != b.query_id

    @given(st.floats(0, 8), st.floats(0, 8))
    @settings(max_examples=30)
    def test_value_bounded_by_budget(self, x, y):
        query = make_point_query(budget=25.0)
        snap = make_snapshot(x=x, y=y)
        assert 0.0 <= query.value_single(snap) <= 25.0


class TestMultiSensorPointQuery:
    def _query(self, k=3, budget=30.0):
        return MultiSensorPointQuery(
            Location(0, 0), budget=budget, n_readings=k, theta_min=0.0, dmax=5.0
        )

    def test_value_grows_until_k(self):
        query = self._query(k=2)
        snaps = [make_snapshot(i, x=0.1 * i, y=0) for i in range(4)]
        v1 = query.value(snaps[:1])
        v2 = query.value(snaps[:2])
        v3 = query.value(snaps[:3])
        assert v1 < v2
        assert v3 == pytest.approx(v2)  # extra sensors beyond k add ~nothing

    def test_full_budget_needs_k_perfect_readings(self):
        query = self._query(k=2, budget=30.0)
        perfect = [make_snapshot(i, x=0, y=0) for i in range(2)]
        assert query.value(perfect) == pytest.approx(30.0)

    def test_theta_min_filters(self):
        query = MultiSensorPointQuery(
            Location(0, 0), budget=10.0, n_readings=2, theta_min=0.9, dmax=5.0
        )
        weak = make_snapshot(x=3, y=0)
        assert query.value([weak]) == 0.0
        assert not query.relevant(weak)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MultiSensorPointQuery(Location(0, 0), budget=1.0, n_readings=0)

    @given(
        st.lists(st.floats(0, 6), min_size=0, max_size=5),
        st.lists(st.floats(0, 6), min_size=0, max_size=3),
        st.floats(0, 6),
    )
    @settings(max_examples=40)
    def test_submodular(self, base_x, more_x, extra_x):
        """Rank-truncated quality sums have diminishing returns."""
        query = self._query(k=3)
        base = [make_snapshot(i, x=x, y=0) for i, x in enumerate(base_x)]
        more = [make_snapshot(100 + i, x=x, y=0) for i, x in enumerate(more_x)]
        extra = make_snapshot(999, x=extra_x, y=0)
        gain_small = query.value(base + [extra]) - query.value(base)
        gain_big = query.value(base + more + [extra]) - query.value(base + more)
        assert gain_big <= gain_small + 1e-9

    @given(st.lists(st.floats(0, 6), min_size=0, max_size=6), st.floats(0, 6))
    @settings(max_examples=40)
    def test_monotone(self, xs, extra_x):
        query = self._query(k=3)
        base = [make_snapshot(i, x=x, y=0) for i, x in enumerate(xs)]
        extra = make_snapshot(999, x=extra_x, y=0)
        assert query.value(base + [extra]) >= query.value(base) - 1e-12
