"""Unit and property-based tests for the interval-set algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalSet


def _total(s: IntervalSet) -> int:
    return sum(interval.end - interval.start for interval in s)


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(5, 5)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(10, 2)


class TestIntervalSetBasics:
    def test_empty_set(self):
        s = IntervalSet()
        assert len(s) == 0
        assert not s
        assert _total(s) == 0

    def test_add_single(self):
        s = IntervalSet()
        s.add(0, 10)
        assert list(s) == [Interval(0, 10)]

    def test_add_zero_length_is_noop(self):
        s = IntervalSet()
        s.add(5, 5)
        assert not s

    def test_add_invalid_raises(self):
        s = IntervalSet()
        with pytest.raises(ValueError):
            s.add(10, 5)

    def test_add_merges_adjacent(self):
        s = IntervalSet([(0, 10), (10, 20)])
        assert list(s) == [Interval(0, 20)]

    def test_add_merges_overlapping(self):
        s = IntervalSet([(0, 10), (5, 30), (25, 40)])
        assert list(s) == [Interval(0, 40)]

    def test_add_keeps_disjoint(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert list(s) == [Interval(0, 10), Interval(20, 30)]

    def test_full_constructor(self):
        assert list(IntervalSet.full(3, 9)) == [Interval(3, 9)]

    def test_equality(self):
        assert IntervalSet([(0, 5), (10, 15)]) == IntervalSet([(10, 15), (0, 5)])
        assert IntervalSet([(0, 5)]) != IntervalSet([(0, 6)])


class TestIntervalSetRemove:
    def test_remove_whole(self):
        s = IntervalSet([(0, 10)])
        s.remove(0, 10)
        assert not s

    def test_remove_middle_splits(self):
        s = IntervalSet([(0, 10)])
        s.remove(3, 7)
        assert list(s) == [Interval(0, 3), Interval(7, 10)]

    def test_remove_left_edge(self):
        s = IntervalSet([(0, 10)])
        s.remove(0, 4)
        assert list(s) == [Interval(4, 10)]

    def test_remove_right_edge(self):
        s = IntervalSet([(0, 10)])
        s.remove(6, 10)
        assert list(s) == [Interval(0, 6)]

    def test_remove_across_intervals(self):
        s = IntervalSet([(0, 10), (20, 30), (40, 50)])
        s.remove(5, 45)
        assert list(s) == [Interval(0, 5), Interval(45, 50)]

    def test_remove_outside_is_noop(self):
        s = IntervalSet([(10, 20)])
        s.remove(30, 40)
        assert list(s) == [Interval(10, 20)]

    def test_remove_zero_length_is_noop(self):
        s = IntervalSet([(10, 20)])
        s.remove(15, 15)
        assert _total(s) == 10


class TestIntervalSetAlgebra:
    def test_contains(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.contains(2, 8)
        assert s.contains(0, 10)
        assert not s.contains(8, 12)
        assert not s.contains(12, 15)


class TestIntervalSetCarving:
    def test_carve_removes_bytes(self):
        s = IntervalSet([(0, 100)])
        assert s.carve(30) == 0
        assert list(s) == [Interval(30, 100)]

    def test_carve_picks_the_smallest_fit(self):
        s = IntervalSet([(0, 100), (200, 232)])
        assert s.carve(32) == 200
        assert list(s) == [Interval(0, 100)]

    def test_carve_returns_none_when_no_fit(self):
        s = IntervalSet([(0, 10)])
        assert s.carve(20) is None
        assert _total(s) == 10

    def test_invalid_size_raises(self):
        s = IntervalSet([(0, 10)])
        with pytest.raises(ValueError):
            s.carve(0)


# ---------------------------------------------------------------------- #
# Property-based tests
# ---------------------------------------------------------------------- #
interval_strategy = st.tuples(
    st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=50)
).map(lambda pair: (pair[0], pair[0] + pair[1]))


@st.composite
def interval_sets(draw):
    intervals = draw(st.lists(interval_strategy, max_size=15))
    return IntervalSet(intervals)


def _covered(s: IntervalSet) -> set[int]:
    """Explicit point-set model of an IntervalSet (small ranges only)."""
    points: set[int] = set()
    for interval in s:
        points.update(range(interval.start, interval.end))
    return points


class TestIntervalSetProperties:
    @given(st.lists(interval_strategy, max_size=15))
    @settings(max_examples=100)
    def test_canonical_form(self, intervals):
        """Members are sorted, disjoint and non-adjacent after any additions."""
        s = IntervalSet(intervals)
        members = list(s)
        for first, second in zip(members, members[1:]):
            assert first.end < second.start

    @given(interval_sets(), interval_sets())
    @settings(max_examples=75)
    def test_remove_matches_point_model(self, a, b):
        expected = _covered(a) - _covered(b)
        for interval in b:
            a.remove(interval.start, interval.end)
        assert _covered(a) == expected

    @given(interval_sets(), st.integers(min_value=1, max_value=60))
    @settings(max_examples=75)
    def test_carve_preserves_total(self, s, size):
        total_before = _total(s)
        before = _covered(s)
        start = s.carve(size)
        if start is None:
            assert _total(s) == total_before
            assert all(interval.end - interval.start < size for interval in s)
        else:
            assert _covered(s) == before - set(range(start, start + size))
            assert _total(s) == total_before - size
