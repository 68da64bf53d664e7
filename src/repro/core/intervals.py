"""Address-interval set algebra.

Both the plan synthesizer (when locating Dynamic Reusable Space, §5.2) and the
runtime Dynamic Allocator (when intersecting reusable space with currently
free space, §6.2) operate on sets of half-open integer intervals
``[start, end)`` over the byte-address space of the static memory pool.

:class:`IntervalSet` keeps its member intervals disjoint, non-empty and sorted
by start address, and provides the union / difference / intersection /
complement operations those components need, plus best-fit and first-fit
carving used for actual allocation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` of byte addresses."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"interval end ({self.end}) must exceed start ({self.start})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def contains(self, other: "Interval") -> bool:
        return self.start <= other.start and other.end <= self.end

    def contains_point(self, address: int) -> bool:
        return self.start <= address < self.end


class IntervalSet:
    """A set of disjoint, sorted, half-open integer intervals.

    The set is mutable; all mutating operations keep the canonical form
    (sorted, disjoint, no empty intervals, adjacent intervals merged).
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[tuple[int, int] | Interval] = ()):
        self._starts: list[int] = []
        self._ends: list[int] = []
        for interval in intervals:
            start, end = self._coerce(interval)
            self.add(start, end)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(interval: tuple[int, int] | Interval) -> tuple[int, int]:
        if isinstance(interval, Interval):
            return interval.start, interval.end
        start, end = interval
        return int(start), int(end)

    @classmethod
    def full(cls, start: int, end: int) -> "IntervalSet":
        """A set covering the single interval ``[start, end)``."""
        out = cls()
        out.add(start, end)
        return out

    @classmethod
    def gaps(cls, spans: Iterable[tuple[int, int]], end: int) -> "IntervalSet":
        """``[0, end)`` minus the union of ``spans``, given sorted by start.

        One walk: the gaps between the spans come out sorted and never touch.
        """
        out = cls()
        starts, ends = out._starts, out._ends
        covered = 0
        for span_start, span_end in spans:
            if span_start >= end:
                break
            if span_start > covered:
                starts.append(covered)
                ends.append(span_start)
            if span_end > covered:
                covered = span_end
        if covered < end:
            starts.append(covered)
            ends.append(end)
        return out

    def copy(self) -> "IntervalSet":
        out = IntervalSet()
        out._starts = list(self._starts)
        out._ends = list(self._ends)
        return out

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        for start, end in zip(self._starts, self._ends):
            yield Interval(start, end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        spans = ", ".join(f"[{s}, {e})" for s, e in zip(self._starts, self._ends))
        return f"IntervalSet({spans})"

    def intervals(self) -> Sequence[Interval]:
        """Return the member intervals as a list."""
        return list(self)

    @property
    def total(self) -> int:
        """Total covered length in bytes."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    @property
    def span(self) -> Interval | None:
        """The bounding interval from the lowest start to the highest end."""
        if not self._starts:
            return None
        return Interval(self._starts[0], self._ends[-1])

    def contains(self, start: int, end: int) -> bool:
        """True when the whole of ``[start, end)`` is covered by the set."""
        if end <= start:
            raise ValueError("contains() requires a non-empty interval")
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx < 0:
            return False
        return self._ends[idx] >= end and self._starts[idx] <= start

    def contains_point(self, address: int) -> bool:
        idx = bisect.bisect_right(self._starts, address) - 1
        return idx >= 0 and address < self._ends[idx]

    def length_ending_at(self, end: int) -> int:
        """Length of the member interval that ends exactly at ``end`` (0 if none)."""
        idx = bisect.bisect_left(self._ends, end)
        if idx < len(self._ends) and self._ends[idx] == end:
            return end - self._starts[idx]
        return 0

    # ------------------------------------------------------------------ #
    # Mutating set operations
    # ------------------------------------------------------------------ #
    def add(self, start: int, end: int) -> None:
        """Union ``[start, end)`` into the set (merging adjacent intervals)."""
        if end <= start:
            if end == start:
                return
            raise ValueError(f"invalid interval [{start}, {end})")
        # Find the window of existing intervals that touch or overlap the new one.
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        del self._starts[lo:hi]
        del self._ends[lo:hi]
        self._starts.insert(lo, start)
        self._ends.insert(lo, end)

    def remove(self, start: int, end: int) -> None:
        """Subtract ``[start, end)`` from the set."""
        if end <= start:
            if end == start:
                return
            raise ValueError(f"invalid interval [{start}, {end})")
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_left(self._starts, end)
        if lo >= hi:
            return
        new_starts: list[int] = []
        new_ends: list[int] = []
        first_start, last_end = self._starts[lo], self._ends[hi - 1]
        if first_start < start:
            new_starts.append(first_start)
            new_ends.append(start)
        if end < last_end:
            new_starts.append(end)
            new_ends.append(last_end)
        self._starts[lo:hi] = new_starts
        self._ends[lo:hi] = new_ends

    # ------------------------------------------------------------------ #
    # Non-mutating set algebra
    # ------------------------------------------------------------------ #
    def union(self, other: "IntervalSet") -> "IntervalSet":
        out = self.copy()
        for interval in other:
            out.add(interval.start, interval.end)
        return out

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out = self.copy()
        for interval in other:
            out.remove(interval.start, interval.end)
        return out

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Intersect two sets with a linear merge over their intervals.

        Both inputs are canonical (disjoint, sorted, adjacent members merged),
        so consecutive output pieces are separated by a gap of one input or
        the other: they come out sorted and never touch, and are appended as
        they are found.
        """
        out = IntervalSet()
        a_starts, a_ends = self._starts, self._ends
        b_starts, b_ends = other._starts, other._ends
        out_starts, out_ends = out._starts, out._ends
        i = j = 0
        a_len, b_len = len(a_starts), len(b_starts)
        while i < a_len and j < b_len:
            a_end, b_end = a_ends[i], b_ends[j]
            start = a_starts[i] if a_starts[i] > b_starts[j] else b_starts[j]
            end = a_end if a_end < b_end else b_end
            if start < end:
                out_starts.append(start)
                out_ends.append(end)
            if a_end < b_end:
                i += 1
            else:
                j += 1
        return out

    def complement(self, start: int, end: int) -> "IntervalSet":
        """Return ``[start, end)`` minus this set."""
        out = IntervalSet.full(start, end)
        return out.difference(self)

    # ------------------------------------------------------------------ #
    # Allocation-style carving
    # ------------------------------------------------------------------ #
    def _best_fit_index(self, size: int) -> int:
        """Index of the smallest member that holds ``size`` bytes, or -1."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        best = -1
        best_length = 0
        for index, (start, end) in enumerate(zip(self._starts, self._ends)):
            length = end - start
            if length >= size and (best < 0 or length < best_length):
                best = index
                best_length = length
        return best

    def _first_fit_index(self, size: int) -> int:
        """Index of the lowest-addressed member that holds ``size`` bytes, or -1."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        for index, (start, end) in enumerate(zip(self._starts, self._ends)):
            if end - start >= size:
                return index
        return -1

    def best_fit(self, size: int) -> Interval | None:
        """Smallest member interval that can hold ``size`` bytes (ties: lowest address)."""
        index = self._best_fit_index(size)
        return None if index < 0 else Interval(self._starts[index], self._ends[index])

    def best_fit_within(self, other: "IntervalSet", size: int) -> Interval | None:
        """``self.intersection(other).best_fit(size)``, without building the intersection.

        The runtime Dynamic Allocator's one operation (Eq. 7): the smallest
        piece of ``self`` (free space) inside ``other`` (a request's reusable
        space) that holds ``size`` bytes, ties to the lowest address.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        a_starts, a_ends = self._starts, self._ends
        b_starts, b_ends = other._starts, other._ends
        i = j = 0
        a_len, b_len = len(a_starts), len(b_starts)
        best_start = best_length = -1
        while i < a_len and j < b_len:
            a_end, b_end = a_ends[i], b_ends[j]
            start = a_starts[i] if a_starts[i] > b_starts[j] else b_starts[j]
            length = (a_end if a_end < b_end else b_end) - start
            if length >= size and (best_length < 0 or length < best_length):
                best_start, best_length = start, length
            if a_end < b_end:
                i += 1
            else:
                j += 1
        return None if best_length < 0 else Interval(best_start, best_start + best_length)

    def first_fit(self, size: int) -> Interval | None:
        """Lowest-addressed member interval that can hold ``size`` bytes."""
        index = self._first_fit_index(size)
        return None if index < 0 else Interval(self._starts[index], self._ends[index])

    def carve(self, size: int, *, policy: str = "best_fit") -> Interval | None:
        """Allocate ``size`` bytes out of the set and return the carved interval.

        The carved bytes are removed from the set.  Returns ``None`` when no
        member interval is large enough.
        """
        finder = self._best_fit_index if policy == "best_fit" else self._first_fit_index
        index = finder(size)
        if index < 0:
            return None
        start = self._starts[index]
        carved_end = start + size
        if carved_end == self._ends[index]:
            del self._starts[index]
            del self._ends[index]
        else:
            self._starts[index] = carved_end
        return Interval(start, carved_end)
