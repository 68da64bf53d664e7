"""Address-interval set algebra.

Both the plan synthesizer (when locating Dynamic Reusable Space, §5.2) and the
runtime Dynamic Allocator (when intersecting reusable space with currently
free space, §6.2) operate on sets of half-open integer intervals
``[start, end)`` over the byte-address space of the static memory pool.

:class:`IntervalSet` keeps its member intervals disjoint, non-empty and sorted
by start address, and provides the operations those components and the
expandable-segments arenas need: adding and removing ranges, the gaps between
sorted spans, containment, and best-fit carving.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` of byte addresses."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"interval end ({self.end}) must exceed start ({self.start})")


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

    def contains(self, start: int, end: int) -> bool:
        """True when the whole of ``[start, end)`` is covered by the set."""
        if end <= start:
            raise ValueError("contains() requires a non-empty interval")
        idx = bisect.bisect_right(self._starts, start) - 1
        if idx < 0:
            return False
        return self._ends[idx] >= end and self._starts[idx] <= start

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

    def carve_within(self, other: "IntervalSet", size: int) -> int | None:
        """Carve ``size`` bytes out of the smallest piece of ``self`` inside ``other``.

        The runtime Dynamic Allocator's one operation (Eq. 7): free space
        (``self``) intersected with a request's reusable space (``other``),
        searched best-fit with ties to the lowest address, in one merge walk
        that never builds the intersection.  The carved bytes, the front of
        that piece, leave ``self``; returns where they start, or ``None``
        (``self`` unchanged) when no piece fits.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        a_starts, a_ends = self._starts, self._ends
        b_starts, b_ends = other._starts, other._ends
        i = j = 0
        a_len, b_len = len(a_starts), len(b_starts)
        best = best_start = best_length = -1
        while i < a_len and j < b_len:
            a_end, b_end = a_ends[i], b_ends[j]
            start = a_starts[i] if a_starts[i] > b_starts[j] else b_starts[j]
            length = (a_end if a_end < b_end else b_end) - start
            if length >= size and (best_length < 0 or length < best_length):
                best, best_start, best_length = i, start, length
            if a_end < b_end:
                i += 1
            else:
                j += 1
        if best < 0:
            return None
        # The piece lies inside member ``best``: cut the carved bytes out of it.
        end = best_start + size
        if best_start > a_starts[best]:
            if end < a_ends[best]:
                a_starts.insert(best + 1, end)
                a_ends.insert(best + 1, a_ends[best])
            a_ends[best] = best_start
        elif end < a_ends[best]:
            a_starts[best] = end
        else:
            del a_starts[best]
            del a_ends[best]
        return best_start

    def carve(self, size: int) -> int | None:
        """Allocate ``size`` bytes out of the set and return where they start.

        The carved bytes, the front of the smallest member interval that
        holds them (ties: the lowest address), are removed from the set.
        Returns ``None`` when no member interval is large enough.
        """
        index = self._best_fit_index(size)
        if index < 0:
            return None
        start = self._starts[index]
        carved_end = start + size
        if carved_end == self._ends[index]:
            del self._starts[index]
            del self._ends[index]
        else:
            self._starts[index] = carved_end
        return start
