"""Core domain types for interval event sequences and coincidence patterns.

An event interval is a labelled span of time. Sequences of intervals are
rewritten into "coincidence" form (per-window label sets with durations),
which is the representation the miner works on. All types here are
immutable after construction and safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class DataError(ValueError):
    """Raised when input data violates a structural constraint."""


def left_sum(values: Iterable[float]) -> float:
    """The sum of `values` added one at a time, left to right, from 0.0.

    This is the order of the encoded arrays' `np.cumsum` sums. Python 3.12
    made `sum()` of floats compensated, which can land an ulp away from it
    with fractional utilities, so the reference sums use this instead.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class EventInterval:
    """A labelled interval with integer begin/finish times (begin < finish)."""

    label: str
    begin: int
    finish: int

    def __post_init__(self) -> None:
        if not self.label:
            raise DataError("event label must be a non-empty token")
        if self.begin < 0 or self.finish < 0:
            raise DataError(f"times must be nonnegative: ({self.begin}, {self.finish})")
        if self.begin >= self.finish:
            raise DataError(
                f"interval must satisfy begin < finish: label {self.label!r}, "
                f"begin {self.begin}, finish {self.finish}"
            )


@dataclass(frozen=True)
class ESequence:
    """One entity's ordered list of event intervals.

    Intervals are kept sorted by beginning time, ties broken by label.
    Construction accepts any order and normalizes.
    """

    id: int
    intervals: tuple[EventInterval, ...]

    def __post_init__(self) -> None:
        if self.id < 1:
            raise DataError(f"sequence id must be a positive integer: {self.id}")
        if not self.intervals:
            raise DataError(f"E-sequence {self.id} has no intervals")
        ordered = tuple(
            sorted(self.intervals, key=lambda e: (e.begin, e.label, e.finish))
        )
        object.__setattr__(self, "intervals", ordered)

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class ESequenceDataset:
    sequences: tuple[ESequence, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequences", tuple(self.sequences))
        ids = [s.id for s in self.sequences]
        if len(set(ids)) != len(ids):
            dup = sorted(i for i in set(ids) if ids.count(i) > 1)
            raise DataError(f"duplicate sequence identifiers: {dup}")

    def __len__(self) -> int:
        return len(self.sequences)

    def labels(self) -> tuple[str, ...]:
        """Distinct event labels in the dataset, sorted."""
        seen = {e.label for s in self.sequences for e in s.intervals}
        return tuple(sorted(seen))


@dataclass(frozen=True)
class Coincidence:
    """A set of event labels, stored canonically sorted. May be empty."""

    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.labels)))
        object.__setattr__(self, "labels", canon)

    @classmethod
    def of(cls, labels: Iterable[str]) -> "Coincidence":
        return cls(tuple(labels))

    def union(self, label: str) -> "Coincidence":
        return Coincidence(self.labels + (label,))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __bool__(self) -> bool:
        return bool(self.labels)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels) + "}" if self.labels else "{}"


EMPTY_COINCIDENCE = Coincidence()


@dataclass(frozen=True)
class CEventset:
    """A coincidence paired with the duration of its window."""

    coincidence: Coincidence
    duration: int

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise DataError(f"C-eventset duration must be >= 1: {self.duration}")


@dataclass(frozen=True)
class CSequence:
    id: int
    eventsets: tuple[CEventset, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "eventsets", tuple(self.eventsets))

    def __len__(self) -> int:
        return len(self.eventsets)


@dataclass(frozen=True)
class LSequence:
    """A pattern: an ordered list of non-empty coincidences."""

    coincidences: tuple[Coincidence, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coincidences", tuple(self.coincidences))
        for c in self.coincidences:
            if not c:
                raise DataError("patterns may not contain an empty coincidence")

    @classmethod
    def of(cls, *label_groups: Iterable[str]) -> "LSequence":
        return cls(tuple(Coincidence.of(g) for g in label_groups))

    @property
    def length(self) -> int:
        return len(self.coincidences)

    @property
    def size(self) -> int:
        """Largest coincidence cardinality (0 for the empty pattern)."""
        return max((len(c) for c in self.coincidences), default=0)

    def __len__(self) -> int:
        return len(self.coincidences)

    def __str__(self) -> str:
        return "<" + "".join(str(c) for c in self.coincidences) + ">"


def lsequence_sort_key(l: LSequence) -> tuple:
    """Canonical ordering for pattern output: by length, then label lists."""
    return (len(l), tuple(c.labels for c in l.coincidences))


@dataclass(frozen=True)
class UtilityTable:
    """External utility per event label; all values finite and nonnegative."""

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        copied = dict(self.entries)
        for label, value in copied.items():
            if not math.isfinite(value):
                raise DataError(f"external utility for {label!r} is not finite: {value}")
            if value < 0:
                raise DataError(f"external utility for {label!r} is negative: {value}")
        object.__setattr__(self, "entries", copied)

    def utility(self, label: str) -> float:
        try:
            return self.entries[label]
        except KeyError:
            raise DataError(f"no external utility for label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.entries

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))


@dataclass(frozen=True)
class CSequenceDataset:
    csequences: tuple[CSequence, ...]
    utilities: UtilityTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "csequences", tuple(self.csequences))
        ids = [c.id for c in self.csequences]
        if len(set(ids)) != len(ids):
            dup = sorted(i for i in set(ids) if ids.count(i) > 1)
            raise DataError(f"duplicate sequence identifiers: {dup}")
        for c in self.csequences:
            for es in c.eventsets:
                for label in es.coincidence:
                    if label not in self.utilities:
                        raise DataError(
                            f"label {label!r} in sequence {c.id} has no external utility"
                        )

    def __len__(self) -> int:
        return len(self.csequences)

    def labels(self) -> tuple[str, ...]:
        seen = {l for c in self.csequences for es in c.eventsets for l in es.coincidence}
        return tuple(sorted(seen))
