"""Eventset, sequence and dataset utility, and the pruning-bound selector.

The utility of a label in a window is its external utility times the window
duration; a sequence's and a dataset's utility are sums of those. The
mined measure (per-sequence maximum match utility, summed over the
dataset) and the two pruning bounds are computed only on the encoded
arrays: the top-k eventset mass in `encoding`, the weighted and projected
bounds in `miner`. The brute-force `oracle` is their independent
reference.
"""
from __future__ import annotations

from enum import Enum

from .model import CSequence, CSequenceDataset, UtilityTable, left_sum


class UpperBound(Enum):
    """Pruning bound selector; NONE disables bound-based pruning."""

    NONE = "none"
    LWU = "ldc"
    PROJECTED = "pdc"

    @classmethod
    def from_name(cls, name: str) -> "UpperBound":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown strategy {name!r} (expected one of: {valid})") from None


def eventset_utility(sigma, table: UtilityTable) -> float:
    """Sum of per-label utilities over the eventset's window."""
    return left_sum(table.utility(l) for l in sigma.coincidence) * sigma.duration


def csequence_utility(c: CSequence, table: UtilityTable) -> float:
    return left_sum(eventset_utility(es, table) for es in c.eventsets)


def dataset_utility(d: CSequenceDataset) -> float:
    return left_sum(csequence_utility(c, d.utilities) for c in d.csequences)
