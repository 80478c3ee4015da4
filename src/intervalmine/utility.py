"""Utility measures and the two prunable upper bounds.

The utility of a label in a window is its external utility times the window
duration. Pattern utility is ambiguous (a pattern can match a sequence many
ways), so the mined measure is the per-sequence maximum match utility,
summed over the dataset. Two upper bounds on that measure support pruning:
the weighted utilization (top-k eventset mass of matching sequences) and
the projected utilization (exact utility so far plus the remaining-length
weighted utilization), which is never looser.
"""
from __future__ import annotations

from enum import Enum

from .model import CSequence, CSequenceDataset, LSequence, UtilityTable


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
    return sum(table.utility(l) for l in sigma.coincidence) * sigma.duration


def csequence_utility(c: CSequence, table: UtilityTable) -> float:
    return sum(eventset_utility(es, table) for es in c.eventsets)


def dataset_utility(d: CSequenceDataset) -> float:
    return sum(csequence_utility(c, d.utilities) for c in d.csequences)


def max_k_utility(c: CSequence, k: int, table: UtilityTable) -> float:
    """Largest total utility of at most k eventsets of c.

    Utilities are nonnegative, so the optimum is the sum of the k largest
    eventset utilities (cross-checked against an exhaustive subset search
    in the tests).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1: {k}")
    utils = sorted((eventset_utility(es, table) for es in c.eventsets), reverse=True)
    return sum(utils[:k])


def contains_match(l: LSequence, c: CSequence) -> bool:
    """Whether l matches c at all (greedy subsequence test)."""
    j = 0
    n = len(c.eventsets)
    for coin in l.coincidences:
        while j < n and not coin.issubset(c.eventsets[j].coincidence):
            j += 1
        if j >= n:
            return False
        j += 1
    return True


def max_match_utility(l: LSequence, c: CSequence, table: UtilityTable) -> float:
    """Best utility over all matches of l in c; 0 when there is no match.

    Dynamic program over (pattern position, sequence position), linear in
    len(l) * len(c). Must agree everywhere with the maximum the oracle
    finds by enumerating every match.
    """
    neg = float("-inf")
    putils = [sum(table.utility(lab) for lab in coin) for coin in l.coincidences]
    # best[j] = best utility of matching the pattern prefix ending at position <= j
    best = [0.0] * (len(c.eventsets) + 1)
    for k, coin in enumerate(l.coincidences):
        nxt = [neg] * (len(c.eventsets) + 1)
        for j, es in enumerate(c.eventsets, start=1):
            cand = neg
            if coin.issubset(es.coincidence):
                cand = best[j - 1] + putils[k] * es.duration
            nxt[j] = max(nxt[j - 1], cand)
        best = nxt
    result = best[len(c.eventsets)]
    return result if result > neg else 0.0


def max_utility(l: LSequence, d: CSequenceDataset) -> float:
    """Per-sequence maximum match utility, summed over the dataset."""
    return sum(max_match_utility(l, c, d.utilities) for c in d.csequences)


def lwu(l: LSequence, k: int, d: CSequenceDataset) -> float:
    """Weighted utilization: top-k eventset mass of sequences containing l.

    lwu(l, 0, d) is 0 by convention (an empty remaining budget contributes
    nothing), which makes the projected bound collapse to max_utility when
    the pattern has reached full length.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0: {k}")
    if k == 0:
        return 0.0
    return sum(
        max_k_utility(c, k, d.utilities)
        for c in d.csequences
        if contains_match(l, c)
    )


def projected_utilization(l: LSequence, k: int, d: CSequenceDataset) -> float:
    """max_utility(l) plus the weighted utilization at the remaining length.

    The sum is clamped to lwu(l, k, d). The raw sum can overshoot the plain
    weighted bound whenever a best match occupies eventsets that also rank
    among the top k (their utility would be counted twice); clamping keeps
    this value a valid upper bound that never exceeds the one it refines,
    which is what makes pruning with it discard no more candidates than it
    should and no fewer than the plain bound does.
    """
    if len(l) > k:
        raise ValueError(f"pattern length {len(l)} exceeds the length budget {k}")
    raw = max_utility(l, d) + lwu(l, k - len(l), d)
    return min(raw, lwu(l, k, d))

