"""The match-scoring kernel: extend a pattern prefix by one coincidence.

A prefix's state is one float64 row per sequence it is scored on (the
miner passes only the sequences the prefix occurs in): entry j is the best
utility of any match of the prefix that ends at or before window j, and
-inf where no such match exists. Extending by a candidate coincidence
keeps the windows whose label bitmask covers the candidate's, adds the
candidate's utility mass times the window duration to the best prefix
score strictly before that window, and takes the running maximum along
the row. Windows past a sequence's length never fit, so padding carries
the last real value forward.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "numpy"


def extend_scores(
    masks: np.ndarray,
    durations: np.ndarray,
    lengths: np.ndarray,
    prev: np.ndarray,
    prev_base: float,
    cand_mask: np.ndarray,
    cand_putil: float,
) -> np.ndarray:
    """Score rows for prefix+candidate given the prefix's score rows.

    prev_base is the prefix score before the first window: 0.0 for the
    empty prefix, -inf for any non-empty prefix.
    """
    n, cap, _ = masks.shape
    if cap == 0:
        return np.empty((n, 0), dtype=np.float64)
    fits = ((cand_mask[None, None, :] & ~masks) == 0).all(axis=2)
    fits &= np.arange(cap)[None, :] < lengths[:, None]
    shifted = np.empty((n, cap), dtype=np.float64)
    shifted[:, 0] = prev_base
    shifted[:, 1:] = prev[:, :-1]
    ended = np.where(fits, shifted + cand_putil * durations, -np.inf)
    return np.maximum.accumulate(ended, axis=1)
