"""The dense match-scoring kernel: the tests' reference for growth.

A prefix's state is one float64 row per sequence it is scored on: entry j
is the best utility of any match of the prefix that ends at or before
window j, and -inf where no such match exists. Extending by a candidate
coincidence keeps the windows whose label bitmask covers the candidate's,
adds the candidate's utility mass times the window duration to the best
prefix score strictly before that window, and takes the running maximum
along the row. One call scores a batch of candidates against the same
prefix rows over every (candidate, sequence, window) cell (the
vertical-bitmap layout of SPAM, Ayres et al., KDD 2002).

The miner does not call it: it scores each candidate only at the windows
that fit it (`miner._extend`, `miner._scores`), and the tests check those
values against this kernel's bit for bit. Its output [C, n, cap] is a
view of a C-contiguous [cap, C, n] buffer.
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
    cand_masks: np.ndarray,
    cand_putils: np.ndarray,
) -> np.ndarray:
    """Score rows [C, n, cap] of prefix+candidate for each of the C
    candidates (`cand_masks` uint64 [C, words], `cand_putils` float64 [C]),
    given the prefix's score rows `prev` [n, cap].

    prev_base is the prefix score before the first window: -inf for any
    non-empty prefix, and 0.0 for the empty one.

    A window fits a candidate when, in every mask word, the window holds
    all of the candidate's bits. `lengths` is not read: padding windows
    have all-zero masks, which no candidate with a label fits, so padding
    carries the last real value forward. A candidate without labels would
    fit the padding too, so it is rejected.

    The inputs may be laid out in either memory order; the scores are the
    same bytes, and window-major inputs are read contiguously.
    """
    n, cap, words = masks.shape
    c = len(cand_masks)
    if not (cand_masks != 0).any(axis=1).all():
        raise ValueError("every candidate coincidence needs at least one label")
    # window-major, so that each window is one contiguous [C, n] block
    out = np.empty((cap, c, n), dtype=np.float64)
    if out.size == 0:
        return out.transpose(1, 2, 0)
    # the fit test runs first, in the output's buffer: one mask word at a
    # time, skipping the words no candidate uses; every candidate has a
    # label, so at least one word is tested
    held = out.view(np.uint64)
    miss = None
    for w in range(words):
        want = cand_masks[:, w]
        if not want.any():
            continue
        want = want[None, :, None]
        np.bitwise_and(masks[:, :, w].T[:, None, :], want, out=held)
        if miss is None:
            miss = held != want
        else:
            miss |= held != want
    # putil * duration + the prefix's best score before the window: the
    # same two roundings as scoring one candidate at a time
    np.multiply(cand_putils[None, :, None], durations.T[:, None, :], out=out)
    out[0] += prev_base
    out[1:] += prev.T[:-1, None, :]
    np.putmask(out, miss, -np.inf)  # faster than copyto(where=) here
    np.maximum.accumulate(out, axis=0, out=out)
    return out.transpose(1, 2, 0)
