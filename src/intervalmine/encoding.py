"""Array encoding of a coincidence dataset for the match kernels.

Coincidences become bitmasks over the dataset alphabet (multiple uint64
words when the alphabet exceeds 64 labels), sequences become padded rows of
a 3-d mask array, and the per-sequence top-k eventset utility sums are
precomputed as padded prefix rows so every weighted-utilization lookup is a
single indexed sum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Coincidence, CSequenceDataset


@dataclass(frozen=True)
class EncodedDataset:
    labels: tuple[str, ...]
    label_bit: dict[str, int]
    masks: np.ndarray       # uint64 [n, cap, words]
    durations: np.ndarray   # float64 [n, cap], 0 in padding
    lengths: np.ndarray     # int64 [n]
    topk: np.ndarray        # float64 [n, cap+1]; column k = top-k eventset mass
    label_utility: np.ndarray  # float64 [len(labels)]

    @property
    def n_sequences(self) -> int:
        return int(self.masks.shape[0])

    @property
    def capacity(self) -> int:
        return int(self.masks.shape[1])

    @property
    def words(self) -> int:
        return int(self.masks.shape[2])


def encode_dataset(d: CSequenceDataset) -> EncodedDataset:
    labels = d.labels()
    label_bit = {lab: i for i, lab in enumerate(labels)}
    words = max(1, (len(labels) + 63) // 64)
    n = len(d.csequences)
    cap = max((len(c.eventsets) for c in d.csequences), default=0)

    masks = np.zeros((n, cap, words), dtype=np.uint64)
    durations = np.zeros((n, cap), dtype=np.float64)
    lengths = np.zeros(n, dtype=np.int64)
    topk = np.zeros((n, cap + 1), dtype=np.float64)

    for s, cseq in enumerate(d.csequences):
        lengths[s] = len(cseq.eventsets)
        es_utils = []
        for j, es in enumerate(cseq.eventsets):
            for lab in es.coincidence:
                bit = label_bit[lab]
                masks[s, j, bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
            durations[s, j] = es.duration
            es_utils.append(
                sum(d.utilities.utility(lab) for lab in es.coincidence) * es.duration
            )
        es_utils.sort(reverse=True)
        acc = 0.0
        for k, u in enumerate(es_utils, start=1):
            acc += u
            topk[s, k] = acc
        topk[s, len(es_utils) + 1 :] = acc  # budgets beyond |C| take everything

    label_utility = np.array([d.utilities.utility(lab) for lab in labels], dtype=np.float64)
    return EncodedDataset(
        labels=labels,
        label_bit=label_bit,
        masks=masks,
        durations=durations,
        lengths=lengths,
        topk=topk,
        label_utility=label_utility,
    )


def encode_coincidence(c: Coincidence, enc: EncodedDataset) -> tuple[np.ndarray, float]:
    """(bitmask words, summed label utility) for one pattern coincidence."""
    mask = np.zeros(enc.words, dtype=np.uint64)
    putil = 0.0
    for lab in c:
        bit = enc.label_bit[lab]
        mask[bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
        putil += enc.label_utility[bit]
    return mask, putil


def empty_prefix_scores(enc: EncodedDataset) -> np.ndarray:
    """Score rows for the zero-length prefix: matched everywhere at 0."""
    return np.zeros((enc.n_sequences, enc.capacity), dtype=np.float64)


def summarize_scores(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(matched flags, per-row best utility) from a prefix's score rows.

    The kernel's running maximum carries each row's last real value through
    the padding, so the last column holds the best utility of the row, and
    -inf where the prefix never matched.
    """
    if scores.shape[1] == 0:
        return np.zeros(scores.shape[0], dtype=bool), np.zeros(scores.shape[0])
    last = scores[:, -1]
    matched = np.isfinite(last)
    return matched, np.where(matched, last, 0.0)


def weighted_utilization(enc: EncodedDataset, matched: np.ndarray, k: int) -> float:
    """Sum of top-k eventset mass over the matched sequences, given as row
    indices or as one flag per sequence."""
    if k <= 0:
        return 0.0
    col = min(k, enc.capacity)
    return float(enc.topk[matched, col].sum())
