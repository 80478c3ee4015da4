"""Array encoding of a dataset for the miner.

Coincidences become bitmasks over the dataset alphabet (multiple uint64
words when the alphabet exceeds 64 labels), and sequences become padded
rows of a 3-d mask array. The masks and durations are stored window-major
(`by_window`): window j of sequence s is cell j * n + s. The per-sequence
top-k eventset utility sums are precomputed with one row per budget k, so
that the weighted utilization of many candidates is one contiguous gather
and one row sum per budget. Each label keeps its covered cells
(`label_cells`): the window-major ids of the windows that hold it, by
sequence, then window. The miner prices its whole vocabulary from them
and scores every prefix's candidates where they fit (see `miner`).

`encode_intervals` builds the arrays straight from interval columns;
`encode_dataset` encodes the object model's windowed form. Both hand the
windows to one array builder, so both give bit-identical arrays. The
builder adds a window's label utilities in ascending label order, and the
eventset utilities of a sequence and then the sequences' totals left to
right: the order in which `utility.dataset_utility` adds them, which keeps
`total_utility` and relative thresholds bit-identical with fractional
utilities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import IntervalColumns, lex_order
from .model import CSequenceDataset, DataError, UtilityTable

# Ceiling on the bytes of `masks`, `durations`, `topk` and `label_cells`,
# checked before they are allocated. It keeps n * cap below 2**31 (masks
# and durations alone take 16 bytes a cell), so a window-major cell id fits
# in int32, and so does the count of label cells (4 bytes each).
MAX_ARRAY_BYTES = 4 * 2**30


@dataclass(frozen=True)
class EncodedDataset:
    labels: tuple[str, ...]
    label_bit: dict[str, int]
    masks: np.ndarray       # uint64 [n, cap, words], window-major (`by_window`)
    durations: np.ndarray   # float64 [n, cap], window-major, 0 in padding
    lengths: np.ndarray     # int64 [n]
    topk: np.ndarray        # float64 [cap+1, n]; row k = top-k eventset mass
    label_utility: np.ndarray  # float64 [len(labels)]
    total_utility: float    # summed eventset utility of the dataset
    label_cells: np.ndarray       # int32; cells j * n + s holding each label, by (s, j)
    label_cell_start: np.ndarray  # int32 [len(labels)+1]; label b's cells start here

    @property
    def n_sequences(self) -> int:
        return int(self.masks.shape[0])

    @property
    def capacity(self) -> int:
        return int(self.masks.shape[1])

    @property
    def words(self) -> int:
        return int(self.masks.shape[2])


def encode_intervals(cols: IntervalColumns, table: UtilityTable) -> EncodedDataset:
    """Windows and encoding of interval columns, all sequences at once."""
    # two calls, so that the windowing temporaries are freed before the
    # arrays are allocated
    return _assemble(cols.alphabet, table, *_interval_windows(cols))


def _interval_windows(cols: IntervalColumns):
    """(lengths, durations, pair_window, label_start) of the coincidence
    windows of every sequence, in the form `_assemble` takes.

    The distinct (sequence, time) endpoints, in order, are the global
    points; window w of the dataset runs from point w + s to the next point,
    s being its sequence's index, as every sequence has one point more than
    windows. An interval covers the windows from its begin point up to its
    finish point. Overlapping intervals of one label are merged first, so
    every covered (window, label) pair is listed once. Both sorts, of the
    endpoints by (sequence, time) and of the intervals by (label, window),
    are `lex_order`'s: one packed key, with `np.lexsort` only when the
    ranges need more than 63 bits.
    """
    m = len(cols.label)
    seq = np.concatenate((cols.sequence, cols.sequence))
    time = np.concatenate((cols.begin, cols.finish))
    order = lex_order((seq, time))
    seq, time = seq[order], time[order]
    new = np.ones(2 * m, dtype=bool)
    new[1:] = (seq[1:] != seq[:-1]) | (time[1:] != time[:-1])
    point = np.empty(2 * m, dtype=np.int64)
    point[order] = np.cumsum(new) - 1
    seq, time = seq[new], time[new]
    lengths = np.bincount(seq, minlength=len(cols.ids)) - 1
    durations = np.diff(time)[seq[1:] == seq[:-1]]

    first = point[:m] - cols.sequence
    stop = point[m:] - cols.sequence
    # sorted by label, then window: a label's intervals in different
    # sequences cover disjoint window ranges, in sequence order
    order = lex_order((cols.label, first))
    label, first, stop = cols.label[order], first[order], stop[order]
    # a running maximum of the stops that restarts at each label: offset
    # every label's windows past the previous label's
    offset = label * (len(durations) + 1)
    reach = np.maximum.accumulate(stop + offset)
    starts = np.ones(m, dtype=bool)
    starts[1:] = first[1:] + offset[1:] >= reach[:-1]
    head = np.flatnonzero(starts)
    tail = np.append(head[1:], m)[: len(head)] - 1
    seg_label, seg_first = label[head], first[head]
    seg_len = reach[tail] - offset[head] - seg_first
    ends = np.cumsum(seg_len)
    pair_window = np.repeat(seg_first - (ends - seg_len), seg_len) + np.arange(seg_len.sum())
    label_start = np.append(0, ends)[np.searchsorted(seg_label, np.arange(len(cols.alphabet) + 1))]
    return lengths, durations, pair_window, label_start


def encode_dataset(d: CSequenceDataset) -> EncodedDataset:
    """Encoding of the windowed object model (the reference path)."""
    labels = d.labels()
    label_bit = {lab: i for i, lab in enumerate(labels)}
    lengths = np.array([len(c.eventsets) for c in d.csequences], dtype=np.int64)
    durations = [es.duration for c in d.csequences for es in c.eventsets]
    pairs = sorted(
        (label_bit[lab], w)
        for w, es in enumerate(es for c in d.csequences for es in c.eventsets)
        for lab in es.coincidence
    )
    pair_label, pair_window = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    label_start = np.searchsorted(pair_label, np.arange(len(labels) + 1))
    return _assemble(labels, d.utilities, lengths, durations, pair_window, label_start)


def _assemble(labels, table, lengths, durations, pair_window, label_start) -> EncodedDataset:
    """The encoding of windows given per sequence `lengths`, the windows'
    `durations` in sequence order, and the covered (window, label) pairs as
    window indices grouped by label: label b covers the windows
    `pair_window[label_start[b]:label_start[b + 1]]`, each once and in
    ascending order.
    """
    n = len(lengths)
    cap = int(lengths.max()) if n else 0
    words = max(1, (len(labels) + 63) // 64)
    pairs = len(pair_window)
    # masks, durations, topk, and 4 bytes a kept label cell
    need = 8 * n * (cap * words + cap + cap + 1) + 4 * pairs
    if need > MAX_ARRAY_BYTES:
        raise DataError(
            f"the encoded dataset needs {need / 1e6:.1f} MB ({need} bytes for {n} sequences "
            f"x {cap} windows x {words} mask words and {pairs} label cells), over the limit "
            f"of {MAX_ARRAY_BYTES} bytes"
        )
    label_utility = np.array([table.utility(lab) for lab in labels], dtype=np.float64)
    # window j of sequence s is cell j * n + s of the window-major buffers:
    # for the dataset's window w = row_start[s] + j that is
    # w * n - (row_start[s] * n - s), computed in place in one array
    cell = np.arange(len(durations), dtype=np.int64)
    cell *= n
    cell -= np.repeat((np.cumsum(lengths) - lengths) * n - np.arange(n), lengths)

    masks = np.zeros((cap, n, words), dtype=np.uint64)
    cell_masks = masks.reshape(cap * n, words)
    flat_durations = np.zeros(cap * n, dtype=np.float64)
    flat_durations[cell] = durations
    # label utilities of each window, added in ascending label order
    mass = np.zeros(cap * n, dtype=np.float64)
    # every label's covered cells in one preallocated array, as label b's
    # pairs sit at label_start[b]:label_start[b + 1]
    label_cells = np.empty(pairs, dtype=np.int32)
    for bit in range(len(labels)):
        at = slice(label_start[bit], label_start[bit + 1])
        covered = label_cells[at] = cell[pair_window[at]]
        cell_masks[covered, bit >> 6] |= np.uint64(1 << (bit & 63))
        mass[covered] += label_utility[bit]
    del cell  # freed before the sort below allocates its copy
    # the sums below write into buffers already allocated
    eventset_utility = np.multiply(mass, flat_durations, out=mass).reshape(cap, n)

    # budgets beyond a sequence's length take everything: its padding adds 0
    topk = np.zeros((cap + 1, n), dtype=np.float64)
    ranked = np.sort(eventset_utility, axis=0)
    np.cumsum(ranked[::-1], axis=0, out=topk[1:])
    per_sequence = np.cumsum(eventset_utility, axis=0, out=ranked)[-1] if cap else np.zeros(n)
    total = float(np.cumsum(per_sequence)[-1]) if n else 0.0
    return EncodedDataset(
        labels=tuple(labels),
        label_bit={lab: i for i, lab in enumerate(labels)},
        masks=masks.transpose(1, 0, 2),
        durations=flat_durations.reshape(cap, n).T,
        lengths=np.asarray(lengths, dtype=np.int64),
        topk=topk,
        label_utility=label_utility,
        total_utility=total,
        label_cells=label_cells,
        label_cell_start=np.asarray(label_start, dtype=np.int32),
    )


def same_encoding(a: EncodedDataset, b: EncodedDataset) -> bool:
    """Whether two encodings have the same labels and bit-identical arrays
    and total utility."""
    arrays = ("masks", "durations", "lengths", "topk", "label_utility", "label_cells",
              "label_cell_start")
    return (
        a.labels == b.labels
        and float(a.total_utility).hex() == float(b.total_utility).hex()
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((getattr(a, f), getattr(b, f)) for f in arrays)
        )
    )


def by_window(a: np.ndarray) -> np.ndarray:
    """The view [cap, n(, words)] of an array [n, cap(, words)]; C-contiguous
    when the array is window-major, so that window j of every sequence is
    one block of memory."""
    return a.swapaxes(0, 1)


def summarize_scores(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(matched flags, per-row best utility) from score rows, for one
    prefix's rows [n, cap] or a batch of them [C, n, cap].

    The kernel's running maximum carries each row's last real value through
    the padding, so the last column holds the best utility of the row, and
    -inf where the prefix never matched.
    """
    if scores.shape[-1] == 0:
        return np.zeros(scores.shape[:-1], dtype=bool), np.zeros(scores.shape[:-1])
    last = scores[..., -1]
    matched = np.isfinite(last)
    return matched, np.where(matched, last, 0.0)


def weighted_utilization(
    enc: EncodedDataset, rows: np.ndarray, matched: np.ndarray, budgets
) -> np.ndarray:
    """Top-k eventset mass summed over each candidate's matched sequences,
    for each budget k: float64 [len(budgets), C].

    `matched` holds one row of flags [C, n] per candidate over the
    ascending sequence indices `rows`. Each candidate's row is reduced on
    its own and left to right, as umax is, so its sums depend neither on
    the other candidates of the batch nor on the unmatched sequences among
    `rows`: adding 0.0 changes no sum. A budget of 0 or less sums nothing.
    """
    out = np.zeros((len(budgets), len(matched)))
    for total, k in zip(out, budgets):
        if k > 0 and len(rows):
            # a flag times a mass is the mass or 0; faster than np.where
            mass = np.multiply(matched, enc.topk[min(k, enc.capacity)][rows])
            total[:] = np.cumsum(mass, axis=1, out=mass)[:, -1]
    return out
