"""Pattern-growth miner over the promising-coincidence vocabulary.

Mining has two phases. Phase 1 grows coincidence candidates level-wise
(apriori over labels in lexicographic order) and keeps the ones that occur
in the data and whose weighted bound clears the threshold; the weighted
bound is the only one that stays valid while a coincidence can still gain
labels, because adding a label can raise a match's value at the very same
window, which a match-based estimate never anticipates. A level joins its
survivors only with the labels that survived on their own: adding a label
can only shrink the set of sequences a coincidence occurs in, and the
weighted bound sums over that set, so every superset of a dropped label
fails both tests too (the Apriori property). Phase 1 runs no kernel: a
candidate's cells, the windows that hold its whole mask, are a label's own
cells from the encoder or its parent's cells that hold the new label, and
its best match in a sequence is read from them (`_price`). The vocabulary
is kept as columns: no entry keeps score rows. Phase 2 grows patterns
depth-first by appending whole vocabulary coincidences, starting from the
empty prefix, whose children, the roots, phase 1 bounded and whose score
rows are read off their cells (`_root_scores`). A prefix carries only the
sequences it occurs in and its score rows on them, so the kernel extends
only non-empty prefixes, never on a sequence the prefix misses, and a
child tries only the coincidences that survived beside it (see `_grow`).

A candidate at the length cap, a leaf, needs only its best match per
sequence, and it fits only a few of the cells the kernel scores. So the
miner lays out every entry's cells in runs per sequence (`_LeafLayout`),
and a leaf evaluation is scored from them when its kernel cells outnumber
`LAYOUT_CELL_WEIGHT` times the layout's cells plus the slots of its score
buffer (`_leaves_from_layout`): a gather, an add and a maximum per layout
cell, with the kernel's values bit for bit. Interior prefixes always take
the kernel.

Every bound is one formula, `_bound`, over three numbers that come with a
candidate's scores: its umax, its weighted bound `full` (the top-K
eventset mass of the sequences it occurs in) and `rest` (their top-(K -
length) mass). One `weighted_utilization` call sums both for a whole
kernel batch, and one test, `_survivors`, keeps a batch's candidates that
occurred and whose bound clears the threshold, at every level. The
projected bound never exceeds the weighted one, and a prefix's bound
covers every pattern grown from it. The strategy changes what gets pruned,
never what gets emitted. A candidate is pruned only when its bound falls
short of the threshold by more than a relative float slack
(`PRUNE_SLACK`), while emission compares a pattern's utility with the
threshold exactly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import (
    EncodedDataset,
    by_window,
    encode_dataset,
    summarize_scores,
    take_candidate,
    take_sequences,
    weighted_utilization,
)
from .kernels import extend_scores
from .model import Coincidence, CSequenceDataset, LSequence, lsequence_sort_key
from .utility import UpperBound


@dataclass(frozen=True)
class MiningConfig:
    xi: float
    max_length: int
    max_size: int
    xi_mode: str = "absolute"
    strategy: UpperBound = UpperBound.PROJECTED

    def __post_init__(self) -> None:
        if self.xi_mode not in ("absolute", "relative"):
            raise ValueError(f"xi_mode must be 'absolute' or 'relative': {self.xi_mode!r}")
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be a finite number: {self.xi}")
        if self.xi < 0:
            raise ValueError(f"xi must be nonnegative: {self.xi}")
        if self.xi_mode == "relative" and self.xi > 1:
            raise ValueError(f"relative xi must be in [0, 1]: {self.xi}")
        if self.max_length < 1 or self.max_size < 1:
            raise ValueError("max_length and max_size must be >= 1")

    def with_strategy(self, strategy: UpperBound) -> "MiningConfig":
        return replace(self, strategy=strategy)


@dataclass(frozen=True)
class Pattern:
    lsequence: LSequence
    umax: float


@dataclass
class MiningStats:
    candidates_generated: int = 0
    candidates_pruned: int = 0
    patterns_found: int = 0
    elapsed_ms: float = 0.0


def resolve_threshold(cfg: MiningConfig, enc: EncodedDataset) -> float:
    """Absolute threshold; relative mode scales the dataset's total utility."""
    if cfg.xi_mode == "absolute":
        return cfg.xi
    return cfg.xi * enc.total_utility


# A bound and the utility it covers add the same window utilities in
# different orders, so with fractional utilities a bound that equals a
# pattern's utility in exact arithmetic can land a few ulps below it, and
# below a threshold the pattern meets. Pruning therefore requires a
# shortfall larger than this relative slack, which stays above the float64
# error of summing a million nonnegative terms.
PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class _LeafLayout:
    """Every vocabulary entry's fit cells, laid out so that a prefix's
    candidates at the length cap are scored without the kernel.

    A run is one entry's cells in one sequence. The runs are sorted longest
    first, and their cells stored rank by rank: layer k holds the k-th cell
    of every run longer than k, which are the first runs in that order, so
    each layer is one contiguous block that lines up with the layer before.
    A cell holds its entry's utility mass times its window's duration, and
    the window's id j * n + s in the window-major order of the encoding.
    """

    value: np.ndarray     # float64 [cells], putil * duration
    cell: np.ndarray      # int32 [cells], window j of sequence s as j * n + s
    layers: np.ndarray    # int64 [ranks + 1]; layer k is cells layers[k]:layers[k+1]
    entry: np.ndarray     # int32 [runs], the vocabulary index of each run
    sequence: np.ndarray  # int32 [runs], the sequence of each run


@dataclass
class _Context:
    """A mining run's inputs, its vocabulary as columns, so that a batch of
    candidates is one index gather, and the leaf layout, when patterns can
    be longer than one coincidence.

    Entry v of the vocabulary, in mining order, is the coincidence
    `vocab[v]`. Its runs, one per sequence it occurs in, ascending, are
    `vocab_runs[v]:vocab_runs[v + 1]` of `run_rows` (the sequence). Run i's
    cells, window-major ids of the windows that hold the entry's whole mask,
    are `cell_start[i]:cell_start[i + 1]` of `vocab_cells`: by entry, then
    sequence, then window (`_entry_cells`).
    """

    enc: EncodedDataset
    cfg: MiningConfig
    xi_abs: float
    vocab: list[Coincidence] = field(default_factory=list)
    vocab_masks: np.ndarray | None = None   # uint64 [V, words]
    vocab_putils: np.ndarray | None = None  # float64 [V]
    vocab_bounds: np.ndarray | None = None  # float64 [3, V]: umax, full and rest
    vocab_runs: np.ndarray | None = None    # int64 [V + 1]
    run_rows: np.ndarray | None = None      # int64 [runs]
    cell_start: np.ndarray | None = None    # int64 [runs + 1]
    vocab_cells: np.ndarray | None = None   # int32 [cells]
    leaf_layout: _LeafLayout | None = None


def _entry_cells(ctx: _Context, v: int):
    """(rows, column, cells) of vocabulary entry v: the sequences it occurs
    in, ascending, and its cells, each with the position in `rows` of its
    sequence."""
    runs = slice(ctx.vocab_runs[v], ctx.vocab_runs[v + 1])
    start = ctx.cell_start[runs.start : runs.stop + 1]
    column = np.repeat(np.arange(runs.stop - runs.start), np.diff(start))
    return ctx.run_rows[runs], column, ctx.vocab_cells[start[0] : start[-1]]


def _root_scores(ctx: _Context, v: int):
    """(rows, window-major score rows) of vocabulary entry v on the
    sequences it occurs in, read off its cells: putil * duration at each
    cell, -inf elsewhere, then a running maximum. The kernel's rows from the
    empty prefix, bit for bit: its added 0.0 changes no value."""
    rows, column, cells = _entry_cells(ctx, v)
    n, cap = ctx.enc.n_sequences, ctx.enc.capacity
    scores = np.full((cap, rows.size), -np.inf)
    scores[cells // n, column] = ctx.vocab_putils[v] * by_window(ctx.enc.durations).reshape(-1)[cells]
    for j in range(1, cap):
        np.maximum(scores[j], scores[j - 1], out=scores[j])
    return rows, by_window(scores)


# Largest (candidate, sequence, window) cell count of one kernel call, and
# of the cells one chunk of vocabulary candidates tests: their float64
# temporaries stay at 0.5 MB each. A prefix whose rows alone reach it is
# scored one candidate per call.
BATCH_CELLS = 2**16


def _evaluate(ctx: _Context, rows, prev_scores, prev_base, masks, putils, length: int):
    """Score the prefix extended by each candidate, one kernel batch at a
    time, given the candidates' `masks` [C, words] and `putils` [C], and
    the prefix's score rows on the ascending sequences `rows`, whose
    encoded arrays the kernel reads.

    Yields, per batch of c candidates in order: the position of its first
    candidate, matched flags [c, n] over `rows`, score rows [c, n, cap],
    and umax, full and rest as [c] arrays. `length` is the extended
    pattern's length; `full` and `rest` are its top-K and top-(K - length)
    eventset mass over the matched rows.

    A batch holds at most `BATCH_CELLS` cells, and its masses are one
    `weighted_utilization` call. umax adds the per-sequence values left to
    right, as the oracle does: a pairwise sum (`ndarray.sum`) can land an
    ulp off and then flip a pattern whose value is exactly the threshold.
    """
    enc = ctx.enc
    arrays = enc.masks, enc.durations, enc.lengths
    if rows.size < enc.n_sequences:
        arrays = take_sequences(enc.masks, rows), take_sequences(enc.durations, rows), enc.lengths[rows]
    step = max(1, BATCH_CELLS // max(1, prev_scores.size))
    for lo in range(0, len(masks), step):
        scores = extend_scores(
            *arrays, prev_scores, prev_base, masks[lo : lo + step], putils[lo : lo + step]
        )
        matched, best = summarize_scores(scores)
        yield lo, matched, scores, *_masses(ctx, rows, matched, best, length)


def _masses(ctx: _Context, rows, matched, best, length: int):
    """umax, full and rest [C] of a batch, from its matched flags and best
    values [C, n] over the sequences `rows` (see `_evaluate`)."""
    # `none` never bounds, so it sums nothing: full and rest read 0
    k = 0 if ctx.cfg.strategy is UpperBound.NONE else ctx.cfg.max_length
    umax = np.cumsum(best, axis=1)[:, -1] if best.shape[1] else np.zeros(len(best))
    return umax, *weighted_utilization(ctx.enc, rows, matched, (k, k - length))


# A leaf evaluation takes the layout when its C x r x cap kernel cells
# outnumber this many times the layout's cells plus the cap * n slots of its
# score buffer. A layout cell costs a gather, an add and a maximum, a
# buffer slot a fill and at most one scatter; a kernel cell costs a mask
# test, a multiply, an add, a masked store and a running maximum, and each
# kernel call about 80 us more. Timing every leaf evaluation both ways on
# the benchmark's workloads at K = 2 to 4, and on ingest-20k prefixes cut
# to 50 to 10,000 rows, 0.15 kept the total within 1.2% of picking the
# faster path per leaf, and no leaf more than 1.25x slower than its faster
# path (numpy 2.4, x86-64).
LAYOUT_CELL_WEIGHT = 0.15


def _leaves_from_layout(ctx: _Context, candidates: int, rows: int) -> bool:
    """Whether a prefix on `rows` sequences scores its `candidates` at the
    length cap from the leaf layout rather than with the kernel."""
    enc = ctx.enc
    layout_cells = ctx.leaf_layout.value.size + enc.capacity * enc.n_sequences
    return LAYOUT_CELL_WEIGHT * layout_cells < candidates * rows * enc.capacity


def _leaf_layout(ctx: _Context) -> _LeafLayout:
    """The layout of every vocabulary entry's fit cells (`_LeafLayout`),
    read from the vocabulary's runs: the k-th cell of run i sits at
    `cell_start[i] + k` of `vocab_cells`."""
    length = np.diff(ctx.cell_start)
    entry = np.repeat(np.arange(len(ctx.vocab)), np.diff(ctx.vocab_runs))
    # longest first; runs of one length may come in any order
    order = np.argsort(-length)
    head, entry = ctx.cell_start[:-1][order], entry[order]
    longer = head.size - np.cumsum(np.bincount(length))[:-1]  # runs longer than k
    layers = np.concatenate(([0], np.cumsum(longer)))
    at, value = np.empty(layers[-1], dtype=np.int64), np.empty(layers[-1])
    for k, count in enumerate(longer):
        at[layers[k] : layers[k + 1]] = head[:count] + k
        value[layers[k] : layers[k + 1]] = ctx.vocab_putils[entry[:count]]
    cells = ctx.vocab_cells[at]
    del at  # freed before the durations are gathered
    value *= by_window(ctx.enc.durations).reshape(-1)[cells]
    return _LeafLayout(
        value=value,
        cell=cells,
        layers=layers,
        entry=entry.astype(np.int32),
        sequence=ctx.run_rows[order].astype(np.int32),
    )


def _summarize_leaves(ctx: _Context, rows, scores, candidates):
    """`summarize_scores` of the prefix with score rows `scores` on the
    sequences `rows` extended by each vocabulary entry `candidates`, from
    the leaf layout: matched flags and best values [C, r].

    The prefix's score rows go one window later into a -inf buffer of
    every cell, so that slot j * n + s holds the prefix's best score before
    window j of sequence s: -inf at window 0, where no non-empty prefix has
    matched, and outside `rows`. A layout cell's value is its putil *
    duration plus its own slot, the kernel's product and sum. The maximum
    over a run is the kernel's running maximum at its last window, so the
    flags and values are bit-identical to the kernel's.
    """
    layout, enc = ctx.leaf_layout, ctx.enc
    n, cap = enc.n_sequences, enc.capacity
    buffer = np.full(cap * n, -np.inf)
    buffer.reshape(cap, n)[1:, rows] = by_window(scores)[:-1]
    values = buffer.take(layout.cell)
    del buffer  # freed before the runs are mapped
    values += layout.value
    best = values[: layout.entry.size]  # layer 0: each run's first cell
    for lo, hi in zip(layout.layers[1:-1], layout.layers[2:]):
        np.maximum(best[: hi - lo], values[lo:hi], out=best[: hi - lo])
    # each run of a candidate that matched lands in its [C, r] slot
    column = np.full(len(ctx.vocab), -1)
    column[candidates] = np.arange(len(candidates))
    row = np.zeros(n, dtype=np.int64)
    row[rows] = np.arange(rows.size)
    c = column[layout.entry]
    hit = np.flatnonzero((c >= 0) & (best > -np.inf))
    slot = c[hit] * rows.size + row[layout.sequence[hit]]
    matched = np.zeros((len(candidates), rows.size), dtype=bool)
    out = np.zeros(matched.shape)
    matched.reshape(-1)[slot], out.reshape(-1)[slot] = True, best[hit]
    return matched, out


def _leaf_batches(ctx: _Context, rows, scores, candidates, length: int):
    """`_evaluate`'s batches for the vocabulary entries `candidates` at the
    length cap, scored from the leaf layout: one batch, without score rows."""
    matched, best = _summarize_leaves(ctx, rows, scores, candidates)
    yield 0, matched, None, *_masses(ctx, rows, matched, best, length)


def _bound(ctx: _Context, umax, full, rest):
    """Upper bound on a pattern and on every pattern grown from it by
    appending coincidences, given its `_evaluate` values; element-wise on
    a batch's arrays.

    The weighted bound is `full`. The projected one adds to umax `rest`:
    each of the at most K - length coincidences appended later matches its
    own window, worth at most that window's eventset mass. It is clamped to
    `full`; the raw sum can exceed it when a best match sits on top-ranked
    eventsets, and an unclamped value would make the projected strategy
    keep candidates the weighted strategy discards. At the length cap
    `rest` is 0, so the bound is umax. `none` never prunes.
    """
    if ctx.cfg.strategy is UpperBound.NONE:
        return math.inf
    if ctx.cfg.strategy is UpperBound.LWU:
        return full
    return np.minimum(umax + rest, full)


def _survivors(ctx: _Context, stats: MiningStats, occurred, umax, full, rest) -> list[int]:
    """Positions of the candidates of a batch that occurred and whose bound
    clears the threshold, less its slack, in order; the others are counted
    as pruned."""
    promising = _bound(ctx, umax, full, rest) >= ctx.xi_abs * (1.0 - PRUNE_SLACK)
    keep = np.flatnonzero(occurred & promising)
    stats.candidates_pruned += len(occurred) - keep.size
    return keep.tolist()


def _chunks(costs):
    """(lo, hi) of each run of consecutive candidates whose `costs` add up
    to at most `BATCH_CELLS`, or of one candidate alone, in order."""
    ends = np.cumsum(costs)
    lo = 0
    while lo < ends.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - costs[lo] + BATCH_CELLS, "right")))
        yield lo, hi
        lo = hi


def _candidate_cells(ctx: _Context, parent: int, joins):
    """(lo, hi, rows, entry, column, cells) for `_price`, per chunk lo:hi
    of the labels `joins` added to the vocabulary entry `parent`, or to the
    empty coincidence, -1.

    A label's cells are its label cells, on every sequence. A join's cells
    are its parent's cells whose window also holds the new label, one bit
    test on that label's mask word, since a larger label set fits no window
    the smaller one misses (SPADE's id-list join, Zaki 2001). A chunk tests
    at most `BATCH_CELLS` cells and spans as many (candidate, row) slots.
    """
    enc = ctx.enc
    if parent < 0:
        n, start = enc.n_sequences, enc.label_cell_start
        for lo, hi in _chunks(np.maximum(np.diff(start), n)):
            cells = enc.label_cells[start[lo] : start[hi]]
            entry = np.repeat(np.arange(hi - lo), np.diff(start[lo : hi + 1]))
            yield lo, hi, np.arange(n), entry, cells % n, cells
        return
    rows, column, cells = _entry_cells(ctx, parent)
    held = by_window(enc.masks).reshape(-1, enc.words)[cells].T  # [words, cells]
    bit = np.left_shift(np.uint64(1), (joins & 63).astype(np.uint64))
    for lo, hi in _chunks(np.full(joins.size, cells.size)):
        entry, k = np.nonzero(held[joins[lo:hi] >> 6] & bit[lo:hi, None])
        yield lo, hi, rows, entry, column[k], cells[k]


def _price(ctx: _Context, stats: MiningStats, putils, rows, entry, column, cells):
    """The survivors of a chunk of vocabulary candidates, priced from their
    cells: candidate i fits `cells[entry == i]`, by sequence, then window,
    in the sequences `rows[column]`. Its best match in a sequence is its
    mass `putils[i]` times its longest window there, the kernel's running
    maximum from the empty prefix bit for bit, as rounding is monotone for
    a nonnegative mass. Returns the survivors' positions and their columns:
    umax, full and rest [k, 3], runs each, and the runs' rows, lengths and
    cells.
    """
    new = np.ones(cells.size, dtype=bool)
    new[1:] = (entry[1:] != entry[:-1]) | (column[1:] != column[:-1])
    head = np.flatnonzero(new)
    longest = np.maximum.reduceat(by_window(ctx.enc.durations).reshape(-1)[cells], head)
    at = entry[head], column[head]
    matched = np.zeros((len(putils), rows.size), dtype=bool)
    best = np.zeros(matched.shape)
    matched[at], best[at] = True, putils[at[0]] * longest
    umax, full, rest = _masses(ctx, rows, matched, best, 1)
    # a coincidence that can still gain labels has no match value to
    # project from, so only the weighted part holds
    keep = _survivors(ctx, stats, matched.any(axis=1), math.inf, full, rest)
    alive = np.zeros(len(putils), dtype=bool)
    alive[keep] = True
    run = alive[at[0]]
    return keep, (
        np.stack((umax, full, rest), axis=1)[keep],
        np.bincount(at[0], minlength=len(putils))[keep],
        rows[at[1][run]],
        np.diff(head, append=cells.size)[run],
        cells[alive[entry]],
    )


def _build_vocabulary(ctx: _Context, stats: MiningStats) -> None:
    """Level-wise promising coincidence generation (phase 1).

    Each level adds one label, taken above the last one, to the previous
    level's survivors in order, starting from the empty coincidence, so the
    vocabulary comes out ordered by size, then by labels. Every candidate
    is priced from its cells (`_candidate_cells`, `_price`), so the phase
    runs no kernel. Candidates that never occur in a single window are dead
    ends for every strategy and are dropped too.
    """
    enc = ctx.enc
    # the mask of each label alone; a label's bit is its index in enc.labels
    bits = np.arange(len(enc.labels))
    label_masks = np.zeros((bits.size, enc.words), dtype=np.uint64)
    label_masks[bits, bits >> 6] = np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
    # the columns so far, then the chunks priced since: masks, putils,
    # bounds, runs per entry, run rows, run lengths and cells
    empty = np.zeros(0, dtype=np.int64)
    parts = [(label_masks[:0], enc.label_utility[:0], np.zeros((0, 3)), empty, empty, empty,
              enc.label_cells[:0])]
    last: list[int] = []  # each entry's last label
    # level 0 is the empty coincidence, which occurs everywhere
    level, size = [-1], 0
    while level and size < ctx.cfg.max_size:
        size += 1
        first = len(ctx.vocab)
        for v in level:
            if v < 0:
                mask = np.zeros(enc.words, dtype=np.uint64)
                coincidence, putil, joins = Coincidence(), 0.0, bits
            else:
                coincidence, mask, putil = ctx.vocab[v], ctx.vocab_masks[v], ctx.vocab_putils[v]
                joins = bits[bits > last[v]]
            stats.candidates_generated += joins.size
            # a child's utility mass adds its label utilities in ascending
            # label order
            masks, putils = mask | label_masks[joins], putil + enc.label_utility[joins]
            for lo, hi, *cells in _candidate_cells(ctx, v, joins):
                keep, columns = _price(ctx, stats, putils[lo:hi], *cells)
                keep = [lo + i for i in keep]
                ctx.vocab.extend(coincidence.union(enc.labels[joins[i]]) for i in keep)
                last.extend(joins[keep].tolist())
                parts.append((masks[keep], putils[keep], *columns))
        parts = [tuple(np.concatenate(column) for column in zip(*parts))]
        ctx.vocab_masks, ctx.vocab_putils, bounds, counts, ctx.run_rows, lengths, \
            ctx.vocab_cells = parts[0]
        ctx.vocab_bounds = bounds.T
        ctx.vocab_runs = np.concatenate(([0], np.cumsum(counts)))
        ctx.cell_start = np.concatenate(([0], np.cumsum(lengths)))
        level = range(first, len(ctx.vocab))
        # only labels that survived alone can be part of a survivor
        if size == 1:
            bits = np.array(last, dtype=np.int64)
    # built before growth, so that growth's arrays never overlap its build
    if ctx.cfg.max_length > 1:
        ctx.leaf_layout = _leaf_layout(ctx)


def _grow(
    ctx: _Context, prefix: list[Coincidence], children: list, out: list[Pattern], stats: MiningStats
) -> None:
    """Emit and grow, depth-first, each child of the pattern `prefix`.

    `children` are the extensions of the prefix that survived, in
    vocabulary order: (vocabulary index, the sequences the child occurs
    in, its score rows on them, umax); rows and scores are None at the
    length cap, and for a root, whose rows are read off its cells when it
    is grown (`_root_scores`). A child is emitted when its umax meets the
    threshold. Below the length cap the kernel then scores it extended by
    every coincidence of `children`, on its own rows only, or the leaf
    layout does when those extensions reach the cap, and the survivors are
    grown in turn. A pattern grown from prefix+x that appends c is a
    supersequence of prefix+c, so it occurs in no sequence prefix+c misses,
    and the weighted bound only shrinks with the set of sequences it sums
    over. Under `pdc` prefix+c's own bound covers it too: each of the at
    most K - |prefix+c| coincidences such a pattern has beyond prefix+c
    matches its own window, worth at most that window's eventset mass. So a
    coincidence pruned beside a child is never appended below it, at the
    roots as at any depth.
    """
    inherited = np.array([child[0] for child in children], dtype=np.intp)
    for index, rows, scores, umax in children:
        prefix.append(ctx.vocab[index])
        if umax >= ctx.xi_abs:
            out.append(Pattern(LSequence(tuple(prefix)), umax))
        if len(prefix) < ctx.cfg.max_length:
            if scores is None:
                rows, scores = _root_scores(ctx, index)
            stats.candidates_generated += inherited.size
            length = len(prefix) + 1
            leaf = length == ctx.cfg.max_length
            if leaf and _leaves_from_layout(ctx, inherited.size, rows.size):
                batches = _leaf_batches(ctx, rows, scores, inherited, length)
            else:
                batches = _evaluate(
                    ctx, rows, scores, -math.inf, ctx.vocab_masks[inherited],
                    ctx.vocab_putils[inherited], length,
                )
            # the survivors are bound to no local here, so neither a kernel
            # batch nor a finished sibling's survivors stay alive below
            _grow(ctx, prefix, [
                (inherited[lo + i], None if leaf else rows[matched[i]],
                 None if leaf else take_candidate(batch, i, matched[i]), float(umaxes[i]))
                for lo, matched, batch, umaxes, full, rest in batches
                for i in _survivors(ctx, stats, matched.any(axis=1), umaxes, full, rest)
            ], out, stats)
        prefix.pop()


def _mine_root(ctx: _Context, out: list[Pattern], stats: MiningStats) -> None:
    """Grow every pattern from the empty prefix (phase 2).

    Its children, the roots, are the vocabulary coincidences, bounded in
    phase 1. The roots whose own bound clears the threshold are grown like
    any other child, and each inherits only them. Phase 1 keeps no score
    rows: a root's are read off its cells when it is grown.
    """
    umax, full, rest = ctx.vocab_bounds
    roots = _survivors(ctx, stats, np.ones(umax.size, dtype=bool), umax, full, rest)
    _grow(ctx, [], [(i, None, None, float(umax[i])) for i in roots], out, stats)


def mine(
    data: EncodedDataset | CSequenceDataset, cfg: MiningConfig
) -> tuple[list[Pattern], MiningStats]:
    """All patterns within the length/size caps whose utility meets xi.

    `data` is an encoding, or a windowed dataset to encode first. The
    emitted set is identical for every strategy; bounds only control how
    much of the candidate space is visited.
    """
    start = time.perf_counter()
    enc = data if isinstance(data, EncodedDataset) else encode_dataset(data)
    ctx = _Context(enc=enc, cfg=cfg, xi_abs=resolve_threshold(cfg, enc))
    stats = MiningStats()
    _build_vocabulary(ctx, stats)

    patterns: list[Pattern] = []
    _mine_root(ctx, patterns, stats)

    patterns.sort(key=lambda p: lsequence_sort_key(p.lsequence))
    stats.patterns_found = len(patterns)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return patterns, stats
