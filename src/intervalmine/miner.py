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
fails both tests too (the Apriori property). A candidate's cells, the
windows that hold its whole mask, are a label's own cells from the encoder
or its parent's cells that hold the new label, and its best match in a
sequence is read from them (`_price`). The vocabulary is one cell list per
entry, with its mass and bound inputs: a cell id `j * n + s` names its
sequence s, so no entry keeps masks, sequence columns or score rows.

Phase 2 grows patterns depth-first by appending whole vocabulary
coincidences, starting from the empty prefix, whose children, the roots,
phase 1 bounded. A prefix carries only the sequences it occurs in and its
score rows on them, and a child tries only the coincidences that survived
beside it (see `_grow`). Growth first splits each entry's cells into runs,
one per sequence, once (`_layout`). Every prefix, at every depth, scores its
candidates from the vocabulary's own cells (`_extend`): a gather, an add
and one maximum per run, whose result is sparse, one hit (candidate,
sequence, best value) per run of a candidate that matched (SPADE's id-list
join, Zaki 2001, carried to utilities as HUS-Span's utility chains do,
Wang, Huang & Chen 2016). The survivors that will be grown read their score
rows off the same evaluation's cell values, all in one batch (`_rows`),
and a root reads its own off its cells (`_scores`). Both give the dense
kernel's values (`kernels.extend_scores`) bit for bit; the miner never
calls it.

Every bound is one formula, `_bound`, over three numbers that come with a
candidate's scores: its umax, its weighted bound `full` (the top-K
eventset mass of the sequences it occurs in) and `rest` (their top-(K -
length) mass). Each is a `np.bincount` sum over the hits (`_masses`),
with one `weighted_utilization` call for both masses of a whole
evaluation, so neither phase keeps a dense [candidates, sequences] array.
One test, `_survivors`, keeps the candidates that occurred and whose bound
clears the threshold, at every level. The projected bound
never exceeds the weighted one, and a prefix's bound covers every pattern
grown from it. The strategy changes what gets pruned, never what gets
emitted. A candidate is pruned only when its bound falls short of the
threshold by more than a relative float slack (`PRUNE_SLACK`), while
emission compares a pattern's utility with the threshold exactly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import EncodedDataset, by_window, encode_dataset, weighted_utilization
# Growth calls neither of these: they stay attributes of this module because
# the benchmark's tracer (`perfbench/tracing.py`) hooks them here.
from .encoding import summarize_scores  # noqa: F401
from .kernels import extend_scores  # noqa: F401
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


@dataclass
class _Context:
    """A mining run's inputs, its vocabulary as one cell list per entry, and
    the columns growth scores from.

    Entry v of the vocabulary, in mining order, is the coincidence
    `vocab[v]`. Its cells, the window-major ids `j * n + s` of the windows
    that hold its whole mask, by sequence, then window, are
    `entry_start[v]:entry_start[v + 1]` of `vocab_cells`: a cell's sequence
    is cell % n, so no column names it. When patterns can be longer than
    one coincidence, growth derives the entry's runs, one per sequence it
    occurs in, ascending, with the other columns and the buffer it scores
    from (`_layout`): entry v's runs are `vocab_runs[v]:vocab_runs[v + 1]`,
    and run i holds the cells `cell_start[i]:cell_start[i + 1]` of sequence
    `run_rows[i]`.
    """

    enc: EncodedDataset
    cfg: MiningConfig
    xi_abs: float
    vocab: list[Coincidence] = field(default_factory=list)
    vocab_putils: np.ndarray | None = None  # float64 [V]
    vocab_bounds: np.ndarray | None = None  # float64 [3, V]: umax, full and rest
    entry_start: np.ndarray | None = None   # int64 [V + 1]
    vocab_cells: np.ndarray | None = None   # int32 [cells]
    vocab_runs: np.ndarray | None = None    # int64 [V + 1]
    run_rows: np.ndarray | None = None      # int64 [runs]
    cell_start: np.ndarray | None = None    # int64 [runs + 1]
    run_entry: np.ndarray | None = None     # int32 [runs]
    cell_run: np.ndarray | None = None      # int32 [cells]
    cell_value: np.ndarray | None = None    # float64 [cells], putil * duration
    before: np.ndarray | None = None        # float64 [cap * n], -inf between evaluations


# Largest count of cells that one chunk of vocabulary candidates tests: its
# float64 temporaries stay at 0.5 MB each. A candidate with more cells than
# that is priced alone.
BATCH_CELLS = 2**16


def _heads(entry, sequence):
    """Positions of the cells that start a run: where a cell's `entry` or
    its `sequence` differs from the previous cell's."""
    new = np.ones(entry.size, dtype=bool)
    new[1:] = (entry[1:] != entry[:-1]) | (sequence[1:] != sequence[:-1])
    return np.flatnonzero(new)


def _masses(ctx: _Context, candidate, sequence, best, count: int, length: int):
    """umax, full and rest [count] of candidates, from their hits: hit i is
    candidate `candidate[i]`'s best value `best[i]` in sequence
    `sequence[i]`, sorted by (candidate, sequence). `full` and `rest` are
    the top-K and top-(K - length) eventset mass of each one's sequences,
    one `weighted_utilization` call for them all.

    `np.bincount` adds a candidate's values left to right, as the oracle
    does: a pairwise sum (`ndarray.sum`) can land an ulp off and then flip
    a pattern whose value is exactly the threshold.
    """
    # `none` never bounds, so it sums nothing: full and rest read 0
    k = 0 if ctx.cfg.strategy is UpperBound.NONE else ctx.cfg.max_length
    umax = np.bincount(candidate, weights=best, minlength=count)
    return umax, *weighted_utilization(ctx.enc, candidate, sequence, count, (k, k - length))


def _layout(ctx: _Context) -> None:
    """Growth's columns of the vocabulary: its runs, the cells of one entry
    in one sequence, with each run's sequence, entry and cells, each cell's
    run and value, its entry's putil times its window's duration, and the
    buffer `_extend` reads a prefix's scores from, all -inf."""
    n = ctx.enc.n_sequences
    ctx.before = np.full(ctx.enc.capacity * n, -np.inf)
    counts = np.diff(ctx.entry_start)
    ctx.cell_value = np.repeat(ctx.vocab_putils, counts)
    ctx.cell_value *= by_window(ctx.enc.durations).reshape(-1)[ctx.vocab_cells]
    entry = np.repeat(np.arange(len(ctx.vocab), dtype=np.int32), counts)
    sequence = ctx.vocab_cells % n
    head = _heads(entry, sequence)
    ctx.run_rows = sequence[head].astype(np.int64)
    ctx.run_entry = entry[head]
    # an entry's first cell starts its first run
    ctx.vocab_runs = np.searchsorted(head, ctx.entry_start)
    ctx.cell_start = np.append(head, ctx.vocab_cells.size)
    ctx.cell_run = np.repeat(np.arange(head.size, dtype=np.int32), np.diff(ctx.cell_start))


def _extend(ctx: _Context, rows, scores, candidates):
    """The prefix with window-major score rows `scores` on the sequences
    `rows` extended by each vocabulary entry `candidates`, ascending,
    scored from the vocabulary's cells: its hits, (candidate position, run,
    best value) of each run of a candidate that matched, sorted by
    (candidate, sequence), and every cell's value, which `_rows` reads a
    grown child's score rows from.

    The prefix's score rows go one window later into the -inf buffer
    `before`, so that slot j * n + s holds the prefix's best score before
    window j of sequence s: -inf at window 0, where no non-empty prefix has
    matched, and outside `rows`. Once read, its rows are -inf again, so
    neither step costs more than the prefix's rows. A cell's value is its
    putil * duration plus its own slot, the kernel's product and sum. The
    maximum over a run is the kernel's running maximum at its last window,
    so the hits are `summarize_scores` of the kernel's rows bit for bit.
    """
    before = ctx.before.reshape(ctx.enc.capacity, ctx.enc.n_sequences)
    before[1:, rows] = by_window(scores)[:-1]
    values = ctx.before.take(ctx.vocab_cells)
    before[1:, rows] = -np.inf
    values += ctx.cell_value
    best = np.full(ctx.run_entry.size, -np.inf)
    np.maximum.at(best, ctx.cell_run, values)
    # the runs that matched, then those of candidates; -1 marks an entry
    # that is not a candidate, and it is never used as an index
    position = np.full(len(ctx.vocab), -1, dtype=np.int32)
    position[candidates] = np.arange(candidates.size, dtype=np.int32)
    run = np.flatnonzero(best > -np.inf)
    candidate = position[ctx.run_entry[run]]
    hit = candidate >= 0
    run = run[hit]
    return candidate[hit], run, best[run], values


def _rows(ctx: _Context, runs, values):
    """Window-major score rows [cap, len(runs)] of the vocabulary's runs
    `runs`: column i holds run runs[i]'s cell `values` at their windows,
    -inf elsewhere, then a running maximum, the kernel's bit for bit."""
    start = ctx.cell_start
    length = start[runs + 1] - start[runs]
    at = np.repeat(start[runs] - (np.cumsum(length) - length), length) + np.arange(length.sum())
    n, cap = ctx.enc.n_sequences, ctx.enc.capacity
    scores = np.full((cap, runs.size), -np.inf)
    scores[ctx.vocab_cells[at] // n, np.repeat(np.arange(runs.size), length)] = values[at]
    for j in range(1, cap):
        np.maximum(scores[j], scores[j - 1], out=scores[j])
    return scores


def _scores(ctx: _Context, v: int):
    """(rows, window-major score rows) of the root vocabulary entry v, on
    the sequences it occurs in, read off its cells: the empty prefix scores
    0.0 before every window, which changes no value."""
    runs = np.arange(ctx.vocab_runs[v], ctx.vocab_runs[v + 1])
    return ctx.run_rows[runs], by_window(_rows(ctx, runs, ctx.cell_value))


def _bound(ctx: _Context, umax, full, rest):
    """Upper bound on a pattern and on every pattern grown from it by
    appending coincidences, given its `_masses` values; element-wise on
    the arrays of many candidates.

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
    """(lo, hi, entry, cells) for `_price`, per chunk lo:hi of the labels
    `joins` added to the vocabulary entry `parent`, or to the empty
    coincidence, -1.

    A label's cells are its label cells, on every sequence. A join's cells
    are its parent's cells whose window also holds the new label, one bit
    test on that label's mask word, since a larger label set fits no window
    the smaller one misses (SPADE's id-list join, Zaki 2001). A chunk tests
    at most `BATCH_CELLS` cells.
    """
    enc = ctx.enc
    if parent < 0:
        start = enc.label_cell_start
        for lo, hi in _chunks(np.diff(start)):
            entry = np.repeat(np.arange(hi - lo), np.diff(start[lo : hi + 1]))
            yield lo, hi, entry, enc.label_cells[start[lo] : start[hi]]
        return
    cells = ctx.vocab_cells[ctx.entry_start[parent] : ctx.entry_start[parent + 1]]
    held = by_window(enc.masks).reshape(-1, enc.words)[cells].T  # [words, cells]
    bit = np.left_shift(np.uint64(1), (joins & 63).astype(np.uint64))
    for lo, hi in _chunks(np.full(joins.size, cells.size)):
        entry, k = np.nonzero(held[joins[lo:hi] >> 6] & bit[lo:hi, None])
        yield lo, hi, entry, cells[k]


def _price(ctx: _Context, stats: MiningStats, putils, entry, cells):
    """The survivors of a chunk of vocabulary candidates, priced from their
    cells: candidate i fits `cells[entry == i]`, by sequence, then window,
    and a cell's sequence is cell % n. Its best match in a sequence is its
    mass `putils[i]` times its longest window there, the kernel's running
    maximum from the empty prefix bit for bit, as rounding is monotone for
    a nonnegative mass. Returns the survivors' positions and their columns:
    umax, full and rest [k, 3], cell counts and cells.
    """
    sequence = cells % ctx.enc.n_sequences
    head = _heads(entry, sequence)
    longest = np.maximum.reduceat(by_window(ctx.enc.durations).reshape(-1)[cells], head)
    # one hit per run, sorted by (candidate, sequence)
    candidate = entry[head]
    umax, full, rest = _masses(ctx, candidate, sequence[head], putils[candidate] * longest,
                               len(putils), 1)
    counts = np.bincount(entry, minlength=len(putils))
    # a coincidence that can still gain labels has no match value to
    # project from, so only the weighted part holds
    keep = _survivors(ctx, stats, counts > 0, math.inf, full, rest)
    alive = np.zeros(len(putils), dtype=bool)
    alive[keep] = True
    return keep, (np.stack((umax, full, rest), axis=1)[keep], counts[keep], cells[alive[entry]])


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
    # a label's bit is its index in enc.labels
    bits = np.arange(len(enc.labels))
    # the columns so far, then the chunks priced since: putils, bounds, cell
    # counts and cells
    parts = [(enc.label_utility[:0], np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
              enc.label_cells[:0])]
    last: list[int] = []  # each entry's last label
    # level 0 is the empty coincidence, which occurs everywhere
    level, size = [-1], 0
    while level and size < ctx.cfg.max_size:
        size += 1
        first = len(ctx.vocab)
        for v in level:
            if v < 0:
                coincidence, putil, joins = Coincidence(), 0.0, bits
            else:
                coincidence, putil = ctx.vocab[v], ctx.vocab_putils[v]
                joins = bits[bits > last[v]]
            stats.candidates_generated += joins.size
            # a child's utility mass adds its label utilities in ascending
            # label order
            putils = putil + enc.label_utility[joins]
            for lo, hi, *cells in _candidate_cells(ctx, v, joins):
                keep, columns = _price(ctx, stats, putils[lo:hi], *cells)
                keep = [lo + i for i in keep]
                ctx.vocab.extend(coincidence.union(enc.labels[joins[i]]) for i in keep)
                last.extend(joins[keep].tolist())
                parts.append((putils[keep], *columns))
        parts = [tuple(np.concatenate(column) for column in zip(*parts))]
        ctx.vocab_putils, bounds, counts, ctx.vocab_cells = parts[0]
        ctx.vocab_bounds = bounds.T
        ctx.entry_start = np.concatenate(([0], np.cumsum(counts)))
        level = range(first, len(ctx.vocab))
        # only labels that survived alone can be part of a survivor
        if size == 1:
            bits = np.array(last, dtype=np.int64)


def _grow(
    ctx: _Context, prefix: list[Coincidence], children: list, out: list[Pattern], stats: MiningStats
) -> None:
    """Emit and grow, depth-first, each child of the pattern `prefix`.

    `children` are the extensions of the prefix that survived, in
    vocabulary order: (vocabulary index, the sequences the child occurs
    in, its score rows on them, umax); rows and scores are None at the
    length cap, and for a root, whose rows are read off its cells when it
    is grown. A child is emitted when its umax meets the threshold. Below
    the length cap it is then scored extended by every coincidence of
    `children`, on its own rows only (`_children`), and the survivors are
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
                rows, scores = _scores(ctx, index)
            # the survivors are bound to no local here, so a finished
            # sibling's survivors do not stay alive below
            _grow(ctx, prefix, _children(ctx, stats, rows, scores, inherited, len(prefix) + 1),
                  out, stats)
        prefix.pop()


def _children(ctx: _Context, stats: MiningStats, rows, scores, candidates, length: int) -> list:
    """The survivors of a prefix with score rows `scores` on the sequences
    `rows` extended by each vocabulary entry `candidates` to `length`
    coincidences, as `_grow` takes them. Below the length cap, each comes
    with its rows, the sequences of its hits, and its score rows there: a
    block of columns of one `[cap, R]` batch that `_rows` builds for all
    of them from the evaluation's cell values."""
    stats.candidates_generated += candidates.size
    candidate, run, best, values = _extend(ctx, rows, scores, candidates)
    umax, full, rest = _masses(ctx, candidate, ctx.run_rows[run], best, candidates.size, length)
    hits = np.bincount(candidate, minlength=candidates.size)
    keep = _survivors(ctx, stats, hits > 0, umax, full, rest)
    if length == ctx.cfg.max_length:
        return [(candidates[i], None, None, float(umax[i])) for i in keep]
    grown = np.zeros(candidates.size, dtype=bool)
    grown[keep] = True
    run = run[grown[candidate]]
    batch = _rows(ctx, run, values)
    ends = np.cumsum(hits[keep]).tolist()
    return [
        (candidates[i], ctx.run_rows[run[lo:hi]], by_window(batch[:, lo:hi]), float(umax[i]))
        for i, lo, hi in zip(keep, [0, *ends], ends)
    ]


def _mine_root(ctx: _Context, out: list[Pattern], stats: MiningStats) -> None:
    """Grow every pattern from the empty prefix (phase 2).

    Its children, the roots, are the vocabulary coincidences, bounded in
    phase 1. The roots whose own bound clears the threshold are grown like
    any other child, and each inherits only them. Phase 1 keeps no score
    rows: a root's are read off its cells when it is grown (`_scores`).
    Growth's columns are built first (`_layout`), once the vocabulary's
    temporaries are gone.
    """
    if ctx.cfg.max_length > 1:
        _layout(ctx)
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
