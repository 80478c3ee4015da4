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
or its parent's cells that hold the new label. A level's candidates are
priced in chunks that can span many parents (`_candidate_cells`): `_price`
splits their cells into runs, one per sequence, and reads its best match
there off each run. The vocabulary keeps those runs, split once, as a
`_Projection` whose candidate v is entry v, with no masks or score rows.

Phase 2 grows patterns depth-first by appending whole vocabulary
coincidences, starting from the empty prefix, whose children, the roots,
phase 1 bounded. A prefix carries only the sequences it occurs in and its
score rows on them, and a child tries only the coincidences that survived
beside it (see `_grow`). The roots' runs are the vocabulary's, or their
projection when a root's own bound prunes an entry (`_layout`). Every
prefix, at every depth, scores its candidates from a projection of them,
the runs of its candidates it can still match (`_extend`): a gather, an
add and one maximum per run, whose result is sparse, one hit (candidate,
sequence, best value) per run that matched (SPADE's id-list join, Zaki
2001, carried to utilities as HUS-Span's utility chains do, Wang, Huang &
Chen 2016). The roots score from the roots' runs themselves. An
evaluation hands its children the runs of its grown survivors' hits,
whole (`_project`): the prefix + x + c can match
only where the prefix + c did, as in PrefixSpan's projected database (Pei
et al. 2001). The survivors that will be grown read their score rows off
the same evaluation's cell values, all in one batch (`_rows`), and the
roots read theirs off their cells, one batch per chunk of roots
(`_mine_root`). Both give the dense kernel's values
(`kernels.extend_scores`) bit for bit; the miner never calls it.

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

import bisect
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


class _Projection(NamedTuple):
    """The runs of a set of candidates, as columns: run i holds the cells
    `cells[cell_start[i]:cell_start[i + 1]]`, by window, of candidate
    `run_candidate[i]`, a position among the candidates, in sequence
    `run_rows[i]`. Each cell has its run and its value, its candidate's
    putil times its window's duration. Runs are sorted by (candidate,
    sequence) and kept whole. The vocabulary is one, entry v being
    candidate v (`_price`), and growth scores from projections of it."""

    cells: np.ndarray         # int32 [cells], window-major cell ids j * n + s
    values: np.ndarray        # float64 [cells], putil * duration
    cell_run: np.ndarray      # int32 [cells]
    cell_start: np.ndarray    # int64 [runs + 1]
    run_rows: np.ndarray      # int64 [runs]
    run_candidate: np.ndarray  # int32 [runs]


@dataclass
class _Context:
    """A mining run's inputs, its vocabulary, and the runs growth scores
    from.

    Entry v of the vocabulary, in mining order, is the coincidence
    `vocab[v]`, and candidate v of `runs`: its cells are the window-major
    ids `j * n + s` of the windows that hold its whole mask, one run per
    sequence it occurs in, ascending (`_price`). When patterns can be
    longer than one coincidence, growth keeps only the roots' runs there,
    root i being candidate i, with the buffer it scores from (`_layout`).
    Each growth evaluation below the roots reads only a projection of
    them, the runs its candidates can still match (`_project`).
    """

    enc: EncodedDataset
    cfg: MiningConfig
    xi_abs: float
    vocab: list[Coincidence] = field(default_factory=list)
    vocab_putils: np.ndarray | None = None  # float64 [V]
    vocab_bounds: np.ndarray | None = None  # float64 [3, V]: umax, full and rest
    runs: _Projection | None = None         # the vocabulary's, then the roots'
    before: np.ndarray | None = None        # float64 [cap * n], -inf between evaluations


# Largest count of cells that one chunk of vocabulary candidates tests, and
# of score slots in one batch of the roots' score rows: their float64
# temporaries stay at 0.5 MB each. A candidate or a root over that is
# priced or batched alone.
BATCH_CELLS = 2**16


def _run_ids(marks):
    """int32 running count of `marks`, less one: each cell's run, given the
    marks of the cells that start one, or each marked item's position
    among the marked ones."""
    ids = np.cumsum(marks, dtype=np.int32)
    ids -= 1
    return ids


def _offsets(lengths):
    """(cell_run, cell_start) of runs of `lengths` cells each, laid end to
    end: each cell's int32 run and int64 offsets [runs + 1]."""
    cell_start = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=cell_start[1:])
    new = np.zeros(cell_start[-1], dtype=bool)
    new[cell_start[:-1]] = True
    return _run_ids(new), cell_start


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


def _layout(ctx: _Context, roots) -> None:
    """Keep in `ctx.runs` only the runs of the root vocabulary entries
    `roots`, ascending, root i being candidate i: the vocabulary's own when
    every entry is a root. Also the buffer `_extend` reads a prefix's
    scores from, all -inf."""
    ctx.before = np.full(ctx.enc.capacity * ctx.enc.n_sequences, -np.inf)
    if len(roots) < len(ctx.vocab):
        kept = np.zeros(len(ctx.vocab), dtype=bool)
        kept[roots] = True
        ctx.runs = _project(ctx.runs, kept, np.flatnonzero(kept[ctx.runs.run_candidate]))[0]


def _project(source: _Projection, kept, runs):
    """The projection of `source` on its runs `runs`, ascending, all of
    candidates that the mask `kept` marks: those runs, whole, each one's
    candidate renumbered among the kept ones. Returns it with the position
    in `source` of each of its cells."""
    start = source.cell_start
    cell_run, cell_start = _offsets(start[runs + 1] - start[runs])
    at = (start[runs] - cell_start[:-1])[cell_run] + np.arange(cell_start[-1])
    candidate = _run_ids(kept)[source.run_candidate[runs]]
    return _Projection(source.cells[at], source.values[at], cell_run, cell_start,
                       source.run_rows[runs], candidate), at


def _extend(ctx: _Context, projection: _Projection, rows, scores):
    """The prefix with window-major score rows `scores` on the sequences
    `rows` extended by each candidate of `projection`, scored from its
    cells: the hits, (candidate position, run, best value) of each run
    that matched, sorted by (candidate, sequence), and every cell's value,
    which `_rows` reads a grown child's score rows from.

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
    values = ctx.before.take(projection.cells)
    before[1:, rows] = -np.inf
    values += projection.values
    best = np.full(projection.run_rows.size, -np.inf)
    np.maximum.at(best, projection.cell_run, values)
    run = np.flatnonzero(best > -np.inf)
    return projection.run_candidate[run], run, best[run], values


def _rows(ctx: _Context, cells, column, values, width: int):
    """Window-major score rows [cap, width] with the `values` of the
    `cells` in their `column`, -inf elsewhere, then a running maximum, the
    kernel's bit for bit."""
    scores = np.full((ctx.enc.capacity, width), -np.inf)
    scores[cells // ctx.enc.n_sequences, column] = values
    for j in range(1, ctx.enc.capacity):
        np.maximum(scores[j], scores[j - 1], out=scores[j])
    return scores


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


def _candidate_cells(ctx: _Context, parent, label):
    """(lo, hi, entry, cells) for `_price`, per chunk lo:hi of a level's
    candidates, candidate i adding the label `label[i]` to the vocabulary
    entry `parent[i]`, ascending, or on level 1 to the empty coincidence,
    -1.

    A label's cells are its label cells, on every sequence. A join's cells
    are its parent's cells whose window also holds the new label, one bit
    test on that label's mask word, since a larger label set fits no window
    the smaller one misses (SPADE's id-list join, Zaki 2001). A candidate
    costs the cells it tests, its label's or its parent's, and a chunk
    tests at most `BATCH_CELLS` cells, or one candidate alone, so it can
    span many parents. A level's parents are consecutive entries, so a
    chunk's cells to test are one slice, and their mask words one gather.
    """
    enc = ctx.enc
    level_1 = (parent < 0).all()
    if level_1:
        # every label, in order, so their cells lie in order too
        source, bounds = enc.label_cells, enc.label_cell_start[np.stack((label, label + 1))]
    else:
        # an entry's runs lie together, entries in order
        source = ctx.runs.cells
        bounds = ctx.runs.cell_start[np.searchsorted(ctx.runs.run_candidate, (parent, parent + 1))]
    start, stop = bounds
    costs = stop - start
    windows = by_window(enc.masks).reshape(-1, enc.words)
    word, bit = label >> 6, np.left_shift(np.uint64(1), (label & 63).astype(np.uint64))
    heads = np.flatnonzero(np.diff(parent, prepend=-2)).tolist()  # each parent's first join
    end = 0  # `held` holds the mask words of the cells source[begin:end]
    for lo, hi in _chunks(costs):
        if level_1:
            entry = np.repeat(np.arange(hi - lo), costs[lo:hi])
            yield lo, hi, entry, source[start[lo] : stop[hi - 1]]
            continue
        # a parent whose joins fill many chunks is gathered once
        if stop[hi - 1] > end:
            begin, end = start[lo], stop[hi - 1]
            held = windows[source[begin:end]].T  # [words, cells]
        cuts = [lo, *heads[bisect.bisect_right(heads, lo) : bisect.bisect_left(heads, hi)], hi]
        entries, at = [], []
        for a, b in zip(cuts, cuts[1:]):
            # joins a:b share their parent, whose cells sit at `first` in
            # the gathered ones
            first = start[a] - begin
            entry, k = np.nonzero(held[word[a:b], first : first + costs[a]] & bit[a:b, None])
            entries.append(entry + (a - lo))
            at.append(k + first)
        yield lo, hi, np.concatenate(entries), source[begin:end][np.concatenate(at)]


def _price(ctx: _Context, stats: MiningStats, putils, entry, cells):
    """The survivors of a chunk of vocabulary candidates, priced from their
    runs: candidate i fits `cells[entry == i]`, by sequence, then window,
    and its cells in one sequence, cell % n, are one run. A cell's value is
    the mass `putils[i]` times its window's duration, and a run's best
    match its largest value: the kernel's product and running maximum from
    the empty prefix, bit for bit. Returns the survivors' positions and
    their columns: umax, full and rest [k, 3], cells, cell values, their
    runs' cell counts and sequences, and each survivor's count of runs.
    """
    sequence = cells % ctx.enc.n_sequences
    new = np.ones(entry.size, dtype=bool)
    new[1:] = (entry[1:] != entry[:-1]) | (sequence[1:] != sequence[:-1])
    head = np.flatnonzero(new)
    values = by_window(ctx.enc.durations).reshape(-1)[cells]
    values *= putils[entry]
    run = _run_ids(new)
    best = np.full(head.size, -np.inf)
    np.maximum.at(best, run, values)
    # one hit per run, sorted by (candidate, sequence)
    candidate, rows = entry[head], sequence[head].astype(np.int64)
    umax, full, rest = _masses(ctx, candidate, rows, best, len(putils), 1)
    runs = np.bincount(candidate, minlength=len(putils))
    # a coincidence that can still gain labels has no match value to
    # project from, so only the weighted part holds
    keep = _survivors(ctx, stats, runs > 0, math.inf, full, rest)
    alive = np.zeros(len(putils), dtype=bool)
    alive[keep] = True
    at, kept = alive[entry], alive[candidate]
    return keep, (np.stack((umax, full, rest), axis=1)[keep], cells[at], values[at],
                  np.bincount(run)[kept], rows[kept], runs[keep])


def _build_vocabulary(ctx: _Context, stats: MiningStats) -> None:
    """Level-wise promising coincidence generation (phase 1).

    Each level adds one label, taken above the last one, to the previous
    level's survivors in order, starting from the empty coincidence, so the
    vocabulary comes out ordered by size, then by labels. A level's
    candidates are laid out as columns, parent entry, added label and
    utility mass, and priced from their cells in chunks that can span
    parents (`_candidate_cells`, `_price`), so the phase runs no kernel,
    and each level ends with the vocabulary's runs so far in `ctx.runs`.
    Candidates that never occur in a single window are dead ends for every
    strategy and are dropped too.
    """
    enc = ctx.enc
    # a label's bit is its index in enc.labels
    bits = np.arange(len(enc.labels))
    # the columns so far, then the chunks priced since: putils, bounds,
    # cells, cell values, run cell counts and sequences, and run counts
    none = np.zeros(0, dtype=np.int64)
    parts = [(enc.label_utility[:0], np.zeros((0, 3)), enc.label_cells[:0], np.zeros(0), none,
              none, none)]
    last: list[int] = []  # each entry's last label
    # level 0 is the empty coincidence, entry -1, which occurs everywhere
    # and whose labels end below every label
    level, tops, size = [-1], [-1], 0
    while level and size < ctx.cfg.max_size:
        size += 1
        first = len(ctx.vocab)
        # each entry of the level joins the labels above its last one
        cut = np.searchsorted(bits, tops, "right")
        parent = np.repeat(level, bits.size - cut)
        label = np.concatenate([bits[i:] for i in cut.tolist()])
        stats.candidates_generated += label.size
        # a child's utility mass adds its label utilities in ascending
        # label order
        putils = (ctx.vocab_putils[parent] if size > 1 else 0.0) + enc.label_utility[label]
        for lo, hi, *cells in _candidate_cells(ctx, parent, label):
            keep, columns = _price(ctx, stats, putils[lo:hi], *cells)
            keep = [lo + i for i in keep]
            ctx.vocab.extend(
                (ctx.vocab[v] if v >= 0 else Coincidence()).union(enc.labels[b])
                for v, b in zip(parent[keep].tolist(), label[keep].tolist())
            )
            last.extend(label[keep].tolist())
            parts.append((putils[keep], *columns))
        parts = [tuple(np.concatenate(column) for column in zip(*parts))]
        ctx.vocab_putils, bounds, cells, values, lengths, run_rows, runs = parts[0]
        ctx.vocab_bounds = bounds.T
        entry = np.repeat(np.arange(len(ctx.vocab), dtype=np.int32), runs)
        ctx.runs = _Projection(cells, values, *_offsets(lengths), run_rows, entry)
        level, tops = range(first, len(ctx.vocab)), last[first:]
        # only labels that survived alone can be part of a survivor
        if size == 1:
            bits = np.array(last, dtype=np.int64)


def _grow(ctx: _Context, prefix: list[Coincidence], children: list, inherited,
          projection: _Projection | None, out: list[Pattern], stats: MiningStats) -> None:
    """Emit and grow, depth-first, each child of the pattern `prefix`.

    `children` are extensions of the prefix that survived, in vocabulary
    order: (vocabulary index, the sequences the child occurs in, its score
    rows on them, umax); rows and scores are None at the length cap.
    `inherited` are the vocabulary indices of all of the prefix's surviving
    extensions, of which `children` may be a chunk (`_mine_root`). A child
    is emitted when its umax meets the threshold. Below the length cap it
    is then scored extended by every coincidence of `inherited`, on its own
    rows only, from `projection`, their runs that the prefix's evaluation
    hit (`_children`), and the survivors are grown in turn. A pattern grown
    from prefix+x that appends c is a supersequence of prefix+c, so it
    occurs in no sequence prefix+c misses, and the weighted bound only
    shrinks with the set of sequences it sums over. Under `pdc` prefix+c's
    own bound covers it too: each of the at most K - |prefix+c|
    coincidences such a pattern has beyond prefix+c matches its own window,
    worth at most that window's eventset mass. So a coincidence pruned
    beside a child is never appended below it, at the roots as at any
    depth, and its runs in the sequences prefix+c missed are never read.
    """
    for index, rows, scores, umax in children:
        prefix.append(ctx.vocab[index])
        if umax >= ctx.xi_abs:
            out.append(Pattern(LSequence(tuple(prefix)), umax))
        if len(prefix) < ctx.cfg.max_length:
            # the survivors and their projection are bound to no local
            # here, so a finished sibling's do not stay alive below
            _grow(ctx, prefix,
                  *_children(ctx, stats, projection, rows, scores, inherited, len(prefix) + 1),
                  out, stats)
        prefix.pop()


def _children(ctx: _Context, stats: MiningStats, projection: _Projection, rows, scores,
              candidates, length: int):
    """The survivors of a prefix with score rows `scores` on the sequences
    `rows` extended by each vocabulary entry `candidates` to `length`
    coincidences, scored from `projection`, their runs, as `_grow` takes
    them: the children, their vocabulary indices, and the projection their
    own children score from.

    Below the length cap, each comes with its rows, the sequences of its
    hits, and its score rows there: a block of columns of one `[cap, R]`
    batch, read off the evaluation's cell values for all of them. The
    projection holds the runs of those hits, whole, in the same order, so
    its run ids are the batch's columns (`_rows`). A child of the prefix's
    child x that appends c can only match where the prefix + c did, so no
    run it hits is left out. At the length cap there is no projection.
    """
    stats.candidates_generated += candidates.size
    candidate, run, best, values = _extend(ctx, projection, rows, scores)
    umax, full, rest = _masses(ctx, candidate, projection.run_rows[run], best, candidates.size,
                               length)
    hits = np.bincount(candidate, minlength=candidates.size)
    keep = _survivors(ctx, stats, hits > 0, umax, full, rest)
    if length == ctx.cfg.max_length:
        return [(candidates[i], None, None, float(umax[i])) for i in keep], None, None
    grown = np.zeros(candidates.size, dtype=bool)
    grown[keep] = True
    child, at = _project(projection, grown, run[grown[candidate]])
    batch = _rows(ctx, child.cells, child.cell_run, values[at], child.run_rows.size)
    ends = np.cumsum(hits[keep]).tolist()
    return [
        (candidates[i], child.run_rows[lo:hi], by_window(batch[:, lo:hi]), float(umax[i]))
        for i, lo, hi in zip(keep, [0, *ends], ends)
    ], candidates[grown], child


def _mine_root(ctx: _Context, out: list[Pattern], stats: MiningStats) -> None:
    """Grow every pattern from the empty prefix (phase 2).

    Its children, the roots, are the vocabulary coincidences, bounded in
    phase 1. The roots whose own bound clears the threshold are grown like
    any other child, and each inherits only them, scored from the roots'
    runs (`_layout`). Phase 1 keeps no score rows: the roots' are read off
    their runs, the empty prefix scoring 0.0 before every window, which
    changes no value. One `[cap, R]` batch (`_rows`) holds the rows of a
    chunk of consecutive roots that fits `BATCH_CELLS` score slots, or of
    one root alone, and each root takes its block of columns, as a grown
    child does; a chunk's batch lives while its roots grow.
    """
    umax, full, rest = ctx.vocab_bounds
    roots = _survivors(ctx, stats, np.ones(umax.size, dtype=bool), umax, full, rest)
    if ctx.cfg.max_length == 1:
        _grow(ctx, [], [(i, None, None, float(umax[i])) for i in roots], None, None, out, stats)
        return
    _layout(ctx, roots)
    runs = ctx.runs
    # root i's runs are ends[i]:ends[i + 1], and its columns in a batch
    ends = np.searchsorted(runs.run_candidate, np.arange(len(roots) + 1)).tolist()
    inherited = np.array(roots, dtype=np.intp)
    for lo, hi in _chunks(ctx.enc.capacity * np.diff(ends)):
        first, last = ends[lo], ends[hi]
        cells = slice(runs.cell_start[first], runs.cell_start[last])
        batch = _rows(ctx, runs.cells[cells], runs.cell_run[cells] - first, runs.values[cells],
                      last - first)
        children = [
            (roots[i], runs.run_rows[a:b], by_window(batch[:, a - first : b - first]),
             float(umax[roots[i]]))
            for i, a, b in zip(range(lo, hi), ends[lo:hi], ends[lo + 1 : hi + 1])
        ]
        _grow(ctx, [], children, inherited, runs, out, stats)


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
