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
fails both tests too (the Apriori property). Phase 2 grows
patterns depth-first by appending whole vocabulary coincidences. A prefix
carries only the sequences it occurs in and its score rows on them, so the
kernel never scans a sequence the prefix misses, and a child tries only the
coincidences that survived after its parent (see `_grow`).

Every bound is one formula, `_bound`, over three numbers that come with a
candidate's scores: its umax, its weighted bound `full` (the top-K
eventset mass of the sequences it occurs in) and `rest` (their top-(K -
length) mass). One `weighted_utilization` call sums both for a whole
kernel batch. The projected strategy tightens pruning: each prefix carries
the minimum of its own projected bound and every ancestor's, which keeps
the pruning value non-increasing along an extension chain and never above
the weighted bound. The strategy changes what gets pruned, never what gets
emitted. A candidate is pruned only when its bound falls short of the
threshold by more than a relative float slack (`PRUNE_SLACK`), while
emission compares a pattern's utility with the threshold exactly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import (
    EncodedDataset,
    empty_prefix_scores,
    encode_dataset,
    summarize_scores,
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


def _promising(ctx: _Context, bound: float) -> bool:
    """Whether a bound keeps its candidate's subtree from being pruned."""
    return bound >= ctx.xi_abs * (1.0 - PRUNE_SLACK)


@dataclass(frozen=True)
class _Candidate:
    """A vocabulary coincidence evaluated as a one-coincidence pattern.

    `rows` are the sequences it occurs in and `scores` its score rows on
    those sequences only; `umax`, `full` and `rest` are the inputs of
    `_bound`, the same for both bounding strategies.
    """

    coincidence: Coincidence
    mask: np.ndarray
    putil: float
    rows: np.ndarray
    scores: np.ndarray
    umax: float
    full: float
    rest: float


@dataclass
class _Context:
    """A mining run's inputs and its vocabulary: the candidates in mining
    order, and their masks [V, words] and utility masses [V] stacked, so
    that a batch of candidates is one index gather."""

    enc: EncodedDataset
    cfg: MiningConfig
    xi_abs: float
    vocab: list[_Candidate] = field(default_factory=list)
    vocab_masks: np.ndarray | None = None
    vocab_putils: np.ndarray | None = None


def _project(enc: EncodedDataset, rows: np.ndarray):
    """The kernel's inputs restricted to the ascending sequence indices
    `rows`; the arrays themselves when that is every sequence."""
    if rows.size == enc.n_sequences:
        return enc.masks, enc.durations, enc.lengths
    return enc.masks[rows], enc.durations[rows], enc.lengths[rows]


# Largest (candidate, sequence, window) cell count of one kernel call: the
# kernel's float64 temporaries stay at 0.5 MB each. A prefix whose rows
# alone reach it is scored one candidate per call.
BATCH_CELLS = 2**16


def _evaluate(ctx: _Context, rows, prev_scores, prev_base, masks, putils, length: int):
    """For each candidate, in order, (matched rows, their score rows, umax,
    full, rest) of the prefix extended by it, given the candidates' `masks`
    [C, words] and `putils` [C] and the prefix's score rows on the sequences
    `rows`. `length` is the extended pattern's length; `full` and `rest`
    are its top-K and top-(K - length) eventset mass over the matched rows.

    The candidates are scored in batches of at most `BATCH_CELLS` cells,
    and each batch's masses are one `weighted_utilization` call.
    umax adds the per-sequence values left to right, as the oracle does.
    A pairwise sum (`ndarray.sum`) groups fractional values differently,
    can land an ulp off, and then flips a pattern whose value is exactly
    the threshold.
    """
    arrays = _project(ctx.enc, rows)
    # `none` never bounds, so it sums nothing: full and rest read 0
    k = 0 if ctx.cfg.strategy is UpperBound.NONE else ctx.cfg.max_length
    budgets = (k, k - length)
    step = max(1, BATCH_CELLS // max(1, prev_scores.size))
    for lo in range(0, len(masks), step):
        scores = extend_scores(
            *arrays, prev_scores, prev_base, masks[lo : lo + step], putils[lo : lo + step]
        )
        matched, best = summarize_scores(scores)
        umax = np.cumsum(best, axis=1)[:, -1] if best.shape[1] else np.zeros(len(best))
        full, rest = weighted_utilization(ctx.enc, rows, matched, budgets).tolist()
        for hit, cand_scores, cand_umax, cand_full, cand_rest in zip(
            matched, scores, umax.tolist(), full, rest
        ):
            yield rows[hit], cand_scores[hit], cand_umax, cand_full, cand_rest


def _bound(ctx: _Context, umax: float, full: float, rest: float) -> float:
    """Upper bound on a pattern and on every pattern grown from it by
    appending coincidences, given its `_evaluate` values.

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
    return min(umax + rest, full)


def _build_vocabulary(ctx: _Context, stats: MiningStats) -> None:
    """Level-wise promising coincidence generation (phase 1).

    Each level adds one label, taken above the last one, to the previous
    level's survivors, starting from the empty coincidence. All joins of a
    survivor are scored together, and only on the sequences the survivor
    occurs in, since a larger label set fits no window the smaller one
    misses. Candidates that never occur in a single window are dead ends
    for every strategy and are dropped alongside the unpromising ones.
    """
    enc = ctx.enc
    # the empty prefix scores 0 everywhere, so any leading block of its
    # rows stands for it on any set of sequences
    base = empty_prefix_scores(enc)
    # the mask of each label alone; a label's bit is its index in enc.labels
    bits = np.arange(len(enc.labels))
    label_masks = np.zeros((bits.size, enc.words), dtype=np.uint64)
    label_masks[bits, bits >> 6] = np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
    # level 0 is the empty coincidence, which occurs everywhere
    empty = np.zeros(enc.words, dtype=np.uint64)
    everywhere = np.arange(enc.n_sequences)
    level = [_Candidate(Coincidence(), empty, 0.0, everywhere, base, 0.0, math.inf, math.inf)]
    while level and len(level[0].coincidence) < ctx.cfg.max_size:
        survivors: list[_Candidate] = []
        for c in level:
            labels = c.coincidence.labels
            joins = bits[bits > enc.label_bit[labels[-1]]] if labels else bits
            stats.candidates_generated += joins.size
            # a child's utility mass adds its label utilities in ascending
            # label order
            masks, putils = c.mask | label_masks[joins], c.putil + enc.label_utility[joins]
            evaluated = _evaluate(ctx, c.rows, base[: c.rows.size], 0.0, masks, putils, 1)
            for bit, mask, putil, values in zip(joins, masks, putils, evaluated):
                rows, _, _, full, rest = values
                # a coincidence that can still gain labels has no match
                # value to project from, so only the weighted part holds
                if rows.size and _promising(ctx, _bound(ctx, math.inf, full, rest)):
                    child = c.coincidence.union(enc.labels[bit])
                    survivors.append(_Candidate(child, mask, float(putil), *values))
                else:
                    stats.candidates_pruned += 1
        ctx.vocab.extend(survivors)
        level = survivors
        # only labels that survived alone can be part of a survivor
        bits = np.array(
            [enc.label_bit[v.coincidence.labels[0]] for v in ctx.vocab if len(v.coincidence) == 1],
            dtype=np.int64,
        )

    ctx.vocab.sort(key=lambda v: (len(v.coincidence), v.coincidence.labels))
    ctx.vocab_masks = np.array([v.mask for v in ctx.vocab], dtype=np.uint64).reshape(-1, enc.words)
    ctx.vocab_putils = np.array([v.putil for v in ctx.vocab], dtype=np.float64)


NEG_INF = float("-inf")


def _visit(
    ctx: _Context,
    prefix: list[Coincidence],
    rows: np.ndarray,
    scores: np.ndarray,
    umax: float,
    bound: float,
    cands: np.ndarray,
    out: list[Pattern],
    stats: MiningStats,
) -> None:
    """Emit and grow the pattern `prefix`, which survived its bound.

    The prefix occurs in the sequences `rows`, with score rows `scores` on
    them. `bound` is the tightest bound along its extension chain: a bound
    established for a prefix also covers everything grown from it, so the
    effective bound can only decrease down the tree. `cands` are the
    vocabulary indices of the coincidences worth appending.
    """
    if umax >= ctx.xi_abs:
        out.append(Pattern(LSequence(tuple(prefix)), umax))
    if len(prefix) < ctx.cfg.max_length:
        _grow(ctx, prefix, rows, scores, bound, cands, out, stats)


def _grow(
    ctx: _Context,
    prefix: list[Coincidence],
    rows: np.ndarray,
    prefix_scores: np.ndarray,
    limit: float,
    cands: np.ndarray,
    out: list[Pattern],
    stats: MiningStats,
) -> None:
    """Extend the prefix by each candidate, then grow the surviving
    children depth-first.

    The kernel scores all candidates together, on the sequences the prefix
    occurs in only. A child survives when it occurred and its own bound
    clears the threshold; `limit`, the prefix's bound, already does. The
    survivors are also the list every child inherits. A pattern grown from
    prefix+x that appends c is a supersequence of prefix+c, so it occurs in
    no sequence prefix+c misses, and the weighted bound only shrinks with
    the set of sequences it sums over. Under `pdc` prefix+c's own bound
    covers it too: each of the at most K - |prefix+c| coincidences such a
    pattern has beyond prefix+c matches its own window, worth at most that
    window's eventset mass.
    """
    stats.candidates_generated += cands.size
    evaluated = _evaluate(
        ctx, rows, prefix_scores, NEG_INF,
        ctx.vocab_masks[cands], ctx.vocab_putils[cands], len(prefix) + 1,
    )
    children = []
    for index, (child_rows, scores, umax, full, rest) in zip(cands.tolist(), evaluated):
        if child_rows.size and _promising(ctx, bound := _bound(ctx, umax, full, rest)):
            children.append((index, child_rows, scores, umax, min(limit, bound)))
        else:
            stats.candidates_pruned += 1
    inherited = np.array([child[0] for child in children], dtype=np.intp)
    for index, child_rows, scores, umax, bound in children:
        prefix.append(ctx.vocab[index].coincidence)
        _visit(ctx, prefix, child_rows, scores, umax, bound, inherited, out, stats)
        prefix.pop()


def _mine_root(ctx: _Context, root: _Candidate, out: list[Pattern], stats: MiningStats) -> None:
    bound = _bound(ctx, root.umax, root.full, root.rest)
    if _promising(ctx, bound):
        _visit(ctx, [root.coincidence], root.rows, root.scores, root.umax, bound,
               np.arange(len(ctx.vocab)), out, stats)
    else:
        stats.candidates_pruned += 1


def _vocabulary_key(ctx: _Context) -> tuple:
    """What the vocabulary phase depends on. `ldc` and `pdc` both filter
    with the weighted bound, so they share a key; `none` filters nothing
    but dead ends. The encoding is named by identity, and a cached context
    keeps it alive, so the id cannot be reused while the key is cached."""
    cfg = ctx.cfg
    weighted = cfg.strategy is not UpperBound.NONE
    return (id(ctx.enc), weighted, cfg.max_size, cfg.max_length, ctx.xi_abs)


def mine(
    data: EncodedDataset | CSequenceDataset,
    cfg: MiningConfig,
    vocabularies: dict | None = None,
) -> tuple[list[Pattern], MiningStats]:
    """All patterns within the length/size caps whose utility meets xi.

    `data` is an encoding, or a windowed dataset to encode first. The
    emitted set is identical for every strategy; bounds only control how
    much of the candidate space is visited.

    `vocabularies` is an optional cache shared by calls on one encoding: a
    call reuses the vocabulary an earlier call built for the same key (see
    `_vocabulary_key`) and stores the one it builds. The stats, elapsed
    time included, still count the vocabulary phase, so they read the same
    whether or not it was shared.
    """
    start = time.perf_counter()
    enc = data if isinstance(data, EncodedDataset) else encode_dataset(data)
    ctx = _Context(enc=enc, cfg=cfg, xi_abs=resolve_threshold(cfg, enc))
    key = _vocabulary_key(ctx)
    shared = vocabularies.get(key) if vocabularies is not None else None
    if shared is None:
        vocab_start = time.perf_counter()
        phase1 = MiningStats()
        _build_vocabulary(ctx, phase1)
        phase1.elapsed_ms = (time.perf_counter() - vocab_start) * 1000.0
        if vocabularies is not None:
            vocabularies[key] = (ctx, phase1)
        reused_ms = 0.0
    else:
        built, phase1 = shared
        ctx = replace(built, cfg=cfg)
        reused_ms = phase1.elapsed_ms
    stats = MiningStats(
        candidates_generated=phase1.candidates_generated,
        candidates_pruned=phase1.candidates_pruned,
    )

    patterns: list[Pattern] = []
    for root in ctx.vocab:
        _mine_root(ctx, root, patterns, stats)

    patterns.sort(key=lambda p: lsequence_sort_key(p.lsequence))
    stats.patterns_found = len(patterns)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0 + reused_ms
    return patterns, stats
