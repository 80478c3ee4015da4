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
patterns depth-first by appending whole vocabulary coincidences. There the
projected strategy tightens pruning: each prefix carries the minimum of
its own projected bound and every ancestor's, which keeps the pruning
value non-increasing along an extension chain and never above the
weighted bound. The strategy changes what gets pruned, never what gets
emitted. A candidate is pruned only when its bound falls short of the
threshold by more than a relative float slack (`PRUNE_SLACK`), while
emission compares a pattern's utility with the threshold exactly.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import utility
from .encoding import (
    EncodedDataset,
    empty_prefix_scores,
    encode_coincidence,
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

    def merge(self, other: "MiningStats") -> None:
        self.candidates_generated += other.candidates_generated
        self.candidates_pruned += other.candidates_pruned
        self.patterns_found += other.patterns_found


def resolve_threshold(
    cfg: MiningConfig, d: CSequenceDataset, total: float | None = None
) -> float:
    """Absolute threshold; relative mode scales the dataset's total utility
    (`total`, when the caller has it already)."""
    if cfg.xi_mode == "absolute":
        return cfg.xi
    return cfg.xi * (utility.dataset_utility(d) if total is None else total)


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
    """A vocabulary coincidence evaluated as a one-coincidence pattern."""

    coincidence: Coincidence
    mask: np.ndarray
    putil: float
    scores: np.ndarray
    matched: np.ndarray
    umax: float


@dataclass
class _Context:
    enc: EncodedDataset
    cfg: MiningConfig
    xi_abs: float
    vocab: list[_Candidate] = field(default_factory=list)


def _evaluate(ctx: _Context, prev_scores, prev_base, mask, putil):
    scores = extend_scores(
        ctx.enc.masks, ctx.enc.durations, ctx.enc.lengths,
        prev_scores, prev_base, mask, putil,
    )
    matched, best = summarize_scores(ctx.enc, scores)
    umax = float(best.sum())
    return scores, matched, umax


def _bound(ctx: _Context, matched, umax: float, length: int) -> float:
    """Upper bound on any pattern built by appending coincidences.

    The projected value is clamped to the weighted bound; the raw sum can
    exceed it when a best match sits on top-ranked eventsets, and an
    unclamped value would make the projected strategy keep candidates the
    weighted strategy discards.
    """
    if ctx.cfg.strategy is UpperBound.NONE:
        return float("inf")
    full = weighted_utilization(ctx.enc, matched, ctx.cfg.max_length)
    if ctx.cfg.strategy is UpperBound.LWU:
        return full
    remaining = weighted_utilization(
        ctx.enc, matched, ctx.cfg.max_length - length
    )
    return min(umax + remaining, full)


def _vocab_bound(ctx: _Context, matched) -> float:
    """Promise value while a coincidence may still grow labels.

    Label growth can raise a match's value inside the same window, so the
    match-based projected estimate is not a valid bound here; the weighted
    bound is, for every strategy.
    """
    if ctx.cfg.strategy is UpperBound.NONE:
        return float("inf")
    return weighted_utilization(ctx.enc, matched, ctx.cfg.max_length)


def _build_vocabulary(ctx: _Context, stats: MiningStats) -> None:
    """Level-wise promising coincidence generation (phase 1).

    Each level adds one label, taken above the last one, to the previous
    level's survivors, starting from the empty coincidence. Candidates that
    never occur in a single window are dead ends for every strategy and are
    dropped alongside the unpromising ones.
    """
    base = empty_prefix_scores(ctx.enc)
    labels = ctx.enc.labels
    level = [Coincidence()]
    while level and len(level[0]) < ctx.cfg.max_size:
        survivors: list[_Candidate] = []
        for c in level:
            for lab in labels:
                if c and lab <= c.labels[-1]:
                    continue
                stats.candidates_generated += 1
                child = c.union(lab)
                mask, putil = encode_coincidence(child, ctx.enc)
                scores, matched, umax = _evaluate(ctx, base, 0.0, mask, putil)
                if matched.any() and _promising(ctx, _vocab_bound(ctx, matched)):
                    survivors.append(_Candidate(child, mask, putil, scores, matched, umax))
                else:
                    stats.candidates_pruned += 1
        ctx.vocab.extend(survivors)
        level = [v.coincidence for v in survivors]
        # only labels that survived alone can be part of a survivor
        labels = [v.coincidence.labels[0] for v in ctx.vocab if len(v.coincidence) == 1]

    ctx.vocab.sort(key=lambda v: (len(v.coincidence), v.coincidence.labels))


NEG_INF = float("-inf")


def _visit(
    ctx: _Context,
    prefix: list[Coincidence],
    scores: np.ndarray,
    matched: np.ndarray,
    umax: float,
    limit: float,
    out: list[Pattern],
    stats: MiningStats,
) -> bool:
    """Bound, prune, emit and grow the pattern `prefix`; False if pruned.

    `limit` is the tightest bound seen along the chain so far; a bound
    established for a prefix also covers everything grown from it, so the
    effective bound can only decrease down the tree.
    """
    bound = min(limit, _bound(ctx, matched, umax, len(prefix)))
    if not _promising(ctx, bound):
        return False
    if umax >= ctx.xi_abs:
        out.append(Pattern(LSequence(tuple(prefix)), umax))
    if len(prefix) < ctx.cfg.max_length:
        _grow(ctx, prefix, scores, bound, out, stats)
    return True


def _grow(
    ctx: _Context,
    prefix: list[Coincidence],
    prefix_scores: np.ndarray,
    limit: float,
    out: list[Pattern],
    stats: MiningStats,
) -> None:
    """Extend the prefix by every vocabulary coincidence, depth-first."""
    for cand in ctx.vocab:
        stats.candidates_generated += 1
        scores, matched, umax = _evaluate(
            ctx, prefix_scores, NEG_INF, cand.mask, cand.putil
        )
        prefix.append(cand.coincidence)
        if not (matched.any() and _visit(ctx, prefix, scores, matched, umax, limit, out, stats)):
            stats.candidates_pruned += 1
        prefix.pop()


def _mine_root(ctx: _Context, root: _Candidate) -> tuple[list[Pattern], MiningStats]:
    out: list[Pattern] = []
    stats = MiningStats()
    _visit(ctx, [root.coincidence], root.scores, root.matched, root.umax,
           math.inf, out, stats)
    return out, stats


def mine(
    d: CSequenceDataset, cfg: MiningConfig, threads: int = 1
) -> tuple[list[Pattern], MiningStats]:
    """All patterns within the length/size caps whose utility meets xi.

    The emitted set is identical for every strategy; bounds only control
    how much of the candidate space is visited. Root subtrees may be mined
    by a thread pool; output order is canonical regardless of scheduling.
    """
    start = time.perf_counter()
    stats = MiningStats()
    xi_abs = resolve_threshold(cfg, d)
    ctx = _Context(enc=encode_dataset(d), cfg=cfg, xi_abs=xi_abs)
    _build_vocabulary(ctx, stats)

    patterns: list[Pattern] = []
    if threads > 1 and len(ctx.vocab) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for sub, substats in pool.map(lambda r: _mine_root(ctx, r), ctx.vocab):
                patterns.extend(sub)
                stats.merge(substats)
    else:
        for root in ctx.vocab:
            sub, substats = _mine_root(ctx, root)
            patterns.extend(sub)
            stats.merge(substats)

    patterns.sort(key=lambda p: lsequence_sort_key(p.lsequence))
    stats.patterns_found = len(patterns)
    stats.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return patterns, stats
