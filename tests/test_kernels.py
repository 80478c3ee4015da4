"""The encoding and the scoring kernel, checked against the brute-force oracle."""
import io
import random

import numpy as np
import pytest

from intervalmine import miner
from intervalmine.encoding import (
    by_window,
    encode_dataset,
    encode_intervals,
    same_encoding,
    summarize_scores,
    weighted_utilization,
)
from intervalmine.io import dataset_to_string, read_intervals
from intervalmine.kernels import active_backend, extend_scores
from intervalmine.miner import MiningConfig, mine
from intervalmine.model import Coincidence, LSequence, UtilityTable
from intervalmine.oracle import (
    GeneratorParams,
    best_match_utility,
    random_dataset,
    top_k_eventsets_utility,
)
from intervalmine.transform import transform_dataset
from intervalmine.utility import UpperBound

from conftest import empty_prefix_scores, encode_coincidence, wide_dataset, wide_intervals


def test_backend_selection():
    assert active_backend() == "numpy"


def test_encoding_shapes(example_cdata):
    enc = encode_dataset(example_cdata)
    assert enc.labels == ("A", "B", "C", "D", "E", "F")
    assert enc.masks.shape == (4, 8, 1)  # longest sequence has 8 windows
    assert list(enc.lengths) == [7, 8, 6, 5]
    assert enc.topk.shape == (9, 4)


def test_topk_prefix_rows(example_cdata):
    enc = encode_dataset(example_cdata)
    # sequence 1: eventset utilities 8,6,5,0,2,6,2 sorted desc
    assert list(enc.topk[:4, 0]) == [0.0, 8.0, 14.0, 20.0]
    assert enc.topk[-1, 0] == 29.0


def test_weighted_utilization_equals_lwu(example_cdata):
    """The weighted bound the miner prunes with equals the top-k eventset
    mass of the sequences that contain the pattern, by exhaustive search."""
    enc = encode_dataset(example_cdata)
    table = example_cdata.utilities
    candidates = (["A"], ["B"], ["C", "E"], ["D"], ["F"])
    encoded = [encode_coincidence(Coincidence.of(labels), enc) for labels in candidates]
    # one batch, scored and summed as the miner does
    scores = extend_scores(
        enc.masks, enc.durations, enc.lengths, empty_prefix_scores(enc), 0.0,
        np.concatenate([mask for mask, _ in encoded]),
        np.concatenate([putil for _, putil in encoded]),
    )
    matched, best = summarize_scores(scores)
    budgets = range(1, 5)
    candidate, sequence = np.nonzero(matched)  # the hits
    masses = weighted_utilization(enc, candidate, sequence, len(candidates), budgets)
    for i, labels in enumerate(candidates):
        l = LSequence.of(labels)
        expected = [best_match_utility(l, c, table) for c in example_cdata.csequences]
        assert list(matched[i]) == [e is not None for e in expected]
        assert list(best[i]) == [0.0 if e is None else e for e in expected]
        assert masses[:, i].tolist() == [
            sum(
                top_k_eventsets_utility(c, k, table)
                for c, e in zip(example_cdata.csequences, expected)
                if e is not None
            )
            for k in budgets
        ]


def assert_chain_matches_oracle(d, chain):
    """Extend the empty prefix by each coincidence of chain in turn, each
    step scoring only the sequences the previous step matched, as the
    miner does.

    After every step, each sequence's matched flag and best utility must
    equal what the oracle finds by enumerating every match; a sequence
    dropped at an earlier step must have no match. The utilities are
    integers, so the sums are exact and compared with ==.
    """
    enc = encode_dataset(d)
    rows = np.arange(enc.n_sequences)
    scores, base = empty_prefix_scores(enc), 0.0
    for depth, coin in enumerate(chain, start=1):
        mask, putil = encode_coincidence(coin, enc)
        (scores,) = extend_scores(
            enc.masks[rows], enc.durations[rows], enc.lengths[rows],
            scores, base, mask, putil,
        )
        base = float("-inf")
        matched, best = summarize_scores(scores)
        assert not best[~matched].any()
        found = dict(zip(rows[matched].tolist(), best[matched].tolist()))
        l = LSequence(tuple(chain[:depth]))
        for s, c in enumerate(d.csequences):
            expected = best_match_utility(l, c, d.utilities)
            assert (s in found) == (expected is not None), (str(l), c.id)
            assert found.get(s) == expected, (str(l), c.id)
        rows, scores = rows[matched], scores[matched]


def test_kernel_agrees_with_oracle_on_random_data():
    rng = random.Random(424242)
    for trial in range(25):
        p = GeneratorParams(
            seed=rng.randrange(10**6),
            num_sequences=rng.randint(1, 6),
            max_intervals_per_seq=rng.randint(1, 7),
            alphabet_size=rng.randint(1, 5),
        )
        es, table = random_dataset(p)
        d = transform_dataset(es, table)
        labels = d.labels()
        if not labels:
            continue
        chain = [
            Coincidence.of(rng.sample(labels, rng.randint(1, min(2, len(labels)))))
            for _ in range(3)
        ]
        assert_chain_matches_oracle(d, chain)


def test_kernel_agrees_with_oracle_on_wide_alphabet():
    d = wide_dataset(7, 130)
    assert encode_dataset(d).words > 1
    rng = random.Random(7)
    labels = d.labels()
    chain = [Coincidence.of(rng.sample(labels, rng.randint(1, 2))) for _ in range(4)]
    assert_chain_matches_oracle(d, chain)
    # random labels rarely share a sequence here, so also score chains that
    # occur: three windows of each sequence, with labels in two mask words
    for c in d.csequences:
        windows = [es.coincidence for es in c.eventsets if es.coincidence]
        assert_chain_matches_oracle(
            d, [windows[0], windows[len(windows) // 2], windows[-1]]
        )


def test_empty_dataset_encoding():
    from intervalmine.model import CSequenceDataset

    enc = encode_dataset(CSequenceDataset((), UtilityTable({})))
    assert enc.masks.shape[0] == 0
    (scores,) = extend_scores(
        enc.masks, enc.durations, enc.lengths,
        empty_prefix_scores(enc), 0.0,
        np.ones((1, 1), dtype=np.uint64), np.zeros(1),
    )
    assert scores.shape == (0, 0)
    matched, best = summarize_scores(scores)
    assert matched.shape == best.shape == (0,)
    # sequences but no windows at all: none of them is matched
    matched, best = summarize_scores(np.empty((3, 0)))
    assert list(matched) == [False] * 3
    assert list(best) == [0.0] * 3


def test_kernel_inputs_and_score_rows_are_window_major(monkeypatch, example_dataset, example_table):
    """Both encoders store masks and durations window by window, and every
    score-row array growth hands on to a child, under every strategy, a
    root's and each grown child's, is a window-major view of a C-contiguous
    `[cap, R]` buffer: each window of the child's sequences is one block of
    memory. Growth never calls the dense kernel."""
    handed, grown_roots, grown_children = [], [], []
    grow, children = miner._grow, miner._children

    def window_major(ctx, rows, scores):
        windows = by_window(scores)
        handed.append(
            scores.shape == (rows.size, ctx.enc.capacity)
            and windows.strides[1] == windows.itemsize
            and windows.base.flags.c_contiguous
            and windows.base.shape[0] == ctx.enc.capacity
        )

    def checked_grow(ctx, prefix, roots, *args):
        for _, rows, scores, _ in roots if not prefix else ():
            window_major(ctx, rows, scores)
            grown_roots.append(rows.size)
        return grow(ctx, prefix, roots, *args)

    def checked_children(ctx, *args):
        for index, grown, inherited, projection in children(ctx, *args):
            for _, rows, scores, _ in grown:
                if scores is not None:
                    window_major(ctx, rows, scores)
                    grown_children.append(rows.size)
            yield index, grown, inherited, projection

    monkeypatch.setattr(miner, "_grow", checked_grow)
    monkeypatch.setattr(miner, "_children", checked_children)
    monkeypatch.setattr(miner, "extend_scores", None)
    rng = random.Random(15)
    instances = [(example_dataset, example_table), wide_intervals(3, 100)] + [
        random_dataset(GeneratorParams(
            seed=rng.randrange(10**6),
            num_sequences=rng.randint(2, 12),
            max_intervals_per_seq=rng.randint(2, 8),
            alphabet_size=rng.randint(2, 6),
        ))
        for _ in range(12)
    ]
    cfg = MiningConfig(xi=0.05, xi_mode="relative", max_length=3, max_size=2)
    for es, table in instances:
        enc = encode_intervals(read_intervals(io.StringIO(dataset_to_string(es))), table)
        windowed = encode_dataset(transform_dataset(es, table))
        assert same_encoding(enc, windowed)
        for e in (enc, windowed):
            assert e.masks.transpose(1, 0, 2).flags.c_contiguous
            assert e.durations.T.flags.c_contiguous
        for strategy in UpperBound:
            handed.clear()
            mine(enc, cfg.with_strategy(strategy))
            assert handed, (strategy, es.sequences[0].id)
            assert all(handed), (strategy, handed)
    assert grown_roots and grown_children


# --- the batched kernel against one candidate at a time ------------------------


def reference_extend_scores(masks, durations, lengths, prev, prev_base, cand_mask, cand_putil):
    """Score rows [n, cap] of prefix+candidate for one candidate: every
    mask word tested at once, and windows past a sequence's length masked
    out explicitly."""
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


def random_encoding(rng, n, cap, words):
    """Masks, durations, lengths and prefix score rows shaped like an
    encoding's: zero masks and durations past each length, and score rows
    that are -inf up to some window and nondecreasing after it."""
    lengths = rng.integers(0, cap + 1, size=n)
    real = np.arange(cap)[None, :] < lengths[:, None]
    bits = rng.integers(0, 2**64, size=(n, cap, words), dtype=np.uint64)
    masks = np.where(real[..., None], bits & rng.integers(0, 2**64, size=bits.shape, dtype=np.uint64), 0)
    durations = np.where(real, rng.integers(1, 9, size=(n, cap)) * rng.choice([1.0, 0.1, 1 / 3]), 0.0)
    prev = rng.random((n, cap)) * 50
    prev[rng.random((n, cap)) < 0.3] = -np.inf
    if cap:
        prev = np.maximum.accumulate(prev, axis=1)
    return masks.astype(np.uint64), durations, lengths, prev


def random_candidates(rng, masks, count):
    """Candidate masks: a window's own labels, a few random bits in one
    word only, or bits spread over every word; never empty."""
    n, cap, words = masks.shape
    cands = np.zeros((count, words), dtype=np.uint64)
    for c in range(count):
        kind = rng.integers(0, 3)
        if kind == 0 and n and cap and masks.any():
            s, j, _ = np.argwhere(masks)[rng.integers(0, np.count_nonzero(masks))]
            cands[c] = masks[s, j]
        elif kind == 1:
            word = rng.integers(0, words)
            for bit in rng.integers(0, 64, size=rng.integers(1, 3)):
                cands[c, word] |= np.uint64(1) << np.uint64(bit)
        else:
            for word in range(words):
                cands[c, word] |= np.uint64(1) << np.uint64(rng.integers(0, 64))
    return cands, rng.random(count) * rng.choice([1.0, 7.0])


def window_major(a):
    """A copy of `a` [n, cap(, words)] with the same logical shape, laid out
    window by window as the encoding stores its arrays."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


@pytest.mark.parametrize("seed", [0, 10**9])
def test_batched_kernel_matches_the_reference_bit_for_bit(seed):
    """Every batch size from 1 to C, over random encodings with one to
    three mask words, no windows, no rows, and both prefix bases, drawn
    from two seeds. Each input is scored as laid out sequence by sequence
    and again as a window-major copy, and both give the reference's bytes."""
    rng = np.random.default_rng(seed)
    shapes = [(0, 4, 1), (3, 0, 2), (0, 0, 1), (9, 7, 1), (9, 7, 2)] + [
        (rng.integers(1, 9), rng.integers(1, 12), rng.integers(1, 4)) for _ in range(60)
    ]
    for n, cap, words in shapes:
        masks, durations, lengths, prev = random_encoding(rng, n, cap, words)
        cands, putils = random_candidates(rng, masks, 6)
        for base in (0.0, -np.inf):
            expected = [
                reference_extend_scores(masks, durations, lengths, prev, base, m, float(u))
                for m, u in zip(cands, putils)
            ]
            for order in ("sequence-major", "window-major"):
                inputs = (masks, durations, lengths, prev)
                if order == "window-major":
                    inputs = tuple(
                        a if a is lengths else window_major(a) for a in inputs
                    )
                    assert inputs[0].transpose(1, 0, 2).flags.c_contiguous
                for size in range(1, len(cands) + 1):
                    for lo in range(0, len(cands), size):
                        got = extend_scores(
                            *inputs, base, cands[lo : lo + size], putils[lo : lo + size],
                        )
                        assert got.shape == (len(cands[lo : lo + size]), n, cap)
                        for k, scores in enumerate(got, start=lo):
                            assert scores.tobytes() == expected[k].tobytes(), (
                                order, n, cap, words, k,
                            )


def test_batched_kernel_rejects_an_empty_candidate():
    enc_masks = np.ones((2, 3, 2), dtype=np.uint64)
    cands = np.array([[1, 0], [0, 0]], dtype=np.uint64)
    with pytest.raises(ValueError, match="at least one label"):
        extend_scores(
            enc_masks, np.ones((2, 3)), np.full(2, 3), np.zeros((2, 3)), 0.0,
            cands, np.ones(2),
        )
