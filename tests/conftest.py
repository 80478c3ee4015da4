"""Shared fixtures: the running example dataset and its windowed form,
helpers that drive the miner's own scoring and bound code, and the
per-window reference encoder the array builder is checked against."""
import io
import random
from collections import namedtuple

import numpy as np
import pytest

from intervalmine import miner
from intervalmine.encoding import (
    EncodedDataset,
    by_window,
    encode_dataset,
    summarize_scores,
    weighted_utilization,
)
from intervalmine.io import parse_dataset
from intervalmine.kernels import extend_scores
from intervalmine.miner import MiningConfig
from intervalmine.model import (
    ESequence,
    ESequenceDataset,
    EventInterval,
    UtilityTable,
)
from intervalmine.oracle import EXAMPLE_DATA, EXAMPLE_UTILITIES
from intervalmine.transform import transform_dataset
from intervalmine.utility import UpperBound, dataset_utility, eventset_utility


@pytest.fixture(scope="session")
def example_dataset():
    return parse_dataset(io.StringIO(EXAMPLE_DATA))


@pytest.fixture(scope="session")
def example_table():
    return UtilityTable(EXAMPLE_UTILITIES)


@pytest.fixture(scope="session")
def example_cdata(example_dataset, example_table):
    return transform_dataset(example_dataset, example_table)


@pytest.fixture(scope="session")
def cs(example_cdata):
    """C-sequences of the example keyed by sequence id."""
    return {c.id: c for c in example_cdata.csequences}


def pruning_context(enc, max_length, strategy=UpperBound.PROJECTED):
    """The miner's context over encoded data; xi and max_size leave the
    bounds unchanged."""
    cfg = MiningConfig(xi=0.0, max_length=max_length, max_size=1, strategy=strategy)
    return miner._Context(enc=enc, cfg=cfg, xi_abs=0.0)


def encode_coincidence(c, enc):
    """(bitmask words [1, words], summed label utility [1]) of one
    coincidence: a kernel batch of one candidate. The utility adds the
    label utilities in ascending label order, as the miner does."""
    mask = np.zeros((1, enc.words), dtype=np.uint64)
    putil = 0.0
    for lab in c:
        bit = enc.label_bit[lab]
        mask[0, bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
        putil += enc.label_utility[bit]
    return mask, np.array([putil])


def empty_prefix_scores(enc):
    """Window-major score rows of the zero-length prefix on every sequence:
    matched everywhere at 0. The kernel scores from them with a prev_base
    of 0.0."""
    return by_window(np.zeros((enc.capacity, enc.n_sequences)))


Evaluated = namedtuple("Evaluated", "scores matched umax full rest")


def evaluate(ctx, l):
    """Pattern l extended from the empty prefix one coincidence at a time
    by the dense kernel, on the rows the prefix matched, as the miner grows
    it: its score rows and matched flags over every sequence (unmatched
    sequences score -inf), its umax, and the inputs of `miner._bound` at
    the context's K, `full` (top-K eventset mass) and `rest` (top-(K - |l|)
    mass), summed by the miner's own `_masses`."""
    enc = ctx.enc
    rows, scores, base = np.arange(enc.n_sequences), empty_prefix_scores(enc), 0.0
    for length, coin in enumerate(l.coincidences, start=1):
        mask, putil = encode_coincidence(coin, enc)
        batch = extend_scores(
            enc.masks[rows], enc.durations[rows], enc.lengths[rows], scores, base, mask, putil
        )
        matched, best = summarize_scores(batch)
        umax, full, rest = miner._masses(ctx, rows, matched, best, length)
        rows, scores, base = rows[matched[0]], batch[0][matched[0]], float("-inf")
    umax, full, rest = (float(x[0]) for x in (umax, full, rest))
    every = np.full((enc.n_sequences, enc.capacity), -np.inf)
    every[rows] = scores
    matched = np.zeros(enc.n_sequences, dtype=bool)
    matched[rows] = True
    return Evaluated(every, matched, umax, full, rest)


def weighted(enc, matched, *budgets):
    """Top-k eventset mass of the sequences flagged in `matched`, one value
    per budget k, from the batched sum the miner prunes with."""
    rows = np.arange(enc.n_sequences)
    return weighted_utilization(enc, rows, matched[None], budgets)[:, 0].tolist()


def vocabulary(d, cfg, xi_abs):
    """(coincidences in mining order, phase-1 stats) of the miner's
    vocabulary phase on dataset d."""
    ctx = miner._Context(enc=encode_dataset(d), cfg=cfg, xi_abs=xi_abs)
    stats = miner.MiningStats()
    miner._build_vocabulary(ctx, stats)
    return list(ctx.vocab), stats


def reference_encoding(d):
    """The encoding of d built window by window from the object model, with
    each window priced by `eventset_utility`, the total from
    `dataset_utility`, and each label's cells listed by sequence, then
    window."""
    labels = d.labels()
    label_bit = {lab: i for i, lab in enumerate(labels)}
    words = max(1, (len(labels) + 63) // 64)
    n = len(d.csequences)
    cap = max((len(c.eventsets) for c in d.csequences), default=0)

    masks = np.zeros((n, cap, words), dtype=np.uint64)
    durations = np.zeros((n, cap), dtype=np.float64)
    lengths = np.zeros(n, dtype=np.int64)
    topk = np.zeros((n, cap + 1), dtype=np.float64)
    cells = [[] for _ in labels]  # label bit -> window-major ids j * n + s
    for s, cseq in enumerate(d.csequences):
        lengths[s] = len(cseq.eventsets)
        es_utils = []
        for j, es in enumerate(cseq.eventsets):
            for lab in es.coincidence:
                bit = label_bit[lab]
                masks[s, j, bit // 64] |= np.uint64(1) << np.uint64(bit % 64)
                cells[bit].append(j * n + s)
            durations[s, j] = es.duration
            es_utils.append(eventset_utility(es, d.utilities))
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
        topk=np.ascontiguousarray(topk.T),
        label_utility=label_utility,
        total_utility=float(dataset_utility(d)),
        label_cells=np.array([c for per_label in cells for c in per_label], dtype=np.int32),
        label_cell_start=np.cumsum([0] + [len(c) for c in cells]).astype(np.int32),
    )


def wide_intervals(seed, alphabet):
    """Intervals and utility table over an alphabet that needs more than
    one 64-bit mask word."""
    rng = random.Random(seed)
    labels = [f"L{i:03d}" for i in range(alphabet)]
    seqs = []
    chunk = []
    sid = 0
    for lab in labels:
        b = rng.randint(0, 8)
        chunk.append(EventInterval(lab, b, b + rng.randint(1, 3)))
        if len(chunk) == 20:
            sid += 1
            seqs.append(ESequence(id=sid, intervals=tuple(chunk)))
            chunk = []
    if chunk:
        seqs.append(ESequence(id=sid + 1, intervals=tuple(chunk)))
    table = UtilityTable({lab: float(rng.randint(0, 6)) for lab in labels})
    return ESequenceDataset(tuple(seqs)), table


def wide_dataset(seed, alphabet):
    """The windowed form of `wide_intervals`."""
    return transform_dataset(*wide_intervals(seed, alphabet))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run."""
    import _acceptance_log

    lines = _acceptance_log.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
