"""Shared fixtures: the running example dataset and its windowed form,
and helpers that drive the miner's own scoring and bound code."""
import io
import random

import numpy as np
import pytest

from intervalmine import miner
from intervalmine.encoding import empty_prefix_scores, encode_coincidence, encode_dataset
from intervalmine.io import parse_dataset
from intervalmine.miner import MiningConfig
from intervalmine.model import ESequence, ESequenceDataset, EventInterval, UtilityTable
from intervalmine.oracle import EXAMPLE_DATA, EXAMPLE_UTILITIES
from intervalmine.transform import transform_dataset
from intervalmine.utility import UpperBound


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


def evaluate(ctx, l):
    """(score rows, matched flags, umax) of pattern l, extended from the
    empty prefix one coincidence at a time on the rows the prefix matched,
    as the miner grows it. The score rows and flags returned cover every
    sequence; unmatched sequences score -inf."""
    enc = ctx.enc
    rows, scores, base = np.arange(enc.n_sequences), empty_prefix_scores(enc), 0.0
    for coin in l.coincidences:
        mask, putil = encode_coincidence(coin, enc)
        rows, scores, umax = miner._evaluate(
            miner._project(enc, rows), rows, scores, base, mask, putil
        )
        base = float("-inf")
    every = np.full((enc.n_sequences, enc.capacity), -np.inf)
    every[rows] = scores
    matched = np.zeros(enc.n_sequences, dtype=bool)
    matched[rows] = True
    return every, matched, umax


def vocabulary(d, cfg, xi_abs):
    """(coincidences in mining order, phase-1 stats) of the miner's
    vocabulary phase on dataset d."""
    ctx = miner._Context(enc=encode_dataset(d), cfg=cfg, xi_abs=xi_abs)
    stats = miner.MiningStats()
    miner._build_vocabulary(ctx, stats)
    return [v.coincidence for v in ctx.vocab], stats


def wide_dataset(seed, alphabet):
    """A dataset whose alphabet needs more than one 64-bit mask word."""
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
    return transform_dataset(ESequenceDataset(tuple(seqs)), table)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion after the run."""
    import _acceptance_log

    lines = _acceptance_log.summary_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
