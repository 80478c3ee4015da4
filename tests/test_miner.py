"""Miner behavior: correctness against the oracle, pruning accounting,
and the threshold/vocabulary plumbing."""
import collections
import dataclasses
import itertools
import random

import numpy as np
import pytest

from intervalmine import miner
from intervalmine.encoding import by_window, encode_dataset, summarize_scores
from intervalmine.kernels import extend_scores
from intervalmine.miner import (
    MiningConfig,
    Pattern,
    mine,
    resolve_threshold,
)
from intervalmine.model import (
    Coincidence,
    ESequence,
    ESequenceDataset,
    EventInterval,
    LSequence,
    UtilityTable,
)
from intervalmine.oracle import (
    GeneratorParams,
    brute_force_mine,
    random_dataset,
    top_k_eventsets_utility,
)
from intervalmine.transform import transform_dataset
from intervalmine.utility import UpperBound, dataset_utility

from conftest import (
    candidate_masses,
    empty_prefix_scores,
    encode_coincidence,
    evaluate,
    vocabulary,
    wide_dataset,
)


def pattern_set(patterns):
    return {
        (tuple(c.labels for c in p.lsequence.coincidences), p.umax) for p in patterns
    }


def cfg_at(xi, k, z, strategy=UpperBound.PROJECTED, mode="absolute"):
    return MiningConfig(xi=xi, max_length=k, max_size=z, xi_mode=mode,
                        strategy=strategy)


# --- configuration ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(xi=-1.0, max_length=2, max_size=2)
    with pytest.raises(ValueError):
        MiningConfig(xi=1.5, max_length=2, max_size=2, xi_mode="relative")
    with pytest.raises(ValueError):
        MiningConfig(xi=1.0, max_length=0, max_size=2)
    with pytest.raises(ValueError):
        MiningConfig(xi=1.0, max_length=2, max_size=2, xi_mode="percent")


def test_with_strategy_changes_only_the_strategy():
    cfg = cfg_at(5.0, 3, 2)
    other = cfg.with_strategy(UpperBound.NONE)
    assert other.strategy is UpperBound.NONE
    assert (other.xi, other.max_length, other.max_size) == (5.0, 3, 2)
    assert cfg.strategy is UpperBound.PROJECTED


def test_resolve_threshold(example_cdata):
    enc = encode_dataset(example_cdata)
    assert resolve_threshold(cfg_at(22.0, 3, 2), enc) == 22.0
    assert resolve_threshold(cfg_at(0.0, 3, 2, mode="relative"), enc) == 0.0
    assert resolve_threshold(cfg_at(0.25, 3, 2, mode="relative"), enc) == 33.5


# --- vocabulary -------------------------------------------------------------


def occurring_coincidences(d, max_size):
    found = set()
    for c in d.csequences:
        for es in c.eventsets:
            labels = es.coincidence.labels
            for size in range(1, min(max_size, len(labels)) + 1):
                for combo in itertools.combinations(labels, size):
                    found.add(Coincidence.of(combo))
    return found


def test_promising_coincidences_keeps_high_coverage_labels(example_cdata):
    vocab, _ = vocabulary(example_cdata, cfg_at(33.5, 4, 5), 33.5)
    assert Coincidence.of(["C"]) in vocab


def brute_force_vocabulary(d, cfg, xi):
    """Occurring coincidences whose top-K eventset mass, summed over the
    sequences that contain them in some window, reaches xi; with no bound,
    every occurring coincidence."""
    found = set()
    for coin in occurring_coincidences(d, cfg.max_size):
        mass = sum(
            top_k_eventsets_utility(c, cfg.max_length, d.utilities)
            for c in d.csequences
            if any(set(coin.labels) <= set(es.coincidence.labels) for es in c.eventsets)
        )
        if cfg.strategy is UpperBound.NONE or mass >= xi:
            found.add(coin)
    return found


def test_promising_coincidences_at_zero_threshold(example_cdata):
    rng = random.Random(11)
    for z in (1, 2, 3):
        vocab, _ = vocabulary(example_cdata, cfg_at(0.0, 3, z), 0.0)
        assert set(vocab) == occurring_coincidences(example_cdata, z)
        # canonical enumeration order: by size, then label tuple
        keys = [(len(c), c.labels) for c in vocab]
        assert keys == sorted(keys)
        # positive thresholds: the weighted bound decides, for every strategy
        for _ in range(100):
            xi = rng.uniform(0.0, 140.0)
            for strategy in UpperBound:
                cfg = cfg_at(xi, 3, z, strategy)
                vocab, _ = vocabulary(example_cdata, cfg, xi)
                expected = brute_force_vocabulary(example_cdata, cfg, xi)
                assert set(vocab) == expected, (z, xi, strategy)


def test_vocabulary_joins_only_surviving_labels(example_cdata):
    """At xi=40, 4 of the 6 labels survive alone, so 6 + 6 candidates are
    tried; joining the survivors with the whole alphabet would try 6 + 13.
    At xi=22 every label survives and all 15 pairs are tried."""
    _, stats = vocabulary(example_cdata, cfg_at(40.0, 3, 2), 40.0)
    assert stats.candidates_generated == 12
    _, stats = vocabulary(example_cdata, cfg_at(22.0, 3, 2), 22.0)
    assert stats.candidates_generated == 21


def lean_vocabulary_contexts(seed, count):
    """Mining contexts over random instances with integer or fractional
    utilities, coincidences of up to three labels and K of 2 or 3, at the
    value of one of their patterns, under every strategy."""
    values = (1.0, 2.0, 5.0, 0.1, 0.3, 1 / 3, 2.9)
    rng = random.Random(seed)
    for _ in range(count):
        p = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 14),
            max_intervals_per_seq=rng.randint(2, 7),
            alphabet_size=rng.randint(2, 5),
        )
        es, _ = random_dataset(p)
        table = UtilityTable({lab: rng.choice(values) for lab in es.labels()})
        enc = encode_dataset(transform_dataset(es, table))
        k, z = rng.randint(2, 3), rng.randint(1, 3)
        every, _ = mine(enc, cfg_at(0.0, k, z))
        xi = rng.choice(every).umax if every else 0.0
        for s in UpperBound:
            yield miner._Context(enc=enc, cfg=cfg_at(xi, k, z, s), xi_abs=xi)


def wide_vocabulary_contexts():
    """Mining contexts over alphabets of 70 and 100 labels, two mask words
    each, with coincidences of up to two labels and K of 2, at xi 0 and at
    1% of the total utility, under every strategy."""
    for alphabet in (70, 100):
        enc = encode_dataset(wide_dataset(alphabet, alphabet))
        for share in (0.0, 0.01):
            for s in UpperBound:
                cfg = cfg_at(share, 2, 2, s, mode="relative")
                yield miner._Context(enc=enc, cfg=cfg, xi_abs=resolve_threshold(cfg, enc))


def entry_cells(runs, v):
    """The cells of candidate v of the projection `runs`: those of its
    runs, which lie together."""
    at = np.flatnonzero(runs.run_candidate == v)
    return runs.cells[runs.cell_start[at[0]] : runs.cell_start[at[-1] + 1]]


def roots_of(ctx):
    """The vocabulary entries of `ctx` whose own bound clears its
    threshold, in order: the roots growth grows."""
    umax, full, rest = ctx.vocab_bounds
    everything = np.ones(umax.size, dtype=bool)
    return miner._survivors(ctx, miner.MiningStats(), everything, umax, full, rest)


def roots_recorder(roots):
    """A stand-in for `miner._grow` that appends to `roots` the children of
    the empty prefix, the roots, as each chunk of them is grown."""
    grow = miner._grow

    def recording(ctx, prefix, children, *args):
        if not prefix:
            roots.extend(children)
        return grow(ctx, prefix, children, *args)

    return recording


def window_major(ctx, scores):
    """Whether score rows [rows, cap] are a window-major view of a
    C-contiguous `[cap, R]` batch: each window of their sequences is one
    block of memory."""
    windows = by_window(scores)
    return (windows.strides[1] == windows.itemsize and windows.base.flags.c_contiguous
            and windows.base.shape[0] == ctx.enc.capacity)


def test_every_vocabulary_entry_is_priced_as_the_kernel_prices_it(monkeypatch):
    """Every entry is priced from its cells, without the kernel, yet its
    utility mass, sequences and umax equal those of its one-coincidence
    pattern scored by the kernel from the empty prefix on every sequence,
    bit for bit, and so do the score rows of each root, read off its cells,
    window-major, and handed to growth in order; growth never runs the
    kernel. Every entry's full and rest are bit-identical too:
    a join's sum only its parent's rows, but left to right, so the
    unmatched rows it skips add nothing. An entry's cells are exactly the
    windows that hold its whole mask, by sequence, then window, and the
    vocabulary keeps them as one run per sequence. Alphabets of two mask
    words are among the instances, as a join tests each label's own word.
    """
    checked = both_words = 0
    for ctx in itertools.chain(lean_vocabulary_contexts(5, 120), wide_vocabulary_contexts()):
        with monkeypatch.context() as m:
            m.setattr(miner, "extend_scores", None)  # the phase runs no kernel
            miner._build_vocabulary(ctx, miner.MiningStats())
        vocabulary = ctx.runs
        enc = ctx.enc
        n = enc.n_sequences
        windows = by_window(enc.masks).reshape(-1, enc.words)
        expected = [evaluate(ctx, LSequence((c,))) for c in ctx.vocab]
        for v, (c, e) in enumerate(zip(ctx.vocab, expected)):
            mask, putil = encode_coincidence(c, enc)
            assert ctx.vocab_putils[v].hex() == putil[0].hex(), c
            both_words += int((mask != 0).sum()) == 2
            runs = np.flatnonzero(vocabulary.run_candidate == v)
            assert vocabulary.run_rows[runs].tolist() == np.flatnonzero(e.matched).tolist(), c
            umax, full, rest = ctx.vocab_bounds[:, v]
            assert umax.hex() == e.umax.hex(), c
            assert (full.hex(), rest.hex()) == (e.full.hex(), e.rest.hex()), c
            fit = np.flatnonzero(((windows & mask) == mask).all(axis=1))
            fit = fit[np.lexsort((fit // n, fit % n))]
            cells = entry_cells(vocabulary, v)
            assert cells.tolist() == fit.tolist(), c
            lengths = np.diff(vocabulary.cell_start)[runs]
            assert lengths.tolist() == np.bincount(fit % n)[vocabulary.run_rows[runs]].tolist()
        # the roots' score rows are read off their cells, and growth runs
        # no kernel
        roots = []
        with monkeypatch.context() as m:
            m.setattr(miner, "_grow", roots_recorder(roots))
            m.setattr(miner, "extend_scores", None)
            miner._mine_root(ctx, [], miner.MiningStats())
        assert [index for index, _, _, _ in roots] == roots_of(ctx)
        for index, rows, scores, _ in roots:
            e = expected[index]
            assert rows.tolist() == np.flatnonzero(e.matched).tolist(), ctx.vocab[index]
            assert window_major(ctx, scores), ctx.vocab[index]
            assert scores.tobytes() == e.scores[e.matched].tobytes(), ctx.vocab[index]
        checked += len(roots)
    assert checked > 500
    assert both_words > 0


def test_the_vocabulary_keeps_no_score_rows(example_cdata):
    """The vocabulary's columns hold each entry's runs and bound inputs:
    each float column has one value per entry, never a row per sequence,
    so the vocabulary costs no n x cap memory. It keeps no mask either, and
    its runs hold one value per cell or per run."""
    enc = encode_dataset(example_cdata)
    ctx = miner._Context(enc=enc, cfg=cfg_at(0.0, 3, 2), xi_abs=0.0)
    miner._build_vocabulary(ctx, miner.MiningStats())
    assert len(ctx.vocab) == 12
    arrays = {
        name: (value.dtype.kind, value.shape) for name, value in vars(ctx).items()
        if isinstance(value, np.ndarray)
    }
    assert arrays == {
        "vocab_putils": ("f", (12,)),
        "vocab_bounds": ("f", (3, 12)),
    }
    cells, runs = ctx.runs.cells.size, ctx.runs.run_rows.size
    columns = ctx.runs._asdict().items()
    assert {name: (value.dtype.kind, value.shape) for name, value in columns} == {
        "cells": ("i", (cells,)),
        "values": ("f", (cells,)),
        "cell_run": ("i", (cells,)),
        "cell_start": ("i", (runs + 1,)),
        "run_rows": ("i", (runs,)),
        "run_candidate": ("i", (runs,)),
    }
    assert ctx.runs.cell_start[-1] == cells


def test_the_vocabulary_splits_the_cells_of_each_entry_into_runs_by_sequence():
    """After `_build_vocabulary`, an entry's runs are exactly the groups of
    its cells by sequence, cell % n, in ascending order: each run's
    sequence, entry and cell count come from those groups, and every cell
    knows its run. Entries lie in order, and each cell's value is its
    entry's putil times its window's duration. Growth reads the
    vocabulary's own runs when every entry is a root, with no copy."""
    checked = 0
    for ctx in itertools.chain(lean_vocabulary_contexts(8, 40), wide_vocabulary_contexts()):
        miner._build_vocabulary(ctx, miner.MiningStats())
        layout = ctx.runs
        n = ctx.enc.n_sequences
        assert layout.run_candidate.dtype == layout.cell_run.dtype == np.int32
        assert layout.run_rows.dtype == np.int64
        assert layout.cell_start[0] == 0 and layout.cell_start[-1] == layout.cells.size
        assert layout.values.size == layout.cell_run.size == layout.cells.size
        assert (np.diff(layout.run_candidate) >= 0).all()
        # each entry's cells, counted by the candidate of each cell's run
        entry = layout.run_candidate[layout.cell_run]
        entry_start = np.append(0, np.cumsum(np.bincount(entry, minlength=len(ctx.vocab))))
        durations = by_window(ctx.enc.durations).reshape(-1)
        for v in range(len(ctx.vocab)):
            start, stop = entry_start[v], entry_start[v + 1]
            sequence = layout.cells[start:stop] % n
            runs = np.flatnonzero(layout.run_candidate == v)
            rows, counts = np.unique(sequence, return_counts=True)
            assert layout.run_rows[runs].tolist() == rows.tolist(), ctx.vocab[v]
            assert np.diff(layout.cell_start[runs[0] : runs[-1] + 2]).tolist() == counts.tolist()
            assert layout.cell_start[runs[0]] == start and layout.cell_start[runs[-1] + 1] == stop
            assert (layout.run_rows[layout.cell_run[start:stop]] == sequence).all()
            value = ctx.vocab_putils[v] * durations[layout.cells[start:stop]]
            assert layout.values[start:stop].tobytes() == value.tobytes(), ctx.vocab[v]
            checked += runs.size
        miner._layout(ctx, np.arange(len(ctx.vocab)))
        assert ctx.runs is layout
    assert checked > 1000


@pytest.mark.parametrize("cells", [1, miner.BATCH_CELLS])
def test_phase_1_leaves_each_entrys_fitting_windows_as_its_runs(monkeypatch, example_cdata, cells):
    """Right after `_build_vocabulary`, with no `_layout` call, the
    vocabulary's runs are each entry's fitting windows, the windows that
    hold its whole mask, grouped by sequence: one run per sequence it
    occurs in, ascending, by window, entries in order, and each cell's
    value is the entry's utility mass times its window's duration, bit for
    bit. On the running example and on an alphabet of two mask words, with
    one candidate per chunk or many."""
    instances = ((example_cdata, cfg_at(0.0, 3, 2)),
                 (wide_dataset(4, 70), cfg_at(0.01, 2, 2, mode="relative")))
    both_words = 0
    for d, cfg in instances:
        enc = encode_dataset(d)
        ctx = miner._Context(enc=enc, cfg=cfg, xi_abs=resolve_threshold(cfg, enc))
        with monkeypatch.context() as m:
            m.setattr(miner, "BATCH_CELLS", cells)
            m.setattr(miner, "_layout", None)
            miner._build_vocabulary(ctx, miner.MiningStats())
        n, words = enc.n_sequences, enc.words
        windows = by_window(enc.masks).reshape(-1, words)
        durations = by_window(enc.durations).reshape(-1)
        fits, values, runs = [], [], []
        for v, c in enumerate(ctx.vocab):
            mask, putil = encode_coincidence(c, enc)
            both_words += int((mask != 0).sum()) == 2
            fit = np.flatnonzero(((windows & mask) == mask).all(axis=1))
            fit = fit[np.lexsort((fit // n, fit % n))]
            fits.append(fit)
            values.append(putil[0] * durations[fit])
            rows, counts = np.unique(fit % n, return_counts=True)
            runs.extend((v, s, count) for s, count in zip(rows.tolist(), counts.tolist()))
        got = ctx.runs
        assert len(ctx.vocab) > 10
        assert got.cells.tolist() == np.concatenate(fits).tolist()
        assert got.values.tobytes() == np.concatenate(values).tobytes()
        assert list(zip(got.run_candidate.tolist(), got.run_rows.tolist(),
                        np.diff(got.cell_start).tolist())) == runs
        lengths = [count for _, _, count in runs]
        assert got.cell_run.tolist() == np.repeat(np.arange(len(runs)), lengths).tolist()
    assert both_words > 0


def test_each_level_is_priced_in_chunks_that_span_parents(monkeypatch):
    """On an alphabet of 70 labels, at the default budget, each level's
    candidates are priced in the chunks `_chunks` cuts from the cells each
    one tests: on level 1 a label's own cells, on level 2 its parent's, a
    single-label entry joined with each surviving label above its own. One
    `_price` call per chunk, and some chunk holds joins of two parents."""
    enc = encode_dataset(wide_dataset(70, 70))
    cfg = cfg_at(0.01, 2, 2, mode="relative")
    ctx = miner._Context(enc=enc, cfg=cfg, xi_abs=resolve_threshold(cfg, enc))
    priced = []
    price = miner._price

    def recording(ctx, stats, putils, *cells):
        priced.append(len(putils))
        return price(ctx, stats, putils, *cells)

    with monkeypatch.context() as m:
        m.setattr(miner, "_price", recording)
        miner._build_vocabulary(ctx, miner.MiningStats())
    level_1 = list(miner._chunks(np.diff(enc.label_cell_start)))
    singles = [v for v, c in enumerate(ctx.vocab) if len(c) == 1]
    bits = [enc.label_bit[ctx.vocab[v].labels[0]] for v in singles]
    parents = [v for v, b in zip(singles, bits) for x in bits if x > b]
    costs = np.array([entry_cells(ctx.runs, v).size for v in parents])
    level_2 = list(miner._chunks(costs))
    assert priced == [hi - lo for lo, hi in level_1 + level_2]
    assert len(ctx.vocab) > len(singles) > 10
    assert any(len(set(parents[lo:hi])) > 1 for lo, hi in level_2)


@pytest.mark.parametrize("cells", [1, miner.BATCH_CELLS])
def test_the_roots_rows_come_in_batches_within_the_budget(monkeypatch, cells):
    """Each root's score rows are a block of columns of a `[cap, R]` batch
    that the blocks of consecutive roots fill, in order. A batch holds at
    most `BATCH_CELLS` score slots unless it holds a single root: at a
    budget of one slot each root has its own batch, and at the default
    some batch holds several."""
    roots = []
    instances = [(wide_dataset(70, 70), cfg_at(0.01, 2, 2, mode="relative"))]
    instances += list(itertools.islice(fractional_depth_four_instances(3, 6), 6))
    with monkeypatch.context() as m:
        m.setattr(miner, "BATCH_CELLS", cells)
        m.setattr(miner, "_grow", roots_recorder(roots))
        for d, cfg in instances:
            mine(encode_dataset(d), cfg)
    batches = {}  # the roots of each batch, by the batch's id
    for root in roots:
        batches.setdefault(id(by_window(root[2]).base), []).append(root)
    sizes = []
    for members in batches.values():
        batch = by_window(members[0][2]).base
        blocks = [by_window(scores) for _, _, scores, _ in members]
        assert all(block.base is batch for block in blocks)
        assert np.concatenate(blocks, axis=1).tobytes() == batch.tobytes()
        assert [v for v, _, _, _ in members] == sorted(v for v, _, _, _ in members)
        assert batch.size <= cells or len(members) == 1
        sizes.append(len(members))
    assert len(roots) > 20
    assert max(sizes) == 1 if cells == 1 else max(sizes) > 1


def roots_projection(monkeypatch, enc, cfg):
    """The mining context of `enc` under `cfg`, its vocabulary's runs, and
    the projection its roots are scored from, the one the empty prefix's
    `_grow` receives."""
    seen, vocabulary = [], []
    grow, build = miner._grow, miner._build_vocabulary

    def built(ctx, stats):
        build(ctx, stats)
        vocabulary.append(ctx.runs)

    def recording(ctx, prefix, children, inherited, projection, out, stats):
        if not prefix:
            seen.append((ctx, projection))
        return grow(ctx, prefix, children, inherited, projection, out, stats)

    with monkeypatch.context() as m:
        m.setattr(miner, "_grow", recording)
        m.setattr(miner, "_build_vocabulary", built)
        mine(enc, cfg)
    (ctx, projection), (runs,) = seen[0], vocabulary
    # every chunk of roots is scored from the same projection
    assert all(c is ctx and p is projection for c, p in seen)
    return ctx, runs, projection


def test_the_roots_projection_is_the_layout_when_every_entry_is_a_root(monkeypatch):
    """The roots are scored from the layout, which holds the roots' runs
    alone. At xi 0 every vocabulary entry is a root, and the layout is the
    vocabulary's own runs, with no copy. When a root's own bound prunes an
    entry, it holds the runs of the surviving roots alone, whole, each
    one's candidate renumbered among them."""
    es, table = random_dataset(
        GeneratorParams(seed=3, num_sequences=4, max_intervals_per_seq=5, alphabet_size=4)
    )
    enc = encode_dataset(transform_dataset(es, table))
    ctx, every, projection = roots_projection(monkeypatch, enc, cfg_at(0.0, 2, 1))
    assert len(ctx.vocab) == 4 and projection is ctx.runs
    assert projection is every
    assert np.shares_memory(projection.cells, every.cells)

    # the instance of `test_a_root_its_bound_prunes_is_counted`: <{A}> and
    # <{D}> are entries, and pdc prunes the root <{D}>
    ctx, every, projection = roots_projection(monkeypatch, enc,
                                              cfg_at(0.5, 2, 1, mode="relative"))
    assert ctx.vocab == [Coincidence.of(["A"]), Coincidence.of(["D"])]
    assert projection is ctx.runs
    assert not np.shares_memory(projection.cells, every.cells)
    runs = np.flatnonzero(every.run_candidate == 0)
    assert 0 < projection.cells.size < every.cells.size
    assert projection.run_candidate.tolist() == [0] * runs.size
    assert projection.run_rows.tolist() == every.run_rows[runs].tolist()
    assert projection.cell_start.tolist() == every.cell_start[: runs.size + 1].tolist()
    cells = slice(0, entry_cells(every, 0).size)
    assert projection.cells.tolist() == every.cells[cells].tolist()
    assert projection.values.tobytes() == every.values[cells].tobytes()
    assert projection.cell_run.tolist() == every.cell_run[cells].tolist()


def test_promising_coincidences_above_total_utility_is_empty(example_cdata):
    vocab, _ = vocabulary(example_cdata, cfg_at(135.0, 3, 2), 135.0)
    assert vocab == []


# --- mining the example -----------------------------------------------------


def test_mine_example_includes_the_boundary_pattern(example_cdata):
    patterns, stats = mine(example_cdata, cfg_at(22.0, 3, 2))
    values = {
        tuple(tuple(c.labels) for c in p.lsequence.coincidences): p.umax
        for p in patterns
    }
    assert values[(("A",), ("B",))] == 22.0
    assert len(patterns) == 96
    assert stats.patterns_found == 96


def test_mine_example_candidate_accounting(example_cdata):
    counts = {}
    for strategy in UpperBound:
        _, stats = mine(example_cdata, cfg_at(22.0, 3, 2, strategy))
        counts[strategy] = stats.candidates_generated, stats.candidates_pruned
        assert stats.candidates_pruned <= stats.candidates_generated
        assert stats.patterns_found <= stats.candidates_generated - stats.candidates_pruned
    # a prefix longer than one coincidence tries only the coincidences that
    # occurred and cleared its strategy's bound after its parent
    assert counts[UpperBound.NONE] == (565, 347)
    assert counts[UpperBound.LWU] == (565, 347)
    assert counts[UpperBound.PROJECTED] == (554, 415)


def test_a_root_its_bound_prunes_is_counted(monkeypatch):
    """Every candidate tried is pruned or grown, roots included. The
    vocabulary phase tries the 4 labels and keeps the roots <{A}> and
    <{D}> (generated 4, pruned 2). Under pdc the bound of <{D}> (umax 16 +
    rest 40 < threshold 58) prunes it (pruned 3). A root inherits only the
    roots that survived their own bound, as any prefix inherits its
    surviving siblings, so <{A}> tries <{A}> alone (generated 5), and the
    bound prunes <{A},{A}> (pruned 4)."""
    es, table = random_dataset(
        GeneratorParams(seed=3, num_sequences=4, max_intervals_per_seq=5, alphabet_size=4)
    )
    d = transform_dataset(es, table)
    cfg = cfg_at(0.5, 2, 1, mode="relative")
    enc = encode_dataset(d)
    assert resolve_threshold(cfg, enc) == 58.0
    roots, _ = vocabulary(d, cfg, 58.0)
    assert roots == [Coincidence.of(["A"]), Coincidence.of(["D"])]
    counts, appended = {}, {}
    for strategy in UpperBound:
        # the masks of the coincidences the growth phase appends
        masks = appended[strategy] = set()

        def recording(ctx, stats, projection, rows, scores, candidates, length, masks=masks,
                      children=miner._children):
            masks.update(int(words[0]) for words in candidate_masses(ctx, candidates)[0])
            return children(ctx, stats, projection, rows, scores, candidates, length)

        with monkeypatch.context() as m:
            m.setattr(miner, "_children", recording)
            patterns, stats = mine(enc, cfg.with_strategy(strategy))
        assert patterns == []
        counts[strategy] = stats.candidates_generated, stats.candidates_pruned
    assert counts == {
        UpperBound.NONE: (20, 8),
        UpperBound.LWU: (8, 6),
        UpperBound.PROJECTED: (5, 4),
    }
    # the root its bound pruned is never scored as an extension
    a_mask, d_mask = (1 << enc.label_bit[label] for label in "AD")
    assert appended[UpperBound.LWU] == {a_mask, d_mask}
    assert appended[UpperBound.PROJECTED] == {a_mask}


def test_mine_single_windows_without_pruning(example_cdata):
    patterns, _ = mine(example_cdata, cfg_at(0.0, 1, 1))
    got = {str(p.lsequence): p.umax for p in patterns}
    assert got == {
        "<{A}>": 22.0, "<{B}>": 16.0, "<{C}>": 9.0,
        "<{D}>": 9.0, "<{E}>": 18.0, "<{F}>": 15.0,
    }


def test_mine_output_is_canonically_sorted(example_cdata):
    patterns, _ = mine(example_cdata, cfg_at(0.0, 2, 2))
    keys = [
        (len(p.lsequence), tuple(c.labels for c in p.lsequence.coincidences))
        for p in patterns
    ]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_mine_empty_dataset():
    d = transform_dataset(ESequenceDataset(()), UtilityTable({}))
    patterns, stats = mine(d, cfg_at(0.0, 2, 2))
    assert patterns == []
    assert stats.patterns_found == 0


# --- agreement with brute force ---------------------------------------------


def small_instance(seed, rng):
    p = GeneratorParams(
        seed=seed,
        num_sequences=rng.randint(1, 5),
        max_intervals_per_seq=rng.randint(1, 6),
        alphabet_size=rng.randint(1, 4),
    )
    es, table = random_dataset(p)
    return transform_dataset(es, table)


def test_all_strategies_match_the_oracle():
    rng = random.Random(31337)
    for seed in range(30):
        d = small_instance(seed, rng)
        from intervalmine.utility import dataset_utility

        xi = rng.uniform(0.0, max(dataset_utility(d), 1.0))
        cfg = cfg_at(xi, rng.randint(1, 3), rng.randint(1, 2))
        expected = pattern_set(brute_force_mine(d, cfg))
        for strategy in UpperBound:
            got, _ = mine(d, cfg.with_strategy(strategy))
            assert pattern_set(got) == expected, (seed, xi, strategy)


def test_all_strategies_match_the_oracle_with_fractional_utilities():
    """Fractional utilities, with the threshold on some pattern's value.

    A bound and the utility it covers then add inexact terms in different
    orders, so a bound that equals a pattern's utility can land an ulp
    below it; pruning must still keep every pattern the oracle emits. The
    threshold is also given relative to the dataset's total, which the
    oracle and the miner must scale to the same float.
    """
    values = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9)
    rng = random.Random(3)
    for i in range(800):
        p = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 4),
            max_intervals_per_seq=rng.randint(1, 6),
            alphabet_size=rng.randint(1, 4),
        )
        es, _ = random_dataset(p)
        table = UtilityTable({lab: rng.choice(values) for lab in es.labels()})
        d = transform_dataset(es, table)
        k, z = rng.randint(1, 3), rng.randint(1, 2)
        every = brute_force_mine(d, cfg_at(0.0, k, z))
        if not every:
            continue
        xi = rng.choice(every).umax
        for cfg in (
            cfg_at(xi, k, z),
            cfg_at(min(1.0, xi / dataset_utility(d)), k, z, mode="relative"),
        ):
            expected = pattern_set(brute_force_mine(d, cfg))
            for strategy in UpperBound:
                got, _ = mine(d, cfg.with_strategy(strategy))
                assert pattern_set(got) == expected, (i, cfg.xi_mode, cfg.xi, strategy)


def test_fractional_utilities_sum_like_the_oracle_over_many_sequences():
    """With nine or more sequences a pairwise sum of fractional values can
    differ from the oracle's left-to-right sum in the last bit, which moves
    umax and flips a pattern whose value is exactly the threshold."""
    values = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9)
    rng = random.Random(9)
    for i in range(60):
        p = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(9, 40),
            max_intervals_per_seq=rng.randint(1, 5),
            alphabet_size=rng.randint(1, 3),
        )
        es, _ = random_dataset(p)
        table = UtilityTable({lab: rng.choice(values) for lab in es.labels()})
        d = transform_dataset(es, table)
        every = brute_force_mine(d, cfg_at(0.0, 2, 1))
        if not every:
            continue
        xi = rng.choice(every).umax
        expected = {(key, umax) for key, umax in pattern_set(every) if umax >= xi}
        for strategy in UpperBound:
            got, _ = mine(d, cfg_at(xi, 2, 1, strategy))
            assert pattern_set(got) == expected, (i, xi, strategy)


@pytest.mark.parametrize("fractional", [False, True])
def test_all_strategies_match_the_oracle_at_depth_four(fractional):
    """K=4, so a depth-4 pattern is tried only if its last coincidence
    survived under its parent and under its grandparent.

    Each instance is mined at zero, where a candidate that never occurs
    would be emitted if it were ever visited, at the value of some pattern,
    and at a random threshold. Inherited lists keep the candidate streams
    ordered: pdc tries no more than ldc, and ldc no more than none.
    """
    values = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9)
    rng = random.Random(44 + fractional)
    for i in range(40):
        p = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 5),
            max_intervals_per_seq=rng.randint(2, 7),
            alphabet_size=rng.randint(2, 3),
        )
        es, table = random_dataset(p)
        if fractional:
            table = UtilityTable({lab: rng.choice(values) for lab in es.labels()})
        d = transform_dataset(es, table)
        z = rng.randint(1, 2)
        every = brute_force_mine(d, cfg_at(0.0, 4, z))
        if not every:
            continue
        top = max(pt.umax for pt in every)
        for xi in (0.0, rng.choice(every).umax, rng.uniform(0.0, top)):
            cfg = cfg_at(xi, 4, z)
            expected = pattern_set(brute_force_mine(d, cfg))
            gen = {}
            for strategy in UpperBound:
                got, stats = mine(d, cfg.with_strategy(strategy))
                assert pattern_set(got) == expected, (i, xi, strategy)
                gen[strategy] = stats.candidates_generated
            assert gen[UpperBound.PROJECTED] <= gen[UpperBound.LWU] <= gen[UpperBound.NONE]


@pytest.mark.parametrize("k, z", [(2, 1), (1, 2)])
def test_all_strategies_match_the_oracle_on_a_wide_alphabet(k, z):
    """130 labels, so every coincidence mask spans three 64-bit words."""
    d = wide_dataset(7, 130)
    cfg = cfg_at(0.01, k, z, mode="relative")
    expected = pattern_set(brute_force_mine(d, cfg))
    assert expected
    for strategy in UpperBound:
        got, _ = mine(d, cfg.with_strategy(strategy))
        assert pattern_set(got) == expected, strategy


def test_pruning_never_generates_more_candidates():
    """Tighter bounds may only shrink the candidate stream."""
    rng = random.Random(777)
    for seed in range(30):
        d = small_instance(seed, rng)
        from intervalmine.utility import dataset_utility

        xi = rng.uniform(0.0, max(dataset_utility(d), 1.0))
        cfg = cfg_at(xi, rng.randint(1, 3), rng.randint(1, 2))
        gen = {}
        for strategy in UpperBound:
            _, stats = mine(d, cfg.with_strategy(strategy))
            gen[strategy] = stats.candidates_generated
        assert gen[UpperBound.PROJECTED] <= gen[UpperBound.LWU]
        assert gen[UpperBound.LWU] <= gen[UpperBound.NONE]


def fractional_depth_four_instances(seed, count):
    """(windowed dataset, K=4 config) pairs with fractional utilities, each
    at the value of one of its patterns."""
    values = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9)
    rng = random.Random(seed)
    for _ in range(count):
        p = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 12),
            max_intervals_per_seq=rng.randint(2, 7),
            alphabet_size=rng.randint(2, 4),
        )
        es, _ = random_dataset(p)
        table = UtilityTable({lab: rng.choice(values) for lab in es.labels()})
        d = transform_dataset(es, table)
        z = rng.randint(1, 2)
        every = brute_force_mine(d, cfg_at(0.0, 2, z))
        xi = rng.choice(every).umax if every else 0.0
        yield d, cfg_at(xi, 4, z)


def mined(enc, cfg):
    """Patterns with their exact umax, and the stats without the time."""
    patterns, stats = mine(enc, cfg)
    stats.elapsed_ms = 0.0
    return [(p.lsequence, p.umax.hex()) for p in patterns], stats


@pytest.mark.parametrize("cells", [1, 2**30])
def test_the_batch_budget_changes_nothing(monkeypatch, cells):
    """One candidate per kernel call and per vocabulary chunk, or every
    candidate of a prefix in one call: the same patterns, bit for bit, and
    the same counters."""
    chunks = []
    price = miner._price

    def recording(ctx, stats, putils, *cells):
        chunks.append(len(putils))
        return price(ctx, stats, putils, *cells)

    for d, cfg in fractional_depth_four_instances(12, 25):
        enc = encode_dataset(d)
        expected = {s: mined(enc, cfg.with_strategy(s)) for s in UpperBound}
        with monkeypatch.context() as m:
            m.setattr(miner, "BATCH_CELLS", cells)
            m.setattr(miner, "_price", recording)
            for s in UpperBound:
                assert mined(enc, cfg.with_strategy(s)) == expected[s], (cells, s)
    assert chunks
    if cells == 1:
        assert max(chunks) == 1


def growth_instances(seed, count):
    """(windowed dataset, config) pairs within the oracle's budget:
    integer or fractional utilities, K from 2 to 4 and Z from 1 to 3, at
    the value of one of their patterns or, for one
    in eight, above the total utility, where the vocabulary is empty; then
    an alphabet of more than 64 labels."""
    values = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9)
    rng = random.Random(seed)
    for i in range(count):
        k, z = rng.randint(2, 4), rng.randint(1, 3)
        p = GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 10),
            max_intervals_per_seq=rng.randint(2, 7),
            alphabet_size=rng.randint(2, {2: 5, 3: 4, 4: 3}[k]),
        )
        es, table = random_dataset(p)
        if i % 2:
            table = UtilityTable({lab: rng.choice(values) for lab in es.labels()})
        d = transform_dataset(es, table)
        every = brute_force_mine(d, cfg_at(0.0, k, z))
        xi = dataset_utility(d) + 1.0 if i % 8 == 0 or not every else rng.choice(every).umax
        yield d, cfg_at(xi, k, z)
    yield wide_dataset(seed, 70), cfg_at(0.01, 2, 1, mode="relative")


def kernel_evaluation(ctx, rows, scores, candidates):
    """The dense reference of one growth evaluation: the kernel's score
    rows [C, r, cap] of the prefix with score rows `scores` on the
    sequences `rows` extended by each vocabulary entry `candidates`, and
    their matched flags and best values."""
    enc = ctx.enc
    batch = extend_scores(
        enc.masks[rows], enc.durations[rows], enc.lengths[rows], scores, -np.inf,
        *candidate_masses(ctx, candidates),
    )
    return (batch, *summarize_scores(batch))


def mined_against_the_kernel(monkeypatch, enc, cfg, seen):
    """The pattern set of mining `enc`, with every growth evaluation and
    every row builder checked against the dense kernel on the same prefix
    rows, bit for bit: an evaluation's hits, sorted by (candidate,
    sequence), its umax, full and rest (`_masses` of the kernel's flags and
    values turned into hits), its survivors, and each grown child's rows
    and score rows. A root's are checked against the kernel from the empty
    prefix on every sequence. After each evaluation the scorer's buffer is
    -inf again.

    Each evaluation reads a projection, and its hits equal those of the
    same evaluation over the whole layout. The projection it hands to its
    children holds exactly the runs of its grown survivors' hits, whole,
    in order, and no more cells than its own. `seen` counts the evaluations
    below and at the length cap, their candidates that fit a window 0 of
    the prefix's sequences and those with no cell in them, the rows built,
    and the projections smaller than their parent's."""
    extend, masses, children, growth = miner._extend, miner._masses, miner._children, miner._grow
    vocabulary = miner._build_vocabulary
    pending = {"evaluation": None}

    def built(ctx, stats):
        vocabulary(ctx, stats)
        pending["vocabulary"] = ctx.runs

    def whole_vocabulary(ctx):
        # a copy of the mining context whose runs are every vocabulary
        # entry's, entry v being candidate v, with its own buffer
        if pending.get("whole") is None or pending["whole"][0] is not ctx:
            every = dataclasses.replace(ctx, runs=pending["vocabulary"])
            miner._layout(every, np.arange(len(ctx.vocab)))
            pending["whole"] = ctx, every
        return pending["whole"][1]

    def checked_children(ctx, stats, projection, rows, scores, candidates, length):
        batch, matched, best = kernel_evaluation(ctx, rows, scores, candidates)
        candidate, position = np.nonzero(matched)
        hits = candidate, rows[position], best[matched]
        pending["evaluation"] = hits
        pending["candidates"] = candidates
        grown, inherited, child = children(ctx, stats, projection, rows, scores, candidates,
                                           length)
        assert pending["evaluation"] is None  # its masses were checked
        expected = masses(ctx, *hits, len(candidates), length)
        keep = miner._survivors(ctx, miner.MiningStats(), matched.any(axis=1), *expected)
        assert [c[0] for c in grown] == candidates[keep].tolist()
        grow = length < ctx.cfg.max_length
        # what the children inherit: every survivor, below the length cap
        assert inherited.tolist() == candidates[keep].tolist() if grow else inherited is None
        seen["interior evaluations" if grow else "leaf evaluations"] += 1
        for (v, got_rows, got, umax), i in zip(grown, keep):
            assert umax.hex() == float(expected[0][i]).hex(), v
            if grow:
                assert got_rows.tobytes() == rows[matched[i]].tobytes(), v
                want = batch[i][matched[i]]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), v
                seen["children"] += 1
            else:
                assert got_rows is None and got is None
        if grow:
            check_projection(ctx, projection, child, candidates[keep], matched[keep], rows)
        else:
            assert child is None
        n = ctx.enc.n_sequences
        for v in candidates.tolist():
            cells = entry_cells(pending["vocabulary"], v)
            on_rows = np.isin(cells % n, rows)
            seen["fit window 0"] += bool((on_rows & (cells < n)).any())
            seen["no cell in the prefix's rows"] += not on_rows.any()
        return grown, inherited, child

    def check_projection(ctx, parent, child, survivors, matched, rows):
        # the runs of the survivors' hits, (survivor, sequence), in order
        survivor, position = np.nonzero(matched)
        assert child.run_candidate.tolist() == survivor.tolist()
        assert child.run_rows.tolist() == rows[position].tolist()
        assert child.cells.size <= parent.cells.size
        seen["smaller projections"] += child.cells.size < parent.cells.size
        layout, n = whole_vocabulary(ctx).runs, ctx.enc.n_sequences
        for i in range(child.run_rows.size):
            v, s = survivors[child.run_candidate[i]], child.run_rows[i]
            lo, hi = child.cell_start[i], child.cell_start[i + 1]
            assert (child.cell_run[lo:hi] == i).all()
            # the run is kept whole: every cell of entry v in sequence s
            at = np.flatnonzero(layout.run_candidate == v)
            cells = slice(layout.cell_start[at[0]], layout.cell_start[at[-1] + 1])
            whole = layout.cells[cells] % n == s
            assert child.cells[lo:hi].tolist() == layout.cells[cells][whole].tolist()
            assert child.values[lo:hi].tobytes() == layout.values[cells][whole].tobytes()

    def checked_extend(ctx, projection, rows, scores):
        candidate, run, best, values = extend(ctx, projection, rows, scores)
        assert np.isneginf(ctx.before).all()
        want_candidate, want_sequence, want_best = pending["evaluation"]
        sequence = projection.run_rows[run]
        key = candidate.astype(np.int64) * ctx.enc.n_sequences + sequence
        assert (np.diff(key) > 0).all()  # sorted by (candidate, sequence)
        assert candidate.tolist() == want_candidate.tolist()
        assert sequence.tolist() == want_sequence.tolist()
        assert best.tobytes() == want_best.tobytes()
        # the same evaluation over every vocabulary entry's runs hits the
        # same runs
        every = whole_vocabulary(ctx)
        entry, whole, whole_best, _ = extend(every, every.runs, rows, scores)
        candidates = pending["candidates"]
        among = np.isin(entry, candidates)
        assert np.searchsorted(candidates, entry[among]).tolist() == candidate.tolist()
        assert every.runs.run_rows[whole[among]].tolist() == sequence.tolist()
        assert whole_best[among].tobytes() == best.tobytes()
        return candidate, run, best, values

    def checked_masses(ctx, candidate, sequence, best, count, length):
        values = masses(ctx, candidate, sequence, best, count, length)
        if pending["evaluation"] is not None:  # a growth evaluation's
            expected = masses(ctx, *pending["evaluation"], count, length)
            pending["evaluation"] = None
            assert [float(x).hex() for x in np.concatenate(values)] == [
                float(x).hex() for x in np.concatenate(expected)
            ]
        return values

    def checked_grow(ctx, prefix, grown, *args):
        enc = ctx.enc
        for v, got_rows, got, _ in grown if not prefix else ():  # the roots
            (batch,) = extend_scores(
                enc.masks, enc.durations, enc.lengths, empty_prefix_scores(enc), 0.0,
                *candidate_masses(ctx, [v]),
            )
            matched = summarize_scores(batch)[0]
            seen["roots"] += 1
            assert got_rows.tobytes() == np.flatnonzero(matched).tobytes(), v
            assert got.shape == batch[matched].shape, v
            assert got.tobytes() == batch[matched].tobytes(), v
        return growth(ctx, prefix, grown, *args)

    with monkeypatch.context() as m:
        m.setattr(miner, "_children", checked_children)
        m.setattr(miner, "_extend", checked_extend)
        m.setattr(miner, "_masses", checked_masses)
        m.setattr(miner, "_grow", checked_grow)
        m.setattr(miner, "_build_vocabulary", built)
        m.setattr(miner, "extend_scores", None)
        patterns, _ = mine(enc, cfg)
    return pattern_set(patterns)


def test_every_growth_evaluation_scores_as_the_kernel_scores_it(monkeypatch):
    """Every evaluation, below and at the length cap, and every row builder,
    for the roots and for each grown child, give the dense kernel's values
    bit for bit, and the pattern sets equal the oracle's, under every
    strategy, though each evaluation reads only the projection its parent
    handed down, which is often smaller than its parent's. Candidates that
    fit window 0, where a non-empty prefix has no score before, and
    candidates with no cell in the prefix's sequences are among them, and
    so is an empty vocabulary."""
    seen = collections.Counter()
    empty = 0
    for d, cfg in growth_instances(16, 60):
        enc = encode_dataset(d)
        expected = pattern_set(brute_force_mine(d, cfg))
        empty += not expected
        for s in UpperBound:
            c = cfg.with_strategy(s)
            assert mined_against_the_kernel(monkeypatch, enc, c, seen) == expected, c
    assert seen["interior evaluations"] > 500
    assert seen["leaf evaluations"] > 500
    assert seen["fit window 0"] > 0
    assert seen["no cell in the prefix's rows"] > 0
    assert seen["roots"] > 0 and seen["children"] > 0
    assert seen["smaller projections"] > 0
    assert empty > 0


def test_an_empty_vocabulary_has_an_empty_leaf_layout(example_cdata):
    """Above the total utility no coincidence survives: growth's layout
    holds no cell and no run, and an evaluation of no candidates on any
    rows has no hits and leaves its buffer -inf."""
    enc = encode_dataset(example_cdata)
    ctx = miner._Context(enc=enc, cfg=cfg_at(135.0, 3, 2), xi_abs=135.0)
    miner._build_vocabulary(ctx, miner.MiningStats())
    assert ctx.vocab == []
    miner._layout(ctx, [])
    layout = ctx.runs
    assert layout.values.size == layout.cell_run.size == layout.run_candidate.size == 0
    rows = np.arange(enc.n_sequences)
    scores = np.zeros((enc.n_sequences, enc.capacity))
    candidate, run, best, values = miner._extend(ctx, layout, rows, scores)
    assert candidate.size == run.size == best.size == values.size == 0
    assert np.isneginf(ctx.before).all()
    assert miner._masses(ctx, candidate, run, best, 0, 2)[0].shape == (0,)
    assert mine(enc, ctx.cfg)[0] == []


def test_growing_a_coincidence_can_rescue_a_worthless_parent():
    """A label set can clear the threshold even when a subset of it has
    zero utility, so vocabulary pruning must not use match utilities."""
    d = ESequenceDataset((
        ESequence(id=1, intervals=(
            EventInterval("B", 0, 1),
            EventInterval("C", 0, 1),
            EventInterval("A", 1, 2),
        )),
    ))
    table = UtilityTable({"A": 1.0, "B": 0.0, "C": 10.0})
    cdata = transform_dataset(d, table)
    cfg = cfg_at(10.5, 2, 2)
    expected = pattern_set(brute_force_mine(cdata, cfg))
    target = ((("B", "C"), ("A",)), 11.0)
    assert target in expected
    for strategy in UpperBound:
        got, _ = mine(cdata, cfg.with_strategy(strategy))
        assert pattern_set(got) == expected, strategy


def test_pattern_is_a_plain_record():
    p = Pattern(LSequence.of(["A"]), 3.0)
    assert p.umax == 3.0
    assert str(p.lsequence) == "<{A}>"
