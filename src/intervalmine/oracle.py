"""Brute-force reference miner and random instance generator.

Everything here favors obviousness over speed: pattern utilities are found
by enumerating every match, and mining enumerates every pattern up to the
length/size caps. This module shares the domain types, the transform and
`utility`'s object walks (window prices and the dataset total), and
nothing of the mining path (encoded arrays, kernel, bounds), so it can
catch that path's bugs.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .model import (
    Coincidence,
    CSequence,
    CSequenceDataset,
    ESequence,
    ESequenceDataset,
    EventInterval,
    LSequence,
    UtilityTable,
    left_sum,
    lsequence_sort_key,
)
from .utility import dataset_utility, eventset_utility

ORACLE_BUDGET = 200_000

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# The running example: four sequences over labels A-F in the dataset file
# format (id, label, begin, finish), and the utility of each label.
EXAMPLE_DATA = """\
1\tA\t6\t12
1\tB\t10\t17
1\tC\t19\t25
1\tE\t21\t23
2\tA\t2\t7
2\tB\t5\t10
2\tD\t5\t12
2\tC\t16\t22
2\tE\t18\t20
3\tB\t6\t12
3\tA\t8\t14
3\tC\t14\t20
3\tE\t16\t18
4\tB\t1\t5
4\tC\t8\t14
4\tE\t9\t12
4\tF\t9\t12
"""

EXAMPLE_UTILITIES = {"A": 2.0, "B": 1.0, "C": 1.0, "D": 3.0, "E": 2.0, "F": 5.0}


@dataclass(frozen=True)
class GeneratorParams:
    seed: int = 0
    num_sequences: int = 4
    max_intervals_per_seq: int = 6
    alphabet_size: int = 4
    max_time: int = 20
    max_duration: int = 5
    max_external_utility: int = 5
    fractional: bool = False  # utilities in multiples of 0.1, not whole numbers

    def __post_init__(self) -> None:
        for name in (
            "num_sequences",
            "max_intervals_per_seq",
            "alphabet_size",
            "max_time",
            "max_duration",
            "max_external_utility",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")
        if self.alphabet_size > len(_ALPHABET):
            raise ValueError(f"alphabet_size must be <= {len(_ALPHABET)}")


def enumerate_coincidences(alphabet: tuple[str, ...], max_size: int):
    """Non-empty label subsets up to max_size, smallest first, lex within."""
    labels = tuple(sorted(alphabet))
    for size in range(1, min(max_size, len(labels)) + 1):
        for combo in itertools.combinations(labels, size):
            yield Coincidence.of(combo)


def enumerate_lsequences(alphabet: tuple[str, ...], max_length: int, max_size: int):
    """Every pattern of length <= max_length over subsets of size <= max_size."""
    if max_length < 1 or max_size < 1:
        raise ValueError("max_length and max_size must be >= 1")
    universe = list(enumerate_coincidences(alphabet, max_size))
    for length in range(1, max_length + 1):
        for combo in itertools.product(universe, repeat=length):
            yield LSequence(combo)


def count_lsequences(alphabet_size: int, max_length: int, max_size: int) -> int:
    v = sum(
        math.comb(alphabet_size, size)
        for size in range(1, min(max_size, alphabet_size) + 1)
    )
    return sum(v**length for length in range(1, max_length + 1))


def match_utilities(l: LSequence, c: CSequence, table: UtilityTable) -> list[float]:
    """Utility of every way l matches c, by trying all position choices."""
    results: list[float] = []
    h = len(c.eventsets)

    def rec(k: int, start: int, acc: float) -> None:
        if k == len(l.coincidences):
            results.append(acc)
            return
        coin = l.coincidences[k]
        for j in range(start, h):
            es = c.eventsets[j]
            if set(coin.labels) <= set(es.coincidence.labels):
                window = left_sum(table.utility(lab) for lab in coin) * es.duration
                rec(k + 1, j + 1, acc + window)

    rec(0, 0, 0.0)
    return results


def best_match_utility(l: LSequence, c: CSequence, table: UtilityTable) -> float | None:
    """Max over all matches, or None when l does not occur in c."""
    found = match_utilities(l, c, table)
    return max(found) if found else None


def pattern_max_utility(l: LSequence, d: CSequenceDataset) -> tuple[float, bool]:
    """(summed per-sequence best utility, whether l occurs anywhere)."""
    total = 0.0
    occurs = False
    for c in d.csequences:
        best = best_match_utility(l, c, d.utilities)
        if best is not None:
            occurs = True
            total += best
    return total, occurs


def top_k_eventsets_utility(c: CSequence, k: int, table: UtilityTable) -> float:
    """Exhaustive max over all subsets of at most k eventsets of c."""
    utils = [eventset_utility(es, table) for es in c.eventsets]
    best = 0.0
    for size in range(0, min(k, len(utils)) + 1):
        for combo in itertools.combinations(utils, size):
            best = max(best, left_sum(combo))
    return best


def brute_force_mine(d: CSequenceDataset, cfg) -> list:
    """All occurring patterns meeting the threshold, by full enumeration.

    cfg is a miner.MiningConfig (duck-typed so this module stays clear of
    the miner's utility code). Refuses instances whose pattern space
    exceeds ORACLE_BUDGET.
    """
    from .miner import Pattern

    xi_abs = cfg.xi if cfg.xi_mode == "absolute" else cfg.xi * dataset_utility(d)
    alphabet = d.labels()
    total = count_lsequences(len(alphabet), cfg.max_length, cfg.max_size)
    if total > ORACLE_BUDGET:
        raise ValueError(
            f"instance too large for oracle: {total} candidate patterns "
            f"(budget {ORACLE_BUDGET})"
        )
    out = []
    for l in enumerate_lsequences(alphabet, cfg.max_length, cfg.max_size):
        umax, occurs = pattern_max_utility(l, d)
        if occurs and umax >= xi_abs:
            out.append(Pattern(lsequence=l, umax=umax))
    out.sort(key=lambda p: lsequence_sort_key(p.lsequence))
    return out


def random_dataset(p: GeneratorParams) -> tuple[ESequenceDataset, UtilityTable]:
    """Seed-deterministic random instance; every label gets a utility."""
    rng = random.Random(p.seed)
    labels = _ALPHABET[: p.alphabet_size]
    sequences = []
    for sid in range(1, p.num_sequences + 1):
        want = rng.randint(1, p.max_intervals_per_seq)
        chosen: set[tuple[str, int, int]] = set()
        # identical (label, begin, finish) triples are rejected downstream,
        # so retry a few times instead of emitting duplicates
        attempts = 0
        while len(chosen) < want and attempts < want * 10:
            attempts += 1
            label = rng.choice(labels)
            begin = rng.randrange(0, p.max_time)
            finish = begin + rng.randint(1, p.max_duration)
            chosen.add((label, begin, finish))
        intervals = tuple(EventInterval(*t) for t in sorted(chosen))
        sequences.append(ESequence(id=sid, intervals=intervals))
    scale = 10 if p.fractional else 1
    table = UtilityTable(
        {lab: rng.randint(0, p.max_external_utility * scale) / scale for lab in labels}
    )
    return ESequenceDataset(tuple(sequences)), table
