"""Seeded workload generators and the `intervalmine mine` arguments for each.

A workload run mines a few instances, each a dataset file and a utility
file generated from the run's seed. The miner only ever sees the written
files; the generators live here so that a change to the program cannot
change its own inputs.

Why the utility table is fixed and a run mines several instances: the
amount of search work depends on where candidate bounds fall against the
threshold. With a utility table drawn per seed, one n=1000 `grow-k4`
instance took from 6825 to 10116 candidates over five seeds. With the fixed
table, single instances still ranged from 4736 to 7482 candidates. Over
ten seeds, the interquartile range of the mean candidate count was 8% of
its median for five instances per run, and 5% for ten.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from intervalmine import oracle
from intervalmine.io import write_dataset


@dataclass(frozen=True)
class Workload:
    name: str
    write: Callable[[int, int, Path, Path], None]  # (seed, sequences, data, utilities)
    sequences: int          # per instance, full size
    tiny_sequences: int     # per instance, in the smoke test
    instances: int          # instances per run
    mine_args: tuple[str, ...]

    def generate(self, seed: int, tiny: bool, workdir: Path) -> list[tuple[Path, Path]]:
        """Write this run's instances; returns (dataset, utilities) paths."""
        n = self.tiny_sequences if tiny else self.sequences
        paths = []
        for i in range(self.instances):
            data = workdir / f"{self.name}-{i}.tsv"
            utilities = workdir / f"{self.name}-{i}.utilities.tsv"
            self.write(seed * 1000 + i, n, data, utilities)
            paths.append((data, utilities))
        return paths


def _write_criterion8(seed: int, sequences: int, data: Path, utilities: Path) -> None:
    """The acceptance suite's criterion-8 generator at any size, with the fixed table."""
    params = oracle.GeneratorParams(
        seed=seed,
        num_sequences=sequences,
        max_intervals_per_seq=10,
        alphabet_size=8,
        max_time=30,
        max_duration=4,
        max_external_utility=5,
    )
    dataset, _ = oracle.random_dataset(params)
    write_dataset(dataset, str(data))
    _write_table(CRITERION8_UTILITIES, utilities)


# The table oracle.random_dataset draws for the criterion-8 instance
# (seed 42, 220 sequences).
CRITERION8_UTILITIES = {
    "A": 2, "B": 2, "C": 3, "D": 5, "E": 4, "F": 4, "G": 4, "H": 2,
}

ZIPF_LABELS = 80        # > 64, so every bitmask takes two uint64 words
ZIPF_MAX_INTERVALS = 16
ZIPF_MAX_TIME = 40
ZIPF_MAX_DURATION = 12
ZIPF_SKEW = 1.0
_zipf_rng = random.Random(80)
ZIPF_UTILITIES = {f"L{i:02d}": _zipf_rng.randint(1, 5) for i in range(ZIPF_LABELS)}


def _write_zipf(seed: int, sequences: int, data: Path, utilities: Path) -> None:
    """Wide-alphabet dataset whose label frequencies follow a Zipf law.

    The skew makes a few labels common to most sequences, which gives the
    vocabulary phase many overlapping coincidences, as real event logs do.
    """
    rng = random.Random(seed)
    labels = list(ZIPF_UTILITIES)
    weights = [1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(ZIPF_LABELS)]
    with open(data, "w", encoding="utf-8") as out:
        for sid in range(1, sequences + 1):
            want = rng.randint(1, ZIPF_MAX_INTERVALS)
            chosen: set[tuple[str, int, int]] = set()
            attempts = 0
            # the parser rejects repeated (label, begin, finish) triples
            while len(chosen) < want and attempts < want * 10:
                attempts += 1
                label = rng.choices(labels, weights)[0]
                begin = rng.randrange(0, ZIPF_MAX_TIME)
                chosen.add((label, begin, begin + rng.randint(1, ZIPF_MAX_DURATION)))
            for label, begin, finish in sorted(chosen, key=lambda t: (t[1], t[0], t[2])):
                out.write(f"{sid}\t{label}\t{begin}\t{finish}\n")
    _write_table(ZIPF_UTILITIES, utilities)


def _write_table(table: dict, path: Path) -> None:
    path.write_text("".join(f"{label}\t{value}\n" for label, value in table.items()))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grow-k4",
            _write_criterion8,
            sequences=1000,
            tiny_sequences=60,
            instances=10,
            mine_args=("--xi", "0.05", "--xi-mode", "relative", "-K", "4", "-Z", "2"),
        ),
        Workload(
            "ingest-20k",
            _write_criterion8,
            sequences=20000,
            tiny_sequences=200,
            instances=2,
            mine_args=("--xi", "0.07", "--xi-mode", "relative", "-K", "2", "-Z", "1"),
        ),
        Workload(
            "vocab-wide",
            _write_zipf,
            sequences=600,
            tiny_sequences=60,
            instances=5,
            mine_args=("--xi", "0.03", "--xi-mode", "relative", "-K", "2", "-Z", "2"),
        ),
    )
}

# The running example from the paper, used to time a cold start on tiny input.
EXAMPLE_ROWS = (
    (1, "A", 6, 12), (1, "B", 10, 17), (1, "C", 19, 25), (1, "E", 21, 23),
    (2, "A", 2, 7), (2, "B", 5, 10), (2, "D", 5, 12), (2, "C", 16, 22),
    (2, "E", 18, 20),
    (3, "B", 6, 12), (3, "A", 8, 14), (3, "C", 14, 20), (3, "E", 16, 18),
    (4, "B", 1, 5), (4, "C", 8, 14), (4, "E", 9, 12), (4, "F", 9, 12),
)
EXAMPLE_UTILITIES = {"A": 2, "B": 1, "C": 1, "D": 3, "E": 2, "F": 5}
EXAMPLE_ARGS = ("--xi", "22", "-K", "3", "-Z", "2")


def write_example(data: Path, utilities: Path) -> None:
    data.write_text("".join("\t".join(map(str, r)) + "\n" for r in EXAMPLE_ROWS))
    _write_table(EXAMPLE_UTILITIES, utilities)
