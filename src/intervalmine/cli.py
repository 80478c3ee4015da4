"""Command-line front end: mine patterns, generate data, self-check.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation (e.g. two pruning strategies disagreed on the result set).
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict
from io import StringIO

from . import oracle
from .encoding import encode_dataset, encode_intervals, same_encoding
from .io import (
    IntervalColumns,
    dataset_lines,
    fill_utilities,
    parse_dataset,
    parse_utilities,
    read_intervals,
    write_dataset,
    write_utilities,
)
from .miner import MiningConfig, mine, resolve_threshold
from .model import DataError, ESequenceDataset, UtilityTable, lsequence_sort_key
from .transform import transform_dataset
from .utility import UpperBound, dataset_utility

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="intervalmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine high-utility interval patterns")
    p_mine.add_argument("--data", required=True, help="interval dataset file")
    p_mine.add_argument("--utilities", help="label utility file")
    p_mine.add_argument(
        "--default-utility",
        type=float,
        default=None,
        help="utility for labels missing from the table",
    )
    p_mine.add_argument("--xi", type=float, required=True, help="minimum utility threshold")
    p_mine.add_argument(
        "--xi-mode",
        choices=("absolute", "relative"),
        default="absolute",
        help="interpret --xi as an absolute value or a fraction of total utility",
    )
    p_mine.add_argument("-K", type=int, required=True, help="maximum pattern length")
    p_mine.add_argument("-Z", type=int, required=True, help="maximum coincidence size")
    p_mine.add_argument(
        "--strategy",
        default="pdc",
        help="pruning strategy: none, ldc or pdc; a comma-separated list of distinct "
        "ones runs each and reports per-strategy statistics",
    )
    p_mine.add_argument("--output", help="write the report here instead of stdout")
    p_mine.add_argument("--format", choices=("json", "table"), default="json")
    p_mine.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); mining runs on one thread",
    )
    p_mine.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock times in the report (breaks byte-for-byte reproducibility)",
    )
    p_mine.set_defaults(run=_cmd_mine)

    p_gen = sub.add_parser("gen", help="emit a random interval dataset")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--sequences", type=int, default=4)
    p_gen.add_argument("--max-intervals", type=int, default=6)
    p_gen.add_argument("--alphabet", type=int, default=4)
    p_gen.add_argument("--max-time", type=int, default=20)
    p_gen.add_argument("--max-duration", type=int, default=5)
    p_gen.add_argument("--max-utility", type=int, default=5)
    p_gen.add_argument("--output", help="dataset file (default: stdout)")
    p_gen.add_argument("--utilities-out", help="also write the generated utility table here")
    p_gen.set_defaults(run=_cmd_gen)

    p_check = sub.add_parser(
        "check", help="verify the miner against brute force on small instances"
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--instances", type=int, default=25)
    p_check.set_defaults(run=_cmd_check)

    return parser


def _stats_dict(stats, timings: bool) -> dict:
    d = asdict(stats)
    if not timings:
        d.pop("elapsed_ms")
    return d


def _json_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _table_report(report: dict) -> str:
    lines = []
    ds = report["dataset"]
    alphabet = ",".join(ds["alphabet"])
    lines.append(
        f"# dataset: {ds['sequences']} sequences, {ds['intervals']} intervals, "
        f"alphabet {alphabet}, total utility {ds['total_utility']!r}"
    )
    cfg = report["config"]
    lines.append(
        f"# threshold: {report['threshold']!r} "
        f"(xi={cfg['xi']!r}, mode={cfg['xi_mode']}, K={cfg['K']}, Z={cfg['Z']})"
    )
    for name, st in report["stats"].items():
        parts = [f"{k}={v!r}" for k, v in st.items()]
        lines.append(f"# strategy {name}: " + " ".join(parts))
    lines.append("pattern\tumax")
    for entry in report["patterns"]:
        text = "".join("{" + ",".join(c) + "}" for c in entry["pattern"])
        lines.append(f"{text}\t{entry['umax']!r}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_inputs(args) -> tuple[IntervalColumns, UtilityTable]:
    dataset = read_intervals(args.data)
    table = None
    if args.utilities:
        if os.path.exists(args.utilities):
            table = parse_utilities(args.utilities)
        elif args.default_utility is None:
            raise DataError(f"utility file not found: {args.utilities}")
    return dataset, fill_utilities(dataset, table, args.default_utility)


def _pattern_set(patterns) -> set:
    return {(lsequence_sort_key(p.lsequence), p.umax) for p in patterns}


def _mine_strategies(enc, cfg: MiningConfig, bounds, expected: set | None = None):
    """Mine `enc` under each bound in turn, each run building its own
    vocabulary.

    Returns each strategy's (patterns, stats) by name, and the size of the
    pattern set of each strategy whose set differs from `expected`, by
    default the first strategy's.
    """
    results, wrong = {}, {}
    for b in bounds:
        results[b.value] = mine(enc, cfg.with_strategy(b))
        got = _pattern_set(results[b.value][0])
        if expected is None:
            expected = got
        elif got != expected:
            wrong[b.value] = len(got)
    return results, wrong


def _cmd_mine(args) -> int:
    if args.threads < 1:
        print(f"intervalmine: error: --threads must be >= 1: {args.threads}", file=sys.stderr)
        return USAGE_ERROR
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    if not strategies:
        print("intervalmine: error: no strategy given", file=sys.stderr)
        return USAGE_ERROR
    try:
        bounds = [UpperBound.from_name(s) for s in strategies]
        cfg = MiningConfig(
            xi=args.xi, max_length=args.K, max_size=args.Z, xi_mode=args.xi_mode
        )
    except ValueError as e:
        print(f"intervalmine: error: {e}", file=sys.stderr)
        return USAGE_ERROR
    # the report names each strategy by its canonical value
    strategies = [b.value for b in bounds]
    if len(set(strategies)) < len(strategies):
        print(f"intervalmine: error: a strategy is named twice: {args.strategy}", file=sys.stderr)
        return USAGE_ERROR

    dataset, table = _load_inputs(args)
    # the report needs three figures of the interval columns, and mining
    # only their encoding: the columns are freed before mining starts
    described = {
        "sequences": len(dataset.ids),
        "intervals": len(dataset.label),
        "alphabet": list(dataset.labels()),
    }
    enc = encode_intervals(dataset, table)
    del dataset, table
    threshold = resolve_threshold(cfg, enc)

    results, wrong = _mine_strategies(enc, cfg, bounds)
    for name in wrong:
        print(
            f"intervalmine: internal error: strategy {name!r} "
            "produced a different pattern set",
            file=sys.stderr,
        )
    if wrong:
        return INTERNAL_ERROR

    patterns = results[strategies[0]][0]
    report = {
        "config": {
            "data": args.data,
            "utilities": args.utilities,
            "default_utility": args.default_utility,
            "xi": args.xi,
            "xi_mode": args.xi_mode,
            "K": args.K,
            "Z": args.Z,
            "strategies": strategies,
            "threads": args.threads,
        },
        "dataset": {**described, "total_utility": enc.total_utility},
        "threshold": threshold,
        "patterns": [
            {"pattern": [list(c.labels) for c in p.lsequence.coincidences], "umax": p.umax}
            for p in patterns
        ],
        "stats": {
            name: _stats_dict(res[1], args.timings) for name, res in results.items()
        },
    }
    text = _json_report(report) if args.format == "json" else _table_report(report)
    _emit(text, args.output)
    return 0


def _cmd_gen(args) -> int:
    try:
        params = oracle.GeneratorParams(
            seed=args.seed,
            num_sequences=args.sequences,
            max_intervals_per_seq=args.max_intervals,
            alphabet_size=args.alphabet,
            max_time=args.max_time,
            max_duration=args.max_duration,
            max_external_utility=args.max_utility,
        )
    except ValueError as e:
        print(f"intervalmine: error: {e}", file=sys.stderr)
        return USAGE_ERROR
    dataset, table = oracle.random_dataset(params)
    if args.output:
        write_dataset(dataset, args.output)
    else:
        write_dataset(dataset, sys.stdout)
    if args.utilities_out:
        write_utilities(table, args.utilities_out)
    return 0


def _check_instance(
    ds: ESequenceDataset, table: UtilityTable, cfg: MiningConfig, seed: int, label: str
) -> bool:
    """Whether every strategy, mining `ds` written out with mixed
    whitespace (laid out by `seed`) as `mine` reads and encodes a file,
    finds the patterns brute force finds on the object model, and the
    arrays equal the object model's encoding."""
    cdata = transform_dataset(ds, table)
    columns = read_intervals(StringIO(_laid_out(ds, random.Random(seed))))
    enc = encode_intervals(columns, table)
    ok = same_encoding(enc, encode_dataset(cdata))
    if not ok:
        print(f"check {label}: array ingest differs from the object encoding", file=sys.stderr)
    expected = _pattern_set(oracle.brute_force_mine(cdata, cfg))
    for name, size in _mine_strategies(enc, cfg, UpperBound, expected)[1].items():
        print(
            f"check {label}: strategy {name} disagrees with brute force "
            f"({size} vs {len(expected)} patterns)",
            file=sys.stderr,
        )
        ok = False
    return ok


def _laid_out(ds: ESequenceDataset, rng) -> str:
    """The dataset's lines with runs of spaces, tabs, "\x0b" and "\xa0"
    between and around their fields, and comment and blank lines between
    them, all drawn from `rng`."""

    def gap(least: int) -> str:
        return "".join(rng.choices(" \t\x0b\xa0", k=rng.randint(least, 3)))

    lines = []
    for line in dataset_lines(ds):
        if rng.random() < 0.2:
            lines.append(rng.choice(("# a comment", gap(0) + "#", "", gap(1))))
        lines.append(gap(0) + "".join(f + gap(1) for f in line.split("\t")))
    return "".join(line + "\n" for line in lines)


def _cmd_check(args) -> int:
    dataset = parse_dataset(StringIO(oracle.EXAMPLE_DATA))
    table = UtilityTable(oracle.EXAMPLE_UTILITIES)
    agree = []
    for xi, k, z in ((22.0, 3, 2), (0.25, 3, 2), (0.0, 2, 2)):
        mode = "relative" if xi < 1 and xi > 0 else "absolute"
        cfg = MiningConfig(xi=xi, max_length=k, max_size=z, xi_mode=mode)
        agree.append(_check_instance(dataset, table, cfg, args.seed, f"example xi={xi}"))

    # random instances of four classes in turn, by (fractional utilities,
    # threshold on a pattern's umax, relative threshold): the last two put
    # it where the order of a sum can flip a pattern
    classes = {"integer": (False, False, False), "fractional": (True, False, False),
               "on a pattern's umax": (True, True, False), "on umax / total": (True, True, True)}
    drawn = dict.fromkeys(classes, 0)
    rng = random.Random(args.seed)
    for i in range(args.instances):
        kind = list(classes)[i % len(classes)]
        fractional, on_pattern, relative = classes[kind]
        drawn[kind] += 1
        params = oracle.GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 4),
            max_intervals_per_seq=rng.randint(1, 6),
            alphabet_size=rng.randint(1, 4),
            fractional=fractional,
        )
        ds, tab = oracle.random_dataset(params)
        cdata = transform_dataset(ds, tab)
        total = dataset_utility(cdata)
        k, z, xi = rng.randint(1, 3), rng.randint(1, 2), rng.uniform(0.0, total)
        if on_pattern:
            xi = rng.choice(oracle.brute_force_mine(cdata, MiningConfig(0.0, k, z))).umax
        if relative:
            xi = min(xi / total, 1.0) if total else 0.0
        cfg = MiningConfig(xi, k, z, "relative" if relative else "absolute")
        agree.append(_check_instance(ds, tab, cfg, params.seed, f"random #{i} ({kind})"))

    print("check: running example 3, " + ", ".join(f"{c} {n}" for c, n in drawn.items()))
    if not all(agree):
        print(f"check: {agree.count(False)}/{len(agree)} instances disagreed", file=sys.stderr)
        return INTERNAL_ERROR
    print(f"check: {len(agree)} instances agree with brute force")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except (DataError, OSError) as e:
        print(f"intervalmine: error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
