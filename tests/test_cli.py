"""End-to-end command line behavior and exit codes."""
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from intervalmine import cli, encoding, miner
from intervalmine.cli import DATA_ERROR, USAGE_ERROR, main

from conftest import EXAMPLE_DATA

UTILITY_TEXT = "A\t2\nB\t1\nC\t1\nD\t3\nE\t2\nF\t5\n"


@pytest.fixture
def data_file(tmp_path):
    f = tmp_path / "events.tsv"
    f.write_text(EXAMPLE_DATA)
    return str(f)


@pytest.fixture
def utility_file(tmp_path):
    f = tmp_path / "utilities.tsv"
    f.write_text(UTILITY_TEXT)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mine_args(data_file, utility_file, *extra):
    return (
        "mine", "--data", data_file, "--utilities", utility_file,
        "--xi", "22", "-K", "3", "-Z", "2", *extra,
    )


# --- exit codes ---------------------------------------------------------------


def test_missing_required_flag_is_usage_error(capsys, data_file):
    code, _, err = run(capsys, "mine", "--data", data_file, "-K", "3", "-Z", "2")
    assert code == USAGE_ERROR
    assert "--xi" in err


def test_unknown_strategy_is_usage_error(capsys, data_file, utility_file):
    code, _, err = run(
        capsys, *mine_args(data_file, utility_file, "--strategy", "twu")
    )
    assert code == USAGE_ERROR
    assert "twu" in err


def test_the_benchmark_flag_is_gone(capsys, data_file, utility_file):
    """A strategy list runs each strategy without it."""
    code, out, err = run(
        capsys, *mine_args(data_file, utility_file, "--strategy", "ldc,pdc", "--benchmark")
    )
    assert (code, out) == (USAGE_ERROR, "")
    assert "--benchmark" in err


def test_a_strategy_named_twice_is_usage_error(capsys, tmp_path, utility_file):
    """Names are compared case-insensitively, and the error comes before
    any input is read: the data file does not exist."""
    missing = str(tmp_path / "absent.tsv")
    for names in ("pdc,pdc", "pdc,PDC", "none, ldc,Ldc"):
        code, out, err = run(
            capsys, *mine_args(missing, utility_file, "--strategy", names)
        )
        assert (code, out) == (USAGE_ERROR, ""), names
        assert "named twice" in err


def test_strategies_are_reported_by_their_canonical_names(capsys, data_file, utility_file):
    code, out, _ = run(
        capsys,
        *mine_args(data_file, utility_file, "--strategy", "PDC, Ldc"),
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["strategies"] == ["pdc", "ldc"]
    assert list(report["stats"]) == ["pdc", "ldc"]


def test_invalid_threshold_is_usage_error(capsys, data_file, utility_file):
    code, _, err = run(
        capsys, "mine", "--data", data_file, "--utilities", utility_file,
        "--xi", "1.5", "--xi-mode", "relative", "-K", "3", "-Z", "2",
    )
    assert code == USAGE_ERROR


def test_non_finite_threshold_is_usage_error(capsys, data_file, utility_file):
    for xi in ("nan", "inf"):
        code, _, err = run(
            capsys, "mine", "--data", data_file, "--utilities", utility_file,
            "--xi", xi, "-K", "3", "-Z", "2",
        )
        assert code == USAGE_ERROR, xi
        assert "finite" in err


def test_threads_below_one_is_usage_error(capsys, data_file, utility_file):
    for threads in ("0", "-3"):
        code, _, err = run(
            capsys, *mine_args(data_file, utility_file, "--threads", threads)
        )
        assert code == USAGE_ERROR, threads
        assert "--threads" in err


def test_usage_errors_are_reported_before_reading_the_data(capsys, tmp_path):
    code, _, err = run(
        capsys, "mine", "--data", str(tmp_path / "missing.tsv"), "--default-utility", "1",
        "--xi", "-1", "-K", "0", "-Z", "1",
    )
    assert code == USAGE_ERROR
    assert "missing.tsv" not in err


def test_non_finite_default_utility_is_data_error(capsys, data_file, utility_file):
    # whether the default fills gaps or goes unused, it must not reach the report
    for table in ((), ("--utilities", utility_file)):
        code, out, err = run(
            capsys, "mine", "--data", data_file, *table, "--default-utility", "nan",
            "--xi", "22", "-K", "3", "-Z", "2",
        )
        assert code == DATA_ERROR, table
        assert out == ""
        assert "finite" in err


def test_negative_default_utility_is_data_error(capsys, data_file, utility_file):
    # rejected even when the table is complete and the default fills nothing
    for table in ((), ("--utilities", utility_file)):
        code, out, err = run(
            capsys, "mine", "--data", data_file, *table, "--default-utility", "-1",
            "--xi", "22", "-K", "3", "-Z", "2",
        )
        assert code == DATA_ERROR, table
        assert out == ""
        assert "negative" in err


def test_missing_data_file_is_data_error(capsys, tmp_path, utility_file):
    code, _, err = run(
        capsys, "mine", "--data", str(tmp_path / "nope.tsv"),
        "--utilities", utility_file, "--xi", "1", "-K", "2", "-Z", "2",
    )
    assert code == DATA_ERROR


def test_malformed_line_is_data_error(capsys, tmp_path, utility_file):
    bad = tmp_path / "bad.tsv"
    bad.write_text("1 A 12 6\n")
    code, _, err = run(
        capsys, "mine", "--data", str(bad), "--utilities", utility_file,
        "--xi", "1", "-K", "2", "-Z", "2",
    )
    assert code == DATA_ERROR
    assert "line 1" in err


def test_non_utf8_input_is_data_error(capsys, tmp_path, data_file, utility_file):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"1 A 0 2\n1 \xff 1 3\n")
    for data, utilities in ((str(bad), utility_file), (data_file, str(bad))):
        code, _, err = run(
            capsys, "mine", "--data", data, "--utilities", utilities,
            "--xi", "1", "-K", "2", "-Z", "2",
        )
        assert code == DATA_ERROR
        assert "line 2: not UTF-8 text (byte 0xff at offset 10)" in err
        assert "Traceback" not in err


def test_missing_utilities_without_default_is_data_error(capsys, data_file, tmp_path):
    code, _, err = run(
        capsys, "mine", "--data", data_file,
        "--utilities", str(tmp_path / "nope.tsv"),
        "--xi", "1", "-K", "2", "-Z", "2",
    )
    assert code == DATA_ERROR


def test_a_label_no_utility_file_can_list_is_data_error(capsys, tmp_path):
    """In a utility file "#A 3" is a comment: the default does not price
    "#A" for a table that seems to list it."""
    data, table = tmp_path / "events.tsv", tmp_path / "utilities.tsv"
    data.write_text("1 #A 0 5\n")
    table.write_text("#A 3\n")
    mine = (
        "mine", "--data", str(data), "--default-utility", "7", "--xi", "1", "-K", "1", "-Z", "1",
    )
    code, out, err = run(capsys, *mine, "--utilities", str(table))
    assert (code, out) == (DATA_ERROR, "")
    assert "'#A': a utility file line that starts with '#' is a comment" in err
    code, out, _ = run(capsys, *mine)
    assert code == 0
    assert json.loads(out)["patterns"] == [{"pattern": [["#A"]], "umax": 35.0}]


def test_incomplete_utility_table_is_data_error(capsys, data_file, tmp_path):
    partial = tmp_path / "partial.tsv"
    partial.write_text("A\t2\n")
    code, _, err = run(
        capsys, "mine", "--data", data_file, "--utilities", str(partial),
        "--xi", "1", "-K", "2", "-Z", "2",
    )
    assert code == DATA_ERROR
    assert "'B'" in err


def test_arrays_over_the_memory_ceiling_are_a_data_error(
    capsys, monkeypatch, data_file, utility_file
):
    # the running example needs 4 x (8 x 1 + 8 + 9) float64/uint64 cells
    # and 33 int32 label cells
    monkeypatch.setattr(encoding, "MAX_ARRAY_BYTES", 931)
    code, out, err = run(capsys, *mine_args(data_file, utility_file))
    assert code == DATA_ERROR
    assert out == ""
    assert "932 bytes for 4 sequences x 8 windows x 1 mask words and 33 label cells" in err
    monkeypatch.setattr(encoding, "MAX_ARRAY_BYTES", 932)
    assert run(capsys, *mine_args(data_file, utility_file))[0] == 0


# --- mining reports -----------------------------------------------------------


def test_mine_reports_the_boundary_pattern(capsys, data_file, utility_file):
    code, out, _ = run(capsys, *mine_args(data_file, utility_file))
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 22.0
    assert report["dataset"]["sequences"] == 4
    assert report["dataset"]["intervals"] == 17
    assert report["dataset"]["total_utility"] == 134.0
    assert {"pattern": [["A"], ["B"]], "umax": 22.0} in report["patterns"]
    assert "pdc" in report["stats"]
    assert "elapsed_ms" not in report["stats"]["pdc"]


def test_reports_are_byte_identical(capsys, data_file, utility_file):
    _, first, _ = run(capsys, *mine_args(data_file, utility_file, "--threads", "4"))
    _, second, _ = run(capsys, *mine_args(data_file, utility_file, "--threads", "4"))
    assert first == second


def test_threads_do_not_change_the_patterns(capsys, data_file, utility_file):
    _, seq, _ = run(capsys, *mine_args(data_file, utility_file))
    _, par, _ = run(capsys, *mine_args(data_file, utility_file, "--threads", "4"))
    assert json.loads(seq)["patterns"] == json.loads(par)["patterns"]
    assert json.loads(seq)["stats"] == json.loads(par)["stats"]


def test_timings_flag_adds_elapsed(capsys, data_file, utility_file):
    code, out, _ = run(capsys, *mine_args(data_file, utility_file, "--timings"))
    assert code == 0
    assert "elapsed_ms" in json.loads(out)["stats"]["pdc"]


def test_table_format(capsys, data_file, utility_file):
    code, out, _ = run(
        capsys, *mine_args(data_file, utility_file, "--format", "table")
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# dataset: 4 sequences, 17 intervals")
    assert "pattern\tumax" in lines
    assert "{A}{B}\t22.0" in lines


def test_output_file(capsys, data_file, utility_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, *mine_args(data_file, utility_file, "--output", str(target))
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["threshold"] == 22.0


def test_default_utility_fills_all_labels(capsys, data_file):
    code, out, _ = run(
        capsys, "mine", "--data", data_file, "--default-utility", "1",
        "--xi", "0.25", "--xi-mode", "relative", "-K", "4", "-Z", "5",
        "--strategy", "pdc",
    )
    assert code == 0
    report = json.loads(out)
    # every label now worth 1: total utility is the summed coverage
    assert report["config"]["default_utility"] == 1.0
    assert report["patterns"]
    assert report["threshold"] == pytest.approx(0.25 * report["dataset"]["total_utility"])


def test_default_utility_with_absent_table_path(capsys, data_file, tmp_path):
    code, out, _ = run(
        capsys, "mine", "--data", data_file,
        "--utilities", str(tmp_path / "absent.tsv"), "--default-utility", "1",
        "--xi", "1", "-K", "2", "-Z", "2",
    )
    assert code == 0


def test_benchmark_compares_strategies(capsys, data_file, utility_file):
    code, out, _ = run(
        capsys,
        *mine_args(data_file, utility_file, "--strategy", "none,ldc,pdc"),
    )
    assert code == 0
    report = json.loads(out)
    assert set(report["stats"]) == {"none", "ldc", "pdc"}
    gen = {k: v["candidates_generated"] for k, v in report["stats"].items()}
    assert gen["pdc"] <= gen["ldc"] <= gen["none"]


def test_benchmark_encodes_the_input_once(capsys, monkeypatch, data_file, utility_file):
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cli, "encode_intervals", counting(cli.encode_intervals))
    monkeypatch.setattr(miner, "encode_dataset", counting(miner.encode_dataset))
    code, _, _ = run(
        capsys,
        *mine_args(data_file, utility_file, "--strategy", "none,ldc,pdc"),
    )
    assert code == 0
    assert calls == ["encode_intervals"]


def test_benchmark_builds_each_vocabulary_once(capsys, monkeypatch, data_file, utility_file):
    """Each strategy of a list builds its vocabulary once, and its stats
    read as in a run of that strategy alone."""
    alone = {}
    for name in ("none", "ldc", "pdc"):
        code, out, _ = run(capsys, *mine_args(data_file, utility_file, "--strategy", name))
        assert code == 0
        alone[name] = json.loads(out)["stats"][name]

    builds = []
    build = miner._build_vocabulary

    def counting(ctx, stats):
        builds.append(ctx.cfg.strategy.value)
        return build(ctx, stats)

    monkeypatch.setattr(miner, "_build_vocabulary", counting)
    code, out, _ = run(
        capsys,
        *mine_args(data_file, utility_file, "--strategy", "none,ldc,pdc"),
    )
    assert code == 0
    assert builds == ["none", "ldc", "pdc"]
    assert json.loads(out)["stats"] == alone


def test_relative_threshold_report(capsys, data_file, utility_file):
    code, out, _ = run(
        capsys, "mine", "--data", data_file, "--utilities", utility_file,
        "--xi", "0.25", "--xi-mode", "relative", "-K", "4", "-Z", "5",
        "--strategy", "pdc",
    )
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 33.5
    assert report["config"]["K"] == 4
    assert report["config"]["Z"] == 5


# --- gen and check --------------------------------------------------------------


def test_gen_writes_parseable_files(capsys, tmp_path):
    data = tmp_path / "gen.tsv"
    utils = tmp_path / "gen-utilities.tsv"
    code, out, _ = run(
        capsys, "gen", "--seed", "7", "--output", str(data),
        "--utilities-out", str(utils),
    )
    assert code == 0
    from intervalmine.io import parse_dataset, parse_utilities

    d = parse_dataset(str(data))
    t = parse_utilities(str(utils))
    assert len(d) > 0
    for label in d.labels():
        assert label in t


def test_gen_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--seed", "11")
    code2, out2, _ = run(capsys, "gen", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_rejects_bad_params(capsys):
    code, _, err = run(capsys, "gen", "--sequences", "0")
    assert code == USAGE_ERROR


def test_check_small_run(capsys, monkeypatch):
    """Every instance, the running example's three included, is mined as
    `mine` mines a file: from one `encode_intervals` call."""
    calls = []
    encode = cli.encode_intervals
    monkeypatch.setattr(cli, "encode_intervals", lambda *a: calls.append(1) or encode(*a))
    code, out, _ = run(capsys, "check", "--seed", "3", "--instances", "4")
    assert code == 0
    assert "7 instances agree with brute force" in out
    assert (
        "running example 3, integer 1, fractional 1, on a pattern's umax 1, on umax / total 1"
        in out
    )
    assert len(calls) == 7


def test_python_dash_m_runs_the_command_line():
    """`python -m intervalmine` is the `intervalmine` command."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-m", "intervalmine", "check", "--instances", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "4 instances agree with brute force" in done.stdout


# --- docs -----------------------------------------------------------------------


def test_every_readme_command_parses():
    """Each `intervalmine` command of README's sh blocks, its continuation
    lines joined, parses, so a removed flag cannot linger in the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in readme.split("```sh\n")[1:]:
        text = block.split("```")[0].replace("\\\n", " ")
        for line in text.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["intervalmine"]:
                commands.append(words[1:])
    assert len(commands) >= 5
    for words in commands:
        cli._build_parser().parse_args(words)
