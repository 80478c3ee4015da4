"""The checked-in benchmark trajectory: every `BENCH_<commit>.json` at the
root of the repository is one change's `perfbench/run.py` results, next to
those of the commit it was measured against, run in the same session."""
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trajectory_record_names_a_commit_and_only_correct_runs():
    """Each record parses, names the commit it was measured against in its
    file name, and records only correct runs with no failed operation;
    runs of one workload and seed mined the same patterns."""
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        commit = record["commit"]
        assert re.fullmatch(r"[0-9a-f]{40}", commit), path.name
        assert path.name == f"BENCH_{commit[:7]}.json"
        assert record["runs"], path.name
        digests = {}
        for run in record["runs"]:
            where = (path.name, run["workload"], run["tree"], run["seed"], run["trace"])
            assert run["result"]["correct"] is True, where
            assert run["result"]["failed"] == 0 < run["result"]["attempted"], where
            assert re.fullmatch(r"[0-9a-f]{64}", run["output"]), where
            assert {"python", "numpy", "commit"} <= run["env"].keys(), where
            digests.setdefault((run["workload"], run["seed"]), set()).add(run["output"])
        assert all(len(d) == 1 for d in digests.values()), path.name


def test_every_record_summarizes_its_trace0_runs_by_the_median_of_seed_medians():
    """Each record's `median_of_seeds_trace0` covers every workload, tree
    and metric of its `--trace 0` runs, and each value is the median over
    seeds of that seed's median run, up to the record's 6-decimal
    rounding."""
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        runs = {}
        for run in record["runs"]:
            if run["trace"] == 0:
                for metric, value in run["result"]["metrics"].items():
                    seeds = runs.setdefault((run["workload"], run["tree"], metric), {})
                    seeds.setdefault(run["seed"], []).append(value["value"])
        summary = {
            (workload, tree, metric): value
            for workload, trees in record["median_of_seeds_trace0"].items()
            for tree, metrics in trees.items()
            for metric, value in metrics.items()
        }
        assert summary.keys() == runs.keys(), path.name
        for key, value in summary.items():
            want = statistics.median(statistics.median(v) for v in runs[key].values())
            assert abs(value - want) <= 1e-6, (path.name, *key)
