"""The benchmark's tracer wraps intervalmine functions by module attribute,
and its scripts import intervalmine names; every one of them must still
exist, or the benchmark's runs break."""
import ast
import importlib
import importlib.util
from pathlib import Path

from intervalmine import cli, miner
from intervalmine.oracle import EXAMPLE_DATA, EXAMPLE_UTILITIES

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_hook_resolves():
    tracing = load_tracing()
    assert tracing.HOOKS
    for module_name, attr, _, _ in tracing.HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_cli_run_counts_each_layer(tmp_path, monkeypatch):
    """A traced `mine` run on the running example: the counters the
    benchmark reports come out of the hooked functions, so a hook whose
    signature drifted shows up here as a wrong count."""
    tracing = load_tracing()
    # the tracer hooks neither growth's evaluations nor the vocabulary's
    # pricing, so their evaluations and chunks are counted here
    evaluations, chunks, price_chunks = [], [], []
    children, price = miner._children, miner._price

    def counted(ctx, stats, projection, chunk, candidates, length):
        chunks.append(len(chunk))
        evaluations.extend([(len(candidates), length < ctx.cfg.max_length)] * len(chunk))
        return children(ctx, stats, projection, chunk, candidates, length)

    def counted_price(*args):
        price_chunks.append(len(args[2]))
        return price(*args)

    monkeypatch.setattr(miner, "_children", counted)
    monkeypatch.setattr(miner, "_price", counted_price)
    data, utilities = tmp_path / "events.tsv", tmp_path / "utilities.tsv"
    data.write_text(EXAMPLE_DATA)
    utilities.write_text("".join(f"{k}\t{v}\n" for k, v in EXAMPLE_UTILITIES.items()))
    argv = [
        "mine", "--data", str(data), "--utilities", str(utilities),
        "--xi", "0.25", "--xi-mode", "relative", "-K", "3", "-Z", "2",
        "--output", str(tmp_path / "report.json"),
    ]
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(argv) == 0
    counts = tracer.summary()["counts"]
    # one strategy, one growth phase: `_mine_root` grows every root
    assert [span[0] for span in tracer.spans].count("miner.grow") == 1
    # the array ingest sums the total utility itself: no object-model walk
    assert counts.get("utility.dataset_utility_calls", 0) == 0
    assert counts["miner.vocab_candidates"] == 12
    assert counts["miner.vocab_size"] == 6
    assert counts["miner.patterns"] == 32
    # one scorer evaluation scores all candidates of one prefix: the 6
    # prefixes of length 1 below the length cap, and the 19 of length 2,
    # whose 79 candidates are leaves at K = 3
    assert [grow for _, grow in evaluations].count(True) == 6
    leaves = [size for size, grow in evaluations if not grow]
    assert len(leaves) == 19 and sum(leaves) == 79
    # siblings are evaluated in chunks: the 6 roots in one, and the
    # children of each root in one
    assert chunks == [6, 6, 4, 3, 1, 4, 1]
    # growth runs no kernel, and the vocabulary prices its entries from
    # their cells: no kernel counter is recorded
    assert not [name for name in counts if name.startswith("kernels.")]
    # the bound inputs of a whole chunk come from one weighted sum, never
    # one per candidate or per sibling: one per pricing chunk or growth
    # chunk. A pricing chunk spans parents, so each of the two levels is one
    assert len(price_chunks) == 2
    assert 0 < counts["encoding.wu_calls"] <= len(price_chunks) + len(chunks) == 9


def test_traced_check_run_opens_the_object_path_spans(capsys):
    """`check` mines what `mine` mines, and still feeds its reference, the
    brute-force oracle, from the object model through the names the
    tracer hooks on `cli`."""
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["check", "--instances", "2"]) == 0
    assert "5 instances agree" in capsys.readouterr().out
    names = {span[0] for span in tracer.spans}
    assert {"io.parse", "transform", "utility.dataset_utility", "miner.mine"} <= names


def test_every_benchmark_import_resolves():
    """Every name the benchmark's scripts import from intervalmine still
    exists, so that deleting one fails here rather than in a benchmark
    run."""
    imported = set()
    for script in TRACING.parent.glob("*.py"):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("intervalmine"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert {
        ("intervalmine", "cli"),
        ("intervalmine", "oracle"),
        ("intervalmine.cli", "main"),
        ("intervalmine.io", "parse_dataset"),
        ("intervalmine.io", "parse_utilities"),
        ("intervalmine.io", "write_dataset"),
        ("intervalmine.kernels", "active_backend"),
        ("intervalmine.model", "LSequence"),
        ("intervalmine.transform", "transform_dataset"),
    } <= imported
    for module_name, name in sorted(imported):
        module = importlib.import_module(module_name)
        found = hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}")
        assert found, f"from {module_name} import {name}"
