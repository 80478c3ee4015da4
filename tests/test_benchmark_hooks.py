"""The benchmark's tracer wraps intervalmine functions by module attribute;
every attribute it names must still exist, or the traced runs break."""
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
    # the tracer hooks neither the leaf layout nor the vocabulary's pricing,
    # so their evaluations and chunks are counted here
    leaf_batches, price_chunks = [], []
    summarize, price = miner._summarize_leaves, miner._price

    def counted(ctx, rows, scores, candidates):
        leaf_batches.append(len(candidates))
        return summarize(ctx, rows, scores, candidates)

    def counted_price(*args):
        price_chunks.append(len(args[2]))
        return price(*args)

    monkeypatch.setattr(miner, "_summarize_leaves", counted)
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
    # one kernel call scores a batch: all candidates of one prefix here.
    # The 6 prefixes of length 1 go through the kernel; the 19 of length 2,
    # whose 79 candidates are leaves at K = 3, are scored from the leaf
    # layout, and the matched rows count only the kernel's candidates
    assert counts["kernels.extend_calls.grow"] == 6
    assert len(leaf_batches) == 19 and sum(leaf_batches) == 79
    # no kernel call scores from the empty prefix: the vocabulary phase
    # prices its entries from their cells, and each root's score rows are
    # read off its cells when growth reaches it
    assert "kernels.extend_calls.vocab" not in counts
    assert "kernels.rows_scanned.vocab" not in counts
    assert counts["kernels.matched_rows.grow"] == 65
    # growth scores only the sequences a prefix matched, never all four
    assert counts["kernels.rows_scanned.grow"] < 4 * counts["kernels.extend_calls.grow"]
    # the bound inputs of a whole batch come from one weighted sum, never
    # one per candidate: one per pricing chunk, kernel batch or leaf batch
    assert len(price_chunks) == 4
    batches = len(price_chunks) + counts["kernels.extend_calls.grow"] + len(leaf_batches)
    assert 0 < counts["encoding.wu_calls"] <= batches


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
