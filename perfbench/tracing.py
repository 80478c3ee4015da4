"""In-memory spans and counters around the calls into each intervalmine layer.

The tracer replaces functions at the module attribute each caller looks up,
so nothing under `src/` knows it is being traced. A span is
(name, start, end, parent, run); the layer of a span is the first dotted
component of its name. Spans stay in memory until `write_spans`.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "transform", "utility", "encoding", "miner", "kernels")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.c: Counter = Counter()  # counters of the current run
        self.run = 0
        self.phase = "vocab"      # phase of the latest kernel call
        self._stack: list[int] = []
        self._first = 0           # index of the current run's first span

    def begin_run(self, run: int) -> None:
        self.run, self._first, self.c = run, len(self.spans), Counter()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run))
        return self._stack[-1]

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, run = self.spans[index]
        self.spans[index] = (name, start, end, parent, run)

    def wrap(self, name, fn, count=None):
        """fn inside a span; `name` may depend on the arguments."""

        def traced(*args, **kwargs):
            index = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run in self.spans:
                out.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run}\n")

    def summary(self) -> dict:
        """Inclusive time per span name, self time per layer and the counters
        of the current run.

        A span's self time is its duration less the durations of its
        children; summed over a run it equals the root span's duration.
        """
        spans = self.spans[self._first:]
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(spans, start=self._first):
            inclusive[name] += end - start
            self_time[name.split(".")[0]] += end - start - child_time[i]
        return {"inclusive": dict(inclusive), "self": self_time, "counts": dict(self.c)}


def _count_parse(t: Tracer, args, result) -> None:
    if isinstance(args[0], (str, os.PathLike)):
        t.c["io.input_bytes"] += os.path.getsize(args[0])
    if hasattr(result, "sequences"):
        t.c["io.intervals"] += sum(len(s.intervals) for s in result.sequences)


def _count_transform(t: Tracer, args, result) -> None:
    t.c["transform.windows"] += sum(len(c.eventsets) for c in result.csequences)


def _count_encode(t: Tracer, args, enc) -> None:
    n, cap, words = enc.masks.shape
    arrays = (enc.masks, enc.durations, enc.lengths, enc.topk)
    t.c["encoding.encode_calls"] += 1
    t.c["encoding.array_bytes"] += sum(a.nbytes for a in arrays)
    t.c["encoding.real_cells"] += int(enc.lengths.sum())
    t.c["encoding.padded_cells"] += n * cap


def _kernel_phase(args) -> str:
    # prev_base is 0.0 for the empty prefix (vocabulary) and -inf otherwise
    return "kernels.extend.vocab" if args[4] == 0.0 else "kernels.extend.grow"


def _count_extend(t: Tracer, args, result) -> None:
    t.phase = "vocab" if args[4] == 0.0 else "grow"
    n, cap, words = args[0].shape
    t.c[f"kernels.extend_calls.{t.phase}"] += 1
    t.c[f"kernels.rows_scanned.{t.phase}"] += n
    t.c[f"kernels.cells_scanned.{t.phase}"] += n * cap
    t.c[f"kernels.bytes_computed.{t.phase}"] += n * cap * (8 * words + 24)


def _count_summarize(t: Tracer, args, result) -> None:
    t.c[f"kernels.matched_rows.{t.phase}"] += int(result[0].sum())


def _count_wu(t: Tracer, args, result) -> None:
    t.c["encoding.wu_calls"] += 1


def _count_utility(t: Tracer, args, result) -> None:
    t.c["utility.dataset_utility_calls"] += 1


def _count_vocab(t: Tracer, args, result) -> None:
    ctx, stats = args
    t.c["miner.vocab_candidates"] += stats.candidates_generated
    t.c["miner.vocab_size"] += len(ctx.vocab)


def _count_mine(t: Tracer, args, result) -> None:
    stats = result[1]
    t.c["miner.candidates_generated"] += stats.candidates_generated
    t.c["miner.candidates_pruned"] += stats.candidates_pruned
    t.c["miner.patterns"] += stats.patterns_found


# (module, attribute, span name, counter). Each attribute is the name the
# caller looks up at call time; `_build_vocabulary` and `_mine_root` are the
# miner's two phase entry points and have no public equivalent.
HOOKS = (
    ("intervalmine.cli", "parse_dataset", "io.parse", _count_parse),
    ("intervalmine.cli", "parse_utilities", "io.parse", _count_parse),
    ("intervalmine.cli", "fill_utilities", "io.fill", None),
    ("intervalmine.cli", "transform_dataset", "transform", _count_transform),
    ("intervalmine.cli", "mine", "miner.mine", _count_mine),
    ("intervalmine.cli", "dataset_utility", "utility.dataset_utility", _count_utility),
    ("intervalmine.utility", "dataset_utility", "utility.dataset_utility", _count_utility),
    ("intervalmine.miner", "encode_dataset", "encoding.encode", _count_encode),
    ("intervalmine.miner", "_build_vocabulary", "miner.vocab", _count_vocab),
    ("intervalmine.miner", "_mine_root", "miner.grow", None),
    ("intervalmine.miner", "extend_scores", _kernel_phase, _count_extend),
    ("intervalmine.miner", "summarize_scores", "encoding.summarize", _count_summarize),
    ("intervalmine.miner", "weighted_utilization", "encoding.wu", _count_wu),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every hook for its traced wrapper; restore the originals after."""
    saved = []
    try:
        for module_name, attr, name, count in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
