"""Reading and writing interval datasets and utility tables.

Dataset lines are `sequence_id  label  begin  finish`, tab or space
separated, one interval per line; `#` starts a comment and blank lines are
skipped. Utility lines are `label  value`.

`read_intervals` reads a dataset into columns for the mining path;
`parse_dataset` builds the object model and is the reference that names
the first offending line of malformed input for both.
"""
from __future__ import annotations

import io as _io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .model import (
    DataError,
    ESequence,
    ESequenceDataset,
    EventInterval,
    UtilityTable,
)


def _read_text(source) -> str:
    """The whole text of a path or an open text handle, without a leading
    byte-order mark.

    A file is decoded as UTF-8, and a byte that is not UTF-8 is a data
    error on the line it sits on. Its line ends are read as a file opened
    as text reads them: "\r\n" and a lone "\r" end a line too.
    """
    if not isinstance(source, (str, Path)):
        return source.read().removeprefix("\ufeff")
    data = Path(source).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = _newlines(data[: e.start].decode("utf-8")).count("\n") + 1
        raise DataError(
            f"line {lineno}: not UTF-8 text (byte 0x{data[e.start]:02x} at offset {e.start})"
        ) from None
    return _newlines(text).removeprefix("\ufeff")


def _newlines(text: str) -> str:
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _data_lines(text: str):
    # a StringIO yields the lines one at a time, split at "\n" only
    for lineno, raw in enumerate(_io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


# Ids and times are stored as int64 on the mining path.
INT64_MAX = 2**63 - 1


def parse_dataset(source) -> ESequenceDataset:
    """Parse interval lines into a dataset, grouping by sequence id."""
    per_seq: dict[int, list[EventInterval]] = {}
    seen: set[tuple[int, str, int, int]] = set()
    for lineno, line in _data_lines(_read_text(source)):
        parts = line.split()
        if len(parts) != 4:
            raise DataError(
                f"line {lineno}: expected 'id label begin finish', got {len(parts)} fields"
            )
        sid_s, label, begin_s, finish_s = parts
        try:
            sid, begin, finish = int(sid_s), int(begin_s), int(finish_s)
        except ValueError:
            raise DataError(f"line {lineno}: id and times must be integers") from None
        if sid < 1:
            raise DataError(f"line {lineno}: sequence id must be a positive integer: {sid}")
        if max(sid, begin, finish) > INT64_MAX:
            raise DataError(f"line {lineno}: id and times must be below 2**63")
        key = (sid, label, begin, finish)
        if key in seen:
            raise DataError(f"line {lineno}: duplicate interval {key}")
        seen.add(key)
        try:
            interval = EventInterval(label, begin, finish)
        except DataError as e:
            raise DataError(f"line {lineno}: {e}") from None
        per_seq.setdefault(sid, []).append(interval)
    sequences = tuple(
        ESequence(id=sid, intervals=tuple(per_seq[sid])) for sid in sorted(per_seq)
    )
    return ESequenceDataset(sequences)


@dataclass(frozen=True)
class IntervalColumns:
    """A dataset as columns, one entry per interval in file order.

    `alphabet` is the distinct labels in Python's sort order, `ids` the
    distinct sequence ids ascending. An interval's `sequence` is the index
    of its id in `ids` and its `label` the index of its label in `alphabet`.
    """

    alphabet: tuple[str, ...]
    ids: np.ndarray       # int64 [n]
    sequence: np.ndarray  # int64 [m]
    label: np.ndarray     # int64 [m]
    begin: np.ndarray     # int64 [m]
    finish: np.ndarray    # int64 [m]

    def labels(self) -> tuple[str, ...]:
        return self.alphabet


# `read_intervals` splits about this many characters at a time into Python
# strings: split whole, a large file's tokens outweigh every array of a run.
READ_CHUNK_CHARS = 2**13


def read_intervals(source) -> IntervalColumns:
    """The dataset in `source` as columns, with every check of
    `parse_dataset` run on whole columns.

    Lines, ended by "\n" only, are split and converted about
    `READ_CHUNK_CHARS` characters at a time, whole lines to a chunk.
    Integers are converted with `int()`, as `parse_dataset` does. When any
    check fails, `parse_dataset` reparses the text to raise the error of
    the first offending line.
    """
    text = _read_text(source)
    index: dict[str, int] = {}  # label -> code, in order of first appearance
    chunks = [(np.empty(0, dtype=np.int64),) * 4]  # the columns of an empty file
    end = 0
    while end < len(text):
        start, end = end, text.find("\n", end + READ_CHUNK_CHARS) + 1 or len(text)
        rows = [p for p in map(str.split, text[start:end].split("\n")) if p and p[0][0] != "#"]
        if any(map((4).__ne__, map(len, rows))):
            _raise_first_error(text)
        sid_s, label_s, begin_s, finish_s = zip(*rows) if rows else ((),) * 4
        try:
            sid, begin, finish = (
                np.array(list(map(int, col)), dtype=np.int64) for col in (sid_s, begin_s, finish_s)
            )
        except (ValueError, OverflowError):
            _raise_first_error(text)
        label = np.array([index.setdefault(lab, len(index)) for lab in label_s], dtype=np.int64)
        chunks.append((sid, label, begin, finish))
    sid, label, begin, finish = map(np.concatenate, zip(*chunks))
    del chunks
    alphabet = tuple(sorted(index))
    # each label's place in `alphabet`: a permutation's argsort is its inverse
    label = np.argsort([index[lab] for lab in alphabet])[label]
    if (sid < 1).any() or (begin < 0).any() or (begin >= finish).any():
        _raise_first_error(text)
    order = np.lexsort((finish, begin, label, sid))
    keys = np.stack((sid, label, begin, finish))[:, order]
    if (keys[:, 1:] == keys[:, :-1]).all(axis=0).any():
        _raise_first_error(text)
    ids, sequence = np.unique(sid, return_inverse=True)
    return IntervalColumns(alphabet, ids, sequence.astype(np.int64), label, begin, finish)


def _raise_first_error(text: str):
    parse_dataset(_io.StringIO(text))
    raise AssertionError("read_intervals rejected a dataset that parse_dataset accepts")


def parse_utilities(source) -> UtilityTable:
    entries: dict[str, float] = {}
    for lineno, line in _data_lines(_read_text(source)):
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected 'label value'")
        label, value_s = parts
        try:
            value = float(value_s)
        except ValueError:
            raise DataError(f"line {lineno}: utility must be a number") from None
        if not math.isfinite(value):
            raise DataError(f"line {lineno}: utility for {label!r} is not finite")
        if value < 0:
            raise DataError(f"line {lineno}: utility for {label!r} is negative")
        if label in entries:
            raise DataError(f"line {lineno}: duplicate label {label!r}")
        entries[label] = value
    return UtilityTable(entries)


def fill_utilities(
    d: ESequenceDataset | IntervalColumns, table: UtilityTable | None, default: float | None
) -> UtilityTable:
    """Complete the table over the dataset's alphabet, or fail loudly."""
    if default is not None and not math.isfinite(default):
        raise DataError(f"default utility must be finite: {default}")
    if default is not None and default < 0:
        raise DataError(f"default utility must be nonnegative: {default}")
    entries = dict(table.entries) if table is not None else {}
    missing = [lab for lab in d.labels() if lab not in entries]
    if missing:
        if default is None:
            raise DataError(
                f"no external utility for label {missing[0]!r} "
                "(pass --default-utility to fill gaps)"
            )
        for lab in missing:
            entries[lab] = float(default)
    return UtilityTable(entries)


def dataset_lines(d: ESequenceDataset) -> Iterable[str]:
    for s in d.sequences:
        for e in s.intervals:
            yield f"{s.id}\t{e.label}\t{e.begin}\t{e.finish}"


def utility_lines(table: UtilityTable) -> Iterable[str]:
    for label in table.labels():
        value = table.entries[label]
        text = repr(int(value)) if float(value).is_integer() else repr(value)
        yield f"{label}\t{text}"


def write_dataset(d: ESequenceDataset, target) -> None:
    _write_lines(dataset_lines(d), target)


def write_utilities(table: UtilityTable, target) -> None:
    _write_lines(utility_lines(table), target)


def _write_lines(lines: Iterable[str], target) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    else:
        for line in lines:
            target.write(line + "\n")


def dataset_to_string(d: ESequenceDataset) -> str:
    buf = _io.StringIO()
    write_dataset(d, buf)
    return buf.getvalue()
