"""Reading and writing interval datasets and utility tables.

Dataset lines are `sequence_id  label  begin  finish`, one interval per
line, separated by any whitespace `str.split()` splits at; `#` starts a
comment and blank lines are skipped. Utility lines are `label  value`.

`read_intervals` reads a dataset into columns for the mining path: it
tokenizes the file's UTF-8 bytes and converts plain decimal numbers in
numpy. `parse_dataset` builds the object model with `str.split()` and
`int()`; it is the reference that names the first offending line of
malformed input for both.
"""
from __future__ import annotations

import io as _io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# The characters `str.split()` and `str.strip()` split at: the ASCII ones
# as a `bytes.translate` table that maps them to 1 and every other byte to
# 0, the others as the string of them that `read_intervals` turns into
# spaces before it reads any bytes.
_ASCII_SPACE = bytes(c in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " for c in range(256))
_UNICODE_SPACES = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)
_UNICODE_SPACE = re.compile(f"[{_UNICODE_SPACES}]")

# `read_intervals` tokenizes about this many bytes at a time, whole lines
# to a chunk, so that its per-byte and per-token arrays stay small.
READ_CHUNK_BYTES = 2**15


def read_intervals(source) -> IntervalColumns:
    """The dataset in `source` as columns, with every check of
    `parse_dataset` run on whole columns.

    The text is read as UTF-8 bytes (a lone surrogate from a text handle
    passes through, as in `parse_dataset`), about `READ_CHUNK_BYTES` bytes
    at a time, whole lines to a chunk. Lines end at "\n" only. Tokens are
    the runs of bytes between the whitespace `str.split()` splits at. An
    id or time of at most 18 ASCII digits is converted in numpy; any other
    is converted with `int()`, as `parse_dataset` does. Labels are coded
    from their bytes, a group of tokens of one width at a time. Ids are
    ranked before the duplicate check, which sorts the intervals on one
    packed key (`lex_order`), with `np.lexsort` only when the ranges need
    more than 63 bits. When any check fails, `parse_dataset` reparses the
    text to raise the error of the first offending line.
    """
    text = _read_text(source)
    spaced = text if text.isascii() else _UNICODE_SPACE.sub(" ", text)
    # 18 leading spaces: every number's 18-byte window lies in the buffer
    raw = b" " * 18 + spaced.encode("utf-8", "surrogatepass") + b"\n"
    del spaced
    data = np.frombuffer(raw, dtype=np.uint8)
    spaces = np.frombuffer(raw.translate(_ASCII_SPACE), dtype=bool)
    out = np.empty((4, raw.count(b"\n")), dtype=np.int64)  # sid, label, begin, finish
    index: dict[bytes, int] = {}  # a label's bytes -> its code
    rows = 0
    for starts, ends in _data_tokens(raw, data, spaces, text):
        numbers, m = [0, 2, 3], starts.shape[1]
        out[numbers, rows : rows + m] = _integers(data, starts[numbers], ends[numbers], text)
        out[1, rows : rows + m] = _label_codes(data, starts[1], ends[1], index)
        rows += m
    del raw, data, spaces
    sid, label, begin, finish = out[:, :rows]
    labels = [key.decode("utf-8", "surrogatepass") for key in index]
    alphabet = tuple(sorted(labels))
    # each label's place in `alphabet`: a permutation's argsort is its inverse
    label[:] = np.argsort(sorted(range(len(labels)), key=labels.__getitem__))[label]
    if (sid < 1).any() or (begin < 0).any() or (begin >= finish).any():
        _raise_first_error(text)
    # ranked first: ranks span the number of sequences, raw ids can span
    # up to 2**63 and would leave no bits of the sort key to the others
    ids, sequence = np.unique(sid, return_inverse=True)
    sid[:] = sequence
    order = lex_order((sid, label, begin, finish))
    repeated = np.ones(max(rows - 1, 0), dtype=bool)  # equal to the next in order
    for column in (sid, label, begin, finish):
        ranked = column[order]
        repeated &= ranked[1:] == ranked[:-1]
    if repeated.any():
        _raise_first_error(text)
    return IntervalColumns(alphabet, ids, sid, label, begin, finish)


def lex_order(columns) -> np.ndarray:
    """The row order `np.lexsort(columns[::-1])` gives nonnegative int64
    `columns`, the most significant first, except that rows equal in every
    column may come out in any order.

    When the product of the columns' ranges (max - min + 1) is below
    2**63, the rows are sorted with one `np.argsort` of an int64 key that
    packs each row's offsets from the minima, most significant first;
    otherwise with `np.lexsort`.
    """
    if not len(columns[0]):
        return np.zeros(0, dtype=np.intp)
    lows = [int(column.min()) for column in columns]
    spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    if math.prod(spans) >= 2**63:
        return np.lexsort(columns[::-1])
    key = columns[0] - lows[0]
    for column, low, span in zip(columns[1:], lows[1:], spans[1:]):
        # in this order every partial sum lies in [-low, product of spans)
        key *= span
        key -= low
        key += column
    return np.argsort(key)


def _data_tokens(raw: bytes, data: np.ndarray, spaces: np.ndarray, text: str):
    """The tokens of the data lines of each chunk of `READ_CHUNK_BYTES`
    bytes or more, whole lines to a chunk, as [4, lines] arrays of start and
    end offsets; chunks without data lines are skipped.

    A line of tokens other than a comment must have four, or the text goes
    to `_raise_first_error`. `data` views `raw`, which starts with a space
    and ends with a line end, and `spaces` flags its whitespace bytes.
    """
    lo = 0  # each chunk starts on a space: the first byte or a line end
    while lo < len(raw) - 1:
        hi = raw.find(b"\n", lo + READ_CHUNK_BYTES) + 1 or len(raw)
        # tokens start and end where a run of spaces does
        edges = np.flatnonzero(spaces[lo + 1 : hi] != spaces[lo : hi - 1]) + (lo + 1)
        starts, ends = edges[0::2], edges[1::2]
        line_ends = np.flatnonzero(data[lo + 1 : hi] == 10) + (lo + 1)
        lo = hi - 1
        if not len(starts):
            continue
        # the tokens of a line are starts[cut - count : cut]
        cut = np.searchsorted(starts, line_ends)
        count = np.diff(cut, prepend=0)
        kept = (count > 0) & (np.take(data, np.take(starts, cut - count, mode="clip")) != ord("#"))
        if (kept & (count != 4)).any():
            _raise_first_error(text)
        if not kept.all():
            fields = np.repeat(kept, count)
            starts, ends = starts[fields], ends[fields]
        if len(starts):
            yield starts.reshape(-1, 4).T, ends.reshape(-1, 4).T


def _integers(data: np.ndarray, starts, ends, text: str) -> np.ndarray:
    """The integers of the tokens [starts, ends) of `data`, as int64.

    A token of at most 18 ASCII digits (10**18 - 1 < 2**63) is converted
    digit by digit, a column of its last 18 bytes at a time; any other goes
    through `int()`, and one that `int()` rejects or int64 cannot hold
    sends the text to `_raise_first_error`.
    """
    width = ends - starts
    value = np.zeros(width.shape, dtype=np.int64)
    worst = np.zeros(width.shape, dtype=np.uint8)  # the largest digit
    for back in range(min(int(width.max()), 18), 0, -1):
        digit = np.take(data, ends - back) - np.uint8(ord("0"))
        digit *= back <= width  # a byte before the token counts 0
        np.maximum(worst, digit, out=worst)
        value *= 10
        value += digit
    for i in zip(*np.nonzero((worst > 9) | (width > 18))):
        try:
            number = int(data[starts[i] : ends[i]].tobytes().decode("utf-8", "surrogatepass"))
        except ValueError:
            _raise_first_error(text)
        if not -(2**63) <= number <= INT64_MAX:
            _raise_first_error(text)
        value[i] = number
    return value


def _label_codes(data: np.ndarray, starts, ends, index: dict[bytes, int]) -> np.ndarray:
    """The code of each label token [starts, ends) of `data`, given new
    labels the next codes in `index`.

    Tokens of one width are gathered and sorted together, as big-endian
    integers up to 8 bytes and as byte strings above, so the bytes
    gathered are those of the labels themselves.
    """
    width = ends - starts
    codes = np.empty(len(starts), dtype=np.int64)
    for w in np.unique(width).tolist():
        at = np.flatnonzero(width == w)
        if w <= 8:
            packed = np.zeros(len(at), dtype=np.uint64)
            for j in range(w):
                packed <<= np.uint64(8)
                packed |= np.take(data, starts[at] + j)
            distinct, inverse = np.unique(packed, return_inverse=True)
            names = [key.to_bytes(w, "big") for key in distinct.tolist()]
        else:
            keys = sliding_window_view(data, w)[starts[at]].view(np.dtype((np.void, w)))
            distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
            names = distinct.tolist()
        known = [index.setdefault(name, len(index)) for name in names]
        codes[at] = np.array(known, dtype=np.int64)[inverse]
    return codes


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
    """Complete the table over the dataset's alphabet, or fail loudly. With
    a table, a label that starts with "#" is an error even when a default
    is given: a utility file cannot list it."""
    if default is not None and not math.isfinite(default):
        raise DataError(f"default utility must be finite: {default}")
    if default is not None and default < 0:
        raise DataError(f"default utility must be nonnegative: {default}")
    entries = dict(table.entries) if table is not None else {}
    missing = [lab for lab in d.labels() if lab not in entries]
    commented = [lab for lab in missing if lab.startswith("#")] if table is not None else []
    if commented:
        raise DataError(
            f"no external utility for label {commented[0]!r}: a utility file line "
            "that starts with '#' is a comment, so the file cannot list it"
        )
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
