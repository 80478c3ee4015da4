"""Reading and writing interval datasets and utility tables.

Dataset lines are `sequence_id  label  begin  finish`, tab or space
separated, one interval per line; `#` starts a comment and blank lines are
skipped. Utility lines are `label  value`.
"""
from __future__ import annotations

import io as _io
import math
from pathlib import Path
from typing import IO, Iterable

from .model import (
    DataError,
    ESequence,
    ESequenceDataset,
    EventInterval,
    UtilityTable,
)


def _open_lines(source):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _data_lines(handle: IO[str]):
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_dataset(source) -> ESequenceDataset:
    """Parse interval lines into a dataset, grouping by sequence id."""
    handle, owned = _open_lines(source)
    per_seq: dict[int, list[EventInterval]] = {}
    seen: set[tuple[int, str, int, int]] = set()
    try:
        for lineno, line in _data_lines(handle):
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
            key = (sid, label, begin, finish)
            if key in seen:
                raise DataError(f"line {lineno}: duplicate interval {key}")
            seen.add(key)
            try:
                interval = EventInterval(label, begin, finish)
            except DataError as e:
                raise DataError(f"line {lineno}: {e}") from None
            per_seq.setdefault(sid, []).append(interval)
    finally:
        if owned:
            handle.close()
    sequences = tuple(
        ESequence(id=sid, intervals=tuple(per_seq[sid])) for sid in sorted(per_seq)
    )
    return ESequenceDataset(sequences)


def parse_utilities(source) -> UtilityTable:
    handle, owned = _open_lines(source)
    entries: dict[str, float] = {}
    try:
        for lineno, line in _data_lines(handle):
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
    finally:
        if owned:
            handle.close()
    return UtilityTable(entries)


def fill_utilities(
    d: ESequenceDataset, table: UtilityTable | None, default: float | None
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
