"""Array ingest: `read_intervals` and `encode_intervals` against the object
path (`parse_dataset`, `transform_dataset` and the per-window reference
encoder), bit for bit, and the same error for malformed input."""
import io
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from intervalmine import io as intervalmine_io
from intervalmine import miner
from intervalmine.encoding import (
    _interval_windows,
    encode_dataset,
    encode_intervals,
    same_encoding,
)
from intervalmine.io import (
    dataset_to_string,
    lex_order,
    parse_dataset,
    parse_utilities,
    read_intervals,
)
from intervalmine.miner import MiningConfig
from intervalmine.model import DataError, UtilityTable
from intervalmine.oracle import EXAMPLE_DATA, EXAMPLE_UTILITIES, GeneratorParams, random_dataset
from intervalmine.transform import transform_dataset

from conftest import reference_encoding, wide_intervals

FRACTIONS = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2.9)
BYTE_ORDER_MARK = "\ufeff".encode()


def assert_matches_object_path(text, table):
    """The array ingest of text equals the object path's encoding, and the
    object model's adapter onto the array builder agrees too."""
    cdata = transform_dataset(parse_dataset(io.StringIO(text)), table)
    got = encode_intervals(read_intervals(io.StringIO(text)), table)
    assert same_encoding(got, reference_encoding(cdata))
    assert same_encoding(encode_dataset(cdata), got)
    return got


def fractional_table(labels, rng):
    return UtilityTable({lab: rng.choice(FRACTIONS) for lab in labels})


def shuffled_text(rng, sequences, labels, ids=range(1, 10**6)):
    """Intervals in random line order under sequence ids scattered over
    `ids`, with comments and blank lines between them."""
    lines, seen = [], set()
    for sid in rng.sample(ids, sequences):
        for _ in range(rng.randint(1, 8)):
            begin = rng.randrange(0, 30)
            row = (sid, rng.choice(labels), begin, begin + rng.randint(1, 8))
            if row not in seen:
                seen.add(row)
                lines.append(" \t".join(map(str, row)))
    rng.shuffle(lines)
    lines[len(lines) // 2 : len(lines) // 2] = ["# comment", "", "   "]
    return "\n".join(lines) + "\n"


def test_random_instances_match_the_object_path():
    rng = random.Random(606)
    for i in range(120):
        es, table = random_dataset(GeneratorParams(
            seed=rng.randrange(2**31),
            num_sequences=rng.randint(1, 12),
            max_intervals_per_seq=rng.randint(1, 9),
            alphabet_size=rng.randint(1, 6),
            max_time=rng.randint(1, 30),
            max_duration=rng.randint(1, 8),
        ))
        if i % 2:
            table = fractional_table(es.labels(), rng)
        assert_matches_object_path(dataset_to_string(es), table)


def test_fractional_tables_over_many_sequences_sum_like_the_object_path():
    """Up to 40 sequences, where the order of the sums shows in the last bits."""
    rng = random.Random(4040)
    for _ in range(60):
        labels = [chr(ord("A") + k) for k in range(rng.randint(1, 8))]
        text = shuffled_text(rng, rng.randint(9, 40), labels)
        got = assert_matches_object_path(text, fractional_table(labels, rng))
        assert got.total_utility > 0


def test_wide_alphabet_matches_the_object_path():
    es, table = wide_intervals(7, 130)
    got = assert_matches_object_path(dataset_to_string(es), table)
    assert got.words == 3


# whitespace other than space, tab and line end that `str.split()` splits at
ODD_SPACES = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"
ZEROS = "0" * 20

EDGE_CASES = [
    # overlapping, nested and touching intervals of one label
    "1 A 0 5\n1 A 3 8\n1 A 1 2\n1 A 8 9\n1 B 2 4\n2 A 0 4\n2 A 0 9\n",
    # a NUL-terminated label is a label of its own
    "1 A\x00 0 3\n1 A 1 4\n2 A\x00 2 3\n",
    # one interval per sequence
    "3 C 5 6\n1 A 0 1\n2 B 7 100\n",
    "1 A 0 1\n",
    EXAMPLE_DATA,
    # each odd space as a separator, as leading whitespace and as a blank line
    *(f"1{c}A{c}{c}0\t{c}3\n{c}\n{c}2 B{c}1 4{c}\n{c}{c}1 A 2 5\n" for c in ODD_SPACES),
    # a comment that starts with a wide space, and "#" in and before a label
    "\u3000# no data\n1 #A 0 3\n1 A#B# 1 2\n2 # 0 1\n",
    # labels of digits, labels that are byte prefixes of each other, and
    # labels whose UTF-8 bytes share a lead byte
    "1 42 0 3\n1 4 0 2\n2 A 0 1\n2 AB 1 2\n2 ABA 2 3\n1 é 1 2\n1 è 2 3\n2 è 0 1\n",
    # labels of more than 8 bytes, two of them equal in their first 9
    "1 ABCDEFGHIJ 0 3\n1 ABCDEFGHIK 1 2\n2 ABCDEFGHIJ 0 1\n2 ABCDEFGH 2 3\n1 éèéèé 0 2\n",
    # zero-padded numbers of 19 to 25 digits
    f"{ZEROS}1 A {ZEROS}00000 {ZEROS[:18]}3\n{ZEROS[:19]}2 A {ZEROS}1 {ZEROS}12\n",
    # no line end after the last line
    "1 A 0 3\n2 B 1 4",
    # times that span more than 2**62 in two sequences: the reader's
    # duplicate check and the windower's endpoint sort need `np.lexsort`
    f"1 A {2**62} {2**62 + 5}\n1 B {2**62 + 2} {2**62 + 9}\n2 A 0 {2**62}\n2 A 3 7\n1 A 0 1\n",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_the_object_path(text):
    labels = parse_dataset(io.StringIO(text)).labels()
    assert_matches_object_path(text, fractional_table(labels, random.Random(1)))
    assert_matches_object_path(text, UtilityTable(dict.fromkeys(labels, 2.0)))


def test_label_rows_of_the_running_example():
    """Each label's sequences and its longest window in each, worked out by
    hand from the example's windows, as the level-1 vocabulary at xi 0
    reads them from the label cells: A spans [6, 10) and [10, 12) in the
    first sequence, [2, 5) and [5, 7) in the second, and so on. A label's
    umax is its utility times each of those windows, summed."""
    table = UtilityTable(EXAMPLE_UTILITIES)
    enc = assert_matches_object_path(EXAMPLE_DATA, table)
    assert enc.labels == ("A", "B", "C", "D", "E", "F")
    cfg = MiningConfig(xi=0.0, max_length=1, max_size=1)
    ctx = miner._Context(enc=enc, cfg=cfg, xi_abs=0.0)
    miner._build_vocabulary(ctx, miner.MiningStats())
    assert [c.labels for c in ctx.vocab] == [(label,) for label in enc.labels]
    # growth splits each entry's cells into its runs, one per sequence
    miner._layout(ctx, range(len(ctx.vocab)))
    assert ctx.layout.run_candidate.tolist() == [0] * 3 + [1] * 4 + [2] * 4 + [3] + [4] * 4 + [5]
    assert ctx.layout.run_rows.tolist() == [
        0, 1, 2,  # A
        0, 1, 2, 3,  # B
        0, 1, 2, 3,  # C
        1,  # D
        0, 1, 2, 3,  # E
        3,  # F
    ]
    longest = [
        [4.0, 3.0, 4.0],  # A
        [5.0, 3.0, 4.0, 4.0],  # B
        [2.0, 2.0, 2.0, 3.0],  # C
        [3.0],  # D
        [2.0, 2.0, 2.0, 3.0],  # E
        [3.0],  # F
    ]
    umax = [sum(table.utility(label) * x for x in w) for label, w in zip(enc.labels, longest)]
    assert ctx.vocab_bounds[0].tolist() == umax


def test_overlapping_intervals_of_one_label_list_each_window_once():
    """Merged before the windows are listed, so nested and chained
    intervals of one label cost one (window, label) pair per window."""
    text = "".join(f"1 A {k} {40 - k}\n" for k in range(20)) + "1 B 5 6\n2 A 0 3\n2 A 2 9\n"
    lengths, _, pair_window, label_start = _interval_windows(read_intervals(io.StringIO(text)))
    assert list(lengths) == [39, 3]
    a_windows = pair_window[label_start[0] : label_start[1]]
    assert sorted(a_windows) == list(range(39 + 3))
    assert list(pair_window[label_start[1] : label_start[2]]) == [5]


@pytest.mark.parametrize("text", ["", "# nothing here\n\n"])
def test_empty_file_matches_the_object_path(text):
    got = assert_matches_object_path(text, UtilityTable({}))
    assert got.n_sequences == 0 and got.total_utility == 0.0


def test_ordinary_files_sort_on_one_packed_key(monkeypatch):
    """The reader and the windower sort without `np.lexsort` when ids are
    spread up to 2**62 and times span little: ids are ranked before the
    duplicate check, so their values take no bits of the key."""
    rng = random.Random(14)
    texts = [
        EXAMPLE_DATA,
        shuffled_text(rng, 40, list("DCBA")),
        shuffled_text(rng, 40, list("DCBA"), ids=range(1, 2**62, 2**40)),
    ]

    def no_lexsort(keys):
        raise AssertionError("np.lexsort called")

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    for text in texts:
        labels = parse_dataset(io.StringIO(text)).labels()
        assert_matches_object_path(text, fractional_table(labels, rng))


def test_lex_order_sorts_rows_as_lexsort_does(monkeypatch):
    """Rows in `np.lexsort`'s order, equal rows in any order; one packed
    key while the ranges' product is below 2**63, `np.lexsort` from there."""
    lexsort, fallbacks = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: fallbacks.append(1) or lexsort(keys))
    rng = np.random.default_rng(14)

    def column(low, span, m):
        """m values from [low, low + span), both ends included."""
        values = np.append([low, low + span - 1], rng.integers(low, low + span, m - 2))
        return rng.permutation(values)

    cases = [
        (np.zeros((3, 0), dtype=np.int64), False),
        (np.array([[5], [0], [2**63 - 1]]), False),
        (np.full((2, 40), 7), False),
        (np.array([column(0, 3, 50), column(9, (2**63 - 1) // 3, 50)]), False),
        (np.array([column(0, 2, 50), column(2**62, 2**62, 50)]), True),
        (np.array([column(5, 2**31, 50), column(0, 2**32, 50)]), True),
    ]
    for _ in range(200):
        spans = rng.choice([1, 2, 5, 100, 2**20, 2**40, 2**62], size=rng.integers(1, 5))
        m = int(rng.integers(2, 60))
        columns = np.array([column(int(rng.integers(0, 2**62)), int(s), m) for s in spans])
        cases.append((columns, math.prod(map(int, spans)) >= 2**63))
    for columns, falls_back in cases:
        fallbacks.clear()
        order = lex_order(columns)
        assert bool(fallbacks) == falls_back
        assert (columns[:, order] == columns[:, lexsort(columns[::-1])]).all()


def test_columns_keep_file_order_and_sorted_ids():
    cols = read_intervals(io.StringIO("9 B 1 3\n2 A\x00 0 4\n9 A 2 5\n"))
    assert cols.alphabet == ("A", "A\x00", "B")
    assert list(cols.ids) == [2, 9]
    assert list(cols.sequence) == [1, 0, 1]
    assert list(cols.label) == [2, 1, 0]
    assert list(cols.begin) == [1, 0, 2] and list(cols.finish) == [3, 4, 5]


# --- malformed input ----------------------------------------------------------

INT64_OVER = str(2**63)

MALFORMED = [
    # every case of test_io and test_cli
    "1 A 12 6\n",
    "1 A 0 3\n1 A 0\n",
    "one A 0 3\n",
    "0 A 1 2\n",
    "-3 A 1 2\n",
    "1 A 0 3\n1 A 0 3\n",
    # more faults of one kind
    "1 A 3 3\n",
    "1 A -1 3\n",
    "1 A 0 3 4\n",
    "1 A 0 -3\n",
    # two faults on different lines: the first line wins
    "1 A 0 3\n2 B 5 2\n1 A 0 3\n",
    "1 A 0 3\n1 A 0 3\n2 B x 4\n",
    "1 A 0 3\n2 B x 4\n1 A 0 3\n1 A 0 3\n",
    "2 B 4 5\n0 A 1 2\n2 B 4\n",
    # values that do not fit in int64
    f"1 A 0 {INT64_OVER}\n",
    f"{INT64_OVER} A 0 3\n",
    f"1 A -{INT64_OVER}0 3\n",
    f"1 A 5 3\n1 A 0 {INT64_OVER}\n",
    f"1 A 0 {ZEROS}{INT64_OVER}\n",
    # odd spaces that make a line of three or five fields
    *(f"1 A 0 3\n1{c}A 0\n" for c in ODD_SPACES),
    *(f"1 A 0 3\n1 A 0 3{c}x\n" for c in ODD_SPACES),
    # a comment mark after a field is a label, not a comment
    "1 A 0 3\n1 # 0\n",
    # no line end after a bad last line
    "1 A 0 3\n1 A 0 3",
    # a duplicate among times that span more than 2**62
    f"1 A 0 {2**62}\n2 B {2**62} {2**62 + 1}\n1 A 0 {2**62}\n",
]


def outcome(parse, text):
    try:
        parse(io.StringIO(text))
    except DataError as e:
        return str(e)
    return None


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_input_gets_the_same_error_from_both_parsers(text):
    expected = outcome(parse_dataset, text)
    assert expected is not None and expected.startswith("line ")
    assert outcome(read_intervals, text) == expected


@pytest.mark.parametrize("chunk", [1, 9, 30])
def test_reading_in_chunks_changes_nothing(monkeypatch, chunk):
    """Columns and errors are those of reading the file as one chunk,
    also when labels first appear and faults sit in a later chunk."""
    rng = random.Random(chunk)
    texts = [shuffled_text(rng, rng.randint(2, 9), list("DCBA")) for _ in range(20)]
    texts += [*EDGE_CASES, "# nothing here\n\n", *MALFORMED]
    texts += ["1 A 0 3\n# c\n" + text for text in MALFORMED]
    monkeypatch.setattr(intervalmine_io, "READ_CHUNK_BYTES", 2**30)
    whole = [outcome(read_intervals, text) or read_intervals(io.StringIO(text)) for text in texts]
    monkeypatch.setattr(intervalmine_io, "READ_CHUNK_BYTES", chunk)
    for text, expected in zip(texts, whole):
        got = outcome(read_intervals, text) or read_intervals(io.StringIO(text))
        if isinstance(expected, str):
            assert got == expected
            continue
        assert got.alphabet == expected.alphabet
        for name in ("ids", "sequence", "label", "begin", "finish"):
            assert getattr(got, name).dtype == np.int64
            assert getattr(got, name).tolist() == getattr(expected, name).tolist()


@pytest.mark.parametrize("token", ["+3", "1_0", "٣", "0x1", "1e3"])
@pytest.mark.parametrize("field", [0, 2, 3])
def test_integer_tokens_parse_as_int_does(token, field):
    row = ["1", "A", "0", "20"]
    row[field] = token
    text = "1 B 1 2\n" + " ".join(row) + "\n"
    expected = outcome(parse_dataset, text)
    assert outcome(read_intervals, text) == expected
    if expected is None:
        assert_matches_object_path(text, UtilityTable({"A": 0.7, "B": 1 / 3}))


def test_a_lone_surrogate_label_reads_as_parse_dataset_reads_it():
    """A text handle can hold code points that UTF-8 cannot encode; each
    is a label, or part of one, as `str.split()` cuts it."""
    text = "1 \ud800 0 3\n1 A\udfff 1 4\n2 \udc00\ud800 0 2\n2 \ud800 1 5\n"
    assert read_intervals(io.StringIO(text)).alphabet == parse_dataset(io.StringIO(text)).labels()
    table = UtilityTable({"\ud800": 0.7, "A\udfff": 2.0, "\udc00\ud800": 1 / 3})
    assert_matches_object_path(text, table)


def test_a_label_longer_than_a_chunk_reads_in_memory_of_the_file_size(tmp_path):
    """Labels are gathered a width at a time, so one long label among
    thousands of short ones costs its own bytes, not its width for every
    label of its chunk."""
    lines = [f"{k // 5 + 1} {'AB'[k % 2]} {k % 7} {k % 7 + 2}" for k in range(5000)]
    lines[2500] = f"9999 {'L' * (intervalmine_io.READ_CHUNK_BYTES + 1)} 0 1"
    path = tmp_path / "long.tsv"
    path.write_text("\n".join(lines) + "\n")
    read_intervals(io.StringIO("1 A 0 1\n1 AB 0 1\n1 ABCDEFGHI 0 1\n"))  # numpy's first-call caches
    tracemalloc.start()
    try:
        cols = read_intervals(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cols.alphabet) == 3 and len(cols.label) == 5000
    assert peak < 16 * path.stat().st_size


def test_the_whitespace_tables_are_what_str_split_splits_at():
    """The reader's byte table and its class of wider characters hold
    exactly the code points `str.isspace()` accepts, which are those
    `str.split()` splits at. A Python whose Unicode tables differ fails here
    rather than reading files that `parse_dataset` splits otherwise."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = {c for c in everything if c.isspace()}
    table = {chr(b) for b in range(256) if intervalmine_io._ASCII_SPACE[b]}
    wide = set(intervalmine_io._UNICODE_SPACES)
    assert max(table) < "\x80" <= min(wide)
    differ = sorted(spaces ^ (table | wide))
    assert not differ, f"this Python's Unicode whitespace differs in {differ}"
    assert len(wide) == len(intervalmine_io._UNICODE_SPACES) == 19
    assert set(intervalmine_io._UNICODE_SPACE.findall(everything)) == wide
    assert "".join(everything.split()) == "".join(c for c in everything if c not in spaces)


def test_int64_overflow_names_its_line():
    with pytest.raises(DataError, match="line 2: id and times must be below 2\\*\\*63"):
        parse_dataset(io.StringIO(f"1 A 0 3\n1 A 0 {INT64_OVER}\n"))
    # the largest int64 still parses
    cols = read_intervals(io.StringIO(f"1 A 0 {2**63 - 1}\n"))
    assert cols.finish[0] == 2**63 - 1


def test_missing_file_fails_in_both_parsers(tmp_path):
    for parse in (parse_dataset, read_intervals):
        with pytest.raises(FileNotFoundError):
            parse(tmp_path / "absent.tsv")


@pytest.mark.parametrize("parse", [parse_dataset, read_intervals, parse_utilities])
def test_a_byte_that_is_not_utf8_is_a_data_error_on_its_line(tmp_path, parse):
    """Lines end at "\n", "\r\n" and a lone "\r", as in a file read as
    text, so the bad byte on the fourth line is reported there. Its offset
    counts the bytes of a leading byte-order mark too."""
    path = tmp_path / "bad.tsv"
    for mark, offset in ((b"", 28), (BYTE_ORDER_MARK, 31)):
        path.write_bytes(mark + b"# header\r\n1 A 0 2\r1 B 1 3\n1 \xff 2 4\n")
        with pytest.raises(
            DataError, match=rf"line 4: not UTF-8 text \(byte 0xff at offset {offset}\)"
        ):
            parse(path)


def test_files_read_their_line_ends_as_text_files_do(tmp_path):
    """"\r\n" and a lone "\r" end a line in a file, as in one opened as
    text; a multi-byte UTF-8 label is one label. A file or a handle that
    starts with a byte-order mark reads as the one without it."""
    path = tmp_path / "data.tsv"
    utilities = tmp_path / "utilities.tsv"
    content = "1 A 0 2\r\n1 B 1 3\r2 é 0 1\n".encode()
    path.write_bytes(content)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    expected = parse_dataset(io.StringIO(text))
    for mark in (b"", BYTE_ORDER_MARK):
        path.write_bytes(mark + content)
        utilities.write_bytes(mark + b"A\t5\r\nB\t1\n")
        assert parse_dataset(path) == expected
        assert parse_dataset(io.StringIO(mark.decode() + text)) == expected
        assert read_intervals(path).alphabet == ("A", "B", "é")
        assert parse_utilities(utilities).entries == {"A": 5.0, "B": 1.0}
