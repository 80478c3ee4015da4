"""File formats: dataset/utility parsing, error reporting, round trips."""
import io

import pytest

from intervalmine.io import (
    dataset_to_string,
    fill_utilities,
    parse_dataset,
    parse_utilities,
    read_intervals,
    utility_lines,
    write_dataset,
    write_utilities,
)
from intervalmine.model import DataError, UtilityTable

from conftest import EXAMPLE_DATA


def test_parse_example_dataset(example_dataset):
    sizes = {s.id: len(s.intervals) for s in example_dataset.sequences}
    assert sizes == {1: 4, 2: 5, 3: 4, 4: 4}


def test_parse_accepts_spaces_comments_and_blanks():
    text = "# header\n\n1 A 0 3\n  2\tB\t1\t4  \n#tail\n"
    d = parse_dataset(io.StringIO(text))
    assert [s.id for s in d.sequences] == [1, 2]
    assert d.sequences[0].intervals[0].label == "A"


def test_parse_empty_file_is_empty_dataset():
    assert len(parse_dataset(io.StringIO(""))) == 0
    assert len(parse_dataset(io.StringIO("# nothing here\n\n"))) == 0


def test_parse_rejects_backwards_interval():
    with pytest.raises(DataError, match="line 1"):
        parse_dataset(io.StringIO("1 A 12 6\n"))


def test_parse_rejects_wrong_field_count():
    with pytest.raises(DataError, match="line 2"):
        parse_dataset(io.StringIO("1 A 0 3\n1 A 0\n"))


def test_parse_rejects_non_integer_fields():
    with pytest.raises(DataError, match="line 1"):
        parse_dataset(io.StringIO("one A 0 3\n"))


@pytest.mark.parametrize("sid", ["0", "-3"])
def test_parse_rejects_non_positive_sequence_id_with_its_line(sid):
    with pytest.raises(DataError, match="line 1: sequence id must be a positive integer"):
        parse_dataset(io.StringIO(f"{sid} A 1 2\n"))


def test_parse_rejects_duplicate_interval():
    text = "1 A 0 3\n1 A 0 3\n"
    with pytest.raises(DataError, match="duplicate"):
        parse_dataset(io.StringIO(text))


def test_parse_from_path(tmp_path):
    f = tmp_path / "data.tsv"
    f.write_text(EXAMPLE_DATA)
    d = parse_dataset(f)
    assert len(d) == 4


def test_parse_utilities_table():
    text = "A\t2\nB\t1\nC\t1\nD\t3\nE\t2\nF\t5\n"
    t = parse_utilities(io.StringIO(text))
    assert t.entries == {"A": 2.0, "B": 1.0, "C": 1.0, "D": 3.0, "E": 2.0, "F": 5.0}


def test_parse_utilities_rejects_negative():
    with pytest.raises(DataError, match="negative"):
        parse_utilities(io.StringIO("A -1\n"))


def test_parse_utilities_rejects_non_finite():
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(DataError, match="line 2: utility for 'B' is not finite"):
            parse_utilities(io.StringIO(f"A 2\nB {value}\n"))


def test_parse_utilities_rejects_duplicates_and_bad_numbers():
    with pytest.raises(DataError, match="duplicate"):
        parse_utilities(io.StringIO("A 1\nA 2\n"))
    with pytest.raises(DataError, match="line 1"):
        parse_utilities(io.StringIO("A lots\n"))


def test_fill_utilities_defaults_missing_labels(example_dataset):
    partial = UtilityTable({"A": 2.0})
    full = fill_utilities(example_dataset, partial, default=1.0)
    assert full.entries["A"] == 2.0
    assert all(full.entries[l] == 1.0 for l in "BCDEF")


def test_fill_utilities_without_default_names_the_label(example_dataset):
    with pytest.raises(DataError, match="'B'"):
        fill_utilities(example_dataset, UtilityTable({"A": 2.0}), default=None)


def test_fill_utilities_covers_all_labels_when_no_table(example_dataset):
    full = fill_utilities(example_dataset, None, default=1.0)
    assert set(full.entries) == set("ABCDEF")


def test_fill_utilities_rejects_a_label_no_utility_file_can_list():
    """In a utility file "#A 3" is a comment, so a table read from one never
    lists "#A": with a table, the label is an error whether or not a
    default is given, and without one the default fills it."""
    text = "1 #A 0 5\n1 B 0 5\n"
    table = parse_utilities(io.StringIO("#A 3\nB 1\n"))
    assert "#A" not in table
    for d in (parse_dataset(io.StringIO(text)), read_intervals(io.StringIO(text))):
        for default in (None, 7.0):
            with pytest.raises(DataError, match="'#A': a utility file line .* is a comment"):
                fill_utilities(d, table, default)
        assert fill_utilities(d, None, 7.0).entries == {"#A": 7.0, "B": 7.0}


def test_dataset_round_trip(example_dataset):
    text = dataset_to_string(example_dataset)
    again = parse_dataset(io.StringIO(text))
    assert again == example_dataset
    # serialization is stable
    assert dataset_to_string(again) == text


def test_utilities_round_trip(example_table, tmp_path):
    f = tmp_path / "utilities.tsv"
    write_utilities(example_table, f)
    again = parse_utilities(f)
    assert again.entries == example_table.entries


def test_utility_lines_render_integers_without_decimal_point():
    lines = list(utility_lines(UtilityTable({"A": 2.0, "B": 0.5})))
    assert lines == ["A\t2", "B\t0.5"]


def test_write_dataset_to_path(example_dataset, tmp_path):
    f = tmp_path / "out.tsv"
    write_dataset(example_dataset, f)
    assert parse_dataset(f) == example_dataset
