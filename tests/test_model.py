"""Domain types and the pattern containment relation."""
import itertools

import pytest
from hypothesis import given, strategies as st

from intervalmine.encoding import encode_dataset
from intervalmine.model import (
    CEventset,
    Coincidence,
    CSequence,
    CSequenceDataset,
    DataError,
    EMPTY_COINCIDENCE,
    ESequence,
    ESequenceDataset,
    EventInterval,
    LSequence,
    UtilityTable,
    lsequence_sort_key,
)

from conftest import evaluate, pruning_context


def ev(labels, duration):
    return CEventset(Coincidence.of(labels), duration)


def cseq(*pairs):
    return CSequence(id=1, eventsets=tuple(ev(l, d) for l, d in pairs))


# --- construction invariants ---------------------------------------------


def test_interval_requires_begin_before_finish():
    with pytest.raises(DataError):
        EventInterval("A", 12, 6)
    with pytest.raises(DataError):
        EventInterval("A", 5, 5)


def test_interval_rejects_negative_times_and_empty_label():
    with pytest.raises(DataError):
        EventInterval("A", -1, 4)
    with pytest.raises(DataError):
        EventInterval("", 1, 4)


def test_esequence_sorts_intervals_and_requires_positive_id():
    s = ESequence(
        id=3,
        intervals=(
            EventInterval("B", 5, 9),
            EventInterval("A", 2, 7),
            EventInterval("A", 5, 6),
        ),
    )
    assert [e.label for e in s.intervals] == ["A", "A", "B"]
    assert [e.begin for e in s.intervals] == [2, 5, 5]
    with pytest.raises(DataError):
        ESequence(id=0, intervals=(EventInterval("A", 1, 2),))
    with pytest.raises(DataError):
        ESequence(id=1, intervals=())


def test_dataset_rejects_duplicate_ids():
    s = ESequence(id=1, intervals=(EventInterval("A", 1, 2),))
    with pytest.raises(DataError):
        ESequenceDataset((s, s))


def test_coincidence_is_canonical():
    c = Coincidence.of(["B", "A", "B"])
    assert c.labels == ("A", "B")
    assert str(c) == "{A,B}"
    assert Coincidence.of(["A", "B"]) == Coincidence.of(["B", "A"])
    assert not EMPTY_COINCIDENCE
    assert len(EMPTY_COINCIDENCE) == 0


def test_ceventset_requires_positive_duration():
    with pytest.raises(DataError):
        CEventset(Coincidence.of(["A"]), 0)


def test_lsequence_forbids_empty_coincidence():
    with pytest.raises(DataError):
        LSequence((Coincidence.of(["A"]), EMPTY_COINCIDENCE))


def test_lsequence_length_and_size():
    l = LSequence.of(["A", "B"], ["C"])
    assert l.length == 2
    assert l.size == 2
    assert str(l) == "<{A,B}{C}>"


def test_utility_table_rejects_negative_and_unknown():
    with pytest.raises(DataError):
        UtilityTable({"A": -1.0})
    for value in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="not finite"):
            UtilityTable({"A": value})
    t = UtilityTable({"A": 2.0})
    assert t.utility("A") == 2.0
    with pytest.raises(DataError):
        t.utility("Z")


def test_csequence_dataset_requires_utility_coverage():
    c = cseq((["A"], 2))
    with pytest.raises(DataError):
        CSequenceDataset((c,), UtilityTable({"B": 1.0}))


# --- L-subsequence ----------------------------------------------------------

# Pattern l is an L-subsequence of l_prime exactly when l matches a
# C-sequence whose windows carry l_prime's coincidences; the miner's kernel
# decides that relation through its matched flag.


def is_lsubsequence(l, l_prime):
    if not l.coincidences:
        return True
    labels = {lab for coin in l.coincidences + l_prime.coincidences for lab in coin}
    # a second sequence carrying every label gives each label of l a mask bit
    everything = CSequence(id=2, eventsets=(ev(labels, 1),))
    d = CSequenceDataset(
        (cseq(*[(coin.labels, 1) for coin in l_prime.coincidences]), everything),
        UtilityTable(dict.fromkeys(labels, 1.0)),
    )
    return bool(evaluate(pruning_context(encode_dataset(d), len(l)), l).matched[0])


def test_lsubsequence_examples():
    assert is_lsubsequence(LSequence.of(["A"]), LSequence.of(["A"], ["B"]))
    assert not is_lsubsequence(LSequence.of(["A", "B"]), LSequence.of(["A"], ["B"]))
    assert is_lsubsequence(
        LSequence.of(["B"], ["C"]), LSequence.of(["A", "B"], ["C"], ["E"])
    )


# --- brute-force cross-checks ----------------------------------------------


def brute_lsubsequence(l, l_prime):
    g = len(l.coincidences)
    for idx in itertools.combinations(range(len(l_prime.coincidences)), g):
        if all(
            set(l.coincidences[k]) <= set(l_prime.coincidences[j])
            for k, j in enumerate(idx)
        ):
            return True
    return g == 0


lseqs = st.lists(
    st.sets(st.sampled_from("ABC"), min_size=1, max_size=2).map(Coincidence.of),
    max_size=3,
).map(lambda cs: LSequence(tuple(cs)))


@given(lseqs, lseqs)
def test_lsubsequence_agrees_with_brute_force(l, l_prime):
    assert is_lsubsequence(l, l_prime) == brute_lsubsequence(l, l_prime)


@given(lseqs, lseqs, lseqs)
def test_lsubsequence_transitive(a, b, c):
    if is_lsubsequence(a, b) and is_lsubsequence(b, c):
        assert is_lsubsequence(a, c)


def test_sort_key_orders_by_length_then_labels():
    ls = [
        LSequence.of(["B"]),
        LSequence.of(["A"], ["B"]),
        LSequence.of(["A"]),
        LSequence.of(["A", "B"]),
    ]
    ls.sort(key=lsequence_sort_key)
    assert [str(l) for l in ls] == ["<{A}>", "<{A,B}>", "<{B}>", "<{A}{B}>"]
