"""Corpus self-tests and definition-file round trips."""

import pytest

from skewpbw.corpus import (
    BUILDERS,
    CorpusEntry,
    clifford_trunc,
    euler_like,
    matrix_full,
    quasi_comm,
    standard_corpus,
    trunc_poly,
    weyl_like,
    weyl_like_corrupted,
    zn,
)
from skewpbw.defio import definition_to_text, entry_to_definition, parse_definition
from skewpbw.errors import BadShape, OverlapFails
from skewpbw.extension import verify_presentation


def test_all_presentations_verify(corpus_entries):
    for entry in corpus_entries:
        assert entry.presentation.verified, entry.name


def test_corrupted_fixture_constructs_but_fails_verification():
    bad = weyl_like_corrupted()
    assert not bad.verified
    with pytest.raises(OverlapFails):
        verify_presentation(bad)


def test_expected_profiles_recompute(ring_entries, corpus_entries):
    for entry in ring_entries + corpus_entries:
        entry.selfcheck()  # raises on mismatch


def test_ring_corpus_is_desk_scale(ring_entries):
    assert all(entry.ring.size <= 64 for entry in ring_entries)


def test_parameter_ranges():
    with pytest.raises(BadShape):
        zn(1)
    with pytest.raises(BadShape):
        matrix_full(4)
    with pytest.raises(BadShape):
        trunc_poly(2, 5)
    with pytest.raises(BadShape):
        trunc_poly(7, 2)
    with pytest.raises(BadShape):
        clifford_trunc(4)
    with pytest.raises(BadShape):
        weyl_like(5)
    with pytest.raises(BadShape):
        euler_like(5)
    with pytest.raises(BadShape):
        quasi_comm(3, 9)


def test_quasi_comm_accepts_d_table():
    entry = quasi_comm(3, 3, {(1, 2): 2, (1, 3): 1, (2, 3): 2})
    A = entry.presentation
    assert A.verified and A.quasi_commutative
    assert A.d[(1, 2)].coords == (2,)
    assert A.d[(1, 3)].coords == (1,)


def test_clifford_identity_matrices_variant():
    # diagonal matrices contribute nothing to the i < j relations: zero tails
    ident_ms = [[[1 if a == b and a == k else 0 for b in range(2)] for a in range(2)] for k in range(2)]
    entry = clifford_trunc(2, ms=ident_ms)
    assert entry.presentation.verified
    t0, lin = entry.presentation.tails[(1, 2)]
    assert t0.is_zero and all(t.is_zero for t in lin)


def test_builders_round_trip():
    for name, builder in sorted(BUILDERS.items()):
        entry = builder()
        doc = entry_to_definition(entry)
        text = definition_to_text(doc)
        parsed = parse_definition(text)
        assert isinstance(parsed, CorpusEntry), name
        assert sorted(parsed.maps) == sorted(block["name"] for block in doc.get("maps", [])), name
        assert parsed.ring.structurally_equal(entry.ring), name
        if entry.presentation is not None:
            verify_presentation(parsed.presentation)
        if entry.grading is not None:
            assert parsed.grading is not None
            assert parsed.grading.labels == entry.grading.labels, name
        # serialization is deterministic, and the parsed entry exports the same text
        assert definition_to_text(entry_to_definition(builder())) == text, name
        assert definition_to_text(entry_to_definition(parsed)) == text, name


def test_round_trip_preserves_arithmetic():
    entry = weyl_like(2)
    parsed = parse_definition(definition_to_text(entry_to_definition(entry)))
    A = verify_presentation(parsed.presentation)
    x = A.variable(1)
    y = A.scalar(parsed.ring.el([0, 1]))
    assert (x * y).to_expr() == "[0,1]*x^1 + [1,0]"


def test_standard_corpus_composition():
    names = [e.name for e in standard_corpus()]
    assert "swap_extension" in names
    assert "weyl_like(2)" in names
    assert "euler_like(2)" in names
    assert "clifford_trunc(2)" in names
    assert len(names) == len(set(names))
    # `search --family standard` reports the first instance it finds
    assert names == [
        "swap_extension",
        "weyl_like(2)",
        "euler_like(2)",
        "euler_like(3)",
        "clifford_trunc(2)",
        "heisenberg(2)",
        "quasi_comm(Z3,d=2)",
        "poly(Z4,2)",
        "matrix_poly(2)",
        "q8_twist",
    ]


def test_entry_checks_its_expected_profile_on_construction():
    assert CorpusEntry("Z4", zn(4), expected={"NI": True}).name == "Z4"
    with pytest.raises(BadShape, match="expected reduced=True"):
        CorpusEntry("Z4", zn(4), expected={"reduced": True})
