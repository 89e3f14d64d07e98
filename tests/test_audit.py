import math
import string
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_reference
from crosstok.audit import (
    CoverageRow,
    _default_members,
    audit_coverage,
    coverage_json,
    coverage_table,
    recommend_mode,
)
from crosstok.errors import ValidationError
from crosstok.losses import CommonSet, build_common_set_exact
from crosstok.vocab import Vocabulary, make_toy_tokenizer


# digits, punctuation, letters with and without a space marker, non-ASCII
# text, and whole byte-fallback tokens (0xE9 alone is not UTF-8)
AUDIT_PIECES = ("1", "22", ".", ",", "a", "Z", " ", "\u0120", "\u2581", "\u00e9", "\n", "\u010a")
AUDIT_TOKENS = (st.lists(st.sampled_from(AUDIT_PIECES), max_size=4).map("".join)
                | st.sampled_from(["<0xE9>", "<0x41>", "<0x37>"]))


# Canonical bytes for the byte-class table: NUL, lone and leading spaces,
# bytes 0x80-0xFF, empty tokens, space plus letters, digit runs of 1-4 and
# mixed punctuation, alone and run together.
CANON_PIECES = (st.sampled_from([b"", b"\x00", b" ", b"  ", b"\n", b"\x7f", b"a", b"Z", b"\xe9"])
                | st.integers(0x80, 0xFF).map(lambda b: bytes([b]))
                | st.text(string.ascii_letters, min_size=1, max_size=3).map(
                    lambda s: (" " + s).encode())
                | st.text(string.digits, min_size=1, max_size=4).map(str.encode)
                | st.text(string.punctuation, min_size=1, max_size=3).map(str.encode)
                | st.binary(max_size=3))
CANON_TOKENS = st.lists(CANON_PIECES, max_size=3).map(b"".join)


@pytest.fixture(scope="module")
def packed_student():
    return make_toy_tokenizer("numeral_preserving").vocabulary


def coverage_for(student, teacher_kind):
    teacher = make_toy_tokenizer(teacher_kind).vocabulary
    c = build_common_set_exact(student, teacher)
    return audit_coverage(student, c)


def by_name(rows):
    return {r.category: r for r in rows}


class TestAuditCoverage:
    def test_digit_splitting_teacher_drops_multi_digit(self, packed_student):
        rows = by_name(coverage_for(packed_student, "digit_splitting"))
        assert rows["2-digit"].size == 100 and rows["2-digit"].matched == 0
        assert rows["3-digit"].size == 1000 and rows["3-digit"].matched == 0
        assert rows["1-digit"].fraction == 1.0
        assert rows["ascii-punct"].fraction == 1.0
        assert rows["alphabetic"].fraction == 1.0

    def test_same_scheme_teacher_keeps_everything(self, packed_student):
        rows = by_name(coverage_for(packed_student, "numeral_preserving"))
        assert rows["2-digit"].matched == rows["2-digit"].size == 100
        assert rows["3-digit"].matched == rows["3-digit"].size == 1000

    def test_empty_category_fraction_is_not_applicable(self, packed_student):
        rows = by_name(coverage_for(packed_student, "digit_splitting"))
        assert rows["non-ascii"].size == 0
        assert rows["non-ascii"].fraction is None

    def test_counts_match_naive_double_loop(self):
        student = Vocabulary(["a", "7", "77", ",", " the", "x7"])
        teacher = Vocabulary(["a", "7", ","])
        c = build_common_set_exact(student, teacher)
        rows = audit_coverage(student, c)
        common = set(c.student_ids.tolist())
        assert [row.category for row in rows] == [name for name, _ in audit_reference.CATEGORIES]
        for (_, predicate), row in zip(audit_reference.CATEGORIES, rows):
            members = [
                sid for sid in range(len(student))
                if predicate(audit_reference.text(student.canonical(sid)))
            ]
            assert row.size == len(members)
            assert row.matched == sum(1 for sid in members if sid in common)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(AUDIT_TOKENS, unique=True, min_size=1, max_size=30), st.data())
    def test_counts_match_per_rule_loop(self, tokens, data):
        """Against the reference predicates' list comprehension and set
        intersection, on toy-tokenizer pieces and byte-fallback tokens."""
        student = Vocabulary(tokens)
        chosen = data.draw(st.lists(st.integers(0, len(tokens) - 1), unique=True))
        c = CommonSet(chosen, range(len(chosen)))
        assert (list(map(astuple, audit_coverage(student, c)))
                == audit_reference.coverage(student._canon, set(chosen)))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(CANON_TOKENS, max_size=25))
    def test_byte_class_table_matches_default_predicates(self, canon):
        """The table's members are the tokens each reference predicate takes,
        over arbitrary canonical bytes."""
        texts = list(map(audit_reference.text, canon))
        assert [members.tolist() for members in _default_members(canon)] == [
            [bool(predicate(text)) for text in texts]
            for _, predicate in audit_reference.CATEGORIES]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(CANON_TOKENS.filter(lambda b: not b.startswith(b"<0x")), unique=True,
                    max_size=25), st.data())
    def test_default_table_equals_predicate_loop(self, canon, data):
        student = Vocabulary(b.decode("latin-1") for b in canon)
        chosen = data.draw(st.lists(st.integers(0, max(len(canon) - 1, 0)), unique=True,
                                    max_size=len(canon)))
        c = CommonSet(chosen, range(len(chosen)))
        assert (list(map(astuple, audit_coverage(student, c)))
                == audit_reference.coverage(student._canon, set(chosen)))

    def test_default_rules_mutually_exclusive(self, packed_student):
        for canon in packed_student._canon:
            text = audit_reference.text(canon)
            assert sum(predicate(text) for _, predicate in audit_reference.CATEGORIES) <= 1

    def test_student_id_outside_vocabulary_rejected(self):
        """A common set built for another student vocabulary is an error, not
        a table that silently leaves its ids out."""
        with pytest.raises(ValidationError, match="student id 5 is outside the student "
                                                  "vocabulary of size 2"):
            audit_coverage(Vocabulary(["a", "b"]), CommonSet([5], [0]))

    def test_row_validation(self):
        with pytest.raises(ValidationError):
            CoverageRow("bad", matched=3, size=2)


class TestRecommendMode:
    def test_split_digit_regime_selects_projection_loss(self, packed_student):
        rows = coverage_for(packed_student, "digit_splitting")
        assert recommend_mode(rows) == "pkl"

    def test_preserved_digit_regime_selects_relaxed_hybrid(self, packed_student):
        rows = coverage_for(packed_student, "numeral_preserving")
        assert recommend_mode(rows) == "hkl"

    def test_zero_threshold_always_hybrid(self, packed_student):
        rows = coverage_for(packed_student, "digit_splitting")
        assert recommend_mode(rows, threshold=0.0) == "hkl"

    def test_unknown_category_rejected(self, packed_student):
        rows = coverage_for(packed_student, "digit_splitting")
        with pytest.raises(ValidationError, match="unknown"):
            recommend_mode(rows, critical=("4-digit",))

    @pytest.mark.parametrize("critical", [("2-digit", "bogus"), ("bogus", "2-digit")])
    def test_every_critical_name_checked_before_deciding(self, packed_student, critical):
        rows = coverage_for(packed_student, "digit_splitting")  # "2-digit" alone picks pkl
        with pytest.raises(ValidationError, match="unknown critical category 'bogus'"):
            recommend_mode(rows, critical=critical)

    @pytest.mark.parametrize("threshold", [-1.0, -1e-12, 1 + 1e-12, 2.0, math.inf, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, packed_student, threshold):
        for teacher in ("digit_splitting", "numeral_preserving"):
            rows = coverage_for(packed_student, teacher)
            with pytest.raises(ValidationError) as info:
                recommend_mode(rows, threshold=threshold)
            assert str(info.value) == f"threshold must be in [0, 1], got {threshold}"

    def test_monotone_in_fractions(self):
        high = [CoverageRow("2-digit", 90, 100), CoverageRow("3-digit", 1000, 1000)]
        low = [CoverageRow("2-digit", 10, 100), CoverageRow("3-digit", 1000, 1000)]
        for threshold in (0.05, 0.5, 0.95, 1.0):
            if recommend_mode(high, threshold=threshold) == "pkl":
                assert recommend_mode(low, threshold=threshold) == "pkl"

    def test_empty_critical_category_skipped(self):
        rows = [CoverageRow("2-digit", 0, 0), CoverageRow("3-digit", 5, 5)]
        assert recommend_mode(rows) == "hkl"


class TestReports:
    def test_table_contains_percentages(self, packed_student):
        rows = coverage_for(packed_student, "digit_splitting")
        table = coverage_table(rows)
        assert "2-digit" in table and "0.0%" in table and "n/a" in table

    def test_json_round_trips(self, packed_student):
        import json

        rows = coverage_for(packed_student, "digit_splitting")
        payload = json.loads(coverage_json(rows, recommendation="pkl"))
        assert payload["recommendation"] == "pkl"
        assert any(r["category"] == "2-digit" and r["fraction"] == 0.0
                   for r in payload["rows"])
