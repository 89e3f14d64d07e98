import hashlib
import json
import os
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crosstok import projection
from crosstok.chunks import softmax
from crosstok.errors import DegenerateDistributionError, ValidationError
from crosstok.losses import LOG_EPS, build_common_set_relaxed, pkl_grads
from crosstok.numdiff import central_difference, max_relative_error
from crosstok.projection import (
    ProjectionConfig,
    Provenance,
    SparseProjection,
    build_projection,
    decay_weights,
    load_projection,
    project,
    save_projection,
)
from crosstok.vocab import Tokenizer, Vocabulary, make_toy_tokenizer

import projection_reference
from projection_reference import (ReferenceProjection, apply_w_gradient, pack_body,
                                  sealed_file, top1, unpack_file)
from test_losses import random_projection


@pytest.fixture(scope="module")
def digit_pair():
    student = make_toy_tokenizer("numeral_preserving")
    teacher = make_toy_tokenizer("digit_splitting")
    w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
    return student, teacher, w


def dense_of(w: SparseProjection) -> np.ndarray:
    mat = np.zeros((w.n_student, w.n_teacher))
    for s, t, weight in w.entries():
        mat[s, t] = weight
    return mat


class TestDecayWeights:
    def test_reference_tuples(self):
        np.testing.assert_allclose(decay_weights(2), [0.909, 0.091], atol=1e-4)
        np.testing.assert_allclose(decay_weights(3), [0.9009, 0.0901, 0.0090], atol=1e-4)
        np.testing.assert_allclose(decay_weights(4), [0.9000, 0.0900, 0.0090, 0.0009], atol=1e-4)

    def test_single_element(self):
        np.testing.assert_array_equal(decay_weights(1), [1.0])

    def test_sums_to_one(self):
        for length in range(1, 9):
            assert abs(decay_weights(length).sum() - 1.0) < 1e-15

    def test_zero_length_rejected(self):
        with pytest.raises(ValidationError):
            decay_weights(0)

    def test_length_must_be_int(self):
        """A float length read as ``np.arange(2.5)`` gave three weights."""
        with pytest.raises(ValidationError, match=r"^span length must be an int, got 2\.5$"):
            decay_weights(2.5)


class TestBuildProjection:
    def test_digit_splitting_row(self, digit_pair):
        student, teacher, w = digit_pair
        s = student.vocabulary.id_of["201"]
        expected_ids = [teacher.vocabulary.id_of[c] for c in "201"]
        row = w.rows[s]
        assert [t for t, _ in row] == expected_ids
        np.testing.assert_allclose([wt for _, wt in row], decay_weights(3), rtol=1e-12)
        assert w.provenance[s] is Provenance.MULTI_TOKEN

    def test_exact_match_row(self):
        student = make_toy_tokenizer("word_level", ["the"])
        teacher = make_toy_tokenizer("word_level", ["the cat"])
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        s = student.vocabulary.id_of[" the"]
        assert w.rows[s] == ((teacher.vocabulary.id_of[" the"], 1.0),)
        assert w.provenance[s] is Provenance.EXACT

    def test_multi_token_rule_on_word_pieces(self):
        student = make_toy_tokenizer("word_level", ["Hundreds"])
        teacher = make_toy_tokenizer("word_level", ["Hund reds"])
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        s = student.vocabulary.id_of["Hundreds"]
        best = top1(w, s)
        assert best is not None
        assert teacher.vocabulary.tokens[best[0]] == "Hund"
        assert best[1] == pytest.approx(decay_weights(2)[0])

    def test_span_bound_gives_empty_flagged_row(self):
        student = Tokenizer(Vocabulary(["abcde", "a"]))
        teacher = make_toy_tokenizer("char_level")
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        s = student.vocabulary.id_of["abcde"]  # re-tokenizes to 5 chars > max_span
        assert w.rows[s] == ()
        assert w.provenance[s] is Provenance.EMPTY

    def test_specials_map_by_role_only(self):
        vs = Vocabulary(["a", "<bos>"], specials=[1], special_roles={"bos": 1})
        vt_with = Vocabulary(["a", "<s>"], specials=[1], special_roles={"bos": 1})
        vt_without = Vocabulary(["a", "<bos>"], specials=[1])
        w = build_projection(vs, vt_with, Tokenizer(vt_with))
        assert w.rows[1] == ((1, 1.0),)
        assert w.provenance[1] is Provenance.EXACT
        w = build_projection(vs, vt_without, Tokenizer(vt_without))
        assert w.rows[1] == ()
        assert w.provenance[1] is Provenance.EMPTY

    def test_row_on_teacher_special_stays_empty(self):
        """The ordinary student token "<s>x" re-tokenizes to the teacher's BOS
        special and "x"; specials pair only by role, so its row stays empty."""
        vs = Vocabulary(["a", "x", "<s>x", "<s>"], specials=[3], special_roles={"bos": 3})
        vt = Vocabulary(["a", "x", "<s>"], specials=[2], special_roles={"bos": 2})
        assert Tokenizer(vt).encode("<s>x") == [2, 1]
        w = build_projection(vs, vt, Tokenizer(vt))
        assert w.rows == (((0, 1.0),), ((1, 1.0),), (), ((2, 1.0),))
        assert w.provenance == (Provenance.EXACT, Provenance.EXACT, Provenance.EMPTY,
                                Provenance.EXACT)

    def test_identical_vocabularies_all_exact(self):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        assert all(p is Provenance.EXACT for p in w.provenance)
        assert all(w.rows[s] == ((s, 1.0),) for s in range(len(tok.vocabulary)))

    def test_deterministic_serialization(self, digit_pair, tmp_path):
        student, teacher, w1 = digit_pair
        w2 = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        p1, p2 = tmp_path / "w1.proj", tmp_path / "w2.proj"
        save_projection(w1, p1)
        save_projection(w2, p2)
        assert p1.read_bytes() == p2.read_bytes()


    def test_huge_max_span_weighs_only_lengths_that_occur(self, monkeypatch):
        """``max_span`` comes from a config file; 10**30 must not precompute a
        weight vector for every span length up to it."""
        vs = Vocabulary(["2", "0", "1", "201", "20"])
        vt = Vocabulary(["2", "0", "1"])
        expected = build_projection(vs, vt, Tokenizer(vt), ProjectionConfig(max_span=3)).rows
        lengths = []

        def counted(length, beta, gamma):
            lengths.append(length)
            assert len(lengths) <= 10, "weights computed for span lengths no row has"
            return decay_weights(length, beta, gamma)

        monkeypatch.setattr(projection, "decay_weights", counted)
        w = build_projection(vs, vt, Tokenizer(vt), ProjectionConfig(max_span=10**30))
        assert w.rows == expected and sorted(set(lengths)) == [2, 3]


class TestProject:
    def test_identity_projection(self):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(len(tok.vocabulary)))
        np.testing.assert_allclose(project(w, p), p, atol=1e-15)

    def test_point_mass_recovers_row(self, digit_pair):
        student, teacher, w = digit_pair
        s = student.vocabulary.id_of["201"]
        p = np.zeros(w.n_student)
        p[s] = 1.0
        q = project(w, p)
        expected = np.zeros(w.n_teacher)
        for t, weight in w.rows[s]:
            expected[t] = weight
        np.testing.assert_allclose(q, expected / expected.sum(), atol=1e-15)

    def test_matches_dense_oracle(self):
        rows = [
            [(0, 0.7), (1, 0.3)],
            [(2, 1.0)],
            [(1, 0.5), (3, 0.4)],
        ]
        w = SparseProjection.from_rows(4, rows, [Provenance.MULTI_TOKEN, Provenance.EXACT,
                                                 Provenance.MULTI_TOKEN], ProjectionConfig())
        p = np.full(3, 1.0 / 3.0)
        dense = dense_of(w).T @ p
        np.testing.assert_allclose(project(w, p), dense / dense.sum(), atol=1e-12)

    def test_probability_preservation_without_truncation(self, digit_pair):
        student, teacher, _ = digit_pair
        cfg = ProjectionConfig(top_k=len(teacher.vocabulary))
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher, cfg)
        assert all(p is not Provenance.EMPTY for p in w.provenance)
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.dirichlet(np.ones(w.n_student))
            raw = w.product(p)
            assert abs(raw.sum() - 1.0) < 1e-12

    def test_all_mass_on_empty_row_fails(self):
        student = Tokenizer(Vocabulary(["é", "a"]))
        teacher = make_toy_tokenizer("char_level")
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        p = np.array([1.0, 0.0])
        with pytest.raises(DegenerateDistributionError):
            project(w, p)

    def test_input_validation(self, digit_pair):
        _, _, w = digit_pair
        with pytest.raises(ValidationError):
            project(w, np.full(w.n_student, 0.5))  # does not sum to 1

    @pytest.mark.parametrize("helper", ["project", "apply_w_gradient"])
    def test_nan_input_rejected(self, digit_pair, helper):
        _, _, w = digit_pair
        p = np.full(w.n_student, 1.0 / w.n_student)
        p[0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            if helper == "project":
                project(w, p)
            else:
                apply_w_gradient(w, p, np.ones(w.n_teacher))


class TestTop1:
    def test_exact_row(self):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        assert top1(w, 65) == (65, 1.0)

    def test_multi_token_row(self, digit_pair):
        student, teacher, w = digit_pair
        s = student.vocabulary.id_of["201"]
        t, weight = top1(w, s)
        assert teacher.vocabulary.tokens[t] == "2"
        assert weight == pytest.approx(decay_weights(3)[0])

    def test_empty_row(self):
        student = Tokenizer(Vocabulary(["é"]))
        teacher = make_toy_tokenizer("char_level")
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        assert top1(w, 0) is None

    def test_truncation_never_changes_top1(self):
        student = make_toy_tokenizer("numeral_preserving")
        teacher = make_toy_tokenizer("digit_splitting")
        w_full = build_projection(student.vocabulary, teacher.vocabulary, teacher,
                                  ProjectionConfig(top_k=len(teacher.vocabulary)))
        w_one = build_projection(student.vocabulary, teacher.vocabulary, teacher,
                                 ProjectionConfig(top_k=1))
        for s in range(w_full.n_student):
            assert top1(w_full, s) == top1(w_one, s)

    def test_exact_match_dominates(self, digit_pair):
        _, _, w = digit_pair
        for s, prov in enumerate(w.provenance):
            if prov is Provenance.EXACT:
                assert top1(w, s)[1] == 1.0


class TestWGradient:
    def test_zero_upstream(self, digit_pair):
        _, _, w = digit_pair
        p = np.full(w.n_student, 1.0 / w.n_student)
        grad = apply_w_gradient(w, p, np.zeros(w.n_teacher))
        assert grad.shape == (w.entry_count,)
        np.testing.assert_array_equal(grad, 0.0)

    def test_zero_distribution_gives_zero_gradient(self, digit_pair):
        """An all-zero input is not a distribution: rejected as ``project`` rejects it."""
        _, _, w = digit_pair
        with pytest.raises(ValidationError, match="sums to 0.0"):
            apply_w_gradient(w, np.zeros(w.n_student), np.ones(w.n_teacher))

    def test_all_mass_on_empty_rows_fails(self):
        student = Tokenizer(Vocabulary(["é", "a"]))
        teacher = make_toy_tokenizer("char_level")
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        with pytest.raises(DegenerateDistributionError):
            apply_w_gradient(w, np.array([1.0, 0.0]), np.ones(w.n_teacher))

    def test_matches_finite_differences_dense_2x2(self):
        rows = [[(0, 0.8), (1, 0.2)], [(0, 0.4), (1, 0.6)]]
        w = SparseProjection.from_rows(2, rows, [Provenance.MULTI_TOKEN, Provenance.MULTI_TOKEN],
                                       ProjectionConfig())
        rng = np.random.default_rng(3)
        p = rng.dirichlet([1.0, 1.0])
        upstream = rng.normal(size=2)
        analytic = apply_w_gradient(w, p, upstream)

        entries = [(s, t) for s, t, _ in w.entries()]

        def value(flat_w):
            mat = np.zeros((2, 2))
            for (s, t), weight in zip(entries, flat_w):
                mat[s, t] = weight
            q_raw = mat.T @ p
            return float(upstream @ (q_raw / q_raw.sum()))

        numeric = central_difference(value, np.array([wt for _, _, wt in w.entries()]))
        assert max_relative_error(analytic, numeric) < 1e-6


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_pkl_entry_gradient_is_the_projection_chain_rule(seed, n_s, n_t):
    """With no support, the ``pkl`` kernel's gradient in the projection
    entries is the reference chain rule of ``project`` with upstream
    ``-p_t / q``, wherever the log floor is inactive."""
    assume(4 * n_s >= n_t)
    rng = np.random.default_rng(seed)
    w = random_projection(rng, n_s, n_t)
    z = rng.normal(size=n_s) * 2
    pt = rng.dirichlet(np.ones(n_t))
    ps = softmax(z)
    q = project(w, ps)
    assume(np.all(q > LOG_EPS))
    np.testing.assert_allclose(pkl_grads(z, pt, w)[1], apply_w_gradient(w, ps, -pt / q),
                               rtol=1e-12, atol=1e-15)


class TestProjectionFiles:
    def test_roundtrip(self, digit_pair, tmp_path):
        _, _, w = digit_pair
        path = tmp_path / "w.proj"
        save_projection(w, path)
        loaded = load_projection(path)
        assert loaded.rows == w.rows
        assert loaded.provenance == w.provenance
        assert loaded.config == w.config

    def test_tampered_file_rejected(self, digit_pair, tmp_path):
        _, _, w = digit_pair
        path = tmp_path / "w.proj"
        save_projection(w, path)
        data = bytearray(path.read_bytes())
        data[-2] ^= 1  # the last weight, 1.0 of an exact row, one ulp off
        path.write_bytes(data)
        rejects(path, "content hash mismatch, file corrupted or edited")

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ProjectionConfig(beta=0.1, gamma=0.9)
        with pytest.raises(ValidationError):
            ProjectionConfig(top_k=0)

    @pytest.mark.parametrize("field", ["max_span", "top_k"])
    @pytest.mark.parametrize("value", [2.5, True, np.int64(2)], ids=["float", "bool", "numpy"])
    def test_config_count_must_be_int(self, field, value):
        """A count ``load_projection`` would refuse in the header (or, for a
        numpy integer, that the header could not hold) fails at construction."""
        with pytest.raises(ValidationError) as info:
            ProjectionConfig(**{field: value})
        assert str(info.value) == f"{field} must be an int, got {value!r}"


def rewrite_body(path, edit, **header):
    """Replace the body of a saved projection by ``edit(body)`` (field name ->
    list) and re-seal its hash. ``header.entries`` becomes the new length of
    ``teacher_ids``, unless ``header`` (fields set over the old header) sets it."""
    old, body = unpack_file(path.read_bytes())
    body = edit(body)
    path.write_bytes(sealed_file({**old, "entries": len(body["teacher_ids"]), **header},
                                 pack_body(body)))


def rewrite_header(path, edit):
    """Replace the header line of a saved projection by ``edit(header)``."""
    line, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + body)


def reseal_lines(path, lines):
    """The header without ``entries``, then ``lines``, with the content hash
    over the nonblank ones: a file of an older JSON layout."""
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    del header["entries"]
    header["content_hash"] = hashlib.sha256(
        "\n".join(line for line in lines if line.strip()).encode("utf-8")).hexdigest()
    path.write_text("\n".join([json.dumps(header)] + lines) + "\n")


def last_row_holds(entry):
    """A body edit: the last row holds the one ``(teacher_id, weight)`` ``entry``."""
    def edit(body):
        drop = body["counts"][-1]
        return {**body, "counts": body["counts"][:-1] + [1],
                "teacher_ids": body["teacher_ids"][:-drop] + [entry[0]],
                "weights": body["weights"][:-drop] + [entry[1]]}
    return edit


@pytest.fixture
def saved(tmp_path):
    """Rows 0-2 exact, row 3 a three-entry multi-token row."""
    vs = Vocabulary(["2", "0", "1", "201"])
    vt = Vocabulary(["2", "0", "1"])
    path = tmp_path / "digits.w"
    save_projection(build_projection(vs, vt, Tokenizer(vt)), path)
    return path


def rejects(path, *words):
    with pytest.raises(ValidationError) as info:
        load_projection(path)
    assert str(info.value).startswith(f"{path}: ")
    for word in words:
        assert word in str(info.value)


def rejects_body(path, edit, *words):
    """``edit(body)`` fails naming ``words``: loaded from the re-sealed file,
    with its path in front, when a raw body can hold it, else from the
    constructor, as a ``from_rows`` caller meets it (a bool, a string or a
    float id, an int weight, a provenance string that is no value)."""
    header, body = unpack_file(path.read_bytes())
    body = edit(body)
    try:
        pack_body(body)
    except (TypeError, ValueError, struct.error):
        with pytest.raises(ValidationError) as info:
            SparseProjection(header["n_student"], header["n_teacher"],
                             config=ProjectionConfig(**header["config"]), **body)
        for word in words:
            assert word in str(info.value)
        return "constructor"
    rewrite_body(path, lambda _: body)
    rejects(path, *words)
    return "file"


def body_bytes(path) -> bytes:
    return path.read_bytes().split(b"\n", 1)[1]


class TestProjectionIndexValidation:
    """``counts`` is the body's row index: row ``s`` owns the next
    ``counts[s]`` teacher ids and weights."""

    @pytest.mark.parametrize("bad, words", [
        ((0, -1), "counts holds -1, not an entry count"),
        ((3, 4), "teacher_ids holds 6 entries, counts sums to 7"),
        ((0, "1"), "counts[0] must be an int, got '1'"),
        ((0, True), "counts[0] must be an int, got True"),
        ((0, 1.0), "counts[0] must be an int, got 1.0"),
    ], ids=["negative", "past_end", "not_int", "bool", "float"])
    def test_bad_row_index(self, saved, bad, words):
        """A count of another type than int (the last three) cannot be packed,
        so the constructor alone meets it."""
        at, count = bad
        assert rejects_body(saved, lambda b: {**b, "counts": [count if s == at else c
                                                             for s, c in enumerate(b["counts"])]},
                            words) == ("file" if type(count) is int else "constructor")

    def test_duplicate_row_index(self, saved):
        """Row 3 given twice: the body is one row and three entries longer
        than the header says."""
        old = body_bytes(saved)
        rewrite_body(saved, lambda b: {"counts": b["counts"] + [3],
                                       "provenance": b["provenance"] + ["multi_token"],
                                       "teacher_ids": b["teacher_ids"] + b["teacher_ids"][3:],
                                       "weights": b["weights"] + b["weights"][3:]}, entries=6)
        assert len(body_bytes(saved)) == len(old) + 9 + 3 * 16
        rejects(saved, f"the body holds {len(old) + 57} bytes, not 9 per row and 16 per entry "
                       "(n_student 4, entries 6)")

    @pytest.mark.parametrize("field, words", [
        ("counts", "counts holds 3 rows, n_student is 4"),
        ("provenance", "provenance holds 3 rows, n_student is 4"),
        ("teacher_ids", "teacher_ids holds 5 entries, counts sums to 6"),
        ("weights", "weights holds 5 entries, counts sums to 6"),
    ])
    def test_list_one_short(self, saved, field, words):
        """The constructor names the short list; in a file under an unchanged
        header the same body is one value short, which the length check names."""
        header, body = unpack_file(saved.read_bytes())
        with pytest.raises(ValidationError) as info:
            SparseProjection(4, 3, config=ProjectionConfig(**header["config"]),
                             **{**body, field: body[field][:-1]})
        assert str(info.value) == words
        size = len(body_bytes(saved)) - (1 if field == "provenance" else 8)
        rewrite_body(saved, lambda b: {**b, field: b[field][:-1]}, entries=6)
        rejects(saved, f"the body holds {size} bytes, not 9 per row and 16 per entry")

    def test_teacher_id_repeated_within_a_row(self, saved):
        rewrite_body(saved, lambda b: {**b, "teacher_ids": b["teacher_ids"][:4] + [0, 2]})
        rejects(saved, "row 3: a teacher id repeats in its entries")

    def test_constructor_rejects_repeated_teacher_id(self):
        with pytest.raises(ValidationError, match="teacher id repeats"):
            SparseProjection.from_rows(2, [[(0, 0.5), (0, 0.4)]], [Provenance.MULTI_TOKEN],
                                       ProjectionConfig())


OLD_LAYOUT = ("header.entries is missing, so the body is not raw arrays (a file of an older "
              "JSON layout?); rebuild the projection with `crosstok build-w`")


class TestProjectionFileFields:
    def test_header_without_config(self, saved):
        rewrite_header(saved, lambda h: {k: v for k, v in h.items() if k != "config"})
        rejects(saved, "config")

    def test_unknown_config_key(self, saved):
        rewrite_header(saved, lambda h: {**h, "config": {**h["config"], "bogus": 1}})
        rejects(saved, "config.bogus")

    def test_mistyped_header_field(self, saved):
        rewrite_header(saved, lambda h: {**h, "n_student": "2"})
        rejects(saved, "n_student")

    @pytest.mark.parametrize("n_student", [10**30, 2**63, -1], ids=["1e30", "2**63", "-1"])
    def test_impossible_student_count_named(self, saved, n_student):
        rewrite_header(saved, lambda h: {**h, "n_student": n_student})
        rejects(saved, f"the body holds 132 bytes, not 9 per row and 16 per entry "
                       f"(n_student {n_student}, entries 6)")

    def test_student_count_beyond_memory_named(self, saved, tmp_path):
        """A row count that no allocation can hold fails by name, and before
        anything is allocated from it (run under a 2 GB address-space limit):
        ``n_student`` 2**40 over the saved body, and 2**62 over a body one
        byte short of it."""
        rewrite_header(saved, lambda h: {**h, "n_student": 2**40})
        short = tmp_path / "short.w"
        short.write_bytes(saved.read_bytes()[:-1])
        rewrite_header(short, lambda h: {**h, "n_student": 2**62})
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from crosstok.errors import ValidationError\n"
                  "from crosstok.projection import load_projection\n"
                  "for path in sys.argv[1:]:\n"
                  "    try:\n"
                  "        load_projection(path)\n"
                  "    except ValidationError as exc:\n"
                  "        print(exc)\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script, str(saved), str(short)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(
            f"{path}: the body holds {size} bytes, not 9 per row and 16 per entry "
            f"(n_student {n}, entries 6)\n"
            for path, size, n in ((saved, 132, 2**40), (short, 131, 2**62))), proc.stdout

    @pytest.mark.parametrize("edit", [lambda data: data[:-1], lambda data: data + b"\0"],
                             ids=["short", "long"])
    def test_body_one_byte_off_named(self, saved, edit):
        """A body one byte short or long fails the length check, before the
        hash, whatever its bytes."""
        saved.write_bytes(edit(saved.read_bytes()))
        size = len(body_bytes(saved))
        rejects(saved, f"the body holds {size} bytes, not 9 per row and 16 per entry "
                       "(n_student 4, entries 6)")

    @pytest.mark.parametrize("entries", [5, 7])
    def test_entries_that_disagree_with_the_body_named(self, saved, entries):
        rewrite_header(saved, lambda h: {**h, "entries": entries})
        rejects(saved, f"the body holds 132 bytes, not 9 per row and 16 per entry "
                       f"(n_student 4, entries {entries})")

    @pytest.mark.parametrize("edit, words", [
        (lambda b: {**b, "teacher_ids": b["teacher_ids"][:-1] + [3]},
         "row 3: teacher id 3 out of range"),
        (lambda b: {**b, "teacher_ids": b["teacher_ids"][:-1] + [-2**63]},
         f"row 3: teacher id {-2**63} out of range"),
        (lambda b: {**b, "provenance": b["provenance"][:-1] + [3]},
         "provenance holds code 3, not in [0, 3)"),
        (lambda b: {**b, "provenance": [-128] + b["provenance"][1:]},
         "provenance holds code -128, not in [0, 3)"),
    ], ids=["teacher_id", "teacher_id_min", "code", "negative_code"])
    def test_resealed_value_out_of_range_named(self, saved, edit, words):
        assert rejects_body(saved, edit, words) == "file"

    def test_bad_config_constants_named(self, saved):
        rewrite_header(saved, lambda h: {**h, "config": {**h["config"], "beta": 0.05}})
        with pytest.raises(ValidationError) as info:
            load_projection(saved)
        assert str(info.value).startswith(f"{saved}: header.config: need 0 < gamma < beta")

    def test_header_not_an_object(self, saved):
        rewrite_header(saved, lambda h: [1, 2])
        rejects(saved, "object")

    def test_row_without_entries(self, saved):
        """``entries`` agrees with the body but not with ``counts``: the last
        row's third entry is missing."""
        rewrite_body(saved, lambda b: {**b, "teacher_ids": b["teacher_ids"][:-1],
                                       "weights": b["weights"][:-1]})
        rejects(saved, "teacher_ids holds 5 entries, counts sums to 6")

    @pytest.mark.parametrize("header, words", [
        ({"entries": 6.0}, "header.entries must be int, got 6.0"),
        ({"rows": []}, "header.rows is not a known field"),
    ], ids=["not_a_list", "unknown"])
    def test_mistyped_or_unknown_body_field(self, saved, header, words):
        """The body's one header field, ``entries``, of another type than int
        (the id names the JSON-list field it replaced), and a header field
        that no layout has."""
        rewrite_header(saved, lambda h: {**h, **header})
        rejects(saved, words)

    def test_malformed_entry_and_unknown_provenance(self, saved):
        original = saved.read_bytes()
        rewrite_body(saved, lambda b: {**b, "weights": b["weights"][1:]}, entries=6)
        rejects(saved, "the body holds 124 bytes, not 9 per row and 16 per entry")
        saved.write_bytes(original)
        assert rejects_body(saved, lambda b: {**b, "provenance": ["guess"] + b["provenance"][1:]},
                            "provenance holds 'guess', not one of ['exact', "
                            "'multi_token', 'empty']") == "constructor"
        for garbled in (b'{"counts": 0,', b"[0]"):
            saved.write_bytes(garbled + b"\n" + original.split(b"\n", 1)[1])
            rejects(saved, "line 1: not a JSON object")

    @pytest.mark.parametrize("entry", [[2.7, 0.9], [True, 0.9], ["x", 0.9], [None, 0.9],
                                       [0, "0.9"], [0, None], [0, False], [10**30, 0.9],
                                       [0, 10**400]])
    def test_mistyped_entry_named(self, saved, entry):
        """No raw body holds these, so the constructor names them."""
        assert rejects_body(saved, last_row_holds(entry), "teacher_ids[3] must"
                            if entry[1] == 0.9 else "in weights is") == "constructor"

    def test_nan_weight_named(self, saved):
        rewrite_body(saved, last_row_holds([0, float("nan")]))
        rejects(saved, "row 3: non-positive weight nan")

    def test_first_bad_entry_named_in_student_order(self, saved):
        """With bad entries in rows 1 and 3, the loader names row 1's, and the
        constructor's type check names row 1's as well."""
        rewrite_body(saved, lambda b: {**b, "teacher_ids": [0, 5, 2, 9, 1, 2]})
        with pytest.raises(ValidationError) as info:
            load_projection(saved)
        assert str(info.value) == f"{saved}: row 1: teacher id 5 out of range"
        rejects_body(saved, lambda b: {**b, "teacher_ids": [0, True, 2, "x", 1, 2]},
                     "teacher_ids[1] must be an int, got True")

    def test_int_weight_loads_as_float(self, saved):
        """A raw body holds only float weights; a ``from_rows`` caller's int
        weight becomes a float."""
        header, body = unpack_file(saved.read_bytes())
        body = last_row_holds([0, 1])(body)
        w = SparseProjection(4, 3, config=ProjectionConfig(**header["config"]), **body)
        [(t, weight)] = w.rows[-1]
        assert (t, weight) == (0, 1.0) and type(weight) is float

    @pytest.mark.parametrize("lines", [
        ['{"entries":[[0,1.0]],"provenance":"exact","s":0}',
         '{"entries":[[1,1.0]],"provenance":"exact","s":1}'],
        ['{"entries":[[0,1.0]],"provenance":"exact","s":0}'],
        [],
        ['{"counts":[1],"provenance":["exact"],"teacher_ids":[0],"weights":[1.0]}'],
    ], ids=["row_records", "one_row_record", "no_body", "json_body"])
    def test_old_layout_named_for_rebuild(self, saved, lines):
        """A file of an older layout (one JSON record per row, one of them,
        none, or one JSON body record), its content hash valid, has no
        ``header.entries`` and fails with a pointer to ``crosstok build-w``."""
        reseal_lines(saved, lines)
        with pytest.raises(ValidationError) as info:
            load_projection(saved)
        assert str(info.value) == f"{saved}: {OLD_LAYOUT}"


class TestCounts:
    @pytest.mark.parametrize("n_student, n_teacher", [(-1, 2), (0, -1), (1, -5)])
    def test_negative_count_rejected(self, n_student, n_teacher):
        counts, prov = [0] * max(n_student, 0), [Provenance.EMPTY] * max(n_student, 0)
        with pytest.raises(ValidationError):
            SparseProjection(n_student, n_teacher, counts, [], [], prov, ProjectionConfig())

    def test_negative_teacher_count_named(self):
        with pytest.raises(ValidationError) as info:
            SparseProjection.from_rows(-1, [], [], ProjectionConfig())
        assert str(info.value) == f"n_teacher must be a count in [0, {sys.maxsize}], got -1"

    @pytest.mark.parametrize("n_teacher", [sys.maxsize, sys.maxsize // 16],
                             ids=["past_array_size", "past_memory"])
    def test_teacher_count_too_large_to_project_named(self, n_teacher):
        """numpy's ``array is too big`` ValueError (at ``sys.maxsize``) and a
        MemoryError (at ``sys.maxsize // 16``) become one ValidationError that
        names n_teacher. Only these two sizes: a smaller one, such as 2**40,
        could be allocated lazily and fill the memory."""
        w = SparseProjection.from_rows(n_teacher, [[(0, 1.0)]], ["exact"], ProjectionConfig())
        for call in (lambda: w.product(np.array([1.0])), lambda: project(w, [1.0])):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == (f"a teacher-space vector of n_teacher {n_teacher} "
                                       "entries cannot be allocated")


class TestNonFiniteWeights:
    @pytest.mark.parametrize("row", [[(0, 0.5), (1, float("nan"))], [(0, float("nan"))]],
                             ids=["second_entry", "single_entry"])
    def test_nan_weight_rejected(self, row):
        with pytest.raises(ValidationError, match="row 0: non-positive weight nan"):
            SparseProjection.from_rows(2, [row], [Provenance.MULTI_TOKEN], ProjectionConfig())

    def test_nan_weight_rejected_by_with_weights(self):
        w = SparseProjection.from_rows(2, [[(0, 0.5), (1, 0.4)]], [Provenance.MULTI_TOKEN],
                                       ProjectionConfig())
        with pytest.raises(ValidationError, match="row 0: non-positive weight nan"):
            w.with_weights([0.5, float("nan")])

    @pytest.mark.parametrize("flat, words", [
        (["0.6", 0.3, 1.0], "row 0: weight '0.6'"),
        (np.array(["0.6", "0.3", "1.0"]), "row 0: weight np.str_('0.6')"),
        ([0.6, 0.3, True], "row 1: weight True"),
    ], ids=["string", "numpy_string", "bool"])
    def test_with_weights_keeps_the_constructor_weight_rule(self, flat, words):
        """Accepted before as floats (a bool as 1.0); refused as the constructor
        refuses the same flat weights."""
        args = 2, 3, [2, 1], [0, 1, 2]
        w = SparseProjection(*args, [0.6, 0.3, 1.0], ["multi_token"] * 2, ProjectionConfig())
        for build in (lambda: w.with_weights(flat),
                      lambda: SparseProjection(*args, flat, ["multi_token"] * 2,
                                               ProjectionConfig())):
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == f"{words} in weights is not a number"

    def test_with_weights_keeps_a_private_copy(self):
        w = SparseProjection.from_rows(3, [[(0, 0.6), (1, 0.3)], [(2, 1.0)]],
                                       [Provenance.MULTI_TOKEN] * 2, ProjectionConfig())
        flat = np.array([0.5, 0.4, 1.0])
        reweighted = w.with_weights(flat)
        flat[:] = -1.0  # would fail the checks ``with_weights`` already made
        assert [wt for _, _, wt in reweighted.entries()] == [0.5, 0.4, 1.0]


# the reference accepts NaN weights; this stand-in makes it reject them where
# the CSR checks do, under a message that differs only in the number
NAN_STANDIN = -7.25
WEIGHTS = (1.0, 1, 0.9, 0.6, 0.5, 0.45, 0.09, 1e-3, 0.0, -0.5, float("inf"), float("nan"))


@st.composite
def projection_inputs(draw):
    """Rows that mostly follow their provenance's rule, mixed with arbitrary
    rows: too many entries, repeats, ids out of range, zero, negative or
    non-finite weights, sums over 1, exact rows not of weight 1 and empty
    rows with entries."""
    n_teacher = draw(st.integers(1, 5))
    top_k = draw(st.integers(1, 3))
    rows, provenance = [], []
    for _ in range(draw(st.integers(0, 6))):
        prov = draw(st.sampled_from(Provenance))
        if draw(st.integers(0, 3)) == 0:
            row = draw(st.lists(st.tuples(st.integers(-1, n_teacher), st.sampled_from(WEIGHTS)),
                                max_size=top_k + 1))
        elif prov is Provenance.EXACT:
            row = [(draw(st.integers(0, n_teacher - 1)), 1.0)]
        elif prov is Provenance.EMPTY:
            row = []
        else:
            ids = draw(st.lists(st.integers(0, n_teacher - 1), unique=True, min_size=1,
                                max_size=top_k))
            row = list(zip(ids, decay_weights(len(ids)).tolist()))
        rows.append(row)
        provenance.append(prov)
    return len(rows), n_teacher, rows, provenance, ProjectionConfig(top_k=top_k)


def outcome(make):
    try:
        return make(), None
    except ValidationError as exc:
        return None, str(exc)


def assert_same_outcome(n_s, n_t, rows, provenance, config, make):
    standin = [[(t, NAN_STANDIN if w != w else w) for t, w in row] for row in rows]
    ref, ref_err = outcome(lambda: ReferenceProjection(n_s, n_t, standin, provenance, config))
    w, err = outcome(make)
    assert err == (ref_err and ref_err.replace(str(NAN_STANDIN), "nan"))
    if w is not None:
        assert w.rows == ref.rows and w.provenance == ref.provenance
        assert w.summary() == ref.summary()
    return w, ref


@settings(max_examples=400, deadline=None)
@given(projection_inputs(), st.sampled_from([0.5, 1.0, 2.0]))
def test_csr_projection_matches_reference(tmp_path_factory, args, scale):
    n_s, n_t, rows, provenance, config = args
    w, ref = assert_same_outcome(*args, lambda: SparseProjection.from_rows(*args[1:]))
    if w is None:
        return
    assert [top1(w, s) for s in range(n_s)] == [ref.top1(s) for s in range(n_s)]
    relaxed = build_common_set_relaxed(w)
    assert (tuple(zip(relaxed.student_ids.tolist(), relaxed.teacher_ids.tolist()))
            == ref.common_set_relaxed())
    path = tmp_path_factory.mktemp("csr") / "w.proj"
    save_projection(w, path)
    assert path.read_bytes() == ref.saved_bytes()

    scaled = [[(t, wt * scale) for t, wt in row] for row in rows]
    flat = np.array([wt for _, _, wt in w.entries()]) * scale
    assert_same_outcome(n_s, n_t, scaled, provenance, config, lambda: w.with_weights(flat))


# teacher ids that repeat within a row, fall out of range on either side, or
# sit at the ends of int64
FLAT_IDS = st.integers(-2, 5) | st.sampled_from([-2**63, 2**62 - 1, 2**62, 2**63 - 1])


@st.composite
def flat_projection_inputs(draw):
    """Constructor arguments that reach every row rule, the repeated-id one
    most of all: rows up to two entries over ``top_k``, ids from ``FLAT_IDS``,
    and mostly multi-token rows of small weights mixed with ``WEIGHTS``."""
    n_teacher = draw(st.sampled_from([1, 4, 2**62]))
    top_k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, top_k) | st.integers(0, top_k + 2), max_size=10))
    n = sum(counts)
    teacher_ids = draw(st.lists(FLAT_IDS, min_size=n, max_size=n))
    weights = draw(st.lists(st.just(0.1) | st.sampled_from(WEIGHTS), min_size=n, max_size=n))
    kinds = st.just(projection._MULTI) | st.sampled_from(range(len(Provenance)))
    kind = np.array(draw(st.lists(kinds, min_size=len(counts), max_size=len(counts))),
                    dtype=np.int8)
    return len(counts), n_teacher, counts, teacher_ids, weights, kind, ProjectionConfig(top_k=top_k)


@settings(max_examples=500, deadline=None)
@given(flat_projection_inputs())
def test_one_key_validate_matches_lexsort_reference(args):
    """The one-key sort of ``_validate`` accepts what the ``np.lexsort``
    version accepts, and otherwise raises its message."""
    with mock.patch.object(SparseProjection, "_validate", projection_reference.lexsort_validate):
        ref, ref_err = outcome(lambda: SparseProjection(*args))
    w, err = outcome(lambda: SparseProjection(*args))
    assert err == ref_err
    assert (w is None) == (ref is None)


def flat_args(n_student, n_teacher, rows, provenance, config):
    """``projection_inputs`` as the constructor's arguments."""
    return (n_student, n_teacher, [len(row) for row in rows], [t for row in rows for t, _ in row],
            [w for row in rows for _, w in row], provenance, config)


# teacher counts at both ends of [0, sys.maxsize] and past it, and counts that
# are not ints, in place of the drawn one
TEACHER_COUNTS = st.none() | st.sampled_from([0, sys.maxsize, 2**63, 10**30, 3.0, True])


@settings(max_examples=400, deadline=None)
@given(projection_inputs().map(lambda args: flat_args(*args)) | flat_projection_inputs(),
       TEACHER_COUNTS, st.sampled_from([int, float, bool]))
def test_constructor_raises_only_validation_errors_and_round_trips(tmp_path_factory, args,
                                                                   n_teacher, student_count):
    """The constructor fails only with ``ValidationError`` (no plain
    ``ValueError``, ``TypeError`` or ``OverflowError``), and every projection
    it accepts loads back from its file with the same rows, provenance and
    config. ``student_count`` recasts the drawn ``n_student``: a float or a
    bool equal to the row count must be rejected too."""
    args = (student_count(args[0]), args[1] if n_teacher is None else n_teacher, *args[2:])
    try:
        w = SparseProjection(*args)
    except ValidationError:
        return
    path = tmp_path_factory.mktemp("accepted") / "w.proj"
    save_projection(w, path)
    got = load_projection(path)
    assert ((got.n_student, got.n_teacher, got.rows, got.provenance, got.config)
            == (w.n_student, w.n_teacher, w.rows, w.provenance, w.config))


class TestConstructorRules:
    """Rules that only the file loader held before; every caller gets them now."""

    @pytest.mark.parametrize("n_teacher", [10**30, 2**63], ids=["1e30", "2**63"])
    def test_teacher_count_past_maxsize_named(self, n_teacher):
        with pytest.raises(ValidationError) as info:
            SparseProjection.from_rows(n_teacher, [[(0, 0.5)]], [Provenance.MULTI_TOKEN],
                                       ProjectionConfig())
        assert str(info.value) == (f"n_teacher must be a count in [0, {sys.maxsize}], "
                                   f"got {n_teacher}")

    @pytest.mark.parametrize("count", [3.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("key", ["n_student", "n_teacher"])
    def test_count_that_is_not_an_int_named(self, key, count):
        """Accepted before, a float or a bool count failed later with a
        ``TypeError`` from numpy, or in ``project``."""
        args = {"n_student": 1, "n_teacher": 3, **{key: count}}
        with pytest.raises(ValidationError) as info:
            SparseProjection(args["n_student"], args["n_teacher"], [1], [0], [1.0], ["exact"],
                             ProjectionConfig())
        assert str(info.value) == f"{key} must be an int, got {count!r}"

    @pytest.mark.parametrize("bad", ["bogus", None, []], ids=["bogus", "none", "list"])
    def test_unknown_provenance_named(self, bad):
        with pytest.raises(ValidationError) as info:
            SparseProjection.from_rows(2, [[(0, 0.5)], []], [Provenance.MULTI_TOKEN, bad],
                                       ProjectionConfig())
        assert str(info.value) == (f"provenance holds {bad!r}, not one of "
                                   "['exact', 'multi_token', 'empty']")

    def test_negative_count_in_an_array_named(self):
        with pytest.raises(ValidationError) as info:
            SparseProjection(2, 2, np.array([2, -1]), [0, 1], [0.5, 0.4],
                             [Provenance.MULTI_TOKEN] * 2, ProjectionConfig())
        assert str(info.value) == "counts holds -1, not an entry count"

    @pytest.mark.parametrize("code", [7, -1])
    def test_code_out_of_range_named(self, code):
        with pytest.raises(ValidationError) as info:
            SparseProjection(2, 2, [1, 0], [0], [1.0], np.array([0, code], dtype=np.int8),
                             ProjectionConfig())
        assert str(info.value) == f"provenance holds code {code}, not in [0, 3)"

    def test_unaligned_arrays_are_stored_aligned(self):
        """Ids and weights read from a buffer at an odd offset are copied
        aligned (numpy reads an unaligned view about 2.5 times slower), and
        the copy projects and pulls back byte for byte as an aligned build."""
        rng = np.random.default_rng(3)
        w = random_projection(rng, 12, 9)
        counts, codes, teacher_ids, weights = w.body

        def unaligned(a):
            return np.frombuffer(b"\0" + a.tobytes(), a.dtype, a.size, 1)

        moved = SparseProjection(w.n_student, w.n_teacher, unaligned(counts),
                                 unaligned(teacher_ids), unaligned(weights), codes.copy(),
                                 w.config)
        assert not unaligned(teacher_ids).flags.aligned
        assert all(a.flags.aligned for a in moved.body)
        p_s, d_q = rng.dirichlet(np.ones(12)), rng.normal(size=9)
        assert moved.product(p_s).tobytes() == w.product(p_s).tobytes()
        for got, want in zip(moved.pullback(p_s, d_q), w.pullback(p_s, d_q)):
            assert got.tobytes() == want.tobytes()


# weights whose ``repr`` is long or unusual
LONG_WEIGHTS = (0.1 + 0.2, 1 / 3, 2 / 3, 0.1, 1e-300, 5e-324, 1e-5, 0.7 / 3)


@st.composite
def valid_projections(draw):
    """Projections that every rule accepts: exact, empty and multi-token rows,
    weights with long ``repr``s, and teacher ids up to 2**62."""
    n_teacher = draw(st.sampled_from([1, 3, 100, 2**40, 2**62]))
    top_k = draw(st.integers(1, 4))
    rows, provenance = [], []
    for _ in range(draw(st.integers(0, 12))):
        prov = draw(st.sampled_from(Provenance))
        if prov is Provenance.EXACT:
            row = [(draw(st.integers(0, n_teacher - 1)), 1.0)]
        elif prov is Provenance.EMPTY:
            row = []
        else:
            ids = draw(st.lists(st.integers(0, n_teacher - 1), unique=True, min_size=1,
                                max_size=top_k))
            cap = 1 / len(ids)
            weight = (st.floats(min_value=5e-324, max_value=cap)
                      | st.sampled_from([x for x in LONG_WEIGHTS if x <= cap]))
            row = [(t, draw(weight)) for t in ids]
        rows.append(row)
        provenance.append(prov)
    return SparseProjection.from_rows(n_teacher, rows, provenance, ProjectionConfig(top_k=top_k))


def same_arrays(got: SparseProjection, ref: SparseProjection) -> bool:
    return ((got.n_student, got.n_teacher, got.provenance, got.config)
            == (ref.n_student, ref.n_teacher, ref.provenance, ref.config)
            and all(np.array_equal(getattr(got, a), getattr(ref, a)) and
                    getattr(got, a).dtype == getattr(ref, a).dtype
                    for a in ("_indptr", "_flat_s", "_flat_t", "_flat_w", "_kind")))


def one_ulp_up_on_multi_token_rows(w: SparseProjection) -> SparseProjection:
    """``w.with_weights``: every multi-token entry's weight one ulp larger."""
    multi = np.repeat(w._kind == projection._MULTI, np.diff(w._indptr))
    return w.with_weights(np.where(multi, np.nextafter(w._flat_w, 1.0), w._flat_w))


@settings(max_examples=300, deadline=None)
@given(valid_projections(), st.booleans())
def test_save_load_round_trip_is_bit_identical(tmp_path_factory, w, reweighted):
    """Empty rows, ``n_student = 0``, every provenance, ``top_k`` 1-4,
    ``n_teacher`` up to 2**62, weights with long ``repr``s down to ``5e-324``,
    and a ``with_weights`` result all load back bit for bit, with the same
    ``rows``; saving twice, or saving what was loaded, gives the same bytes."""
    if reweighted:
        w = one_ulp_up_on_multi_token_rows(w)
    path = tmp_path_factory.mktemp("round") / "w.proj"
    save_projection(w, path)
    data = path.read_bytes()
    got = load_projection(path)
    assert same_arrays(got, w) and got._flat_w.tobytes() == w._flat_w.tobytes()
    assert got.rows == w.rows and not any(a.flags.writeable for a in got.body)
    save_projection(w, path)
    assert path.read_bytes() == data
    save_projection(got, path)
    assert path.read_bytes() == data


def test_round_trip_of_no_rows(tmp_path):
    """No rows: the file is the header line alone, over an empty body."""
    w = SparseProjection.from_rows(3, [], [], ProjectionConfig())
    save_projection(w, tmp_path / "w.proj")
    header, body = (tmp_path / "w.proj").read_bytes().split(b"\n")
    assert body == b"" and json.loads(header)["entries"] == 0
    assert json.loads(header)["content_hash"] == hashlib.sha256(b"").hexdigest()
    assert same_arrays(load_projection(tmp_path / "w.proj"), w)


def test_text_mode_edits_fail_the_length_check(tmp_path):
    """The body is raw bytes: a file written back in text mode, with CRLF line
    ends or a blank line after the header, fails as a body one byte too long
    (the JSON layout read both)."""
    w = SparseProjection.from_rows(11, [[(10, 1.0)], []], ["exact", "empty"], ProjectionConfig())
    path = tmp_path / "w.proj"
    save_projection(w, path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert body.count(b"\n") == 1  # teacher id 10's low byte
    for edited in (header + b"\r\n" + body.replace(b"\n", b"\r\n"), header + b"\n\n" + body):
        path.write_bytes(edited)
        rejects(path, f"the body holds {len(body) + 1} bytes, not 9 per row and 16 per entry "
                      "(n_student 2, entries 1)")


# Teacher pieces: single characters (a left-out one makes text unencodable)
# and longer pieces that greedy matching prefers. "Ġa" canonicalizes to the
# bytes of the teacher special " a". Student tokens join teacher pieces (so
# sub-tokens repeat), or are whole forms: "z" no teacher token holds, "<0xE9>"
# is not UTF-8, "<0x61>" is "a", and "<s>" is a teacher special's string.
BUILD_CHARS = ("a", "b", "c", "1", ".", " ", "\n", "é")
BUILD_PIECES = ("ab", "ba", "abc", "aa", "11", "Ġa", ".\n")
BUILD_WHOLE = ("z", "az", "<0xE9>", "<0x61>", "<s>", "▁ab")
BUILD_SPECIALS = ("<s>", "</s>", "<pad>", " a")
BUILD_ROLES = ("bos", "eos", "pad")
GOLDEN = (5 ** 0.5 - 1) / 2  # beta=1, gamma=GOLDEN: "a b b" gives a and b equal weights
DECAYS = ((0.9, 0.1), (1.0, GOLDEN), (0.9, GOLDEN), (1.0, 0.5), (0.5, 0.4999))


def build_side(draw, ordinary):
    specials = [t for t in draw(st.lists(st.sampled_from(BUILD_SPECIALS), unique=True,
                                         max_size=3)) if t not in ordinary]
    tokens = draw(st.permutations(ordinary + specials))  # ids in any order
    special_ids = sorted(tokens.index(t) for t in specials)
    roles = draw(st.dictionaries(st.sampled_from(BUILD_ROLES), st.integers(0, 2)))
    return Vocabulary(tokens, special_ids,
                      {r: special_ids[i] for r, i in roles.items() if i < len(special_ids)})


@st.composite
def build_inputs(draw):
    dropped = draw(st.lists(st.sampled_from(BUILD_CHARS), max_size=2))
    teacher = [c for c in BUILD_CHARS if c not in dropped] + draw(
        st.lists(st.sampled_from(BUILD_PIECES), unique=True))
    student = draw(st.lists(st.lists(st.sampled_from(BUILD_CHARS + BUILD_PIECES), min_size=1,
                                     max_size=6).map("".join) | st.sampled_from(BUILD_WHOLE),
                            unique=True, max_size=14))
    beta, gamma = draw(st.sampled_from(DECAYS))
    config = ProjectionConfig(beta=beta, gamma=gamma, top_k=draw(st.integers(1, 5)),
                              max_span=draw(st.integers(1, 7)))
    return build_side(draw, student), build_side(draw, teacher), config


def assert_same_build(vs, vt, config, tmp_path):
    got, err = outcome(lambda: build_projection(vs, vt, Tokenizer(vt), config))
    ref, ref_err = outcome(lambda: projection_reference.build_projection(vs, vt, Tokenizer(vt),
                                                                         config))
    assert err == ref_err
    if got is None:
        return None
    assert same_arrays(got, ref) and got._flat_w.tobytes() == ref._flat_w.tobytes()
    save_projection(got, tmp_path / "got.proj")
    save_projection(ref, tmp_path / "ref.proj")
    assert (tmp_path / "got.proj").read_bytes() == (tmp_path / "ref.proj").read_bytes()
    return got


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(build_inputs())
def test_build_matches_row_builder(tmp_path_factory, args):
    """The flat build gives the per-row builder's CSR arrays, provenance and
    file bytes, or its error."""
    assert_same_build(*args, tmp_path_factory.mktemp("build"))


def test_build_tie_keeps_smaller_teacher_id(tmp_path):
    vt = Vocabulary(["b", "a"])
    vs = Vocabulary(["abb", "bab"])
    config = ProjectionConfig(beta=1.0, gamma=GOLDEN, top_k=1)
    w = assert_same_build(vs, vt, config, tmp_path)
    tie = decay_weights(3, 1.0, GOLDEN).tolist()
    assert tie[0] == tie[1] + tie[2]  # "a" and "b" weigh the same in "abb"
    assert w.rows == (((0, tie[1] + tie[2]),), ((0, tie[0] + tie[2]),))
