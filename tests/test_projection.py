import hashlib
import json
import os
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
from projection_reference import ReferenceProjection, apply_w_gradient, top1
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
        p1, p2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
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
        path = tmp_path / "w.jsonl"
        save_projection(w, path)
        loaded = load_projection(path)
        assert loaded.rows == w.rows
        assert loaded.provenance == w.provenance
        assert loaded.config == w.config

    def test_tampered_file_rejected(self, digit_pair, tmp_path):
        _, _, w = digit_pair
        path = tmp_path / "w.jsonl"
        save_projection(w, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("1.0", "0.9")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="hash"):
            load_projection(path)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ProjectionConfig(beta=0.1, gamma=0.9)
        with pytest.raises(ValidationError):
            ProjectionConfig(top_k=0)


def rewrite_body(path, edit):
    """Replace the body record of a saved projection by ``edit(body)`` and
    re-seal its hash."""
    header, body = [json.loads(line) for line in path.read_text().splitlines()]
    body = json.dumps(edit(body), separators=(",", ":"))
    header["content_hash"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text("\n".join([json.dumps(header), body]) + "\n")


def reseal_lines(path, lines):
    """Write ``lines`` after the header, with the content hash over them."""
    header = json.loads(path.read_text().splitlines()[0])
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
    path = tmp_path / "digits.jsonl"
    save_projection(build_projection(vs, vt, Tokenizer(vt)), path)
    return path


def rejects(path, *words):
    with pytest.raises(ValidationError) as info:
        load_projection(path)
    assert str(info.value).startswith(f"{path}: ")
    for word in words:
        assert word in str(info.value)


class TestProjectionIndexValidation:
    """``counts`` is the body's row index: row ``s`` owns the next
    ``counts[s]`` teacher ids and weights."""

    @pytest.mark.parametrize("bad, words", [
        ((0, -1), "counts holds -1, not an entry count"),
        ((3, 4), "teacher_ids holds 6 entries, counts sums to 7"),
        ((0, "1"), "counts holds '1', not an entry count"),
        ((0, True), "counts holds True, not an entry count"),
        ((0, 1.0), "counts holds 1.0, not an entry count"),
    ], ids=["negative", "past_end", "not_int", "bool", "float"])
    def test_bad_row_index(self, saved, bad, words):
        at, count = bad
        rewrite_body(saved, lambda b: {**b, "counts": [count if s == at else c
                                                      for s, c in enumerate(b["counts"])]})
        rejects(saved, words)

    def test_duplicate_row_index(self, saved):
        """Row 3 given twice: one row more than ``header.n_student``."""
        rewrite_body(saved, lambda b: {"counts": b["counts"] + [3],
                                       "provenance": b["provenance"] + ["multi_token"],
                                       "teacher_ids": b["teacher_ids"] + b["teacher_ids"][3:],
                                       "weights": b["weights"] + b["weights"][3:]})
        rejects(saved, "counts holds 5 rows, n_student is 4")

    @pytest.mark.parametrize("field, words", [
        ("counts", "counts holds 3 rows, n_student is 4"),
        ("provenance", "provenance holds 3 rows, n_student is 4"),
        ("teacher_ids", "teacher_ids holds 5 entries, counts sums to 6"),
        ("weights", "weights holds 5 entries, counts sums to 6"),
    ])
    def test_list_one_short(self, saved, field, words):
        rewrite_body(saved, lambda b: {**b, field: b[field][:-1]})
        rejects(saved, words)

    def test_teacher_id_repeated_within_a_row(self, saved):
        rewrite_body(saved, lambda b: {**b, "teacher_ids": b["teacher_ids"][:4] + [0, 2]})
        rejects(saved, "row 3: a teacher id repeats in its entries")

    def test_constructor_rejects_repeated_teacher_id(self):
        with pytest.raises(ValidationError, match="teacher id repeats"):
            SparseProjection.from_rows(2, [[(0, 0.5), (0, 0.4)]], [Provenance.MULTI_TOKEN],
                                       ProjectionConfig())


class TestProjectionFileFields:
    def rewrite_header(self, path, edit):
        lines = path.read_text().splitlines()
        lines[0] = json.dumps(edit(json.loads(lines[0])))
        path.write_text("\n".join(lines) + "\n")

    def test_header_without_config(self, saved):
        self.rewrite_header(saved, lambda h: {k: v for k, v in h.items() if k != "config"})
        rejects(saved, "config")

    def test_unknown_config_key(self, saved):
        self.rewrite_header(saved, lambda h: {**h, "config": {**h["config"], "bogus": 1}})
        rejects(saved, "config.bogus")

    def test_mistyped_header_field(self, saved):
        self.rewrite_header(saved, lambda h: {**h, "n_student": "2"})
        rejects(saved, "n_student")

    @pytest.mark.parametrize("n_student", [10**30, 2**63, -1], ids=["1e30", "2**63", "-1"])
    def test_impossible_student_count_named(self, saved, n_student):
        self.rewrite_header(saved, lambda h: {**h, "n_student": n_student})
        rejects(saved, f"counts holds 4 rows, n_student is {n_student}")

    def test_student_count_beyond_memory_named(self, saved):
        """A row count that no allocation can hold fails by name, and before
        anything is allocated from it (run under a 2 GB address-space limit)."""
        self.rewrite_header(saved, lambda h: {**h, "n_student": 2**40})
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from crosstok.errors import ValidationError\n"
                  "from crosstok.projection import load_projection\n"
                  "try:\n"
                  "    load_projection(sys.argv[1])\n"
                  "except ValidationError as exc:\n"
                  "    print(exc)\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script, str(saved)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (f"{saved}: counts holds 4 rows, n_student is "
                               f"{2**40}\n"), proc.stdout

    def test_rows_numbered_by_file_line(self, saved):
        """The body record is named by its file line; blank lines are outside
        the content hash."""
        reseal_lines(saved, ["", " ", "", "\t", "", '{"counts": [1,'])
        rejects(saved, "line 7: not a JSON object")

    def test_bad_config_constants_named(self, saved):
        self.rewrite_header(saved, lambda h: {**h, "config": {**h["config"], "beta": 0.05}})
        with pytest.raises(ValidationError) as info:
            load_projection(saved)
        assert str(info.value).startswith(f"{saved}: header.config: need 0 < gamma < beta")

    def test_header_not_an_object(self, saved):
        self.rewrite_header(saved, lambda h: [1, 2])
        rejects(saved, "object")

    def test_row_without_entries(self, saved):
        rewrite_body(saved, lambda b: {k: v for k, v in b.items() if k != "teacher_ids"})
        rejects(saved, "teacher_ids is missing")

    @pytest.mark.parametrize("body, words", [
        ({"counts": 5}, "counts must be list, got 5"),
        ({"rows": []}, "rows is not a known field"),
    ], ids=["not_a_list", "unknown"])
    def test_mistyped_or_unknown_body_field(self, saved, body, words):
        rewrite_body(saved, lambda b: {**b, **body})
        rejects(saved, words)

    def test_malformed_entry_and_unknown_provenance(self, saved):
        rewrite_body(saved, lambda b: {**b, "weights": b["weights"][1:]})
        rejects(saved, "weights holds 5 entries, counts sums to 6")
        rewrite_body(saved, lambda b: {**b, "weights": b["weights"] + [0.5],
                                       "provenance": ["guess"] + b["provenance"][1:]})
        rejects(saved, "provenance holds 'guess', not one of ['exact', "
                       "'multi_token', 'empty']")
        for garbled in ('{"counts": 0,', "[0]"):
            reseal_lines(saved, [garbled])
            rejects(saved, "line 2: not a JSON object")

    @pytest.mark.parametrize("entry", [[2.7, 0.9], [True, 0.9], ["x", 0.9], [None, 0.9],
                                       [0, "0.9"], [0, None], [0, False], [10**30, 0.9],
                                       [0, 10**400]])
    def test_mistyped_entry_named(self, saved, entry):
        rewrite_body(saved, last_row_holds(entry))
        rejects(saved, f"in {'teacher_ids' if entry[1] == 0.9 else 'weights'} is")

    def test_nan_weight_named(self, saved):
        rewrite_body(saved, last_row_holds([0, float("nan")]))
        rejects(saved, "row 3: non-positive weight nan")

    def test_first_bad_entry_named_in_student_order(self, saved):
        """With bad entries in rows 1 and 3, the type check names row 1's."""
        rewrite_body(saved, lambda b: {**b, "teacher_ids": [0, True, 2, "x", 1, 2]})
        with pytest.raises(ValidationError) as info:
            load_projection(saved)
        assert str(info.value) == (f"{saved}: row 1: teacher id True in teacher_ids is not "
                                   "an integer")

    def test_int_weight_loads_as_float(self, saved):
        rewrite_body(saved, last_row_holds([0, 1]))
        [(t, w)] = load_projection(saved).rows[-1]
        assert (t, w) == (0, 1.0) and type(w) is float

    @pytest.mark.parametrize("lines, found", [
        (['{"entries":[[0,1.0]],"provenance":"exact","s":0}',
          '{"entries":[[1,1.0]],"provenance":"exact","s":1}'], "2 lines follow the header"),
        (['{"entries":[[0,1.0]],"provenance":"exact","s":0}'],
         "the line after the header is a row record"),
        ([], "0 lines follow the header"),
    ], ids=["row_records", "one_row_record", "no_body"])
    def test_old_layout_named_for_rebuild(self, saved, lines, found):
        """A file with one JSON record per row, one of them or none, fails
        with a pointer to ``crosstok build-w``, its content hash valid."""
        reseal_lines(saved, lines)
        with pytest.raises(ValidationError) as info:
            load_projection(saved)
        assert str(info.value) == (f"{saved}: {found}, not one body record (a file of the old "
                                   "row-per-line layout?); rebuild the projection with "
                                   "`crosstok build-w`")


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
    path = tmp_path_factory.mktemp("csr") / "w.jsonl"
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
    path = tmp_path_factory.mktemp("accepted") / "w.jsonl"
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
    """Empty rows, ``n_student = 0``, weights with long ``repr``s down to
    ``5e-324``, and a ``with_weights`` result all load back bit for bit."""
    if reweighted:
        w = one_ulp_up_on_multi_token_rows(w)
    path = tmp_path_factory.mktemp("round") / "w.jsonl"
    save_projection(w, path)
    got = load_projection(path)
    assert same_arrays(got, w) and got._flat_w.tobytes() == w._flat_w.tobytes()


def test_round_trip_of_no_rows(tmp_path):
    w = SparseProjection.from_rows(3, [], [], ProjectionConfig())
    save_projection(w, tmp_path / "w.jsonl")
    assert (tmp_path / "w.jsonl").read_text().splitlines()[1] == (
        '{"counts":[],"provenance":[],"teacher_ids":[],"weights":[]}')
    assert same_arrays(load_projection(tmp_path / "w.jsonl"), w)


def test_load_reads_crlf_and_blank_lines(tmp_path):
    rows = [[(2, 0.6), (0, 0.30000000000000004)], [], [(1, 1.0)], [(0, 0.5)]]
    prov = [Provenance.MULTI_TOKEN, Provenance.EMPTY, Provenance.EXACT, Provenance.MULTI_TOKEN]
    w = SparseProjection.from_rows(3, rows, prov, ProjectionConfig())
    path = tmp_path / "w.jsonl"
    save_projection(w, path)
    header, body = path.read_text().splitlines()
    # text mode reads CRLF as LF; blank lines are outside the content hash
    path.write_bytes("\r\n".join(["", header, "", " ", body, "\t", ""]).encode())
    loaded = load_projection(path)
    assert loaded.rows == w.rows and loaded.provenance == w.provenance


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
    save_projection(got, tmp_path / "got.jsonl")
    save_projection(ref, tmp_path / "ref.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
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
