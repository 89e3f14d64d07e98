import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstok.align import AlignmentChunk, ChunkKind
from crosstok.chunks import (
    PositionLogits,
    chain_rule_merge,
    load_float_matrix,
    load_position_logits,
    save_float_matrix,
    save_position_logits,
    softmax,
    topk_support,
)
from crosstok.errors import DegenerateDistributionError, ValidationError
from crosstok.losses import chunk_kl
from crosstok.vocab import Vocabulary, vocabulary_hash


def reference_softmax(logits, temperature=1.0):
    """The four-array softmax that ``chunks.softmax`` replaced."""
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def make_logits(rows, realized, side="student", seq_id="s0"):
    return PositionLogits(seq_id=seq_id, side=side,
                          logits=np.asarray(rows, dtype=float),
                          realized_ids=np.asarray(realized))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(np.random.default_rng(0).normal(size=(4, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-15)

    def test_stable_for_large_logits(self):
        out = softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_temperature_flattens(self):
        z = np.array([2.0, 0.0])
        hot = softmax(z, temperature=10.0)
        assert abs(hot[0] - hot[1]) < abs(softmax(z)[0] - softmax(z)[1])

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValidationError):
            softmax(np.zeros(2), temperature=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([1.0, 0.3, 2.0, 7.5]))
    def test_matches_reference_bit_for_bit(self, data, dtype, temperature):
        shape = data.draw(st.one_of(st.tuples(st.integers(1, 12)),
                                    st.tuples(st.integers(1, 5), st.integers(1, 12))))
        bound = 80.0 if dtype == np.float32 else 700.0
        values = data.draw(st.lists(st.floats(-bound, bound, width=32 if dtype == np.float32
                                               else 64),
                                    min_size=math.prod(shape), max_size=math.prod(shape)))
        logits = np.array(values, dtype=dtype).reshape(shape)
        before = logits.copy()
        out = softmax(logits, temperature)
        assert out.dtype == np.float64
        assert out.tobytes() == reference_softmax(logits, temperature).tobytes()
        assert logits.dtype == dtype and logits.tobytes() == before.tobytes()


@pytest.mark.parametrize("ids, bad", [([0.7, 1.2], "[0] must be an int, got 0.7"),
                                     ([1, True], "[1] must be an int, got True"),
                                     (np.array([0.0, 1.0]), "[0] must be an int, got 0.0")],
                         ids=["float", "bool", "float-array"])
def test_realized_ids_must_be_integers(ids, bad):
    """Not truncated or read as 0/1: a list of ints or an integer array only."""
    with pytest.raises(ValidationError) as info:
        PositionLogits("s0", "student", np.zeros((2, 3)), ids)
    assert str(info.value) == f"realized_ids{bad}"


class TestChainRuleMerge:
    def test_single_position_is_plain_softmax(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(3, 5))
        pl = make_logits(rows, [0, 1, 2])
        chunk = AlignmentChunk((1, 2), (0, 1), ChunkKind.MATCH)
        out = chain_rule_merge(pl, chunk, temperature=1.0)
        np.testing.assert_array_equal(out, softmax(rows[1]))

    def test_two_position_merge_hand_arithmetic(self):
        # p1 = (0.5, 0.5), p2 = (0.2, 0.8), realized (0, 1):
        # pre-normalization q = (0.5*0.8, 0.5) = (0.4, 0.5) -> (4/9, 5/9)
        rows = [[0.0, 0.0], [math.log(0.2), math.log(0.8)]]
        pl = make_logits(rows, [0, 1])
        chunk = AlignmentChunk((0, 2), (0, 1), ChunkKind.COMBINATION)
        out = chain_rule_merge(pl, chunk)
        np.testing.assert_allclose(out, [4.0 / 9.0, 5.0 / 9.0], atol=1e-15)

    def test_point_masses_collapse_to_first_realized(self):
        big = 800.0
        rows = [[big, 0.0, 0.0], [0.0, 0.0, big]]
        pl = make_logits(rows, [0, 2])
        chunk = AlignmentChunk((0, 2), (0, 1), ChunkKind.COMBINATION)
        out = chain_rule_merge(pl, chunk)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_refuses_excluded_chunks(self):
        pl = make_logits([[0.0, 0.0]], [0])
        gap = AlignmentChunk((0, 1), (0, 0), ChunkKind.GAP_TEACHER_SIDE)
        with pytest.raises(ValidationError, match="excluded"):
            chain_rule_merge(pl, gap)

    def test_span_outside_dump(self):
        pl = make_logits([[0.0, 0.0]], [0])
        chunk = AlignmentChunk((0, 2), (0, 1), ChunkKind.COMBINATION)
        with pytest.raises(ValidationError):
            chain_rule_merge(pl, chunk)

    def test_teacher_side_uses_teacher_span(self):
        rows = [[0.0, 1.0], [1.0, 0.0]]
        pl = make_logits(rows, [0, 1], side="teacher")
        chunk = AlignmentChunk((0, 1), (1, 2), ChunkKind.MATCH)
        out = chain_rule_merge(pl, chunk)
        np.testing.assert_array_equal(out, softmax(np.asarray(rows[1], dtype=float)))

    def test_output_is_valid_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            width = rng.integers(1, 5)
            rows = rng.normal(size=(width, 6)) * 5
            realized = rng.integers(0, 6, size=width)
            pl = make_logits(rows, realized)
            kind = ChunkKind.MATCH if width == 1 else ChunkKind.COMBINATION
            chunk = AlignmentChunk((0, int(width)), (0, 1), kind)
            out = chain_rule_merge(pl, chunk, temperature=float(rng.uniform(0.5, 3.0)))
            assert out.min() >= 0
            assert abs(out.sum() - 1.0) < 1e-9

    def test_underflowed_merge_names_side_sequence_and_span(self):
        # the realized second token has probability exp(-800) == 0
        pl = make_logits([[800.0, 0.0, 0.0], [0.0, 0.0, 800.0]], [0, 1], seq_id="doc7")
        chunk = AlignmentChunk((0, 2), (0, 1), ChunkKind.COMBINATION)
        with pytest.raises(DegenerateDistributionError) as info:
            chain_rule_merge(pl, chunk)
        message = str(info.value)
        assert "student" in message and "'doc7'" in message and "[0, 2)" in message


class TestTopkTruncate:
    """Top-k truncation is ``topk_support`` plus the kernels' renormalization."""

    def test_identity_when_k_covers_vocab(self):
        t, s = np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.1, 0.8])
        for k in (3, 4):
            support = topk_support(t, k)
            assert support.tolist() == [0, 1, 2]
            assert chunk_kl(t, s, support=support) == chunk_kl(t, s)

    def test_hand_arithmetic_k2(self):
        # teacher restricted to {0, 1} is (7/9, 2/9), the student (1/2, 1/2)
        t, s = np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.1, 0.8])
        support = topk_support(t, 2)
        assert support.tolist() == [0, 1]
        expected = 7 / 9 * math.log(14 / 9) + 2 / 9 * math.log(4 / 9)
        assert chunk_kl(t, s, support=support) == pytest.approx(expected, rel=1e-14)

    def test_boundary_tie_prefers_smaller_id(self):
        assert topk_support(np.array([0.4, 0.3, 0.3]), 2).tolist() == [0, 1]

    def test_student_without_support_mass_fails(self):
        t, s = np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateDistributionError, match="student"):
            chunk_kl(t, s, support=topk_support(t, 2))

    def test_monotone_support(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = rng.dirichlet(np.ones(9))
            for k in range(1, 8):
                small = set(topk_support(p, k).tolist())
                assert small <= set(topk_support(p, k + 1).tolist())

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            topk_support(np.array([1.0]), 0)

    def test_k_must_be_int(self):
        """A float ``k`` raised numpy's ``TypeError`` from ``np.partition``."""
        with pytest.raises(ValidationError, match=r"^k must be an int, got 2\.5$"):
            topk_support(np.array([0.5, 0.3, 0.2]), 2.5)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.25]), min_size=1, max_size=12),
           st.data())
    def test_first_k_in_value_then_id_order(self, values, data):
        # tie-heavy vectors: every boundary tie goes to the smaller id
        k = data.draw(st.integers(1, len(values) + 1))
        expected = sorted(sorted(range(len(values)), key=lambda i: (-values[i], i))[:k])
        assert topk_support(np.asarray(values), k).tolist() == expected

    @pytest.mark.parametrize("n", [24_000, 32_000])
    def test_full_width_matches_stable_argsort(self, n):
        # one vector with runs of exact 0.0 (logits far below the rest) and one
        # whose softmax underflows on most entries; planted copies of the k-th
        # largest value straddle the cut
        rng = np.random.default_rng(n)
        runs = rng.normal(scale=3.0, size=n)
        for start in rng.choice(n - 500, 8, replace=False):
            runs[start:start + 500] = -1e4
        for p in (softmax(runs), softmax(rng.normal(scale=300.0, size=n))):
            assert (p == 0.0).any()
            for k in (1, 8192, n - 1):
                q = p.copy()
                q[rng.choice(n, 300, replace=False)] = np.sort(q)[n - k]
                expected = np.sort(np.argsort(-q, kind="stable")[:k])
                assert np.array_equal(topk_support(q, k), expected)


class TestLogitsDumpIO:
    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)], ids=["no_positions", "no_vocab"])
    def test_empty_logits_rejected_by_constructor(self, shape):
        """No position means no mean to take: CE and the adaptive scores would be NaN."""
        with pytest.raises(ValidationError) as info:
            PositionLogits("s0", "student", np.zeros(shape), [0] * shape[0])
        assert str(info.value) == (f"positions and vocab_size must be positive, got "
                                   f"{shape[0]} and {shape[1]}")

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        pl = make_logits(rng.normal(size=(4, 3)).astype(np.float32), [0, 2, 1, 1])
        path = tmp_path / "student.bin"
        save_position_logits(pl, path)
        loaded = load_position_logits(path)
        np.testing.assert_array_equal(loaded.logits, pl.logits)
        np.testing.assert_array_equal(loaded.realized_ids, pl.realized_ids)
        assert loaded.seq_id == pl.seq_id and loaded.side == pl.side

    def test_vocab_hash_checked(self, tmp_path):
        vocab = Vocabulary(["a", "b", "c"])
        pl = PositionLogits("s0", "student", np.zeros((2, 3)), [0, 1],
                            vocab_hash=vocabulary_hash(vocab))
        path = tmp_path / "dump.bin"
        save_position_logits(pl, path)
        load_position_logits(path, expected_vocab=vocab)
        other = Vocabulary(["a", "b", "x"])
        with pytest.raises(ValidationError, match="different vocabulary"):
            load_position_logits(path, expected_vocab=other)

    def test_dump_without_hash_rejected_against_a_vocabulary(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_position_logits(make_logits(np.zeros((1, 3)), [0]), path)
        assert load_position_logits(path).vocab_hash is None
        with pytest.raises(ValidationError) as info:
            load_position_logits(path, expected_vocab=Vocabulary(["a", "b", "c"]))
        assert str(info.value) == f"{path}: dump carries no vocabulary hash to check"

    def test_truncated_payload_detected(self, tmp_path):
        pl = make_logits(np.zeros((2, 3)), [0, 1])
        path = tmp_path / "dump.bin"
        save_position_logits(pl, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValidationError, match="float32"):
            load_position_logits(path)

    @pytest.mark.parametrize("save", [
        lambda values, path: save_position_logits(make_logits(values, [0, 1]), path),
        save_float_matrix], ids=["dump", "matrix"])
    def test_value_past_float32_rejected_before_writing(self, tmp_path, save):
        """A finite float64 past float32's range fails instead of storing inf."""
        path = tmp_path / "big.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                save(np.array([[0.0, 1e39], [0.0, 0.0]]), path)
        assert str(info.value) == f"{path}: a value is too large for float32"
        assert list(tmp_path.iterdir()) == []

    def test_float_matrix_roundtrip(self, tmp_path):
        values = np.array([[1.5, -2.25], [0.0, 4.0]])
        path = tmp_path / "grad.bin"
        save_float_matrix(values, path)
        np.testing.assert_array_equal(load_float_matrix(path), values)

    @pytest.mark.parametrize("sidecar, message", [
        ({}, "shape is missing"),
        ({"shape": [-2, -3]}, "non-negative sizes"),
        ({"shape": "ab"}, "shape must be list"),
        ({"shape": [2, "x"]}, "shape must be list[int], got [2, 'x']"),
        ({"shape": [4, 4]}, "needs 16 float32 values, found 6"),
    ], ids=["missing", "negative", "mistyped", "mistyped-entry", "size"])
    def test_float_matrix_sidecar_checked(self, tmp_path, sidecar, message):
        path = tmp_path / "grad.bin"
        save_float_matrix(np.zeros((2, 3)), path)
        (tmp_path / "grad.bin.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValidationError) as info:
            load_float_matrix(path)
        assert "grad.bin" in str(info.value) and message in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_logits_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite") as info:
            make_logits([[0.0, bad]], [0], side="teacher", seq_id="doc7")
        assert "doc7" in str(info.value) and "teacher" in str(info.value)

    def test_non_finite_dump_names_the_file(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_position_logits(make_logits(np.zeros((2, 3)), [0, 1], seq_id="doc7"), path)
        np.array([0.0, np.nan, 0.0, 0.0, 0.0, 0.0], dtype="<f4").tofile(path)
        with pytest.raises(ValidationError, match="non-finite") as info:
            load_position_logits(path)
        assert "dump.bin" in str(info.value) and "doc7" in str(info.value)

    def rewrite_sidecar(self, tmp_path, **fields):
        path = tmp_path / "dump.bin"
        save_position_logits(make_logits(np.zeros((2, 3)), [0, 1]), path)
        sidecar = tmp_path / "dump.bin.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))
        return path

    @pytest.mark.parametrize("sizes, field", [((-2, -3), "positions"), ((2, -3), "vocab_size"),
                                              ((-6, -1), "positions")])
    def test_negative_sidecar_size_named(self, tmp_path, sizes, field):
        path = self.rewrite_sidecar(tmp_path, positions=sizes[0], vocab_size=sizes[1])
        with pytest.raises(ValidationError) as info:
            load_position_logits(path)
        assert "dump.bin.json" in str(info.value) and f"'{field}'" in str(info.value)

    def test_zero_position_dump_rejected(self, tmp_path):
        path = self.rewrite_sidecar(tmp_path, positions=0, realized_ids=[])
        path.write_bytes(b"")
        with pytest.raises(ValidationError) as info:
            load_position_logits(path)
        assert str(info.value) == f"{path}: positions and vocab_size must be positive, got 0 and 3"

    @pytest.mark.parametrize("big", [10**30, -10**30, 2**63], ids=["1e30", "-1e30", "2**63"])
    def test_oversized_realized_id_named(self, tmp_path, big):
        path = self.rewrite_sidecar(tmp_path, realized_ids=[big, 0])
        with pytest.raises(ValidationError) as info:
            load_position_logits(path)
        assert str(info.value) == f"{path}: realized_ids[0] must fit intp, got {big}"

    @pytest.mark.parametrize("shape", [[10**30, 0], [6] + [1] * 64], ids=["huge", "65-dims"])
    def test_float_matrix_shape_numpy_cannot_hold_named(self, tmp_path, shape):
        path = tmp_path / "grad.bin"
        save_float_matrix(np.zeros(math.prod(shape)), path)
        (tmp_path / "grad.bin.json").write_text(json.dumps({"shape": shape}))
        with pytest.raises(ValidationError) as info:
            load_float_matrix(path)
        assert str(info.value).startswith(f"{path}.json: 'shape' {shape} is not a numpy shape (")

    def test_loaded_logits_stay_float32(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_position_logits(make_logits(np.random.default_rng(3).normal(size=(5, 7)),
                                         [0, 6, 1, 2, 3]), path)
        loaded = load_position_logits(path)
        assert loaded.logits.dtype == np.float32
        # no float64 copy held next to the file's values
        assert loaded.logits.nbytes == path.stat().st_size

    def test_save_load_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_position_logits(make_logits(rng.normal(size=(3, 6)), [5, 0, 2]), first)
        save_position_logits(load_position_logits(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.bin.json").read_bytes() == (tmp_path / "b.bin.json").read_bytes()

    @pytest.mark.parametrize("rows", [
        np.array([[0.5, -1.0]], dtype=np.float32), np.array([[0.5, -1.0]], dtype=">f4")],
        ids=["float32", "big-endian-float32"])
    def test_only_native_float32_kept(self, rows):
        pl = PositionLogits("s0", "student", rows, [0])
        assert pl.logits.dtype == (np.float32 if rows.dtype == np.float32 else np.float64)
        np.testing.assert_array_equal(pl.logits, rows)

    @pytest.mark.parametrize("rows", [np.array([[0.5, -1.0]]), np.array([[1, -2]]),
                                      [[0.5, -1.0]], [[1, -2]]],
                             ids=["float64", "int", "float-list", "int-list"])
    def test_other_input_becomes_float64(self, rows):
        pl = PositionLogits("s0", "student", rows, [0])
        assert pl.logits.dtype == np.float64
        np.testing.assert_array_equal(pl.logits, np.asarray(rows, dtype=float))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float32_logits_rejected(self, bad):
        with pytest.raises(ValidationError) as info:
            PositionLogits("doc7", "teacher", np.array([[0.0, bad]], dtype=np.float32), [0])
        assert str(info.value) == "teacher logits of sequence 'doc7' hold non-finite values"

    @pytest.mark.parametrize("side, other", [("student", "teacher"), ("teacher", "student")])
    def test_side_checked_naming_the_file(self, tmp_path, side, other):
        path = tmp_path / "dump.bin"
        save_position_logits(make_logits(np.zeros((1, 2)), [0], side=side), path)
        assert load_position_logits(path, side=side).side == side
        with pytest.raises(ValidationError) as info:
            load_position_logits(path, side=other)
        assert str(info.value) == f"{path}: dump side is {side!r}"

    def test_realized_id_range_validated(self):
        with pytest.raises(ValidationError):
            make_logits(np.zeros((1, 2)), [5])
