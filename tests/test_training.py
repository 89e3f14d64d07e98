import math
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosstok.training as training
from crosstok.align import AlignmentCache, AlignScoring
from crosstok.chunks import PositionLogits, chain_rule_merge, softmax
from crosstok.errors import DegenerateDistributionError, ValidationError
from crosstok.losses import MODES, HybridWeights, pkl
from crosstok.numdiff import central_difference, max_relative_error
from crosstok.projection import build_projection
from crosstok.training import (
    ScalingPolicy,
    TeacherConfig,
    adaptive_weights,
    combine_kd_ce,
    cross_entropy,
    cross_entropy_grad,
    gradient_check,
    run_step,
)
from crosstok.vocab import Tokenizer, Vocabulary, make_toy_tokenizer, vocabulary_hash

from adaptive_reference import dump_of_probs, reference_adaptive_weights, stats_of


def dump(side, logits, realized, vocab=None, seq_id="s0"):
    return PositionLogits(
        seq_id=seq_id, side=side, logits=np.asarray(logits, dtype=float),
        realized_ids=np.asarray(realized),
        vocab_hash=vocabulary_hash(vocab) if vocab is not None else None)


class TestCombineKdCe:
    def test_dynamic_matches_twice_ce(self):
        total, mult = combine_kd_ce(2.0, 1.0, ScalingPolicy("dynamic"))
        assert total == pytest.approx(2.0) and mult == pytest.approx(0.5)

    def test_dynamic_equal_scales(self):
        total, mult = combine_kd_ce(3.0, 3.0, ScalingPolicy("dynamic"))
        assert total == pytest.approx(6.0) and mult == pytest.approx(1.0)

    def test_fixed_weights(self):
        total, mult = combine_kd_ce(2.0, 4.0, ScalingPolicy("fixed", 1.0, 0.1))
        assert total == pytest.approx(2.4) and mult == 1.0

    def test_dynamic_drops_vanished_kd(self):
        """A KD loss within 1e-12 of zero leaves the CE as the total, multiplier 0."""
        for l_kd in (0.0, 1e-12, -1e-12):
            assert combine_kd_ce(l_kd, 2.0, ScalingPolicy("dynamic")) == (2.0, 0.0)

    def test_dynamic_rejects_negative_kd_by_name(self):
        with pytest.raises(ValidationError) as info:
            combine_kd_ce(-1.0, 2.0, ScalingPolicy("dynamic"))
        assert str(info.value) == "dynamic scaling undefined for negative KD loss -1.0"

    def test_value_identity_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            l_kd = float(rng.uniform(1e-6, 50))
            l_ce = float(rng.uniform(1e-6, 50))
            total, _ = combine_kd_ce(l_kd, l_ce, ScalingPolicy("dynamic"))
            assert abs(total - 2 * l_ce) <= 1e-12 * max(1.0, 2 * l_ce)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            ScalingPolicy("adaptive")
        with pytest.raises(ValidationError):
            ScalingPolicy("fixed", lambda_kd=-1.0)


class TestAdaptiveWeights:
    def test_identical_stats_uniform(self):
        s = dump_of_probs([[0.7, 0.3]], [0])
        for kind in ("adaptive_ce", "adaptive_entropy", "adaptive_maxprob"):
            alphas = adaptive_weights(kind, [s, s, s])
            np.testing.assert_allclose(alphas, 1.0 / 3.0, atol=1e-15)
            assert abs(alphas.sum() - 1.0) < 1e-12

    def test_maxprob_hand_softmax(self):
        t1 = dump_of_probs([[0.9, 0.1]], [0])
        t2 = dump_of_probs([[0.6, 0.4]], [0])
        alphas = adaptive_weights("adaptive_maxprob", [t1, t2])
        expected = math.exp(0.9) / (math.exp(0.9) + math.exp(0.6))
        assert alphas[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5744, abs=1e-4)

    def test_ce_perfect_versus_coin_flip(self):
        t1 = dump_of_probs([[1.0, 0.0]], [0])        # cross-entropy 0
        t2 = dump_of_probs([[0.5, 0.5]], [0])        # cross-entropy ln 2
        alphas = adaptive_weights("adaptive_ce", [t1, t2])
        np.testing.assert_allclose(alphas, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_score_shift_invariance(self):
        # scaling every p[y] by the same factor shifts all CE scores equally
        t1 = dump_of_probs([[0.5, 0.5]], [0])
        t2 = dump_of_probs([[0.25, 0.75]], [0])
        base = adaptive_weights("adaptive_ce", [t1, t2])
        t1s = dump_of_probs([[0.25, 0.75]], [0])
        t2s = dump_of_probs([[0.125, 0.875]], [0])
        shifted = adaptive_weights("adaptive_ce", [t1s, t2s])
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_entropy_prefers_confident_teacher(self):
        sharp = dump_of_probs([[0.99, 0.01]], [0])
        flat = dump_of_probs([[0.5, 0.5]], [0])
        alphas = adaptive_weights("adaptive_entropy", [sharp, flat])
        assert alphas[0] > alphas[1]

    def test_bad_kind_and_no_teacher_rejected(self):
        t = dump_of_probs([[0.5, 0.5]], [0])
        for kind in ("static", "adaptive"):
            with pytest.raises(ValidationError, match="unknown adaptive kind"):
                adaptive_weights(kind, [t])
        with pytest.raises(ValidationError, match="at least one teacher"):
            adaptive_weights("adaptive_ce", [])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["adaptive_ce", "adaptive_entropy", "adaptive_maxprob"]),
           st.lists(st.tuples(st.integers(1, 4 * training._CE_BLOCK + 11),
                              st.integers(2, 300)), min_size=1, max_size=3),
           st.sampled_from([np.float32, np.float64]), st.sampled_from([0.1, 3.0, 400.0]),
           st.integers(0, 2**32 - 1))
    def test_row_blocks_match_the_whole_grid_bit_for_bit(self, kind, shapes, dtype, scale,
                                                        seed):
        # a scale of 400 underflows most probabilities to exactly 0
        rng = np.random.default_rng(seed)
        dumps = [PositionLogits(f"t{i}", "teacher",
                                (scale * rng.normal(size=(positions, width))).astype(dtype),
                                rng.integers(0, width, size=positions))
                 for i, (positions, width) in enumerate(shapes)]
        before = [d.logits.tobytes() for d in dumps]
        alphas = adaptive_weights(kind, dumps)
        reference = reference_adaptive_weights(kind, [stats_of(d) for d in dumps])
        assert alphas.tobytes() == reference.tobytes()
        assert [d.logits.tobytes() for d in dumps] == before

    @pytest.mark.parametrize("kind", ["adaptive_ce", "adaptive_entropy", "adaptive_maxprob"])
    def test_no_float64_copy_of_a_dump(self, kind):
        rng = np.random.default_rng(3)
        dumps = [PositionLogits(f"t{i}", "teacher",
                                rng.normal(size=(256, 4000)).astype(np.float32),
                                rng.integers(0, 4000, size=256)) for i in range(3)]
        tracemalloc.start()
        try:
            adaptive_weights(kind, dumps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 4000 * 8


def kl_teacher(vocab, logits, name="t", weight=1.0):
    return TeacherConfig(name, "kl", vocab,
                         dump("teacher", logits, [0, 1, 2], vocab, seq_id=name), weight=weight)


class TestMultiTeacherKd:
    """The weighted teacher sum, asserted through ``run_step``."""

    vocab = Vocabulary(["a", "b", "c"])

    def student(self, rng):
        return dump("student", rng.normal(size=(3, 3)), [0, 1, 2], self.vocab)

    def test_single_teacher_is_chunk_mean(self):
        rng = np.random.default_rng(21)
        report = run_step(self.vocab, self.student(rng),
                          [kl_teacher(self.vocab, rng.normal(size=(3, 3)))])
        per_chunk = report.teachers[0].report.per_chunk
        assert len(per_chunk) == 3
        assert report.kd == pytest.approx(np.mean(per_chunk), rel=1e-15)

    def test_even_static_weights(self):
        rng = np.random.default_rng(22)
        teachers = [kl_teacher(self.vocab, rng.normal(size=(3, 3)), name, 0.5)
                    for name in ("a", "b")]
        report = run_step(self.vocab, self.student(rng), teachers)
        means = [np.mean(t.report.per_chunk) for t in report.teachers]
        assert report.kd == pytest.approx((means[0] + means[1]) / 2, rel=1e-15)

    def test_uneven_static_weights_validate(self):
        rng = np.random.default_rng(25)
        student, a, b = self.student(rng), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        run_step(self.vocab, student,
                 [kl_teacher(self.vocab, a, "a", 0.2), kl_teacher(self.vocab, b, "b", 0.8)])
        with pytest.raises(ValidationError):
            run_step(self.vocab, student,
                     [kl_teacher(self.vocab, a, "a", 0.2), kl_teacher(self.vocab, b, "b", 0.9)])

    def test_empty_teacher_named(self):
        rng = np.random.default_rng(23)
        vt = Vocabulary(["y", "z"])
        hopeless = TeacherConfig("teacher_b", "uld", vt,
                                 dump("teacher", rng.normal(size=(1, 2)), [0], vt), weight=0.5)
        with pytest.raises(ValidationError, match="teacher_b"):
            run_step(self.vocab, self.student(rng),
                     [kl_teacher(self.vocab, rng.normal(size=(3, 3)), "teacher_a", 0.5),
                      hopeless])

    def test_linear_in_each_teacher_mean(self):
        rng = np.random.default_rng(24)
        student = self.student(rng)
        a, a_other, b = (rng.normal(size=(3, 3)) for _ in range(3))
        base = run_step(self.vocab, student, [kl_teacher(self.vocab, a, "a", 0.25),
                                              kl_teacher(self.vocab, b, "b", 0.75)])
        moved = run_step(self.vocab, student, [kl_teacher(self.vocab, a_other, "a", 0.25),
                                               kl_teacher(self.vocab, b, "b", 0.75)])
        shift = moved.teachers[0].report.aggregate - base.teachers[0].report.aggregate
        assert moved.teachers[1].report.per_chunk == base.teachers[1].report.per_chunk
        assert moved.kd - base.kd == pytest.approx(0.25 * shift, rel=1e-12)


class TestCrossEntropy:
    def test_hand_value(self):
        pl = dump("student", [[0.0, 0.0]], [1])
        assert cross_entropy(pl) == pytest.approx(math.log(2.0))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        realized = np.array([1, 0, 3])

        def value(flat):
            return cross_entropy(dump("student", flat.reshape(3, 4), realized))

        ce, analytic = cross_entropy_grad(dump("student", logits, realized))
        assert ce == cross_entropy(dump("student", logits, realized))
        numeric = central_difference(value, logits.ravel()).reshape(3, 4)
        assert max_relative_error(analytic, numeric) < 1e-6

    @staticmethod
    def reference(pl):
        """The one-(P, V)-buffer cross-entropy that the row-block loop replaced."""
        rows = np.arange(pl.positions)
        logits = np.asarray(pl.logits, dtype=float)
        buf = logits - logits.max(axis=1, keepdims=True)
        picked = buf[rows, pl.realized_ids]
        np.exp(buf, out=buf)
        norm = buf.sum(axis=1)
        value = float(np.mean(np.log(norm) - picked))
        buf /= norm[:, None]
        buf[rows, pl.realized_ids] -= 1.0
        buf /= pl.positions
        return value, buf

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3 * training._CE_BLOCK + 5), st.integers(1, 40),
           st.sampled_from([np.float32, np.float64]), st.sampled_from([0.1, 3.0, 60.0]),
           st.integers(0, 2**32 - 1))
    def test_row_blocks_match_the_whole_matrix_bit_for_bit(self, positions, width, dtype,
                                                           scale, seed):
        rng = np.random.default_rng(seed)
        logits = (scale * rng.normal(size=(positions, width))).astype(dtype)
        pl = PositionLogits("s0", "student", logits, rng.integers(0, width, size=positions))
        assert pl.logits is logits
        before = logits.copy()
        value, _ = training._cross_entropy(pl, False)
        grad_value, grad = training._cross_entropy(pl, True)
        ref_value, ref_grad = self.reference(pl)
        assert value == grad_value == ref_value
        assert grad.dtype == np.float64 and grad.tobytes() == ref_grad.tobytes()
        assert logits.tobytes() == before.tobytes()


def same_tokenizer_setup(rng, equal=True):
    vocab = Vocabulary(["a", "b", "c"])
    realized = [0, 1, 2]
    z = rng.normal(size=(3, 3))
    student = dump("student", z, realized, vocab)
    teacher_logits = z if equal else rng.normal(size=(3, 3))
    teacher = TeacherConfig("same_tok", "kl", vocab,
                            dump("teacher", teacher_logits, realized, vocab))
    return vocab, student, teacher


class TestRunStep:
    def test_kl_optimum_total_is_ce(self):
        rng = np.random.default_rng(2)
        vocab, student, teacher = same_tokenizer_setup(rng, equal=True)
        report = run_step(vocab, student, [teacher])
        assert report.kd == pytest.approx(0.0, abs=1e-15)
        assert report.total == pytest.approx(report.ce)
        assert report.kd_multiplier == 0.0

    @pytest.mark.parametrize("temperature", [1e-10, 1e-100])
    def test_tiny_temperature_fails_instead_of_dropping_kd(self, temperature):
        """T² alone pushing the KD term under the dynamic floor fails by name;
        a KD term that vanishes by itself (teacher equals student) still
        leaves the CE alone."""
        rng = np.random.default_rng(2)
        vocab, student, teacher = same_tokenizer_setup(rng, equal=False)
        with pytest.raises(ValidationError) as info:
            run_step(vocab, student, [teacher], temperature=temperature)
        assert str(info.value).startswith(f"temperature {temperature!r} scales the KD loss ")
        assert str(info.value).endswith(", under the dynamic policy's floor 1e-12, which would "
                                        "drop it")
        vocab, student, teacher = same_tokenizer_setup(rng, equal=True)
        report = run_step(vocab, student, [teacher], temperature=temperature)
        assert report.kd_multiplier == 0.0 and report.total == report.ce

    def test_non_finite_total_fails_by_name(self):
        vocab = Vocabulary(["a", "b", "c"])
        # each realized token is the least likely one: CE is about 5.7, and
        # 1e308 times it overflows
        student = dump("student", 5.0 - 5.0 * np.eye(3), [0, 1, 2], vocab)
        teacher = kl_teacher(vocab, np.eye(3))
        with pytest.raises(ValidationError) as info:
            run_step(vocab, student, [teacher], policy=ScalingPolicy("fixed", 1e308, 1e308))
        assert str(info.value).startswith("report field total is inf: KD loss ")
        assert "ScalingPolicy(kind='fixed', lambda_kd=1e+308, lambda_ce=1e+308)" in str(info.value)

    def test_pkl_toy_composition(self):
        rng = np.random.default_rng(3)
        vs = Vocabulary(["2", "0", "1", "201"])
        vt = Vocabulary(["2", "0", "1"])
        w = build_projection(vs, vt, Tokenizer(vt))
        z_s = rng.normal(size=(1, 4))
        z_t = rng.normal(size=(3, 3))
        student = dump("student", z_s, [3], vs)
        teacher = TeacherConfig("digit_teacher", "pkl", vt,
                                dump("teacher", z_t, [0, 1, 2], vt), projection=w)
        report = run_step(vs, student, [teacher])

        # compose the expected numbers from already-verified operations
        from crosstok.align import AlignmentChunk, ChunkKind
        chunk = AlignmentChunk((0, 1), (0, 3), ChunkKind.COMBINATION)
        p_s = chain_rule_merge(student, chunk, 1.0)
        p_t = chain_rule_merge(teacher.logits, chunk, 1.0)
        expected_kd = pkl(p_t, p_s, w)
        expected_ce = -math.log(softmax(z_s[0])[3])
        assert report.kd == pytest.approx(expected_kd, rel=1e-12)
        assert report.ce == pytest.approx(expected_ce, rel=1e-12)
        assert report.total == pytest.approx(
            (expected_ce / expected_kd) * expected_kd + expected_ce, rel=1e-12)
        assert report.teachers[0].chunk_stats["combinations"] == 1

    def test_three_teacher_routing(self):
        rng = np.random.default_rng(4)
        vs = Vocabulary(["2", "0", "1", "201"])
        vt_cross = Vocabulary(["2", "0", "1"])
        w = build_projection(vs, vt_cross, Tokenizer(vt_cross))
        student = dump("student", rng.normal(size=(1, 4)), [3], vs)
        teachers = [
            TeacherConfig("same", "kl", vs,
                          dump("teacher", rng.normal(size=(1, 4)), [3], vs), weight=0.2),
            TeacherConfig("split_a", "pkl", vt_cross,
                          dump("teacher", rng.normal(size=(3, 3)), [0, 1, 2], vt_cross),
                          projection=w, weight=0.3),
            TeacherConfig("split_b", "hkl", vt_cross,
                          dump("teacher", rng.normal(size=(3, 3)), [0, 1, 2], vt_cross),
                          projection=w, weight=0.5),
        ]
        report = run_step(vs, student, teachers)
        assert [t.mode for t in report.teachers] == ["kl", "pkl", "hkl"]
        assert report.alphas == (0.2, 0.3, 0.5)
        assert report.kd == pytest.approx(sum(
            a * t.report.aggregate for a, t in zip(report.alphas, report.teachers)))

    def test_temperature_scales_aggregate_not_ce(self):
        rng = np.random.default_rng(12)
        vs = Vocabulary(["2", "0", "1", "201"])
        vt = Vocabulary(["2", "0", "1"])
        w = build_projection(vs, vt, Tokenizer(vt))
        student = dump("student", rng.normal(size=(1, 4)), [3], vs)
        teacher = TeacherConfig("t", "pkl", vt,
                                dump("teacher", rng.normal(size=(3, 3)), [0, 1, 2], vt),
                                projection=w)
        tau = 2.0
        report = run_step(vs, student, [teacher], temperature=tau)

        from crosstok.align import AlignmentChunk, ChunkKind
        chunk = AlignmentChunk((0, 1), (0, 3), ChunkKind.COMBINATION)
        p_s = chain_rule_merge(student, chunk, tau)
        p_t = chain_rule_merge(teacher.logits, chunk, tau)
        assert report.kd == pytest.approx(tau ** 2 * pkl(p_t, p_s, w), rel=1e-12)
        # cross-entropy never sees the distillation temperature
        assert report.ce == pytest.approx(cross_entropy(student), rel=1e-15)

    def test_gold_and_uld_baseline_modes(self):
        rng = np.random.default_rng(5)
        vs = Vocabulary(["2", "0", "1", "201"])
        vt = Vocabulary(["2", "0", "1"])
        student = dump("student", rng.normal(size=(1, 4)), [3], vs)
        for mode in ("gold", "uld"):
            teacher = TeacherConfig("base", mode, vt,
                                    dump("teacher", rng.normal(size=(3, 3)), [0, 1, 2], vt))
            report = run_step(vs, student, [teacher])
            assert report.teachers[0].mode == mode
            assert report.kd > 0

    def test_missing_projection_rejected(self):
        rng = np.random.default_rng(6)
        vs = Vocabulary(["a"])
        vt = Vocabulary(["a", "b"])
        student = dump("student", rng.normal(size=(1, 1)), [0], vs)
        teacher = TeacherConfig("t", "pkl", vt,
                                dump("teacher", rng.normal(size=(1, 2)), [0], vt))
        with pytest.raises(ValidationError, match="projection"):
            run_step(vs, student, [teacher])

    def test_kl_mode_requires_shared_vocabulary(self):
        rng = np.random.default_rng(7)
        vs = Vocabulary(["a"])
        vt = Vocabulary(["b"])
        student = dump("student", rng.normal(size=(1, 1)), [0], vs)
        teacher = TeacherConfig("t", "kl", vt,
                                dump("teacher", rng.normal(size=(1, 1)), [0], vt))
        with pytest.raises(ValidationError, match="vocabulary"):
            run_step(vs, student, [teacher])

    def test_vocab_hash_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        vs = Vocabulary(["a", "b"])
        other = Vocabulary(["a", "c"])
        student = dump("student", rng.normal(size=(1, 2)), [0], other)
        teacher = TeacherConfig("t", "kl", vs,
                                dump("teacher", rng.normal(size=(1, 2)), [0], vs))
        with pytest.raises(ValidationError, match="hash"):
            run_step(vs, student, [teacher])

    def test_underflowed_student_merge_raises(self):
        # student realizes "a", "b" against the teacher's "ab"; the chain-rule
        # product exp(-800) underflows, leaving the merged chunk no mass
        vocab = Vocabulary(["a", "b", "ab"])
        student = dump("student", [[800.0, 0.0, 0.0], [0.0, 0.0, 800.0]], [0, 1], vocab)
        teacher = TeacherConfig("t", "kl", vocab,
                                dump("teacher", [[0.0, 0.0, 1.0]], [2], vocab))
        with pytest.raises(DegenerateDistributionError) as info:
            run_step(vocab, student, [teacher], policy=ScalingPolicy("fixed"))
        message = str(info.value)
        assert "student" in message and "'s0'" in message and "[0, 2)" in message

    def test_teacher_without_loss_chunks_named(self):
        rng = np.random.default_rng(9)
        vs = Vocabulary(["a", "x"])
        vt = Vocabulary(["y", "z"])
        student = dump("student", rng.normal(size=(1, 2)), [0], vs)
        teacher = TeacherConfig("hopeless", "uld", vt,
                                dump("teacher", rng.normal(size=(1, 2)), [0], vt))
        with pytest.raises(ValidationError, match="hopeless"):
            run_step(vs, student, [teacher])

    def test_nan_teacher_logits_rejected_not_zero_kd(self):
        rng = np.random.default_rng(13)
        vs = Vocabulary(["2", "0", "1", "201"])
        vt = Vocabulary(["2", "0", "1"])
        w = build_projection(vs, vt, Tokenizer(vt))
        student = dump("student", rng.normal(size=(1, 4)), [3], vs)
        z_t = rng.normal(size=(3, 3))
        z_t[1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            run_step(vs, student, [TeacherConfig(
                "t", "pkl", vt, dump("teacher", z_t, [0, 1, 2], vt, seq_id="nan_doc"),
                projection=w)])

    def test_negative_kd_is_an_error_not_a_dropped_term(self):
        # the partial KL over the common pair (a, a) is negative when the
        # student puts more mass on it than the teacher does
        vs = Vocabulary(["a", "b"])
        vt = Vocabulary(["a", "c"])
        student = dump("student", [[3.0, 0.0]], [0], vs)
        teacher = TeacherConfig("partial", "gold", vt, dump("teacher", [[0.0, 3.0]], [0], vt))
        kd_only = HybridWeights(1.0, 0.0)
        fixed = run_step(vs, student, [teacher], policy=ScalingPolicy("fixed"),
                         hybrid=kd_only)
        aggregate = fixed.teachers[0].report.aggregate
        assert aggregate < -1e-12
        with pytest.raises(ValidationError) as exc:
            run_step(vs, student, [teacher], hybrid=kd_only, compute_grads=True)
        assert "'partial'" in str(exc.value) and repr(aggregate) in str(exc.value)

    def test_static_schedule_needs_one_weight_per_teacher(self):
        """Static weights that do not sum to 1 fail naming each teacher's weight."""
        rng = np.random.default_rng(14)
        vocab, student, teacher = same_tokenizer_setup(rng, equal=False)
        teachers = [replace(teacher, name="a", weight=0.5), replace(teacher, name="b", weight=0.6)]
        with pytest.raises(ValidationError) as info:
            run_step(vocab, student, teachers)
        assert "'a' 0.5" in str(info.value) and "'b' 0.6" in str(info.value)

    def test_static_alphas_are_the_teacher_weights(self):
        rng = np.random.default_rng(15)
        vocab, student, teacher = same_tokenizer_setup(rng, equal=False)
        teachers = [replace(teacher, name="a", weight=0.9), replace(teacher, name="b", weight=0.1)]
        for kwargs in ({}, {"schedule": "static"}):
            assert run_step(vocab, student, teachers, **kwargs).alphas == (0.9, 0.1)

    def test_adaptive_schedule_ignores_teacher_weights(self):
        rng = np.random.default_rng(16)
        vocab, student, teacher = same_tokenizer_setup(rng, equal=False)
        other = replace(teacher, name="b", logits=dump("teacher", rng.normal(size=(3, 3)),
                                                       [0, 1, 2], vocab))
        schedule = "adaptive_entropy"
        a = run_step(vocab, student, [teacher, other], schedule=schedule)
        b = run_step(vocab, student, [replace(teacher, weight=0.0), replace(other, weight=7.0)],
                     schedule=schedule)
        assert a.to_json() == b.to_json() and a.alphas[0] != a.alphas[1]

    def test_deterministic_reports(self):
        rng = np.random.default_rng(10)
        vocab, student, teacher = same_tokenizer_setup(rng, equal=False)
        a = run_step(vocab, student, [teacher]).to_json()
        b = run_step(vocab, student, [teacher]).to_json()
        assert a == b


def _nan_step(**kwargs):
    vocab, student, teacher = same_tokenizer_setup(np.random.default_rng(17), equal=False)
    return run_step(vocab, student, [teacher], **kwargs)


def _nan_weight_after_construction():
    vocab, student, teacher = same_tokenizer_setup(np.random.default_rng(18), equal=False)
    teacher.weight = math.nan
    return run_step(vocab, student, [teacher])


NAN_SETTINGS = {
    "teacher weight": lambda: kl_teacher(Vocabulary(["a", "b", "c"]), np.zeros((3, 3)),
                                         weight=math.nan),
    "lambda_kd": lambda: ScalingPolicy("fixed", lambda_kd=math.nan),
    "lambda_ce": lambda: ScalingPolicy("fixed", lambda_ce=math.nan),
    "lambda_kl": lambda: HybridWeights(lambda_kl=math.nan),
    "lambda_uld": lambda: HybridWeights(lambda_uld=math.nan),
    "alpha_exact": lambda: AlignScoring(alpha_exact=math.nan),
    "alpha_comb": lambda: AlignScoring(alpha_comb=math.nan),
    "alpha_gap": lambda: AlignScoring(alpha_gap=math.nan),
    "temperature": lambda: _nan_step(temperature=math.nan),
    "weight sum": _nan_weight_after_construction,
}


@pytest.mark.parametrize("name", NAN_SETTINGS)
def test_nan_setting_rejected(name):
    """A NaN setting fails instead of passing checks written as ``x < 0``."""
    with pytest.raises(ValidationError, match="nan"):
        NAN_SETTINGS[name]()


def near_copy_kl_step(lambda_kd, grads=True):
    """The 3-token ``kl`` step with a near-copy teacher, fixed policy,
    ``lambda_ce = 0`` and T = 2."""
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 3))
    teacher = kl_teacher(vocab, z + 0.01 * rng.normal(size=z.shape))
    return run_step(vocab, dump("student", z, [0, 1, 2], vocab), [teacher],
                    policy=ScalingPolicy("fixed", lambda_kd=lambda_kd, lambda_ce=0.0),
                    temperature=2.0, compute_grads=grads)


class TestGradientScale:
    def test_non_finite_scale_named(self):
        """1e308 x T² / K overflows while the total (about 1.6e301) stays finite."""
        assert math.isfinite(near_copy_kl_step(1e308, grads=False).total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                near_copy_kl_step(1e308)
        assert "lambda_kd" in str(info.value) and "temperature 2.0" in str(info.value)

    def test_overflowing_product_named(self):
        """A finite scale (1e307) times a projection gradient entry of about 100."""
        _, teacher = valid_pkl_step_inputs()
        student = dump("student", [[-0.38, 4.62, -5.96, 1.45]], [3], PIN_VS)
        teacher = replace(teacher, logits=dump(
            "teacher", [[-1.23, -3.53, 0.59], [2.38, -3.65, 1.52], [0.69, -4.97, 6.21]],
            [0, 1, 2], PIN_VT))
        kwargs = dict(policy=ScalingPolicy("fixed", lambda_kd=1.0, lambda_ce=0.0),
                      compute_grads=True)
        assert np.abs(run_step(PIN_VS, student, [teacher], **kwargs)
                      .teachers[0].report.grad_projection).max() > 18
        kwargs["policy"] = ScalingPolicy("fixed", lambda_kd=1e307, lambda_ce=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                run_step(PIN_VS, student, [teacher], **kwargs)
        assert str(info.value).startswith("teacher 'x': gradients scaled by 1e+307 are not "
                                          "finite (KD multiplier 1e+307, which is lambda_kd")

    def test_float32_overflow_left_to_the_writer(self):
        """1e100 gives finite float64 gradients, which only a float32 file cannot hold."""
        report = near_copy_kl_step(1e100)
        block = np.stack(report.teachers[0].report.grad_chunk_logits)
        assert np.isfinite(block).all() and np.abs(block).max() > np.finfo(np.float32).max


class TestDynamicGradientContract:
    def test_assembled_gradient_matches_frozen_ratio_finite_differences(self):
        rng = np.random.default_rng(11)
        vocab = Vocabulary(["a", "b", "c"])
        realized = [0, 1, 2]
        z0 = rng.normal(size=(3, 3))
        teacher_logits = rng.normal(size=(3, 3))

        def step(z, grads=False):
            student = dump("student", z, realized, vocab)
            teacher = TeacherConfig("t", "kl", vocab,
                                    dump("teacher", teacher_logits, realized, vocab))
            return run_step(vocab, student, [teacher], compute_grads=grads)

        base = step(z0, grads=True)
        gamma = base.kd_multiplier
        assert gamma == pytest.approx(base.ce / base.kd)

        # assemble the full gradient in the student position logits: CE plus
        # one chunk gradient per aligned position (all chunks are length 1)
        assembled = base.ce_grad.copy()
        for k, g in enumerate(base.teachers[0].report.grad_chunk_logits):
            assembled[k] += g

        def frozen_total(flat):
            r = step(flat.reshape(3, 3))
            return r.ce + gamma * r.kd

        numeric = central_difference(frozen_total, z0.ravel()).reshape(3, 3)
        assert max_relative_error(assembled, numeric) < 1e-6


PIN_VS = Vocabulary(["2", "0", "1", "201"])
PIN_VT = Vocabulary(["2", "0", "1"])
# each case breaks one input of a valid pkl step: (student, teacher) -> (student, teacher)
DUMP_AND_MODE_MESSAGES = {
    "student side": (lambda s, t: (replace(s, side="teacher"), t),
                     "student dump side is 'teacher'"),
    "student width": (lambda s, t: (dump("student", np.zeros((1, 3)), [0]), t),
                      "student dump width 3 != |V|=4"),
    "student hash": (lambda s, t: (replace(s, vocab_hash=vocabulary_hash(PIN_VT)), t),
                     "student dump was produced for a different vocabulary "
                     f"(hash {vocabulary_hash(PIN_VT)} != {vocabulary_hash(PIN_VS)})"),
    "teacher side": (lambda s, t: (s, replace(t, logits=replace(t.logits, side="student"))),
                     "teacher 'x': dump side is 'student'"),
    "teacher width": (lambda s, t: (s, replace(t, logits=dump("teacher", np.zeros((1, 4)),
                                                               [0]))),
                      "teacher 'x': dump width 4 != |V|=3"),
    "teacher hash": (lambda s, t: (s, replace(t, logits=replace(
                         t.logits, vocab_hash=vocabulary_hash(PIN_VS)))),
                     "teacher 'x': dump was produced for a different vocabulary "
                     f"(hash {vocabulary_hash(PIN_VS)} != {vocabulary_hash(PIN_VT)})"),
    "unknown mode": (lambda s, t: (s, replace(t, mode="bogus")),
                     "teacher 'x': mode must be one of ('pkl', 'hkl', 'gold', 'uld', 'kl'), "
                     "got 'bogus'"),
    "kl vocabulary": (lambda s, t: (s, replace(t, mode="kl")),
                      "teacher 'x': KL mode requires the student's vocabulary"),
    "no projection": (lambda s, t: (s, replace(t, projection=None)),
                      "teacher 'x': mode pkl needs a projection"),
    "projection shape": (lambda s, t: (s, replace(t, projection=build_projection(
                             PIN_VT, PIN_VT, Tokenizer(PIN_VT)))),
                         "teacher 'x': projection shape does not match the vocabularies"),
}


def valid_pkl_step_inputs():
    rng = np.random.default_rng(0)
    student = dump("student", rng.normal(size=(1, 4)), [3], PIN_VS)
    teacher = TeacherConfig("x", "pkl", PIN_VT,
                            dump("teacher", rng.normal(size=(3, 3)), [0, 1, 2], PIN_VT),
                            projection=build_projection(PIN_VS, PIN_VT, Tokenizer(PIN_VT)))
    return student, teacher


class TestStepInputMessages:
    @pytest.mark.parametrize("case", sorted(DUMP_AND_MODE_MESSAGES))
    def test_message(self, case):
        breaks, message = DUMP_AND_MODE_MESSAGES[case]
        student, teacher = breaks(*valid_pkl_step_inputs())
        with pytest.raises(ValidationError) as info:
            run_step(PIN_VS, student, [teacher])
        assert str(info.value) == message

    def test_invalid_last_teacher_aligns_nothing(self):
        student, teacher = valid_pkl_step_inputs()
        run_step(PIN_VS, student, [teacher])  # the valid step runs
        cache = AlignmentCache()
        with pytest.raises(ValidationError, match="teacher 'y': mode hkl needs a projection"):
            run_step(PIN_VS, student, [replace(teacher, weight=0.5),
                                       replace(teacher, name="y", mode="hkl", projection=None,
                                               weight=0.5)],
                     cache=cache)
        assert len(cache) == 0

    @pytest.mark.parametrize("top_k", [2.5, True], ids=["float", "bool"])
    def test_top_k_must_be_int(self, top_k):
        student, teacher = valid_pkl_step_inputs()
        with pytest.raises(ValidationError) as info:
            run_step(PIN_VS, student, [teacher], top_k=top_k)
        assert str(info.value) == f"top_k must be an int, got {top_k!r}"

    @pytest.mark.parametrize("mode", ["uld", "gold"])
    @pytest.mark.parametrize("top_k, message", [(0, "top_k must be at least 1, got 0"),
                                                (2.5, "top_k must be an int, got 2.5")],
                             ids=["zero", "float"])
    def test_top_k_checked_whatever_the_modes(self, mode, top_k, message):
        """A teacher mode that reads no top-k support still gets a valid
        ``top_k``, checked before any dump, like the other step constants."""
        student, teacher = valid_pkl_step_inputs()
        teacher = replace(teacher, mode=mode, projection=None)
        run_step(PIN_VS, student, [teacher])  # the valid step runs
        cache = AlignmentCache()
        with pytest.raises(ValidationError) as info:
            run_step(PIN_VS, replace(student, side="teacher"), [teacher], cache=cache,
                     top_k=top_k)
        assert str(info.value) == message
        assert len(cache) == 0

    @pytest.mark.parametrize("setting, message", [
        ({"temperature": 0}, "temperature must be positive, got 0"),
        ({"temperature": math.nan}, "temperature must be positive, got nan"),
        ({"schedule": "bogus"}, "schedule kind must be one of ('static', 'adaptive_ce', "
                                "'adaptive_entropy', 'adaptive_maxprob')"),
    ], ids=["temperature-0", "temperature-nan", "schedule-bogus"])
    def test_step_constant_checked_before_dumps_and_alignment(self, setting, message):
        """A bad temperature or schedule kind is named alone, not blamed on a dump,
        even when a dump is broken too, and no teacher is aligned."""
        student, teacher = valid_pkl_step_inputs()
        cache = AlignmentCache()
        with pytest.raises(ValidationError) as info:
            run_step(PIN_VS, replace(student, side="teacher"), [teacher], cache=cache,
                     **setting)
        assert str(info.value) == message
        assert len(cache) == 0


def no_loss_chunk_step():
    """A ``uld`` teacher whose one token aligns with the student's as a
    mismatch, so it has no loss-bearing chunk."""
    vs, vt = Vocabulary(["a", "x"]), Vocabulary(["y", "z"])
    rng = np.random.default_rng(9)
    teacher = TeacherConfig("hopeless", "uld", vt,
                            dump("teacher", rng.normal(size=(1, 2)), [0], vt))
    return vs, dump("student", rng.normal(size=(1, 2)), [0], vs), [teacher]


def pkl_step(*changes):
    student, teacher = valid_pkl_step_inputs()
    return PIN_VS, student, [replace(teacher, **change) for change in changes]


PLAN_FAILURES = {  # case -> (step inputs, message, alignments the plan computes first)
    "second teacher's mode": (
        lambda: pkl_step({"weight": 0.5}, {"name": "y", "mode": "bogus", "weight": 0.5}),
        "teacher 'y': mode must be one of ('pkl', 'hkl', 'gold', 'uld', 'kl'), got 'bogus'",
        0),
    "static weights": (lambda: pkl_step({"weight": 0.5}),
                       "static teacher weights sum to 0.5, not 1: 'x' 0.5", 0),
    "no loss chunks": (no_loss_chunk_step, "teacher 'hopeless' has no loss-bearing chunks", 1),
}


@pytest.mark.parametrize("case", sorted(PLAN_FAILURES))
def test_plan_fails_before_the_walk(monkeypatch, case):
    """``run_step``'s plan raises before any chunk is merged or a helper thread
    started; a mode or weight fault, before any teacher is aligned."""
    inputs, message, alignments = PLAN_FAILURES[case]
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(training, "chain_rule_merge",
                        counted("merge", training.chain_rule_merge))
    monkeypatch.setattr(AlignmentCache, "get_or_compute",
                        counted("align", AlignmentCache.get_or_compute))
    monkeypatch.setattr(threading.Thread, "start", counted("thread", threading.Thread.start))
    threads = threading.active_count()
    with pytest.raises(ValidationError) as info:
        run_step(*inputs())
    assert str(info.value) == message
    assert threading.active_count() == threads
    assert calls == Counter({"align": alignments} if alignments else {})


GRADCHECK_FAMILIES = {"pkl_logits", "pkl_entries", "hkl", "gold", "uld", "kl"}


class TestGradientCheck:
    def test_every_family_checked_on_every_instance(self, monkeypatch):
        """Every mode is bound through ``training.loss_kernel`` on every
        instance, each student vocabulary standing for one instance; ``pkl``
        is bound again at each log-weight stencil point, the others once.
        Seed 13 draws no instance with n_s == n_t, and some draws leave a
        teacher id uncovered by the projection."""
        binds, real = [], training.loss_kernel

        def counted(mode, vs, *args):
            binds.append((mode, vs))
            return real(mode, vs, *args)

        monkeypatch.setattr(training, "loss_kernel", counted)
        worst = gradient_check(seed=13, instances=20)
        students = list({id(vs): vs for _, vs in binds}.values())  # binds keeps each alive
        assert len(students) == 20
        for vs in students:
            assert {mode for mode, v in binds if v is vs} == set(MODES)
        counts = Counter(mode for mode, _ in binds)
        assert all(counts[mode] == 20 for mode in MODES if mode != "pkl")
        assert counts["pkl"] > 20
        assert set(worst) == GRADCHECK_FAMILIES
        assert all(err < 1e-6 for err in worst.values())

    def test_perturbed_hybrid_gradient_fails(self, monkeypatch):
        """A bound ``hkl`` kernel whose ``grad_z`` is off in one entry shows as
        an ``hkl`` error over the tolerance, and no other family moves."""
        real = training.loss_kernel

        def perturbed(mode, *args):
            kernel = real(mode, *args)
            if mode != "hkl":
                return kernel

            def off(pt, ps, out=None):
                value, g_z, g_w = kernel(pt, ps, out)
                if g_z is not None:
                    g_z[0] += 1e-4
                return value, g_z, g_w
            return off

        clean = gradient_check(seed=123, instances=10)
        monkeypatch.setattr(training, "loss_kernel", perturbed)
        worst = gradient_check(seed=123, instances=10)
        assert worst["hkl"] > 1e-6 > clean["hkl"]
        assert {f: e for f, e in worst.items() if f != "hkl"} == {
            f: e for f, e in clean.items() if f != "hkl"}

    @pytest.mark.parametrize("seed, expected", [
        (0, {"pkl_logits": 3.5579949441344114e-08, "pkl_entries": 1.0064861704489614e-07,
             "hkl": 3.317891711652008e-09, "gold": 1.5913971373268057e-08,
             "uld": 1.9356244964031368e-08, "kl": 1.6653345369377348e-07}),
        (11, {"pkl_logits": 7.706052163135413e-08, "pkl_entries": 3.092277025803017e-08,
              "hkl": 2.3494149747645913e-08, "gold": 1.0855390688060423e-09,
              "uld": 9.948245242152729e-10, "kl": 1.1102230246251565e-07}),
        (142, {"pkl_logits": 2.514785008299939e-08, "pkl_entries": 7.666229120701501e-08,
               "hkl": 3.248356163386409e-09, "gold": 1.1547803942688383e-08,
               "uld": 2.189363972271216e-09, "kl": 1.110223356322641e-07}),
    ])
    def test_pinned_errors(self, seed, expected):
        """The exact errors of three instances per seed: a change in how the
        instances are drawn, or in how their projections are built, moves them."""
        assert gradient_check(seed, instances=3) == expected

    @pytest.mark.parametrize("instances", [0, -3])
    def test_rejects_fewer_than_one_instance(self, instances):
        with pytest.raises(ValidationError, match="instances must be at least 1"):
            gradient_check(seed=0, instances=instances)

    def test_all_paths_below_tolerance(self):
        worst = gradient_check(seed=123, instances=10)
        assert set(worst) == GRADCHECK_FAMILIES
        for name, err in worst.items():
            assert err < 1e-6, name

    @pytest.mark.parametrize("seed", [142, 165, 229, 233, 246, 260])
    def test_small_projection_weights_pass(self, seed):
        # these seeds draw weights small enough that a fixed step in weight
        # space has truncation error above the tolerance on correct gradients
        worst = gradient_check(seed=seed)
        assert worst["pkl_entries"] < 1e-6


FLOAT32_TEXT = "In 2019 the 42 cats saw 7 dogs and 123 birds on 04/05"


class TestFloat32Dumps:
    """A step over float32-held dumps equals the same step over the dumps
    upcast to float64 first: every kernel upcasts what it reads, exactly."""

    @staticmethod
    def step_inputs(rng):
        vs = make_toy_tokenizer("numeral_preserving").vocabulary
        vt = make_toy_tokenizer("word_level", [FLOAT32_TEXT]).vocabulary
        s_ids, t_ids = Tokenizer(vs).encode(FLOAT32_TEXT), Tokenizer(vt).encode(FLOAT32_TEXT)
        w = build_projection(vs, vt, Tokenizer(vt))

        def held(side, ids, vocab, seq_id):
            logits = (3 * rng.normal(size=(len(ids), len(vocab)))).astype(np.float32)
            return tuple(PositionLogits(seq_id, side, held_as, ids, vocabulary_hash(vocab))
                         for held_as in (logits, logits.astype(float)))

        student = held("student", s_ids, vs, "s")
        teachers = ([], [])
        for mode, weight in zip(("pkl", "hkl", "gold", "uld", "kl"), (0.1, 0.15, 0.2, 0.25, 0.3)):
            vocab, ids = (vs, s_ids) if mode == "kl" else (vt, t_ids)
            for held_alike, pl in zip(teachers, held("teacher", ids, vocab, mode)):
                held_alike.append(TeacherConfig(mode, mode, vocab, pl,
                                          w if mode in ("pkl", "hkl") else None, weight))
        return vs, student, teachers

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(training.SCHEDULE_KINDS),
           st.sampled_from(["dynamic", "fixed"]), st.sampled_from([1.0, 2.0, 0.7]),
           st.booleans())
    def test_float32_step_equals_float64_step(self, seed, schedule, policy, temperature,
                                              grads):
        vs, (s32, s64), (t32, t64) = self.step_inputs(np.random.default_rng(seed))
        assert s32.logits.dtype == np.float32 and s64.logits.dtype == np.float64
        kwargs = dict(policy=ScalingPolicy(policy), schedule=schedule,
                      temperature=temperature, top_k=64, compute_grads=grads)
        held32 = run_step(vs, s32, t32, **kwargs)
        held64 = run_step(vs, s64, t64, **kwargs)
        assert held32.to_json() == held64.to_json()
        if grads:
            assert np.array_equal(held32.ce_grad, held64.ce_grad)
            for a, b in zip(held32.teachers, held64.teachers):
                assert len(a.report.grad_chunk_logits) == len(b.report.grad_chunk_logits)
                for ga, gb in zip(a.report.grad_chunk_logits, b.report.grad_chunk_logits):
                    assert np.array_equal(ga, gb)
                assert (a.report.grad_projection is None) == (b.report.grad_projection is None)
                if a.report.grad_projection is not None:
                    assert np.array_equal(a.report.grad_projection, b.report.grad_projection)


# every float knob of a step, with the name its ValidationError must carry
EXTREME_FLOATS = (1e308, -1e308, 5e-324, 1e-162, 1e154, 1.0)
STEP_FLOAT_FIELDS = ("temperature", "lambda_kd", "lambda_ce", "lambda_kl", "lambda_uld",
                     "alpha_exact", "alpha_comb", "alpha_gap", "weight")


def extreme_step(knobs, kind):
    """A 3-position step with one teacher per mode (the ``kl`` teacher is a
    near copy of the student) and each float knob in ``knobs`` (field ->
    value) set; the teacher weights are ``(value, 1 - value, 0, 0, 0)`` for
    ``weight``."""
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 4))
    student = dump("student", z, [0, 1, 2], PIN_VS)
    w = build_projection(PIN_VS, PIN_VT, Tokenizer(PIN_VT))
    weights = ((knobs["weight"], 1.0 - knobs["weight"], 0.0, 0.0, 0.0) if "weight" in knobs
               else (0.2,) * 5)
    teachers = []
    for i, (mode, weight) in enumerate(zip(MODES, weights)):
        if mode == "kl":
            pl = dump("teacher", z + 0.01 * rng.normal(size=z.shape), [0, 1, 2], PIN_VS)
        else:
            pl = dump("teacher", rng.normal(size=(3, 3)), [0, 1, 2], PIN_VT)
        teachers.append(TeacherConfig(f"t{i}", mode, PIN_VS if mode == "kl" else PIN_VT, pl,
                                      w if mode in ("pkl", "hkl") else None, weight))
    sections = {"policy": (ScalingPolicy, ("lambda_kd", "lambda_ce")),
                "hybrid": (HybridWeights, ("lambda_kl", "lambda_uld")),
                "scoring": (AlignScoring, ("alpha_exact", "alpha_comb", "alpha_gap"))}
    kwargs = {name: cls(**({"kind": kind} if name == "policy" else {}),
                        **{k: v for k, v in knobs.items() if k in keys})
              for name, (cls, keys) in sections.items()}
    kwargs.update({k: v for k, v in knobs.items() if k == "temperature"})
    return run_step(PIN_VS, student, teachers, compute_grads=True, **kwargs)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(STEP_FLOAT_FIELDS), st.sampled_from(EXTREME_FLOATS),
                       min_size=1, max_size=2),
       st.sampled_from(["dynamic", "fixed"]))
def test_extreme_float_knob_named_or_finite(knobs, kind):
    """One or two float knobs of a step at extreme finite values either fail
    with a ValidationError naming one of them, or give a finite total and
    finite gradients; numpy never warns (warnings are errors here)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = extreme_step(knobs, kind)
    except ValidationError as exc:
        assert any(field in str(exc) for field in knobs), (knobs, str(exc))
        return
    assert math.isfinite(report.total)
    grads = [report.ce_grad] + [g for t in report.teachers for g in
                                (*t.report.grad_chunk_logits, t.report.grad_projection)
                                if g is not None]
    assert all(np.isfinite(g).all() for g in grads)
