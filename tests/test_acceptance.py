"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.
"""

import json
import random
import time

import numpy as np

from crosstok.align import (
    AlignScoring,
    ChunkKind,
    dp_align,
    trl_substring_align,
)
from crosstok.audit import audit_coverage, recommend_mode
from crosstok.chunks import softmax
from crosstok.cli import main
from crosstok.losses import (
    HybridWeights,
    build_common_set_exact,
    build_common_set_relaxed,
    gold,
    pkl,
    pkl_grads,
)
from crosstok.numdiff import central_difference, max_relative_error
from crosstok.projection import (
    ProjectionConfig,
    Provenance,
    build_projection,
    decay_weights,
    project,
)
from crosstok.training import ScalingPolicy, TeacherConfig, combine_kd_ce, run_step
from crosstok.vocab import Tokenizer, Vocabulary, make_toy_tokenizer

from brute_force_reference import brute_force_align
from test_losses import (COMMON_KL, gold_kernel, logit_grad, numeric_grad,
                         random_bijective_common_set, random_projection)


def ok(n, message):
    print(f"criterion {n:02d} PASS: {message}")


def test_criterion_01_dp_score_equals_brute_force_on_500_random_pairs():
    tok = Tokenizer(Vocabulary(["a", "b", "c", "ab", "bc", "abc"]))
    scoring = AlignScoring()
    rng = random.Random(20240501)
    started = time.perf_counter()
    for _ in range(500):
        n = rng.randrange(0, 9)
        m = rng.randrange(0, 11 - n)
        s = [rng.randrange(6) for _ in range(n)]
        t = [rng.randrange(6) for _ in range(m)]
        fast = dp_align(s, t, scoring, tok, tok)
        slow = brute_force_align(s, t, scoring, tok, tok)
        assert fast.score == slow.score, (s, t)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(1, f"500 random pairs, DP score == exhaustive enumeration, {elapsed:.1f}s")


def test_criterion_02_buffer_baseline_failure_reproduction():
    tok_s = Tokenizer(Vocabulary(["<bos>", "Hello", " world", "."], specials=[0],
                                 special_roles={"bos": 0}))
    tok_t = Tokenizer(Vocabulary(["Hello", " world", "."]))
    student, teacher = [0, 1, 2, 3], [0, 1, 2]

    baseline = trl_substring_align(student, teacher, tok_s, tok_t)
    assert len(baseline.chunks) == 1
    super_group = baseline.chunks[0]
    assert super_group.kind is ChunkKind.SUPER_GROUP
    assert super_group.student_span == (0, 4) and super_group.teacher_span == (0, 3)

    out = dp_align(student, teacher, AlignScoring(), tok_s, tok_t)
    expected = [
        ((0, 1), (0, 0), ChunkKind.GAP_TEACHER_SIDE),
        ((1, 2), (0, 1), ChunkKind.MATCH),
        ((2, 3), (1, 2), ChunkKind.MATCH),
        ((3, 4), (2, 3), ChunkKind.MATCH),
    ]
    got = [(c.student_span, c.teacher_span, c.kind) for c in out.chunks]
    assert got == expected
    ok(2, "baseline emits one super-group; DP emits 1 gap + 3 matches pair-by-pair")


def test_criterion_03_suppressive_gradient_identity_on_200_instances():
    rng = np.random.default_rng(30301)
    checked = 0
    for _ in range(200):
        n_s = int(rng.integers(2, 13))
        n_t = int(rng.integers(2, 13))
        c = random_bijective_common_set(rng, n_s, n_t)
        z = rng.normal(size=n_s) * 2.0
        pt = rng.dirichlet(np.ones(n_t))
        kernel = gold_kernel(c, n_s, n_t, COMMON_KL)
        grad = logit_grad(kernel, z, pt)

        ps = softmax(z)
        mass = float(pt[c.teacher_ids].sum())
        uncommon = np.setdiff1d(np.arange(n_s), c.student_ids)
        assert np.all(np.abs(grad[uncommon] - ps[uncommon] * mass) < 1e-10)
        assert np.all(grad[uncommon] >= 0.0)
        assert max_relative_error(grad, numeric_grad(kernel, z, pt)) < 1e-6
        checked += 1
    assert checked == 200
    ok(3, "uncommon-logit gradient == p_s[j]*common-mass (1e-10), FD-matched, >= 0")


def test_criterion_04_weight_decay_reference_tuples():
    np.testing.assert_allclose(decay_weights(2), [0.909, 0.091], atol=1e-4)
    np.testing.assert_allclose(decay_weights(3), [0.9009, 0.0901, 0.0090], atol=1e-4)
    np.testing.assert_allclose(decay_weights(4), [0.9000, 0.0900, 0.0090, 0.0009],
                               atol=1e-4)
    ok(4, "length-2/3/4 decay tuples reproduced within 1e-4")


def test_criterion_05_probability_preservation_and_valid_truncation():
    student = make_toy_tokenizer("numeral_preserving")
    teacher = make_toy_tokenizer("digit_splitting")
    untruncated = build_projection(student.vocabulary, teacher.vocabulary, teacher,
                                   ProjectionConfig(top_k=len(teacher.vocabulary)))
    assert all(p is not Provenance.EMPTY for p in untruncated.provenance)
    truncated = build_projection(student.vocabulary, teacher.vocabulary, teacher,
                                 ProjectionConfig(top_k=2))
    rng = np.random.default_rng(505)
    for _ in range(100):
        p = rng.dirichlet(np.ones(untruncated.n_student))
        raw = untruncated.product(p)
        assert abs(raw.sum() - 1.0) < 1e-12
        q = project(truncated, p)
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) < 1e-12
    ok(5, "100 untruncated projections sum to 1 (1e-12); truncated+renormalized valid")


def test_criterion_06_degeneracy_suite():
    tok = make_toy_tokenizer("char_level")
    v = tok.vocabulary
    w = build_projection(v, v, tok)
    rng = np.random.default_rng(606)
    pt = rng.dirichlet(np.ones(len(v)))
    ps = rng.dirichlet(np.ones(len(v)))

    plain_kl = float(np.sum(pt * (np.log(pt) - np.log(ps))))
    assert abs(pkl(pt, ps, w) - plain_kl) < 1e-12

    c = build_common_set_exact(v, v)
    assert gold(pt, ps, build_common_set_relaxed(w)) == gold(pt, ps, c)  # hkl == gold

    assert gold(pt, pt, c, HybridWeights(lambda_uld=0.0)) == 0.0
    ok(6, "identity-W == plain KL (1e-12); exact-W hybrid == partition loss bitwise; "
          "optimum is exactly 0")


def test_criterion_07_projection_kl_gradients_on_100_instances():
    rng = np.random.default_rng(707)
    for _ in range(100):
        n_s = int(rng.integers(2, 13))
        n_t = int(rng.integers(2, min(12, 4 * n_s) + 1))
        w = random_projection(rng, n_s, n_t)
        z = rng.normal(size=n_s)
        pt = rng.dirichlet(np.ones(n_t))

        grad_z, grad_w = pkl_grads(z, pt, w)
        numeric_z = central_difference(lambda zz: pkl(pt, softmax(zz), w), z)
        assert max_relative_error(grad_z, numeric_z) < 1e-6

        ps = softmax(z)
        base = np.array([wt for _, _, wt in w.entries()])
        numeric_w = central_difference(lambda flat: pkl(pt, ps, w.with_weights(flat)),
                                       base)
        assert max_relative_error(grad_w, numeric_w) < 1e-6
    ok(7, "projection-KL logit and entry gradients FD-matched (1e-6 rel) on 100 instances")


def test_criterion_08_dynamic_scaling_value_and_gradient_contract():
    rng = np.random.default_rng(808)
    for _ in range(200):
        l_kd = float(rng.uniform(1e-9, 100.0))
        l_ce = float(rng.uniform(0.0, 100.0))
        total, _ = combine_kd_ce(l_kd, l_ce, ScalingPolicy("dynamic"))
        assert abs(total - 2.0 * l_ce) <= 1e-12 * max(1.0, 2.0 * l_ce)

    # end-to-end toy: one projected-KL chunk plus cross-entropy, single position
    from crosstok.chunks import PositionLogits

    vs = Vocabulary(["2", "0", "1", "201"])
    vt = Vocabulary(["2", "0", "1"])
    w = build_projection(vs, vt, Tokenizer(vt))
    z0 = rng.normal(size=(1, 4))
    z_teacher = rng.normal(size=(3, 3))

    def step(z, grads=False):
        student = PositionLogits("ss", "student", z, [3])
        teacher = TeacherConfig("t", "pkl", vt,
                                PositionLogits("tt", "teacher", z_teacher, [0, 1, 2]),
                                projection=w)
        return run_step(vs, student, [teacher], compute_grads=grads)

    base = step(z0, grads=True)
    gamma = base.kd_multiplier
    assembled = base.ce_grad.copy()
    assembled[0] += base.teachers[0].report.grad_chunk_logits[0]

    def frozen_total(flat):
        r = step(flat.reshape(1, 4))
        return r.ce + gamma * r.kd

    numeric = central_difference(frozen_total, z0.ravel()).reshape(1, 4)
    assert max_relative_error(assembled, numeric) < 1e-6
    ok(8, "total == 2*CE (1e-12) and assembled gradient obeys the frozen-ratio contract")


def test_criterion_09_audit_reproduction_at_toy_scale():
    student = make_toy_tokenizer("numeral_preserving").vocabulary

    split = make_toy_tokenizer("digit_splitting").vocabulary
    rows = audit_coverage(student, build_common_set_exact(student, split))
    by_name = {r.category: r for r in rows}
    assert by_name["2-digit"].matched == 0 and by_name["2-digit"].size == 100
    assert by_name["3-digit"].matched == 0 and by_name["3-digit"].size == 1000
    assert recommend_mode(rows) == "pkl"

    packed = make_toy_tokenizer("numeral_preserving").vocabulary
    rows = audit_coverage(student, build_common_set_exact(student, packed))
    by_name = {r.category: r for r in rows}
    assert by_name["2-digit"].fraction == 1.0
    assert by_name["3-digit"].fraction == 1.0
    assert recommend_mode(rows) == "hkl"
    ok(9, "digit-splitting teacher: 0% multi-digit coverage -> pkl; "
          "numeral-preserving: 100% -> hkl")


def test_criterion_10_adaptive_weight_properties():
    from adaptive_reference import dump_of_probs
    from crosstok.training import adaptive_weights

    rng = np.random.default_rng(1010)
    for kind in ("adaptive_ce", "adaptive_entropy", "adaptive_maxprob"):
        for _ in range(20):
            dumps = [
                dump_of_probs(rng.dirichlet(np.ones(5), size=6), rng.integers(0, 5, size=6))
                for _ in range(3)
            ]
            alphas = adaptive_weights(kind, dumps)
            assert abs(float(alphas.sum()) - 1.0) < 1e-12

        shared = dump_of_probs(rng.dirichlet(np.ones(5), size=6), rng.integers(0, 5, size=6))
        uniform = adaptive_weights(kind, [shared, shared, shared])
        np.testing.assert_allclose(uniform, 1.0 / 3.0, atol=1e-15)

    # common rescaling of p[y] shifts all negated-CE scores by one constant
    for _ in range(20):
        p1, p2 = rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.9)
        factor = rng.uniform(0.5, 0.99)
        base = adaptive_weights("adaptive_ce", [
            dump_of_probs([[p1, 1 - p1]], [0]),
            dump_of_probs([[p2, 1 - p2]], [0]),
        ])
        shifted = adaptive_weights("adaptive_ce", [
            dump_of_probs([[p1 * factor, 1 - p1 * factor]], [0]),
            dump_of_probs([[p2 * factor, 1 - p2 * factor]], [0]),
        ])
        np.testing.assert_allclose(shifted, base, atol=1e-12)
    ok(10, "adaptive weights sum to 1 (1e-12), uniform on ties, shift-invariant")


def test_criterion_11_pipeline_determinism(step_fixture, tmp_path):
    fx = step_fixture(modes=("kl", "pkl", "hkl"), weights=[0.2, 0.3, 0.5])
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert main(["--config", str(fx["config"]), "loss", "--out", str(out1)]) == 0
    assert main(["--config", str(fx["config"]), "loss", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert [t["mode"] for t in payload["teachers"]] == ["kl", "pkl", "hkl"]
    ok(11, "two loss-command runs produce byte-identical reports")
