import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstok import losses
from crosstok.errors import ValidationError
from crosstok.losses import (
    LOG_EPS,
    CommonSet,
    HybridWeights,
    LossReport,
    _rank_l1,
    _stable_order,
    build_common_set_exact,
    build_common_set_relaxed,
    chunk_kl,
    gold,
    gold_grad,
    kd_aggregate,
    loss_kernel,
    pkl,
    pkl_grads,
    uld,
)
from crosstok.chunks import softmax, topk_support
from crosstok.numdiff import central_difference, max_relative_error
from crosstok.projection import ProjectionConfig, Provenance, SparseProjection, build_projection, project
from crosstok.vocab import Vocabulary, make_toy_tokenizer
from uld_reference import reference_rank_l1

PT3 = np.array([0.5, 0.3, 0.2])
PS3 = np.array([0.2, 0.3, 0.5])
C01 = CommonSet([0, 1], [0, 1])
COMMON_KL = HybridWeights(1.0, 0.0)  # gold at these weights is the common-set KL alone
ULD_ONLY = HybridWeights(0.0, 1.0)  # and at these, ULD over the uncommon ids alone


def assert_common(c, student_ids, teacher_ids):
    """``c`` pairs ``student_ids[i]`` with ``teacher_ids[i]``, in that order."""
    for got, want in ((c.student_ids, student_ids), (c.teacher_ids, teacher_ids)):
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.asarray(want, dtype=np.intp))


def partner_of(c, s):
    """The teacher id paired with student id ``s``, or None."""
    hit = c.teacher_ids[c.student_ids == s]
    return int(hit[0]) if hit.size else None


def random_projection(rng, n_student, n_teacher):
    """Random sparse rows whose union covers every teacher id (so projected
    mass is positive everywhere when the input distribution is). Teacher ids
    are dealt round-robin to guarantee coverage, then rows are topped up with
    extra random entries."""
    assert n_student * 4 >= n_teacher, "cannot cover every teacher id"
    row_ids = [set() for _ in range(n_student)]
    for i, t in enumerate(rng.permutation(n_teacher).tolist()):
        row_ids[i % n_student].add(t)
    for ids in row_ids:
        room = min(4, n_teacher) - len(ids)
        budget = int(rng.integers(0, room + 1)) if room > 0 else 0
        for t in rng.permutation(n_teacher).tolist():
            if budget == 0:
                break
            if t not in ids:
                ids.add(t)
                budget -= 1
    rows = []
    for ids in row_ids:
        ordered = sorted(ids)
        weights = rng.dirichlet(np.ones(len(ordered))) * 0.9
        rows.append(sorted(zip(ordered, weights.tolist()),
                           key=lambda tw: (-tw[1], tw[0])))
    return SparseProjection.from_rows(n_teacher, rows, [Provenance.MULTI_TOKEN] * n_student,
                                      ProjectionConfig())


def exact_pair(c, n_student, n_teacher):
    """Vocabularies ``s0..`` and ``t0..`` whose exact common set is ``c`` (given
    in student order): teacher token ``c.teacher_ids[i]`` is named after
    student token ``c.student_ids[i]``."""
    teacher = [f"t{j}" for j in range(n_teacher)]
    for s, t in zip(c.student_ids.tolist(), c.teacher_ids.tolist()):
        teacher[t] = f"s{s}"
    return Vocabulary(f"s{i}" for i in range(n_student)), Vocabulary(teacher)


def gold_kernel(c, n_student, n_teacher, hw, eps=LOG_EPS):
    """The ``gold`` kernel as ``loss_kernel`` binds it over the exact common set ``c``."""
    return loss_kernel("gold", *exact_pair(c, n_student, n_teacher), None, 1, hw, eps)


def logit_grad(kernel, z, p_t):
    """A bound kernel's ``grad_z`` at the student chunk logits ``z``."""
    return kernel(p_t, softmax(z), np.empty(np.size(z)))[1]


def numeric_grad(kernel, z, p_t):
    """Central differences of a bound kernel's value in the student chunk logits."""
    return central_difference(lambda zz: kernel(p_t, softmax(zz))[0], z)


def random_bijective_common_set(rng, n_student, n_teacher):
    width = int(rng.integers(0, min(n_student, n_teacher) + 1))
    s_ids = rng.choice(n_student, size=width, replace=False)
    t_ids = rng.choice(n_teacher, size=width, replace=False)
    order = np.argsort(s_ids)
    return CommonSet(s_ids[order], t_ids[order])


class TestCommonSet:
    def test_rejects_duplicate_student(self):
        with pytest.raises(ValidationError, match="student id appears in more than one pair"):
            CommonSet([0, 0], [0, 1])

    def test_rejects_duplicate_teacher_when_bijective(self):
        with pytest.raises(ValidationError, match="reuses a teacher id"):
            CommonSet([0, 1], [0, 0])

    def test_exact_identical_vocabularies_cover_everything(self):
        v = Vocabulary(["a", "b", "ab"])
        c = build_common_set_exact(v, v)
        assert_common(c, [0, 1, 2], [0, 1, 2])
        assert losses._uncommon(c, 3, 3)[0].size == 0

    def test_exact_disjoint_vocabularies(self):
        c = build_common_set_exact(Vocabulary(["a"]), Vocabulary(["b"]))
        assert_common(c, [], [])

    def test_exact_digit_regimes(self):
        packed = make_toy_tokenizer("numeral_preserving").vocabulary
        split = make_toy_tokenizer("digit_splitting").vocabulary
        c = build_common_set_exact(packed, split)
        assert partner_of(c, packed.id_of["2"]) == split.id_of["2"]
        assert packed.id_of["23"] not in set(c.student_ids.tolist())

    def test_exact_collision_keeps_smallest_pair(self):
        # ids 0 and 1 share the canonical form " the"
        vs = Vocabulary(["Ġthe", " the", "x"])
        vt = Vocabulary([" the", "y"])
        c = build_common_set_exact(vs, vt)
        assert_common(c, [0], [0])

    def test_exact_specials_pair_by_role(self):
        vs = Vocabulary(["a", "<bos>"], specials=[1], special_roles={"bos": 1})
        vt = Vocabulary(["a", "<s>"], specials=[1], special_roles={"bos": 1})
        assert_common(build_common_set_exact(vs, vt), [0, 1], [0, 1])
        vt_bare = Vocabulary(["a", "<bos>"], specials=[1])
        assert_common(build_common_set_exact(vs, vt_bare), [0], [0])

    def test_exact_pair_has_the_given_common_set(self):
        c = CommonSet([0, 2, 3], [4, 0, 1])
        assert_common(build_common_set_exact(*exact_pair(c, 5, 6)), [0, 2, 3], [4, 0, 1])

    def test_keeps_the_order_given(self):
        c = CommonSet((4, 0, 2), np.array([1, 5, 0], dtype=np.uint8))
        assert_common(c, [4, 0, 2], [1, 5, 0])
        assert_common(CommonSet(), [], [])


ID_LISTS = st.lists(st.integers(-3, 6), max_size=6)


@settings(max_examples=300, deadline=None)
@given(ID_LISTS, ID_LISTS, st.sampled_from(["list", "int8", "uint64", "float64", "bool"]))
def test_common_set_checks_its_ids(student_ids, teacher_ids, form):
    """Non-integer, negative or repeated ids and unequal lengths are rejected
    with a ValidationError; anything else becomes two read-only ``intp``
    arrays holding the ids in the order given."""
    make = list if form == "list" else lambda x: np.array(x, dtype=form)
    if form == "uint64":
        student_ids, teacher_ids = [abs(x) for x in student_ids], [abs(x) for x in teacher_ids]
    ids = (student_ids, teacher_ids)
    valid = (len(student_ids) == len(teacher_ids)
             and all(min(x, default=0) >= 0 and len(set(x)) == len(x) for x in ids)
             and (form not in ("float64", "bool") or not student_ids))
    if not valid:
        with pytest.raises(ValidationError):
            CommonSet(make(student_ids), make(teacher_ids))
        return
    c = CommonSet(make(student_ids), make(teacher_ids))
    assert_common(c, student_ids, teacher_ids)
    for a in (c.student_ids, c.teacher_ids):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("student_ids, teacher_ids", [
    ([-1], [0]), ([0.5], [0]), ([0], [2**63]), ([[0, 1]], [[0, 1]]), ([[0], [1, 2]], [0, 1]),
    ([0, 1], [0])],
    ids=["negative", "non_integer", "past_intp", "2d", "ragged", "unequal_lengths"])
def test_common_set_rejects_bad_ids(student_ids, teacher_ids):
    with pytest.raises(ValidationError):
        CommonSet(student_ids, teacher_ids)


class TestRelaxedCommonSet:
    def test_exact_only_matches_exact_builder(self):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        exact = build_common_set_exact(tok.vocabulary, tok.vocabulary)
        assert_common(build_common_set_relaxed(w), exact.student_ids, exact.teacher_ids)

    def test_multi_token_pair_admitted(self):
        student = make_toy_tokenizer("word_level", ["Hundreds"])
        teacher = make_toy_tokenizer("word_level", ["Hund reds"])
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        c = build_common_set_relaxed(w)
        s = student.vocabulary.id_of["Hundreds"]
        t = teacher.vocabulary.id_of["Hund"]
        assert partner_of(c, s) == t
        exact = build_common_set_exact(student.vocabulary, teacher.vocabulary)
        assert s not in set(exact.student_ids.tolist())

    def test_conflict_rule_exact_beats_weight_beats_id(self):
        cfg = ProjectionConfig()
        # students 0 (exact) and 1 (multi) both point at teacher 0
        w = SparseProjection.from_rows(
            2, [[(0, 1.0)], [(0, 0.9), (1, 0.09)], [(0, 0.5), (1, 0.4)]],
            [Provenance.EXACT, Provenance.MULTI_TOKEN, Provenance.MULTI_TOKEN], cfg)
        assert_common(build_common_set_relaxed(w), [0], [0])
        # equal weight 1: the exact row wins over a smaller student id
        w = SparseProjection.from_rows(1, [[(0, 1.0)], [(0, 1.0)]],
                                       [Provenance.MULTI_TOKEN, Provenance.EXACT], cfg)
        assert_common(build_common_set_relaxed(w), [1], [0])
        # no exact row: highest weight wins
        w = SparseProjection.from_rows(2, [[(0, 0.5), (1, 0.4)], [(0, 0.9), (1, 0.09)]],
                                       [Provenance.MULTI_TOKEN] * 2, cfg)
        assert_common(build_common_set_relaxed(w), [1], [0])
        # equal weight: smaller student id wins
        w = SparseProjection.from_rows(2, [[(0, 0.9)], [(0, 0.9)]],
                                       [Provenance.MULTI_TOKEN] * 2, cfg)
        assert_common(build_common_set_relaxed(w), [0], [0])


def common_kl(p_t, p_s, c, eps=LOG_EPS):
    """The common-set KL value, from the bound ``gold`` kernel."""
    return gold_kernel(c, p_s.size, p_t.size, COMMON_KL, eps)(p_t, p_s)[0]


class TestCommonKl:
    def test_identical_distributions_zero(self):
        c = CommonSet([0, 1, 2], [0, 1, 2])
        assert common_kl(PT3, PT3, c) == 0.0

    def test_empty_set_zero(self):
        assert common_kl(PT3, PS3, CommonSet()) == 0.0

    def test_hand_arithmetic(self):
        expected = 0.5 * math.log(0.5 / 0.2) + 0.3 * math.log(0.3 / 0.3)
        assert common_kl(PT3, PS3, C01) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.4581, abs=1e-4)

    def test_zero_student_probability(self):
        ps = np.array([0.0, 0.5, 0.5])
        with pytest.raises(ValidationError, match="log"):
            common_kl(PT3, ps, C01, eps=None)
        assert np.isfinite(common_kl(PT3, ps, C01))  # default floor

    def test_zero_floor_is_no_floor(self):
        """``eps=0`` fails like ``eps=None`` instead of returning inf."""
        ps = np.array([0.0, 0.5, 0.5])
        with pytest.raises(ValidationError, match="log"):
            common_kl(PT3, ps, C01, eps=0.0)

    @pytest.mark.parametrize("eps", [1.0, 1e308])
    def test_floor_of_one_or_more_rejected(self, eps):
        """A floor at or above every probability would make every KL term 0."""
        for view in (lambda: common_kl(PT3, PS3, C01, eps=eps),
                     lambda: chunk_kl(PT3, PS3, eps=eps)):
            with pytest.raises(ValidationError) as info:
                view()
            assert str(info.value) == f"log floor eps must be None or in [0, 1), got {eps}"


class TestCommonKlGrad:
    def test_zero_common_teacher_mass(self):
        # teacher mass entirely on uncommon tokens
        pt = np.array([0.0, 0.0, 1.0])
        z = np.array([0.1, -0.2, 0.3, 0.0])
        c = CommonSet([0, 1], [0, 1])
        grad = logit_grad(gold_kernel(c, 4, 3, COMMON_KL), z, pt)
        np.testing.assert_array_equal(grad[[2, 3]], 0.0)

    def test_uniform_student_example(self):
        # p_s uniform over 4, common teacher mass 0.5: uncommon grad 0.125
        z = np.zeros(4)
        pt = np.array([0.3, 0.2, 0.25, 0.25])
        c = CommonSet([0, 1], [0, 1])
        kernel = gold_kernel(c, 4, 4, COMMON_KL)
        grad = logit_grad(kernel, z, pt)
        assert grad[2] == pytest.approx(0.125, abs=1e-12)
        assert grad[3] == pytest.approx(0.125, abs=1e-12)
        assert max_relative_error(grad, numeric_grad(kernel, z, pt)) < 1e-6

    def test_stationary_at_full_coverage_optimum(self):
        pt = np.array([0.4, 0.35, 0.25])
        c = CommonSet([0, 1, 2], [0, 1, 2])
        grad = logit_grad(gold_kernel(c, 3, 3, COMMON_KL), np.log(pt), pt)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_suppression_identity_suite(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_s = int(rng.integers(2, 13))
            n_t = int(rng.integers(2, 13))
            c = random_bijective_common_set(rng, n_s, n_t)
            z = rng.normal(size=n_s) * 2
            pt = rng.dirichlet(np.ones(n_t))
            kernel = gold_kernel(c, n_s, n_t, COMMON_KL)
            grad = logit_grad(kernel, z, pt)

            ps = softmax(z)
            mass = pt[c.teacher_ids].sum()
            for j in np.setdiff1d(np.arange(n_s), c.student_ids):
                assert abs(grad[j] - ps[j] * mass) < 1e-10
                assert grad[j] >= 0
                if ps[j] > 0 and mass > 0:
                    # a positive-step descent update strictly lowers the logit
                    assert (z[j] - 0.1 * grad[j]) < z[j]
            assert max_relative_error(grad, numeric_grad(kernel, z, pt)) < 1e-6


class TestUld:
    def test_identical_fully_uncommon(self):
        c = CommonSet()
        assert uld(PT3, PT3, c) == 0.0

    def test_hand_arithmetic_with_padding(self):
        ps = np.array([0.2, 0.5, 0.3])  # sorts to (0.5, 0.3, 0.2)
        pt = np.array([0.4, 0.6])       # sorts to (0.6, 0.4), padded with 0
        assert uld(ps, pt, CommonSet()) == pytest.approx(0.4, abs=1e-15)

    def test_empty_uncommon_sets(self):
        c = CommonSet([0, 1, 2], [0, 1, 2])
        assert uld(PS3, PT3, c) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ps = rng.dirichlet(np.ones(6))
            pt = rng.dirichlet(np.ones(5))
            c = CommonSet([0], [0])
            base = uld(ps, pt, c)
            perm_s = np.concatenate([ps[:1], rng.permutation(ps[1:])])
            perm_t = np.concatenate([pt[:1], rng.permutation(pt[1:])])
            assert uld(perm_s, perm_t, c) == pytest.approx(base, abs=1e-15)


class TestUldGrad:
    def test_matches_finite_differences_on_100_instances(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n_s = int(rng.integers(2, 13))
            n_t = int(rng.integers(2, 13))
            c = random_bijective_common_set(rng, n_s, n_t)
            z = rng.normal(size=n_s)
            pt = rng.dirichlet(np.ones(n_t))
            kernel = gold_kernel(c, n_s, n_t, ULD_ONLY)
            assert kernel(pt, softmax(z))[0] == uld(softmax(z), pt, c)
            analytic = logit_grad(kernel, z, pt)
            assert max_relative_error(analytic, numeric_grad(kernel, z, pt)) < 1e-6


class TestChunkKlGrad:
    def test_matches_finite_differences_on_100_instances(self):
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            z = rng.normal(size=n)
            pt = rng.dirichlet(np.ones(n))
            v = Vocabulary(f"s{i}" for i in range(n))
            kernel = loss_kernel("kl", v, v, None, int(rng.integers(1, n + 1)), HybridWeights(),
                                 LOG_EPS)
            analytic = logit_grad(kernel, z, pt)
            assert max_relative_error(analytic, numeric_grad(kernel, z, pt)) < 1e-6


class TestGold:
    def test_composition_hand_arithmetic(self):
        expected = 0.5 * math.log(0.5 / 0.2) + abs(0.5 - 0.2)
        assert gold(PT3, PS3, C01) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.7581, abs=1e-4)

    def test_kl_only_at_optimum(self):
        c = CommonSet([0, 1, 2], [0, 1, 2])
        assert gold(PT3, PT3, c, HybridWeights(lambda_uld=0.0)) == 0.0

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            HybridWeights(lambda_kl=-1.0)


class TestPkl:
    def test_identity_projection_at_optimum(self):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(len(tok.vocabulary)))
        assert pkl(p, p, w) == pytest.approx(0.0, abs=1e-15)

    def test_identity_projection_equals_plain_kl(self):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        rng = np.random.default_rng(2)
        pt = rng.dirichlet(np.ones(len(tok.vocabulary)))
        ps = rng.dirichlet(np.ones(len(tok.vocabulary)))
        plain = float(np.sum(pt * (np.log(pt) - np.log(ps))))
        assert abs(pkl(pt, ps, w) - plain) < 1e-12

    def test_point_mass_toy_instance(self):
        student = make_toy_tokenizer("numeral_preserving")
        teacher = make_toy_tokenizer("digit_splitting")
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        ps = np.zeros(len(student.vocabulary))
        ps[student.vocabulary.id_of["201"]] = 1.0
        pt = np.zeros(len(teacher.vocabulary))
        pt[teacher.vocabulary.id_of["2"]] = 1.0
        expected = -math.log(0.9 / 0.999)  # leading decay weight of a 3-span
        assert pkl(pt, ps, w) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.1044, abs=1e-4)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = random_projection(rng, 6, 5)
            pt = rng.dirichlet(np.ones(5))
            ps = rng.dirichlet(np.ones(6))
            assert pkl(pt, ps, w) >= -1e-12

    def test_zero_iff_match_on_support(self):
        rng = np.random.default_rng(4)
        w = random_projection(rng, 6, 5)
        ps = rng.dirichlet(np.ones(6))
        q = project(w, ps)
        assert pkl(q, ps, w) == pytest.approx(0.0, abs=1e-9)


    @pytest.mark.parametrize("mode", ["kl", "pkl"])
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_below_one_rejected_at_bind_time(self, mode, top_k):
        tok = make_toy_tokenizer("char_level")
        w = build_projection(tok.vocabulary, tok.vocabulary, tok)
        with pytest.raises(ValidationError) as info:
            loss_kernel(mode, tok.vocabulary, tok.vocabulary, w, top_k, HybridWeights(), None)
        assert str(info.value) == f"top_k must be at least 1, got {top_k}"


class TestPklGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_s, n_t = 5, 4
            w = random_projection(rng, n_s, n_t)
            z = rng.normal(size=n_s)
            pt = rng.dirichlet(np.ones(n_t))
            grad_z, grad_w = pkl_grads(z, pt, w)

            numeric_z = central_difference(lambda zz: pkl(pt, softmax(zz), w), z)
            assert max_relative_error(grad_z, numeric_z) < 1e-6

            base = np.array([wt for _, _, wt in w.entries()])
            ps = softmax(z)

            def value(flat):
                return pkl(pt, ps, w.with_weights(flat))

            numeric_w = central_difference(value, base)
            assert max_relative_error(grad_w, numeric_w) < 1e-6

    def test_support_restricted_gradients(self):
        rng = np.random.default_rng(8)
        w = random_projection(rng, 6, 5)
        z = rng.normal(size=6)
        pt_full = rng.dirichlet(np.ones(5))
        support = topk_support(pt_full, 3)
        pt = np.zeros(5)
        pt[support] = pt_full[support] / pt_full[support].sum()

        grad_z, grad_w = pkl_grads(z, pt, w, support=support)
        numeric_z = central_difference(
            lambda zz: pkl(pt, softmax(zz), w, support=support), z)
        assert max_relative_error(grad_z, numeric_z) < 1e-6

        ps = softmax(z)
        base = np.array([wt for _, _, wt in w.entries()])
        numeric_w = central_difference(
            lambda flat: pkl(pt, ps, w.with_weights(flat), support=support), base)
        assert max_relative_error(grad_w, numeric_w) < 1e-6

    def test_unreachable_teacher_mass_gives_zero_w_gradient(self):
        # teacher mass sits where no student mass flows: every stored entry
        # multiplies a zero student probability or a zero dL/dq term
        w = SparseProjection.from_rows(2, [[(0, 1.0)], [(1, 1.0)]],
                                       [Provenance.EXACT, Provenance.EXACT], ProjectionConfig())
        z = np.array([800.0, 0.0])  # student mass entirely on id 0
        pt = np.array([1.0, 0.0])   # teacher mass entirely reachable from id 0
        _, grad_w = pkl_grads(z, pt, w)
        # entry (1, 1) carries no student mass -> zero gradient
        assert grad_w[1] == pytest.approx(0.0, abs=1e-300)


def hkl(pt, ps, w):
    """The ``hkl`` value: ``gold`` over the projection's relaxed common set."""
    return gold(pt, ps, build_common_set_relaxed(w))


class TestHkl:
    def test_exact_only_w_degenerates_to_gold(self):
        tok = make_toy_tokenizer("char_level")
        v = tok.vocabulary
        w = build_projection(v, v, tok)
        rng = np.random.default_rng(9)
        pt = rng.dirichlet(np.ones(len(v)))
        ps = rng.dirichlet(np.ones(len(v)))
        c = build_common_set_exact(v, v)
        assert hkl(pt, ps, w) == gold(pt, ps, c)

    def test_relaxed_pair_adds_direct_kl_signal(self):
        student = make_toy_tokenizer("word_level", ["Hundreds"])
        teacher = make_toy_tokenizer("word_level", ["Hund reds"])
        w = build_projection(student.vocabulary, teacher.vocabulary, teacher)
        s = student.vocabulary.id_of["Hundreds"]
        t = teacher.vocabulary.id_of["Hund"]

        ps = np.full(len(student.vocabulary), 1e-4)
        ps[s] = 1.0 - 1e-4 * (len(student.vocabulary) - 1)
        pt = np.full(len(teacher.vocabulary), 1e-4)
        pt[t] = 1.0 - 1e-4 * (len(teacher.vocabulary) - 1)

        exact = build_common_set_exact(student.vocabulary, teacher.vocabulary)
        relaxed = build_common_set_relaxed(w)
        assert partner_of(relaxed, s) == t
        # the pair moves most of both masses into the common-KL term
        assert hkl(pt, ps, w) != gold(pt, ps, exact)

    def test_four_token_hand_computed_instance(self):
        # V_S = V_T = 4; rows: 0,1,2 exact; 3 multi with top1 -> teacher 3
        w = SparseProjection.from_rows(
            4,
            [[(0, 1.0)], [(1, 1.0)], [(2, 1.0)], [(3, 0.9), (0, 0.09)]],
            [Provenance.EXACT, Provenance.EXACT, Provenance.EXACT, Provenance.MULTI_TOKEN],
            ProjectionConfig(),
        )
        pt = np.array([0.4, 0.3, 0.2, 0.1])
        ps = np.array([0.1, 0.2, 0.3, 0.4])
        # relaxed set pairs every token; uncommon sets are empty
        expected = sum(pt[i] * (math.log(pt[i]) - math.log(ps[i])) for i in range(4))
        assert hkl(pt, ps, w) == pytest.approx(expected, rel=1e-14)


class TestAggregate:
    def test_single_chunk_identity(self):
        assert kd_aggregate([0.7], 1.0) == pytest.approx(0.7)

    def test_temperature_scaling(self):
        assert kd_aggregate([1.0, 2.0, 3.0], 2.0) == pytest.approx(8.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            kd_aggregate([], 1.0)

    @pytest.mark.parametrize("temperature, message", [
        (0, "temperature must be positive, got 0"),
        (math.nan, "temperature must be positive, got nan"),
        (1e160, "temperature must have a positive finite square, got 1e+160"),
        (10**200, f"temperature must have a positive finite square, got {10**200}"),
        (math.inf, "temperature must have a positive finite square, got inf"),
        (1e-300, "temperature must have a positive finite square, got 1e-300"),
    ], ids=["zero", "nan", "square-overflows", "int-square-overflows", "inf",
            "square-underflows"])
    def test_temperature_without_a_positive_finite_square_rejected(self, temperature, message):
        """T² scales the KD term: overflowing it raised ``OverflowError`` and
        rounding it to 0 made the term silently zero."""
        with pytest.raises(ValidationError) as info:
            kd_aggregate([1.0], temperature)
        assert str(info.value) == message

    def test_report_invariant(self):
        report = LossReport(2.0, (1.0, 3.0))
        assert report.aggregate == pytest.approx(8.0)
        # the aggregate is derived from the chunks, never passed in
        with pytest.raises(TypeError):
            LossReport(2.0, (1.0, 3.0), aggregate=7.0)


# The top-m rank order of the ULD subgradient against the full stable-argsort
# reference, bit for bit, on tie-heavy vectors.

TIE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 0.125, 0.25, 0.5)
# logits whose softmax holds ties, exact zeros and subnormals
TIE_LOGITS = (0.0, -0.5, -740.0, -745.0, -800.0)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def tie_vector(rng, size: int, values) -> np.ndarray:
    return rng.choice(np.array(values), size=size)


@st.composite
def uncommon_cases(draw):
    """``(rng, n_s, n_t, k_s, k_t)``: vocabulary sizes up to 300, so above 16,
    where numpy's unstable sorts stop being insertion sorts, and uncommon set
    sizes in every order, empty sets included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_s = draw(st.integers(1, 300))
    n_t = draw(st.one_of(st.just(n_s), st.integers(1, 300)))
    k_s = draw(st.one_of(st.sampled_from((0, n_s)), st.integers(0, n_s)))
    k_t = draw(st.one_of(st.sampled_from((0, n_t, min(k_s, n_t))), st.integers(0, n_t)))
    return rng, n_s, n_t, k_s, k_t


def draw_ids(rng, n: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)


def draw_common_set(rng, n_s: int, n_t: int, k_s: int) -> CommonSet:
    """A bijective common set leaving k_s student ids uncommon, or every
    teacher id common if there are too few of them."""
    width = min(n_s - k_s, n_t)
    s_ids = rng.choice(n_s, size=width, replace=False)
    t_ids = rng.choice(n_t, size=width, replace=False)
    order = np.argsort(s_ids)
    return CommonSet(s_ids[order], t_ids[order])


def assert_rank_l1_matches_reference(pt, ps, u_s, u_t):
    for grads in (False, True):
        got = _rank_l1(pt, ps, u_s, u_t, grads)
        want = reference_rank_l1(pt, ps, u_s, u_t, grads)
        assert bits(got[0]) == bits(want[0])
        assert (got[1] is None and want[1] is None) or bits(got[1]) == bits(want[1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TIE_VALUES + (-0.5, -5e-324, 1.0)), max_size=400))
def test_stable_order_matches_stable_argsort(values):
    v = np.array(values, dtype=float)
    assert np.array_equal(_stable_order(v), np.argsort(v, kind="stable"))


def test_stable_order_without_ties():
    v = np.random.default_rng(3).normal(size=5000)
    assert np.array_equal(_stable_order(v), np.argsort(v, kind="stable"))


@settings(max_examples=300, deadline=None)
@given(uncommon_cases())
def test_rank_l1_matches_full_sort_reference(case):
    rng, n_s, n_t, k_s, k_t = case
    ps, pt = tie_vector(rng, n_s, TIE_VALUES), tie_vector(rng, n_t, TIE_VALUES)
    assert_rank_l1_matches_reference(pt, ps, draw_ids(rng, n_s, k_s), draw_ids(rng, n_t, k_t))


@settings(max_examples=200, deadline=None)
@given(uncommon_cases())
def test_uld_views_match_full_sort_reference(case):
    rng, n_s, n_t, k_s, _ = case
    c = draw_common_set(rng, n_s, n_t, k_s)
    z = tie_vector(rng, n_s, TIE_LOGITS)
    p_s, p_t = softmax(z), tie_vector(rng, n_t, TIE_VALUES)
    hw = HybridWeights(0.5, 2.0)
    uld_kernel = gold_kernel(c, n_s, n_t, ULD_ONLY)
    got = (uld(p_s, p_t, c), logit_grad(uld_kernel, z, p_t), gold_grad(z, p_t, c, hw))
    with mock.patch.object(losses, "_rank_l1", reference_rank_l1):
        want = (uld(p_s, p_t, c), logit_grad(uld_kernel, z, p_t), gold_grad(z, p_t, c, hw))
    assert [bits(x) for x in got] == [bits(x) for x in want]


@pytest.mark.parametrize("k_s, k_t", [(40, 90), (60, 60), (90, 40), (0, 50), (50, 0), (0, 0)],
                         ids=["fewer-student", "equal", "more-student", "no-student",
                              "no-teacher", "neither"])
def test_rank_l1_set_sizes_match_reference(k_s, k_t):
    rng = np.random.default_rng(k_s * 100 + k_t)
    ps, pt = tie_vector(rng, 100, TIE_VALUES), tie_vector(rng, 100, TIE_VALUES)
    assert_rank_l1_matches_reference(pt, ps, draw_ids(rng, 100, k_s), draw_ids(rng, 100, k_t))


def test_logit_gradient_bytes_do_not_depend_on_blas_threads():
    """OpenBLAS splits a long dot product across its threads, which changes
    its rounding; a 32k-entry kernel gradient must come out with the same
    bytes under one BLAS thread and under two."""
    script = ("import hashlib\n"
              "import numpy as np\n"
              "from crosstok.chunks import softmax\n"
              "from crosstok.losses import LOG_EPS, HybridWeights, loss_kernel\n"
              "from crosstok.vocab import Vocabulary\n"
              "v = Vocabulary(f's{i}' for i in range(32768))\n"
              "kernel = loss_kernel('kl', v, v, None, 32768, HybridWeights(), LOG_EPS)\n"
              "rng = np.random.default_rng(0)\n"
              "z, pt = rng.normal(size=32768) * 3, rng.dirichlet(np.ones(32768))\n"
              "grad = kernel(pt, softmax(z), np.empty(32768))[1]\n"
              "print(hashlib.sha256(grad.tobytes()).hexdigest())\n")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        digests.add(proc.stdout)
    assert len(digests) == 1, digests
