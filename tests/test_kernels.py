"""Pins the per-mode loss kernels that ``run_step`` dispatches to.

``TestPinnedStep`` holds per-chunk values and gradient probes recorded from
the earlier separate value/gradient functions on a fixed-seed step with a
truncated top-k support; the kernels must reproduce them to 1e-12.
``test_kernel_gradients_match_finite_differences`` checks every mode's kernel
against central differences of its own value, and
``test_loss_kernel_rejects_inputs_its_mode_cannot_use`` pins the input rules
``loss_kernel`` checks before binding.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crosstok.chunks import PositionLogits, softmax
from crosstok.errors import ValidationError
from crosstok.losses import (
    MODES,
    CommonSet,
    HybridWeights,
    build_common_set_exact,
    build_common_set_relaxed,
    loss_kernel,
)
from crosstok.numdiff import central_difference, max_relative_error
from crosstok.projection import SparseProjection, build_projection
from crosstok.training import TeacherConfig, run_step
from crosstok.vocab import Vocabulary, make_toy_tokenizer

from test_losses import random_projection

PIN_TEXT = "x=201+35*7; y=4096"
PIN_MODES = ("kl", "pkl", "hkl", "gold", "uld")
PIN_TOP_K = 16  # below both |V_s| = 1228 and |V_t| = 128

PINNED_PER_CHUNK = {
    "kl": (3.405239093249591, 5.041847358865403, 0.8513486028403348, 1.4012514102186517,
           2.9079428774774323, 0.6933055019758702, 1.3009352021716958, 2.3388742572115975,
           1.9421399225647467, 2.9183097779498084, 1.101416297821185, 2.1382942007794714,
           1.3186500219517434),
    "pkl": (5.649772800149249, 3.9207047943075963, 5.315004740130044, 1.1123722669335416,
            1.404945819836374, 2.519876978445228, 3.400491429145113, 4.242133283914795,
            1.1196266634228036, 4.8717608795633485, 4.85773392161427, 3.6901364816382127,
            3.194779997874676),
    "hkl": (6.629155795798438, 7.082279380646861, 6.023359173604951, 6.200321501841806,
            6.757817891643088, 7.745418471269288, 5.924941546443706, 6.376608413359754,
            6.232655834536865, 5.027877179553933, 6.835210100870657, 7.03987659533353,
            6.744919692781829),
    "gold": (8.063551599066146, 7.978353463359249, 6.129162348938085, 6.474587410809689,
             9.27527796538624, 6.297612393881747, 6.094003064517232, 7.634703455605814,
             6.2869395878121574, 6.717957738673725, 6.564246948674488, 5.7710642260548894,
             6.391144843576066),
    "uld": (0.8162519268754225, 0.8899412795548237, 0.764665418645394, 0.8127115722999367,
            0.8808750020613537, 0.7735808954955643, 0.681324023731064, 0.6851167878693031,
            0.730244641720515, 1.0993047902504844, 0.6729055647646464, 0.896701210212635,
            0.771026087947783),
}
# sum over chunks k of grad_k . cos(arange + k): a fixed linear probe of the
# scaled chunk-logit gradients, and of the projection-entry gradient for pkl
PINNED_GRAD_PROBE = {
    "kl": -0.07964179223837173,
    "pkl": -0.0100009482987981,
    "hkl": 0.005180474479865786,
    "gold": -0.030817926768779737,
    "uld": -0.018586245473139373,
}
PINNED_W_PROBE = 0.046108283929681276


def pinned_step(compute_grads):
    rng = np.random.default_rng(20261017)
    tok_s = make_toy_tokenizer("numeral_preserving")
    tok_t = make_toy_tokenizer("digit_splitting")
    vs, vt = tok_s.vocabulary, tok_t.vocabulary
    w = build_projection(vs, vt, tok_t)
    s_ids, t_ids = tok_s.encode(PIN_TEXT), tok_t.encode(PIN_TEXT)
    student = PositionLogits("pin", "student", 2.0 * rng.normal(size=(len(s_ids), len(vs))),
                             s_ids)
    teachers = []
    for mode in PIN_MODES:
        vocab, ids = (vs, s_ids) if mode == "kl" else (vt, t_ids)
        logits = PositionLogits(f"pin.{mode}", "teacher",
                                2.0 * rng.normal(size=(len(ids), len(vocab))), ids)
        teachers.append(TeacherConfig(mode, mode, vocab, logits,
                                      projection=w if mode in ("pkl", "hkl") else None,
                                      weight=0.2))
    return run_step(vs, student, teachers, top_k=PIN_TOP_K, compute_grads=compute_grads)


def probe(grads):
    return sum(float(g @ np.cos(np.arange(g.size) + k)) for k, g in enumerate(grads))


class TestPinnedStep:
    @pytest.mark.parametrize("compute_grads", [False, True])
    def test_per_chunk_values(self, compute_grads):
        report = pinned_step(compute_grads)
        assert [t.mode for t in report.teachers] == list(PIN_MODES)
        for t in report.teachers:
            np.testing.assert_allclose(t.report.per_chunk, PINNED_PER_CHUNK[t.mode],
                                       rtol=1e-12, atol=0, err_msg=t.mode)

    def test_gradients(self):
        report = pinned_step(True)
        for t in report.teachers:
            assert probe(t.report.grad_chunk_logits) == pytest.approx(
                PINNED_GRAD_PROBE[t.mode], rel=1e-12), t.mode
            assert (t.report.grad_projection is None) == (t.mode != "pkl")
        g_w = report.teachers[1].report.grad_projection
        assert float(g_w @ np.cos(np.arange(g_w.size))) == pytest.approx(PINNED_W_PROBE,
                                                                         rel=1e-12)


TOKEN_POOL = ("a", "b", "c", "d", "e", "ab", "bc", "cd", "abc", "bcd")
RANK_GAP = 1e-5  # well above what a 1e-6 logit step moves a probability


def uld_far_from_ties(ps, pt, c):
    """No two uncommon student probabilities, and no student entry and its
    rank partner, lie within RANK_GAP of each other."""
    s_sorted = np.sort(np.delete(ps, c.student_ids))[::-1]
    t_sorted = np.sort(np.delete(pt, c.teacher_ids))[::-1]
    partners = np.zeros(s_sorted.size)
    width = min(s_sorted.size, t_sorted.size)
    partners[:width] = t_sorted[:width]
    return (np.all(-np.diff(s_sorted) > RANK_GAP)
            and np.all(np.abs(s_sorted - partners) > RANK_GAP))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES), truncate=st.booleans())
def test_kernel_gradients_match_finite_differences(seed, mode, truncate):
    rng = np.random.default_rng(seed)
    n_s = int(rng.integers(3, 8))
    n_t = n_s if mode == "kl" else int(rng.integers(3, 8))
    vs = Vocabulary(rng.choice(TOKEN_POOL, n_s, replace=False).tolist())
    vt = vs if mode == "kl" else Vocabulary(rng.choice(TOKEN_POOL, n_t, replace=False).tolist())
    w = random_projection(rng, n_s, n_t)
    top_k = n_t - 2 if truncate else n_t
    hw = HybridWeights(*rng.uniform(0.2, 2.0, size=2))
    z = rng.normal(size=n_s)
    pt = rng.dirichlet(np.ones(n_t))
    ps = softmax(z)
    common = {"gold": build_common_set_exact(vs, vt), "hkl": build_common_set_relaxed(w),
              "uld": CommonSet()}.get(mode)
    if common is not None:
        assume(uld_far_from_ties(ps, pt, common))

    def value(proj, p_s):
        return loss_kernel(mode, vs, vt, proj, top_k, hw)(pt, p_s)[0]

    got, grad_z, grad_w = loss_kernel(mode, vs, vt, w, top_k, hw)(pt, ps, np.empty(n_s))
    assert got == value(w, ps)
    numeric_z = central_difference(lambda zz: value(w, softmax(zz)), z)
    assert max_relative_error(grad_z, numeric_z) < 1e-6
    if mode != "pkl":
        assert grad_w is None
        return
    counts, codes, ids, base = w.body
    # differences in log-weight: every stencil point stays a valid (positive)
    # projection, and the step shrinks with the weight it moves
    numeric_w = central_difference(lambda u: value(SparseProjection(
        n_s, n_t, counts, ids, base * np.exp(u), codes, w.config), ps), np.zeros_like(base))
    assert max_relative_error(base * grad_w, numeric_w) < 1e-6


@pytest.mark.parametrize("mode, teacher_vocab, projection, message", [
    ("bogus", "other", "fits", "mode must be one of ('pkl', 'hkl', 'gold', 'uld', 'kl'), "
                               "got 'bogus'"),
    ("kl", "other", None, "KL mode requires the student's vocabulary"),
    ("pkl", "other", None, "mode pkl needs a projection"),
    ("hkl", "other", None, "mode hkl needs a projection"),
    ("pkl", "other", "transposed", "projection shape does not match the vocabularies"),
    ("hkl", "other", "transposed", "projection shape does not match the vocabularies"),
    ("pkl", "student", "fits", "projection shape does not match the vocabularies"),
], ids=["unknown-mode", "kl-vocabulary", "pkl-no-projection", "hkl-no-projection",
        "pkl-transposed", "hkl-transposed", "pkl-student-vocabulary"])
def test_loss_kernel_rejects_inputs_its_mode_cannot_use(mode, teacher_vocab, projection,
                                                        message):
    rng = np.random.default_rng(0)
    vs = Vocabulary(["a", "b", "c", "ab"])
    vt = vs if teacher_vocab == "student" else Vocabulary(["a", "b", "c"])
    w = {"fits": random_projection(rng, 4, 3), "transposed": random_projection(rng, 3, 4),
         None: None}[projection]
    with pytest.raises(ValidationError) as info:
        loss_kernel(mode, vs, vt, w, 8, HybridWeights())
    assert str(info.value) == message
