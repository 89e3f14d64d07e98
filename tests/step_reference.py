"""Teacher-major reference for ``crosstok.training.run_step``.

The step loop and loss kernels that the row-major pass replaced, kept as the
slow reference it is property-tested against byte for byte: each teacher
walks its own loss chunks, merges (and softmaxes) the student span again for
every teacher, binds its kernel on every step, and returns a fresh gradient
vector per chunk that the end of the step scales one by one. The pieces the
row-major pass did not change (alignment, top-k, renormalization, common-set
builders, cross-entropy, weights, scaling) come from the library.
"""

from __future__ import annotations

import numpy as np

from crosstok.align import AlignmentCache, AlignScoring
from crosstok.chunks import renormalize_on, topk_support
from crosstok.errors import DegenerateDistributionError, ValidationError, located
from crosstok.losses import (
    LOG_EPS,
    CommonSet,
    HybridWeights,
    LossReport,
    _stable_order,
    build_common_set_exact,
    build_common_set_relaxed,
)
from crosstok.training import (
    _KD_FLOOR,
    ScalingPolicy,
    StepReport,
    TeacherBreakdown,
    _chunk_stats,
    adaptive_weights,
    combine_kd_ce,
    cross_entropy,
    cross_entropy_grad,
)
from crosstok.vocab import Tokenizer


def softmax(logits, temperature=1.0):
    z = np.divide(logits, temperature, dtype=float)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def chain_rule_merge(pl, chunk, temperature):
    lo, hi = chunk.span(pl.side)
    if not 0 <= lo < hi <= pl.positions:
        raise ValidationError(
            f"span [{lo}, {hi}) outside the {pl.positions}-position {pl.side} dump")
    probs = softmax(pl.logits[lo:hi], temperature)
    merged = probs[0]
    if hi - lo == 1:
        return merged
    realized = pl.realized_ids[lo:hi]
    merged[realized[0]] = np.prod(probs[np.arange(hi - lo), realized])
    mass = merged.sum()
    if mass == 0:
        raise DegenerateDistributionError(
            f"{pl.side} chunk [{lo}, {hi}) of sequence {pl.seq_id!r}: the merged "
            "distribution has no mass (the realized span's probability underflows)")
    merged /= mass
    return merged


def _kl_sum(pt, q, eps):
    live = pt > 0
    pt, q = pt[live], q[live]
    if not eps and np.any(q == 0):
        raise ValidationError("student probability is zero where the teacher has mass "
                              "(log of zero); configure a log floor")
    floor = eps or 0.0
    return float(np.sum(pt * (np.log(np.maximum(pt, floor)) - np.log(np.maximum(q, floor)))))


def _logit_grad(ps, grad_p):
    return ps * (grad_p - float(np.einsum("i,i->", ps, grad_p)))


def _support_kl(pt, ps, w, support, eps, grads):
    support = slice(None) if support is None else np.asarray(support, dtype=np.intp)
    q_raw = ps if w is None else np.bincount(w._flat_t, weights=w._flat_w * ps[w._flat_s],
                                             minlength=w.n_teacher)
    pt_sup, _ = renormalize_on(pt, support, "teacher")
    q_sup, mass = renormalize_on(q_raw, support, "student" if w is None else "projected student")
    value = _kl_sum(pt_sup, q_sup, eps)
    if not grads:
        return value, None, None
    raw = q_raw[support]
    active = (pt_sup > 0) & (raw > (eps or 0.0) * mass)
    ratio = np.zeros(raw.size)
    np.divide(pt_sup, raw, out=ratio, where=active)
    d_q = np.zeros(q_raw.size)
    d_q[support] = pt_sup[active].sum() / mass - ratio
    if w is None:
        return value, _logit_grad(ps, d_q), None
    pulled = np.bincount(w._flat_s, weights=w._flat_w * d_q[w._flat_t], minlength=w.n_student)
    return value, _logit_grad(ps, pulled), ps[w._flat_s] * d_q[w._flat_t]


def _common_kl(pt, ps, c, eps, grads):
    pt_c = pt[c.teacher_ids]
    value = _kl_sum(pt_c, ps[c.student_ids], eps)
    if not grads:
        return value, None
    grad = ps * float(pt_c.sum())
    grad[c.student_ids] -= pt_c
    return value, grad


def _rank_l1(pt, ps, u_s, u_t, grads):
    s_vals = ps[u_s]
    s_sorted = np.sort(s_vals)[::-1]
    t_sorted = np.sort(pt[u_t])[::-1]
    diff = np.zeros(max(s_sorted.size, t_sorted.size))
    diff[: s_sorted.size] = s_sorted
    diff[: t_sorted.size] -= t_sorted
    value = float(np.abs(diff).sum())
    if not grads:
        return value, None
    m = min(s_sorted.size, t_sorted.size)
    grad_p = np.zeros(ps.size)
    grad_p[u_s] = np.sign(s_vals)
    if m:
        top = topk_support(s_vals, m)
        ranked = top[_stable_order(-s_vals[top])]
        grad_p[u_s[ranked]] = np.sign(s_vals[ranked] - t_sorted[:m])
    return value, _logit_grad(ps, grad_p)


def _hybrid(pt, ps, c, uncommon, hw, eps, grads):
    kl, kl_grad = _common_kl(pt, ps, c, eps, grads)
    l1, l1_grad = _rank_l1(pt, ps, *uncommon, grads)
    value = hw.lambda_kl * kl + hw.lambda_uld * l1
    if not grads:
        return value, None, None
    return value, hw.lambda_kl * kl_grad + hw.lambda_uld * l1_grad, None


def loss_kernel(mode, vs, vt, w, top_k, hw, eps):
    """The per-step binding: common sets are rebuilt on every call."""
    if mode in ("kl", "pkl"):
        proj = w if mode == "pkl" else None
        return lambda pt, ps, grads: _support_kl(
            pt, ps, proj, topk_support(pt, top_k) if top_k < pt.size else None, eps, grads)
    if mode == "hkl":
        c = build_common_set_relaxed(w)
    elif mode == "gold":
        c = build_common_set_exact(vs, vt)
    else:
        c, hw = CommonSet(), HybridWeights()
    uncommon = (np.setdiff1d(np.arange(len(vs)), c.student_ids),
                np.setdiff1d(np.arange(len(vt)), c.teacher_ids))
    return lambda pt, ps, grads: _hybrid(pt, ps, c, uncommon, hw, eps, grads)


def reference_run_step(student_vocab, student_logits, teachers,
                       policy=ScalingPolicy(), schedule="static", temperature=1.0,
                       scoring=AlignScoring(), top_k=8192, hybrid=HybridWeights(),
                       cache=None, compute_grads=False, eps=LOG_EPS) -> StepReport:
    """``run_step`` for valid inputs, teacher by teacher."""
    kernels = []
    for teacher in teachers:
        with located(f"teacher {teacher.name!r}"):
            kernels.append(loss_kernel(teacher.mode, student_vocab, teacher.vocab,
                                       teacher.projection, top_k, hybrid, eps))
    if schedule == "static":
        alphas = np.asarray([t.weight for t in teachers], dtype=float)
    else:
        alphas = adaptive_weights(schedule, [t.logits for t in teachers])

    tok_s = Tokenizer(student_vocab)
    cache = cache if cache is not None else AlignmentCache()
    s_seq = student_logits.realized_ids.tolist()
    breakdowns = []
    for alpha, teacher, kernel in zip(alphas, teachers, kernels):
        alignment = cache.get_or_compute(s_seq, teacher.logits.realized_ids.tolist(), scoring,
                                         tok_s, Tokenizer(teacher.vocab))
        per_chunk, grads_z, grad_w_total = [], [], None
        for chunk in alignment.loss_chunks():
            p_s = chain_rule_merge(student_logits, chunk, temperature)
            p_t = chain_rule_merge(teacher.logits, chunk, temperature)
            value, g_z, g_w = kernel(p_t, p_s, compute_grads)
            per_chunk.append(value)
            if compute_grads:
                grads_z.append(g_z)
            if g_w is not None:
                grad_w_total = g_w if grad_w_total is None else grad_w_total + g_w
        report = LossReport(temperature, tuple(per_chunk),
                            grad_chunk_logits=tuple(grads_z) or None,
                            grad_projection=grad_w_total)
        breakdowns.append(TeacherBreakdown(teacher.name, teacher.mode, float(alpha), report,
                                           _chunk_stats(alignment)))

    l_kd = float(sum(b.alpha * b.report.aggregate for b in breakdowns))
    l_ce, ce_grad = (cross_entropy_grad(student_logits) if compute_grads
                     else (cross_entropy(student_logits), None))
    if policy.kind == "dynamic" and abs(l_kd) <= _KD_FLOOR:
        total, multiplier = l_ce, 0.0
    else:
        total, multiplier = combine_kd_ce(l_kd, l_ce, policy)
    if compute_grads:
        if policy.kind == "fixed":
            ce_grad *= policy.lambda_ce
        for breakdown in breakdowns:
            report = breakdown.report
            scale = multiplier * breakdown.alpha * temperature ** 2 / len(report.per_chunk)
            for g in report.grad_chunk_logits:
                g *= scale
            if report.grad_projection is not None:
                report.grad_projection *= scale
    return StepReport(temperature=temperature, ce=l_ce, kd=l_kd, total=total,
                      kd_multiplier=multiplier, teachers=breakdowns, ce_grad=ce_grad)
