"""Chunk-level distillation losses across mismatched vocabularies.

Five modes: ``kl`` (plain KL over one shared vocabulary), ``uld`` (rank-sorted
L1 over uncommon tokens), ``gold`` (KL over a bijective common set plus ULD on
the remainder), ``pkl`` (project the whole student distribution into teacher
space, then KL), and ``hkl`` (the hybrid loss over a common set relaxed with
each student token's top-ranked projection partner).

Every mode runs on one of two kernels that map a chunk's merged teacher and
student probabilities to ``(value, grad_z, grad_w)`` in one pass: a
support-renormalized KL (``kl``, and ``pkl`` through the projection) and the
hybrid loss (``gold``, ``hkl``, and ``uld`` as the hybrid over the empty
common set). ``loss_kernel`` checks a teacher's mode against its inputs and
binds it to its kernel; ``training.run_step`` and ``training.gradient_check``
(families ``pkl_logits``, ``pkl_entries``, ``hkl``, ``gold``, ``uld`` and ``kl``)
reach the kernels only through it. The six value and gradient views (``pkl``,
``pkl_grads``, ``gold``, ``gold_grad``, ``chunk_kl`` and ``uld``) stay for the
benchmark's span tracer, which wraps them by name.

Logs are floored at a configurable ``eps`` (log(max(x, eps))), which prevents
NaNs on truncated supports without touching any returned distribution; pass
``eps=None`` (or 0) to make a zero probability on a live pair an error instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chunks import renormalize_on, softmax, topk_support
from .errors import ValidationError
from .projection import SparseProjection
from .vocab import Vocabulary, exact_partners, vocabulary_hash

LOG_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class CommonSet:
    """Student/teacher token pairs treated as equivalent: ``student_ids[i]``
    pairs with ``teacher_ids[i]``.

    Both fields become read-only ``intp`` arrays in the order given; the ids
    must be non-negative integers in two 1-D sequences of equal length, each
    without repeats.
    """

    student_ids: np.ndarray = ()
    teacher_ids: np.ndarray = ()

    def __post_init__(self) -> None:
        for name, repeated in (("student_ids", "a student id appears in more than one pair"),
                               ("teacher_ids", "bijective common set reuses a teacher id")):
            try:
                ids = np.asarray(getattr(self, name))
            except ValueError:  # ragged
                ids = np.empty((0, 0))
            if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
                raise ValidationError(f"common-set {name} must be a 1-D sequence of integers")
            ids = ids.astype(np.intp)
            ordered = np.sort(ids)  # np.unique took about 25x longer on 92k ids (numpy 2.4)
            if (ordered[:1] < 0).any():
                raise ValidationError(f"common-set {name} holds an id outside [0, "
                                      f"{np.iinfo(np.intp).max}]")
            if (ordered[1:] == ordered[:-1]).any():
                raise ValidationError(repeated)
            ids.flags.writeable = False
            object.__setattr__(self, name, ids)
        if self.student_ids.size != self.teacher_ids.size:
            raise ValidationError(f"common set has {self.student_ids.size} student ids and "
                                  f"{self.teacher_ids.size} teacher ids")


@dataclass(frozen=True)
class HybridWeights:
    lambda_kl: float = 1.0
    lambda_uld: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lambda_kl >= 0 and self.lambda_uld >= 0):
            raise ValidationError("hybrid loss weights must be non-negative, got "
                                  f"lambda_kl={self.lambda_kl}, lambda_uld={self.lambda_uld}")


def _first_per_teacher(s: np.ndarray, t: np.ndarray) -> CommonSet:
    """The bijective common set that keeps each teacher id's first candidate
    pair ``(s[i], t[i])`` (student ids distinct); later ones stay uncommon."""
    first = np.unique(t, return_index=True)[1]
    keep = first[np.argsort(s[first])]
    return CommonSet(s[keep], t[keep])


def build_common_set_exact(vs: Vocabulary, vt: Vocabulary) -> CommonSet:
    """The ``exact_partners`` pairs, bijective by construction.

    A teacher id claimed by several student ids keeps the smallest one.
    """
    partner = exact_partners(vs, vt)
    s = np.flatnonzero(partner >= 0)
    return _first_per_teacher(s, partner[s])


def build_common_set_relaxed(w: SparseProjection) -> CommonSet:
    """Extend the common set with each student token's top-ranked partner.

    Conflicts on a teacher token are resolved in favor of exact provenance,
    then the higher weight, then the smaller student id; losing student
    tokens stay uncommon, keeping the result bijective.
    """
    s, t, weight, exact = w._first_entries()
    ranked = np.lexsort((s, -weight, ~exact))
    return _first_per_teacher(s[ranked], t[ranked])


def check_eps(eps: float | None) -> None:
    """Reject a log floor outside [0, 1)."""
    if eps is not None and not 0 <= eps < 1:  # a floor of 1 or more zeroes every KL term
        raise ValidationError(f"log floor eps must be None or in [0, 1), got {eps}")


def _kl_sum(pt: np.ndarray, q: np.ndarray, eps: float | None) -> float:
    """Log-floored KL sum over the entries where the teacher has mass."""
    check_eps(eps)
    live = pt > 0
    if not live.all():
        pt, q = pt[live], q[live]
    if not eps and np.any(q == 0):
        raise ValidationError(
            "student probability is zero where the teacher has mass (log of zero); "
            "configure a log floor"
        )
    floor = eps or 0.0
    return float(np.sum(pt * (np.log(np.maximum(pt, floor)) - np.log(np.maximum(q, floor)))))


def _logit_grad(ps: np.ndarray, grad_p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Chain a gradient in the chunk probabilities through the softmax,
    written into ``out`` when given (``out`` may be ``grad_p``). The dot
    product is an ``einsum``, not BLAS, so its bits do not depend on the
    BLAS thread count."""
    out = np.subtract(grad_p, float(np.einsum("i,i->", ps, grad_p)), out=out)
    out *= ps
    return out


def _support_kl(pt, ps, w: SparseProjection | None, support, eps: float | None,
                out: np.ndarray | None):
    """KL from the teacher to the student, both renormalized on ``support``.

    With a projection ``w`` the student is first pushed into teacher space.
    Given a row ``out``, the logit gradient is written there: it
    differentiates through the product and the renormalization; entries where
    the log floor is active are treated as flat.
    """
    support = slice(None) if support is None else np.asarray(support, dtype=np.intp)
    q_raw = ps if w is None else w.product(ps)
    pt_sup, _ = renormalize_on(pt, support, "teacher")
    q_sup, mass = renormalize_on(q_raw, support, "student" if w is None else "projected student")
    value = _kl_sum(pt_sup, q_sup, eps)
    if out is None:
        return value, None, None

    # dL/dq_raw on the support: -p_t/q_raw where unfloored, plus the
    # renormalization term shared by the whole support
    raw = q_raw[support]
    active = (pt_sup > 0) & (raw > (eps or 0.0) * mass)
    ratio = np.zeros(raw.size)
    np.divide(pt_sup, raw, out=ratio, where=active)
    d_q = np.zeros(q_raw.size)
    d_q[support] = pt_sup[active].sum() / mass - ratio
    if w is None:
        return value, _logit_grad(ps, d_q, out), None
    grad_s, grad_w = w.pullback(ps, d_q)
    return value, _logit_grad(ps, grad_s, out), grad_w


def _common_kl(pt, ps, c: CommonSet, eps: float | None, out: np.ndarray | None):
    """Partial KL over the common pairs, with no renormalization on either side.

    In the logits (written into ``out`` when given), every uncommon entry j
    gets p_s[j] times the teacher mass on the common set, which is
    non-negative; common entries get the same term minus their partner's
    teacher probability.
    """
    pt_c = pt[c.teacher_ids]
    value = _kl_sum(pt_c, ps[c.student_ids], eps)
    if out is None:
        return value, None
    grad = np.multiply(ps, float(pt_c.sum()), out=out)
    # the ids are distinct, so this equals grad[ids] -= pt_c, which gathers,
    # subtracts and scatters through a temporary: 39 against 82 us for 20k of
    # 32k entries (numpy 2.4.6, 2-core x86-64)
    np.subtract.at(grad, c.student_ids, pt_c)
    return value, grad


def _uncommon(c: CommonSet, n_student: int, n_teacher: int) -> tuple[np.ndarray, np.ndarray]:
    """The student and the teacher ids outside the common set."""
    s_mask, t_mask = np.ones(n_student, dtype=bool), np.ones(n_teacher, dtype=bool)
    s_mask[c.student_ids] = t_mask[c.teacher_ids] = False
    return np.flatnonzero(s_mask), np.flatnonzero(t_mask)


def _stable_order(v: np.ndarray) -> np.ndarray:
    """``np.argsort(v, kind="stable")`` from an unstable sort.

    When equal neighbours exist, one sort of the int64 key
    ``tie group * n + index`` puts each tie group back in index order.
    """
    order = np.argsort(v)
    v_sorted = v[order]
    starts = v_sorted[1:] != v_sorted[:-1]
    if starts.all():
        return order
    group = np.concatenate(([0], np.cumsum(starts)))
    return np.sort(group * v.size + order) % v.size


def _rank_l1(pt, ps, u_s: np.ndarray, u_t: np.ndarray, grads: bool):
    """Rank-sorted L1 distance between the restrictions to the uncommon ids.

    Restrictions are not renormalized; the shorter sorted vector is
    zero-padded. The rank pairing is locally a fixed permutation, so each
    uncommon student entry gets the sign of its difference with its rank
    partner; sorting ties make this a subgradient. Ranks follow the stable
    order (equal student values rank by the smaller id). Past rank
    ``m = min(|u_s|, |u_t|)`` every partner is padding, so only the top m
    student entries are sorted.
    """
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
    return value, _logit_grad(ps, grad_p, grad_p)


def _hybrid(pt, ps, c: CommonSet, uncommon, hw: HybridWeights, eps: float | None,
            out: np.ndarray | None):
    """Weighted common-KL plus weighted rank-sorted L1 (``uncommon`` from
    ``_uncommon``); the logit gradient is assembled in ``out`` when given."""
    kl, kl_grad = _common_kl(pt, ps, c, eps, out)
    l1, l1_grad = _rank_l1(pt, ps, *uncommon, out is not None)
    value = hw.lambda_kl * kl + hw.lambda_uld * l1
    try:
        if not math.isfinite(value):
            raise FloatingPointError
        if out is not None:
            with np.errstate(over="raise"):
                if hw.lambda_kl != 1:  # a weight of 1 multiplies exactly
                    kl_grad *= hw.lambda_kl
                if hw.lambda_uld != 1:
                    l1_grad *= hw.lambda_uld
                kl_grad += l1_grad
    except FloatingPointError:
        raise ValidationError(f"hybrid chunk loss or gradient is not finite: lambda_kl="
                              f"{hw.lambda_kl!r} x KL {kl!r} + lambda_uld={hw.lambda_uld!r} x "
                              f"L1 {l1!r}") from None
    return value, kl_grad, None


MODES = ("pkl", "hkl", "gold", "uld", "kl")


def _bound_set(memo: dict, key, build, vs: Vocabulary, vt: Vocabulary):
    """``(c, uncommon)`` for the common set ``build()`` returns, kept in ``memo``."""
    if key not in memo:
        c = build()
        memo[key] = c, _uncommon(c, len(vs), len(vt))
    return memo[key]


def loss_kernel(mode: str, vs: Vocabulary, vt: Vocabulary, w: SparseProjection | None,
                top_k: int, hw: HybridWeights, eps: float | None):
    """Check one teacher's mode against its inputs and bind it to its kernel.

    ``kl`` needs the student's vocabulary on the teacher side; ``pkl`` and
    ``hkl`` need a projection shaped by both vocabularies. ``kl`` and ``pkl``
    compare on the teacher's top-k support, ``top_k`` at least 1; ``hkl``,
    ``gold`` and ``uld`` run the hybrid loss over the relaxed, exact and empty
    common set (``uld`` at default weights). The exact set is built once per
    vocabulary pair (kept on the student vocabulary under the teacher's
    ``vocabulary_hash``), the relaxed one once per projection.
    The result is the kernel: it maps ``(p_t, p_s, out=None)``, one chunk's
    merged teacher and student probability vectors, to ``(value, grad_z,
    grad_w)``. Given a float64 row ``out``, ``grad_z`` is the gradient in the
    chunk logits, written there, and ``grad_w`` the one in the projection
    entries (``pkl`` only); without ``out`` both are None.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "kl" and vt != vs:
        raise ValidationError("KL mode requires the student's vocabulary")
    if mode in ("pkl", "hkl"):
        if w is None:
            raise ValidationError(f"mode {mode} needs a projection")
        if w.n_student != len(vs) or w.n_teacher != len(vt):
            raise ValidationError("projection shape does not match the vocabularies")
    if mode in ("kl", "pkl"):
        if not top_k >= 1:
            raise ValidationError(f"top_k must be at least 1, got {top_k}")
        proj = w if mode == "pkl" else None
        return lambda pt, ps, out=None: _support_kl(
            pt, ps, proj, topk_support(pt, top_k) if top_k < pt.size else None, eps, out)
    if mode == "hkl":
        c, uncommon = _bound_set(w._memo, "relaxed", lambda: build_common_set_relaxed(w), vs, vt)
    elif mode == "gold":
        c, uncommon = _bound_set(vs._memo, ("exact", vocabulary_hash(vt)),
                                 lambda: build_common_set_exact(vs, vt), vs, vt)
    else:
        c, hw = CommonSet(), HybridWeights()
        uncommon = _uncommon(c, len(vs), len(vt))
    return lambda pt, ps, out=None: _hybrid(pt, ps, c, uncommon, hw, eps, out)


def uld(p_s, p_t, c: CommonSet) -> float:
    """Rank-sorted L1 distance between the uncommon restrictions."""
    return _rank_l1(p_t, p_s, *_uncommon(c, p_s.size, p_t.size), False)[0]


def gold(p_t, p_s, c: CommonSet, hw: HybridWeights = HybridWeights(),
         eps: float | None = LOG_EPS) -> float:
    """Hybrid loss: weighted common-KL plus weighted ULD."""
    return _hybrid(p_t, p_s, c, _uncommon(c, p_s.size, p_t.size), hw, eps, None)[0]


def gold_grad(z_s, p_t, c: CommonSet, hw: HybridWeights = HybridWeights()) -> np.ndarray:
    """Subgradient of ``gold`` in the student chunk logits."""
    p_s = softmax(z_s)
    return _hybrid(p_t, p_s, c, _uncommon(c, p_s.size, p_t.size), hw, LOG_EPS,
                   np.empty(p_s.size))[1]


def pkl(p_t, p_s, w: SparseProjection, support=None,
        eps: float | None = LOG_EPS) -> float:
    """KL from the teacher to the projected student distribution.

    ``support`` restricts the comparison to pre-truncated teacher indices;
    both sides are renormalized over that support.
    """
    return _support_kl(p_t, p_s, w, support, eps, None)[0]


def pkl_grads(z_s, p_t, w: SparseProjection, support=None,
              eps: float | None = LOG_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of ``pkl`` in the student chunk logits and W entries."""
    return _support_kl(p_t, softmax(z_s), w, support, eps, np.empty(np.size(z_s)))[1:]


def chunk_kl(p_t, p_s, support=None, eps: float | None = LOG_EPS) -> float:
    """Plain KL between two distributions over one shared vocabulary.

    ``support`` restricts both sides to the given indices and renormalizes
    them there.
    """
    return _support_kl(p_t, p_s, None, support, eps, None)[0]


def temperature_squared(temperature: float) -> float:
    """T², the scale of every KD term, for a positive T whose square is a
    positive finite float (T = 1e160 overflows it, T = 1e-300 rounds it to 0)."""
    if not temperature > 0:  # NaN is not positive
        raise ValidationError(f"temperature must be positive, got {temperature}")
    try:
        square = float(temperature) ** 2
    except OverflowError:
        square = math.inf
    if not 0 < square < math.inf:
        raise ValidationError(f"temperature must have a positive finite square, got "
                              f"{temperature}")
    return square


def kd_aggregate(per_chunk, temperature: float) -> float:
    """Temperature-squared mean of the per-chunk losses."""
    values = np.asarray(list(per_chunk), dtype=float)
    if values.size == 0:
        raise ValidationError("no loss-bearing chunks to aggregate")
    t_squared = temperature_squared(temperature)
    with np.errstate(over="ignore"):  # an overflow is named below
        aggregate = float(t_squared * values.mean())
    if not math.isfinite(aggregate):
        raise ValidationError(f"KD aggregate {aggregate} is not finite: temperature "
                              f"{temperature!r} squared x the mean of {values.size} chunk losses "
                              f"up to {values.max()!r} (hybrid chunk losses scale with lambda_kl "
                              "and lambda_uld)")
    return aggregate


@dataclass
class LossReport:
    """Per-chunk loss values for one teacher and their ``kd_aggregate``."""

    temperature: float
    per_chunk: tuple[float, ...]
    aggregate: float = field(init=False)
    grad_chunk_logits: tuple[np.ndarray, ...] | None = None
    grad_projection: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.aggregate = kd_aggregate(self.per_chunk, self.temperature)
