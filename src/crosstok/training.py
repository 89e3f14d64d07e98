"""Simulated distillation step over stored logits dumps.

``run_step`` executes the full per-step pipeline: align the realized student
and teacher token sequences (cached), merge chunk distributions, evaluate each
teacher's configured loss mode (all teachers' chunks in one pass in student
order), aggregate with the temperature-squared mean, weight teachers
statically or by confidence, and combine with the student's next-token
cross-entropy under a fixed or dynamic scaling policy. No
parameters are updated; gradients, when requested, are assembled for an
external consumer with the dynamic ratio treated as a constant.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import math
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .align import Alignment, AlignmentCache, AlignScoring, ChunkKind
from .chunks import PositionLogits, chain_rule_merge, check_dump, softmax
from .errors import ValidationError, json_line, located
from .losses import (LOG_EPS, MODES, HybridWeights, LossReport, check_top_k, loss_kernel,
                     temperature_squared)
from .numdiff import central_difference, max_relative_error
from .projection import ProjectionConfig, Provenance, SparseProjection
from .vocab import Tokenizer, Vocabulary

_KD_FLOOR = 1e-12
SCHEDULE_KINDS = ("static", "adaptive_ce", "adaptive_entropy", "adaptive_maxprob")


@dataclass(frozen=True)
class ScalingPolicy:
    """How the aggregated KD loss combines with cross-entropy."""

    kind: str = "dynamic"
    lambda_kd: float = 1.0
    lambda_ce: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ("dynamic", "fixed"):
            raise ValidationError(f"policy kind must be 'dynamic' or 'fixed', got {self.kind!r}")
        if not (self.lambda_kd >= 0 and self.lambda_ce >= 0):
            raise ValidationError("fixed policy weights must be non-negative, got "
                                  f"lambda_kd={self.lambda_kd}, lambda_ce={self.lambda_ce}")


def combine_kd_ce(l_kd: float, l_ce: float, policy: ScalingPolicy) -> tuple[float, float]:
    """Total loss and the multiplier applied to the KD term.

    The dynamic multiplier is the stop-gradient ratio l_ce / l_kd: downstream
    gradient assembly must treat it as data, so the assembled gradient is
    grad(l_ce) + multiplier * grad(l_kd). A KD loss within ``_KD_FLOOR`` of
    zero has vanished: the total is the CE, and the multiplier 0.
    """
    if policy.kind == "fixed":
        total, multiplier = policy.lambda_kd * l_kd + policy.lambda_ce * l_ce, policy.lambda_kd
    elif abs(l_kd) <= _KD_FLOOR:
        total, multiplier = l_ce, 0.0
    elif l_kd < 0:
        raise ValidationError(f"dynamic scaling undefined for negative KD loss {l_kd}")
    else:
        multiplier = l_ce / l_kd
        total = multiplier * l_kd + l_ce
    if not math.isfinite(total):  # the report must stay valid JSON
        raise ValidationError(f"report field total is {total}: KD loss {l_kd!r} and CE "
                              f"{l_ce!r} under {policy!r}")
    return total, multiplier


@dataclass
class TeacherConfig:
    """One teacher's loaded inputs and loss routing for a simulated step."""

    name: str
    mode: str
    vocab: Vocabulary
    logits: PositionLogits
    projection: SparseProjection | None = None
    weight: float = 1.0  # the static schedule's alpha; adaptive kinds ignore it

    def __post_init__(self) -> None:
        if not self.weight >= 0:
            raise ValidationError(
                f"teacher {self.name!r}: weight must be non-negative, got {self.weight}")


@dataclass
class TeacherBreakdown:
    name: str
    mode: str
    alpha: float
    report: LossReport
    chunk_stats: dict


@dataclass
class StepReport:
    """Everything a consumer needs from one simulated step."""

    temperature: float
    ce: float
    kd: float
    total: float
    kd_multiplier: float
    teachers: list[TeacherBreakdown]
    ce_grad: np.ndarray | None = None

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(t.alpha for t in self.teachers)

    def to_json(self, **extra) -> str:
        """Deterministic JSON, plus ``extra`` top-level fields (gradient tensors
        are written separately)."""
        payload = {
            "temperature": self.temperature,
            "ce": self.ce,
            "kd": self.kd,
            "total": self.total,
            "kd_multiplier": self.kd_multiplier,
            "alphas": list(self.alphas),
            "teachers": [{"name": t.name, "mode": t.mode, "alpha": t.alpha,
                          "per_chunk": list(t.report.per_chunk), "aggregate": t.report.aggregate,
                          "chunk_stats": t.chunk_stats} for t in self.teachers],
            **extra,
        }
        return json_line(payload)


def _chunk_stats(alignment) -> dict:
    counts = Counter(c.kind for c in alignment.chunks)
    return {
        "chunks": len(alignment.chunks),
        "loss_chunks": len(alignment.loss_chunks()),
        "matches": counts[ChunkKind.MATCH],
        "combinations": counts[ChunkKind.COMBINATION],
        "mismatches": counts[ChunkKind.MISMATCH],
        "gaps": counts[ChunkKind.GAP_STUDENT_SIDE] + counts[ChunkKind.GAP_TEACHER_SIDE],
        "score": alignment.score,
    }


def _named(who: str, pl: PositionLogits) -> str:
    """``who``, followed by the dump's file when it was loaded from one."""
    return who if pl.source is None else f"{who} ({pl.source})"


_CE_BLOCK = 32  # dump rows upcast to float64 at a time by cross-entropy and adaptive weights


def adaptive_weights(kind: str, dumps: Sequence[PositionLogits]) -> np.ndarray:
    """Softmax over per-teacher mean confidence scores.

    Scores per position: ``adaptive_ce`` uses log p[y] (negated cross-entropy),
    ``adaptive_entropy`` uses the negated entropy, ``adaptive_maxprob`` the
    maximum probability; higher always means more confident. Position counts
    may differ because each teacher tokenizes the same text its own way. Each
    dump is softmaxed ``_CE_BLOCK`` rows at a time.
    """
    if kind not in SCHEDULE_KINDS or kind == "static":
        raise ValidationError(f"unknown adaptive kind {kind!r}")
    if not dumps:
        raise ValidationError("need a dump for at least one teacher")

    means = []
    for pl in dumps:
        scores = np.empty(pl.positions)
        for lo in range(0, pl.positions, _CE_BLOCK):
            block = slice(lo, lo + _CE_BLOCK)
            p = softmax(pl.logits[block])
            if kind == "adaptive_ce":
                picked = p[np.arange(len(p)), pl.realized_ids[block]]
                scores[block] = np.log(np.maximum(picked, LOG_EPS))
            elif kind == "adaptive_entropy":
                scores[block] = np.sum(np.where(p > 0, p * np.log(np.maximum(p, LOG_EPS)), 0.0),
                                       axis=-1)
            else:
                scores[block] = p.max(axis=-1)
        means.append(float(scores.mean()))

    return softmax(np.asarray(means))


def _cross_entropy(pl: PositionLogits, grads: bool) -> tuple[float, np.ndarray | None]:
    """Mean negative log-likelihood of the realized tokens and, with ``grads``,
    its gradient in the position logits. The dump is upcast ``_CE_BLOCK`` rows
    at a time, straight into the float64 (P, V) gradient when there is one."""
    grad = np.empty(pl.logits.shape) if grads else None
    nll = np.empty(pl.positions)
    for lo in range(0, pl.positions, _CE_BLOCK):
        block = slice(lo, lo + _CE_BLOCK)
        rows, ids = pl.logits[block], pl.realized_ids[block]
        realized = np.arange(len(ids)), ids
        buf = np.subtract(rows, rows.max(axis=1, keepdims=True), dtype=float,
                          out=None if grad is None else grad[block])
        picked = buf[realized]
        np.exp(buf, out=buf)
        norm = buf.sum(axis=1)
        nll[block] = np.log(norm) - picked
        if grad is not None:
            buf /= norm[:, None]
            buf[realized] -= 1.0
            buf /= pl.positions
    return float(np.mean(nll)), grad


def cross_entropy(pl: PositionLogits) -> float:
    """Mean negative log-likelihood of the realized token at every position."""
    return _cross_entropy(pl, False)[0]


def cross_entropy_grad(pl: PositionLogits) -> tuple[float, np.ndarray]:
    """``cross_entropy`` and its gradient in the position logits, (P, V)."""
    return _cross_entropy(pl, True)


_LOOKAHEAD = 4  # groups submitted but not yet taken: bounds the chunk results held at once


def _ran(run: Callable, group) -> Future:
    """``run(group)`` on the calling thread, as a finished future."""
    done = Future()
    try:
        done.set_result(run(group))
    except Exception as exc:  # raised on the calling thread when the group is taken
        done.set_exception(exc)
    return done


def _walk(groups: Sequence, run: Callable, first: Callable, take: Callable):
    """``take(run(group))`` for each of ``groups``, in order on the calling thread, while
    one helper thread runs ``first`` and then the groups queued for it, in order, under a
    copy of the caller's context (so its ``np.errstate`` holds there). At most ``_LOOKAHEAD``
    groups are queued and not yet taken; while the group it needs is not done, the caller
    cancels queued groups, lowest first, and runs them itself. The helper is joined before
    this returns ``first``'s value or raises: a group's error, in its turn, before ``first``'s."""
    context, ahead = contextvars.copy_context(), []
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        helped = pool.submit(context.run, first)
        for taken in range(len(groups)):  # ahead[i] runs groups[taken + i]
            ahead += [pool.submit(context.run, run, g)
                      for g in groups[taken + len(ahead):taken + _LOOKAHEAD]]
            for i, future in enumerate(ahead):
                if ahead[0].done():
                    break
                if future.cancel():  # the helper never started it
                    ahead[i] = _ran(run, groups[taken + i])
            take(ahead.pop(0).result())
    finally:
        pool.shutdown(cancel_futures=True)  # joins the helper after its running item
    return helped.result()


@dataclass
class _Teacher:
    """One teacher through a step: ``_plan`` sets the first five fields, the
    walk its chunk values, (K, V) gradient block and summed ``grad_w``."""

    config: TeacherConfig
    kernel: Callable
    where: str  # the error label: the teacher, and its dump's file
    alpha: float
    alignment: Alignment
    values: list[float] = field(default_factory=list)
    block: np.ndarray | None = None
    grad_w: np.ndarray | None = None


def _plan(student_vocab: Vocabulary, student_logits: PositionLogits,
          teachers: Sequence[TeacherConfig], schedule: str, temperature: float,
          scoring: AlignScoring, top_k: int, hybrid: HybridWeights, cache: AlignmentCache):
    """``run_step``'s checks, in order: temperature, schedule and ``top_k``; every
    dump and kernel binding; the static weights' sum; each alignment, and that
    it has loss chunks. Returns a record per teacher and the groups of
    ``(record, k, chunk)``: every loss chunk in student-span order (teacher order
    within a span), one group per span. Allocates no (K, V) or (P, V) array."""
    temperature_squared(temperature)
    if schedule not in SCHEDULE_KINDS:
        raise ValidationError(f"schedule kind must be one of {SCHEDULE_KINDS}")
    check_top_k(top_k)
    if not teachers:
        raise ValidationError("need at least one teacher")
    check_dump(student_logits, "student", student_vocab, "student")
    kernels = []
    for teacher in teachers:
        who = f"teacher {teacher.name!r}"
        check_dump(teacher.logits, "teacher", teacher.vocab, who + ":")
        with located(who):
            kernels.append(loss_kernel(teacher.mode, student_vocab, teacher.vocab,
                                       teacher.projection, top_k, hybrid))

    if schedule == "static":
        alphas = np.asarray([t.weight for t in teachers], dtype=float)
        total = sum(t.weight for t in teachers)
        if not abs(total - 1.0) <= 1e-9:
            raise ValidationError(f"static teacher weights sum to {total!r}, not 1: " + ", ".join(
                f"{t.name!r} {t.weight!r}" for t in teachers))
    else:
        alphas = adaptive_weights(schedule, [t.logits for t in teachers])

    tok_s, s_seq = Tokenizer(student_vocab), student_logits.realized_ids.tolist()
    records = [_Teacher(t, kernel, _named(f"teacher {t.name!r}", t.logits), float(alpha),
                        cache.get_or_compute(s_seq, t.logits.realized_ids.tolist(), scoring,
                                             tok_s, Tokenizer(t.vocab)))
               for t, kernel, alpha in zip(teachers, kernels, alphas)]
    for r in records:
        if not r.alignment.loss_chunks():
            raise ValidationError(f"teacher {r.config.name!r} has no loss-bearing chunks")
    ordered = heapq.merge(*([(r, k, c) for k, c in enumerate(r.alignment.loss_chunks())]
                            for r in records), key=lambda rkc: rkc[2].student_span)
    return records, [list(group) for _, group in
                     itertools.groupby(ordered, key=lambda rkc: rkc[2].student_span)]


def run_step(student_vocab: Vocabulary, student_logits: PositionLogits,
             teachers: Sequence[TeacherConfig], policy: ScalingPolicy = ScalingPolicy(),
             schedule: str = "static", temperature: float = 1.0,
             scoring: AlignScoring = AlignScoring(), top_k: int = 8192,
             hybrid: HybridWeights = HybridWeights(), cache: AlignmentCache | None = None,
             compute_grads: bool = False) -> StepReport:
    """One simulated training step over stored logits, its teachers weighted
    under the ``schedule`` kind, one of ``SCHEDULE_KINDS``. ``_plan`` checks
    every input; the chunk walk runs on the calling thread and one helper that
    lives only for the walk; the finish combines the results. Deterministic:
    the outputs are byte-identical to a serial walk."""
    records, groups = _plan(student_vocab, student_logits, teachers, schedule, temperature,
                            scoring, top_k, hybrid, AlignmentCache() if cache is None else cache)
    if compute_grads:  # chunk k of a teacher writes row k of its block
        for r in records:
            r.block = np.empty((len(r.alignment.loss_chunks()), student_logits.vocab_size))
    s_where = _named("student", student_logits)

    def run_group(group):
        with located(s_where):
            p_s = chain_rule_merge(student_logits, group[0][2], temperature)
        p_s.flags.writeable = False  # shared by every teacher with this span
        out = []
        for r, k, chunk in group:
            with located(r.where):
                p_t = chain_rule_merge(r.config.logits, chunk, temperature)
                value, _, g_w = r.kernel(p_t, p_s, None if r.block is None else r.block[k])
            out.append((r, value, g_w))
        return out

    def take(results):  # in group order, so ``grad_w`` sums as a serial walk's does
        for r, value, g_w in results:
            r.values.append(value)
            if g_w is not None:
                r.grad_w = g_w if r.grad_w is None else np.add(r.grad_w, g_w, out=r.grad_w)

    l_ce, ce_grad = _walk(groups, run_group, lambda: cross_entropy_grad(student_logits)
                          if compute_grads else (cross_entropy(student_logits), None), take)

    breakdowns = [TeacherBreakdown(r.config.name, r.config.mode, r.alpha, LossReport(
        temperature, tuple(r.values),
        grad_chunk_logits=None if r.block is None else tuple(r.block), grad_projection=r.grad_w),
        _chunk_stats(r.alignment)) for r in records]
    l_kd = float(sum(b.alpha * b.report.aggregate for b in breakdowns))
    if policy.kind == "dynamic" and abs(l_kd) <= _KD_FLOOR:
        unscaled = float(sum(b.alpha * np.mean(b.report.per_chunk) for b in breakdowns))
        if abs(unscaled) > _KD_FLOOR:  # T² alone pushed it under the floor
            raise ValidationError(f"temperature {temperature!r} scales the KD loss {unscaled!r} "
                                  f"to {l_kd!r}, under the dynamic policy's floor {_KD_FLOOR}, "
                                  "which would drop it")
    try:
        total, multiplier = combine_kd_ce(l_kd, l_ce, policy)
    except ValidationError as exc:
        raise ValidationError(f"{exc}; teacher aggregates: " + ", ".join(
            f"{b.name!r} ({b.mode}) {b.report.aggregate!r}" for b in breakdowns)) from None

    if compute_grads:
        if policy.kind == "fixed":
            ce_grad *= policy.lambda_ce
        t_squared = temperature_squared(temperature)
        for r in records:  # into total-loss gradients in place, the multiplier held constant
            scale = multiplier * r.alpha * t_squared / len(r.values)
            try:
                if not math.isfinite(scale):
                    raise FloatingPointError
                with np.errstate(over="raise"):  # the multiply flags an overflow: no extra pass
                    r.block *= scale
                    if r.grad_w is not None:
                        r.grad_w *= scale
            except FloatingPointError:
                raise ValidationError(
                    f"teacher {r.config.name!r}: gradients scaled by {scale!r} are not finite "
                    f"(KD multiplier {multiplier!r}, which is lambda_kd under a fixed policy, x "
                    f"alpha {r.alpha!r} x temperature {temperature!r} squared / "
                    f"{len(r.values)} loss chunks)") from None

    return StepReport(temperature=temperature, ce=l_ce, kd=l_kd, total=total,
                      kd_multiplier=multiplier, teachers=breakdowns, ce_grad=ce_grad)


def gradient_check(seed: int, instances: int = 20) -> dict[str, float]:
    """Finite-difference check of every mode's kernel as ``loss_kernel`` binds it.

    On each random toy instance every mode in ``MODES`` is bound, and its
    ``grad_z`` is compared with central differences of the bound value; for
    ``pkl`` also its ``grad_w``, in the log-weights. ``hkl`` and ``gold`` run
    at weights other than 1, so the weighted hybrid sum is checked. Returns
    the max relative error per family over the instances: ``pkl_logits``,
    ``pkl_entries``, ``hkl``, ``gold``, ``uld`` and ``kl``. Used by the CLI
    and mirrored by the test suite.
    """
    if not instances >= 1:
        raise ValidationError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng(seed)
    hw = HybridWeights(0.7, 1.3)  # fixed: a draw from ``rng`` would shift every later instance
    worst = dict.fromkeys(("pkl_logits", "pkl_entries", "hkl", "gold", "uld", "kl"), 0.0)
    for _ in range(instances):
        n_s = int(rng.integers(3, 8))
        n_t = int(rng.integers(3, 8))
        covered = set()
        while covered != set(range(n_t)):  # redraw until every teacher id is reachable
            rows, covered = [], set()
            for s in range(n_s):
                k = int(rng.integers(1, min(4, n_t) + 1))
                ids = rng.choice(n_t, size=k, replace=False)
                weights = rng.dirichlet(np.ones(k)) * 0.9
                rows.append(sorted(zip(ids.tolist(), weights.tolist()),
                                   key=lambda tw: (-tw[1], tw[0])))
                covered.update(ids.tolist())
        w = SparseProjection.from_rows(n_t, rows, [Provenance.MULTI_TOKEN] * n_s,
                                       ProjectionConfig())
        z = rng.normal(size=n_s)
        pt = rng.dirichlet(np.ones(n_t))
        width = int(rng.integers(0, min(n_s, n_t) + 1))
        s_ids = rng.choice(n_s, size=width, replace=False)
        t_ids = rng.choice(n_t, size=width, replace=False)
        # tokens s0.. and t0.., each drawn pair's teacher token named after its
        # student token: the exact common set is the drawn pairs
        teacher_tokens = [f"t{j}" for j in range(n_t)]
        for s, t in zip(s_ids.tolist(), t_ids.tolist()):
            teacher_tokens[t] = f"s{s}"
        vs, vt = Vocabulary(f"s{i}" for i in range(n_s)), Vocabulary(teacher_tokens)
        p = pt if n_s == n_t else rng.dirichlet(np.ones(n_s))  # kl's, over the student vocabulary
        ps = softmax(z)

        for mode in MODES:
            v_t, p_t, top_k = (vs, p, max(1, n_s - 2)) if mode == "kl" else (vt, pt, n_t)
            kernel = loss_kernel(mode, vs, v_t, w, top_k, hw)
            _, g_z, g_w = kernel(p_t, ps, np.empty(n_s))
            num_z = central_difference(lambda zz: kernel(p_t, softmax(zz))[0], z)
            family = "pkl_logits" if mode == "pkl" else mode
            worst[family] = max(worst[family], max_relative_error(g_z, num_z))
            if mode == "pkl":
                base = np.array([wt for _, _, wt in w.entries()])
                # differences in log-weight: every stencil point stays a valid
                # projection, and the step shrinks with the weight it moves
                num_w = central_difference(lambda u: loss_kernel(
                    mode, vs, vt, w.with_weights(base * np.exp(u)), top_k, hw)(pt, ps)[0],
                    np.zeros_like(base))
                worst["pkl_entries"] = max(worst["pkl_entries"],
                                           max_relative_error(base * g_w, num_w))
    return worst
