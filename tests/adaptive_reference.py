"""Whole-grid reference for ``crosstok.training.adaptive_weights``.

The confidence scores over a (batch, positions, vocab) probability grid that
the row-block scoring of logits dumps replaced, kept as the slow reference it
is property-tested against. A dump is one batch row: ``stats_of(pl)`` builds
its grid from the float64 softmax of every position at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from crosstok.chunks import PositionLogits, softmax
from crosstok.errors import ValidationError
from crosstok.losses import LOG_EPS
from crosstok.training import SCHEDULE_KINDS


@dataclass
class TeacherStats:
    """Per-position confidence inputs for one teacher on a (B, N) grid."""

    probs: np.ndarray     # (B, N, V) next-token distributions
    realized: np.ndarray  # (B, N) ground-truth next tokens under this teacher

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=float)
        self.realized = np.asarray(self.realized, dtype=np.intp)
        if self.probs.ndim != 3:
            raise ValidationError("stats need a (batch, positions, vocab) tensor")
        if self.realized.shape != self.probs.shape[:2]:
            raise ValidationError("realized grid does not match the probs grid")


def stats_of(pl: PositionLogits) -> TeacherStats:
    return TeacherStats(softmax(pl.logits)[None], pl.realized_ids[None])


def dump_of_probs(probs, realized) -> PositionLogits:
    """A teacher dump whose rows softmax back to ``probs``: the logits are
    log p, and a zero probability becomes a logit of -1e3, whose softmax is
    exactly 0."""
    p = np.asarray(probs, dtype=float)
    logits = np.log(p, out=np.full_like(p, -1e3), where=p > 0)
    return PositionLogits("t", "teacher", logits, realized)


def reference_adaptive_weights(kind: str, teacher_stats: Sequence[TeacherStats]) -> np.ndarray:
    """Softmax over per-teacher mean confidence scores.

    Scores per token: ``adaptive_ce`` uses log p[y] (negated cross-entropy),
    ``adaptive_entropy`` uses the negated entropy, ``adaptive_maxprob`` the
    maximum probability; higher always means more confident. Teachers must
    share the batch dimension; position counts may differ because each
    teacher tokenizes the same text its own way.
    """
    if kind not in SCHEDULE_KINDS or kind == "static":
        raise ValidationError(f"unknown adaptive kind {kind!r}")
    if not teacher_stats:
        raise ValidationError("need stats for at least one teacher")
    batches = {s.probs.shape[0] for s in teacher_stats}
    if len(batches) != 1:
        raise ValidationError(f"mismatched stat grids: batch sizes {sorted(batches)}")

    means = []
    for stats in teacher_stats:
        p = stats.probs
        if kind == "adaptive_ce":
            b_idx, n_idx = np.indices(stats.realized.shape)
            scores = np.log(np.maximum(p[b_idx, n_idx, stats.realized], LOG_EPS))
        elif kind == "adaptive_entropy":
            scores = np.sum(np.where(p > 0, p * np.log(np.maximum(p, LOG_EPS)), 0.0), axis=-1)
        else:
            scores = p.max(axis=-1)
        means.append(float(scores.mean()))

    return softmax(np.asarray(means))
