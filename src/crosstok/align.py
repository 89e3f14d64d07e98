"""Span alignment of two token sequences from different tokenizers.

``dp_align`` runs a soft-scored dynamic program whose transitions are 1-to-1
diagonals (matching or mismatching), 1-to-k / k-to-1 combinations gated on
canonical text equality, and one-sided gaps. ``trl_substring_align`` is the
incremental-decode buffer baseline, kept for comparison because a single byte
of divergence makes it bundle everything after the divergence point into one
super-group.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_int, json_line, write_text
from .vocab import Tokenizer, vocabulary_hash


@dataclass(frozen=True)
class AlignScoring:
    """Scoring constants for the alignment DP."""

    alpha_exact: float = 3.0
    alpha_comb: float = 1.5
    alpha_gap: float = -1.5
    max_span: int = 4

    def __post_init__(self) -> None:
        for name in ("alpha_exact", "alpha_comb", "alpha_gap"):
            if type(getattr(self, name)) is int:  # numpy would keep it an int64
                object.__setattr__(self, name, float(getattr(self, name)))
        if not self.alpha_exact > 0:
            raise ValidationError(f"alpha_exact must be positive, got {self.alpha_exact}")
        if not self.alpha_comb > 0:
            raise ValidationError(f"alpha_comb must be positive, got {self.alpha_comb}")
        if not self.alpha_gap < 0:
            raise ValidationError(f"alpha_gap must be negative, got {self.alpha_gap}")
        check_int(self.max_span, "max_span")
        if self.max_span < 2:
            raise ValidationError("max_span must be at least 2")


class ChunkKind(str, Enum):
    MATCH = "match"
    COMBINATION = "combination"
    MISMATCH = "mismatch"
    GAP_STUDENT_SIDE = "gap_student_side"  # teacher token with no student counterpart
    GAP_TEACHER_SIDE = "gap_teacher_side"  # student token with no teacher counterpart
    SUPER_GROUP = "super_group"  # baseline force-flush residue, never loss-bearing


_LOSS_BEARING = frozenset({ChunkKind.MATCH, ChunkKind.COMBINATION})


@dataclass(frozen=True)
class AlignmentChunk:
    """A pair of half-open index spans, one per side."""

    student_span: tuple[int, int]
    teacher_span: tuple[int, int]
    kind: ChunkKind

    @property
    def in_loss(self) -> bool:
        return self.kind in _LOSS_BEARING

    def span(self, side: str) -> tuple[int, int]:
        if side == "student":
            return self.student_span
        if side == "teacher":
            return self.teacher_span
        raise ValidationError(f"unknown side {side!r}")


@dataclass(frozen=True)
class Alignment:
    chunks: tuple[AlignmentChunk, ...]
    score: float

    def loss_chunks(self) -> tuple[AlignmentChunk, ...]:
        return tuple(c for c in self.chunks if c.in_loss)


class _CanonTable:
    """Per-position canonical forms, special flags and roles of two token
    sequences."""

    def __init__(self, student: Sequence[int], teacher: Sequence[int],
                 tok_s: Tokenizer, tok_t: Tokenizer) -> None:
        vs, vt = tok_s.vocabulary, tok_t.vocabulary
        self.s_special = [vs.is_special(i) for i in student]
        self.t_special = [vt.is_special(j) for j in teacher]
        self.s_canon = [vs.canonical(i) for i in student]
        self.t_canon = [vt.canonical(j) for j in teacher]
        self.s_roles = [vs.roles_of(i) for i in student]
        self.t_roles = [vt.roles_of(j) for j in teacher]


def _diagonal_matches(table: _CanonTable) -> np.ndarray:
    """``(n, m)`` bool: 1-to-1 equality through one integer code per
    canonical byte string; specials pair only through shared roles."""
    codes: dict[bytes, int] = {}
    s_code = np.array([-1 if sp else codes.setdefault(c, len(codes))
                       for sp, c in zip(table.s_special, table.s_canon)], dtype=np.intp)
    t_code = np.array([-2 if sp else codes.setdefault(c, len(codes))
                       for sp, c in zip(table.t_special, table.t_canon)], dtype=np.intp)
    match = s_code[:, None] == t_code[None, :]
    for role in set().union(*table.s_roles) & set().union(*table.t_roles):
        match |= (np.array([role in r for r in table.s_roles], dtype=bool)[:, None]
                  & np.array([role in r for r in table.t_roles], dtype=bool)[None, :])
    return match


def _combinations(one_canon, one_special, many_canon, many_special,
                  span: int) -> list[tuple[int, int, int]]:
    """Every legal 1-to-k combination as ``(p, lo, k)``: ordinary token ``p``
    of one side has the canonical bytes of ordinary tokens ``[lo, lo + k)`` of
    the other side joined, 2 <= k <= span."""
    longest = max((len(c) for c, sp in zip(one_canon, one_special) if not sp), default=-1)
    spans_of: dict[bytes, list[tuple[int, int]]] = {}
    for lo in range(len(many_canon)):
        joined = b""
        for hi in range(lo, min(lo + span, len(many_canon))):
            if many_special[hi]:
                break
            joined += many_canon[hi]
            if len(joined) > longest:
                break
            if hi > lo:
                spans_of.setdefault(joined, []).append((lo, hi + 1 - lo))
    return [(p, lo, k) for p, (c, sp) in enumerate(zip(one_canon, one_special)) if not sp
            for lo, k in spans_of.get(c, ())]


def dp_align(student: Sequence[int], teacher: Sequence[int], scoring: AlignScoring,
             tok_s: Tokenizer, tok_t: Tokenizer) -> Alignment:
    """Optimal-score chunking of the two sequences.

    Ties are broken toward finer, identity-aligned chunks: diagonal first,
    then 1-to-k combinations (smaller k first), then k-to-1 combinations,
    then a gap on the teacher side, then a gap on the student side.

    Every move into cell ``(i, j)`` starts on an earlier anti-diagonal
    ``i + j``, so the table fills one anti-diagonal at a time with numpy,
    applying the candidates in tie-break order with strict ``>``. A cell keeps
    one back step, the flat distance to the cell its winning chunk starts
    from. The backtrace reads each kind from the spans: an empty side is a
    gap, a side longer than 1 a combination, and 1x1 a match or mismatch.
    """
    n, m = len(student), len(teacher)
    a_ex, a_cb, a_gap, span = scoring.alpha_exact, scoring.alpha_comb, scoring.alpha_gap, scoring.max_span
    # a chunk over k tokens gains at most k * max(...) in size, so no partial
    # score exceeds (n + m) times it; the factor 2 leaves room for rounding
    if not math.isfinite(2.0 * (n + m) * max(a_ex, a_cb, -a_gap)):
        raise ValidationError(f"alpha_exact={a_ex}, alpha_comb={a_cb} and alpha_gap={a_gap} "
                              f"could take an alignment score over {n} + {m} tokens past the "
                              "float range")
    table = _CanonTable(student, teacher, tok_s, tok_t)
    match = _diagonal_matches(table).ravel()
    w = m + 1  # row stride of the (n + 1, m + 1) tables, which are indexed flat

    # legal combinations as (anti-diagonal, order, target cell, back step,
    # gain); ``order`` ranks 1-to-k before k-to-1, smaller k first
    combos = [(i + 1 + lo + k, k, (i + 1) * w + lo + k, w + k, a_cb * k)
              for i, lo, k in _combinations(table.s_canon, table.s_special,
                                            table.t_canon, table.t_special, span)]
    combos += [(lo + k + j + 1, span + k, (lo + k) * w + j + 1, k * w + 1, a_cb * k)
               for j, lo, k in _combinations(table.t_canon, table.t_special,
                                             table.s_canon, table.s_special, span)]
    combos.sort(key=lambda c: c[:2])
    combos_at: dict[int, list] = {}
    for (d, _), group in itertools.groupby(combos, key=lambda c: c[:2]):
        _, _, target, step, gain = zip(*group)
        combos_at.setdefault(d, []).append((np.array(target), step[0], gain[0]))

    score = np.zeros((n + 1, m + 1))
    steps = np.empty((n + 1, m + 1), dtype=np.intp)
    score[1:, 0] = np.arange(1, n + 1) * a_gap
    score[0, 1:] = np.arange(1, m + 1) * a_gap
    steps[1:, 0], steps[0, 1:] = w, 1
    flat_score, flat_steps = score.ravel(), steps.ravel()
    rows = np.arange(n + 1)
    for d in range(2, n + m + 1):
        i = rows[max(1, d - m):min(n, d - 1) + 1]
        cell = i * m + d  # i * w + (d - i)
        hit = match[i * (m - 1) + d - m - 1]  # match[i - 1, d - i - 1]
        flat_score[cell] = flat_score[cell - w - 1] + np.where(hit, a_ex, -a_ex)
        flat_steps[cell] = w + 1
        for target, step, gain in (*combos_at.get(d, ()), (cell, w, a_gap), (cell, 1, a_gap)):
            cand = flat_score[target - step] + gain
            better = cand > flat_score[target]
            flat_score[target[better]] = cand[better]
            flat_steps[target[better]] = step

    chunks: list[AlignmentChunk] = []
    hi, hj = n, m
    while hi or hj:
        i, j = divmod(hi * w + hj - int(steps[hi, hj]), w)
        if i == hi or j == hj:
            kind = ChunkKind.GAP_STUDENT_SIDE if i == hi else ChunkKind.GAP_TEACHER_SIDE
        elif max(hi - i, hj - j) > 1:
            kind = ChunkKind.COMBINATION
        else:
            kind = ChunkKind.MATCH if match[i * m + j] else ChunkKind.MISMATCH
        chunks.append(AlignmentChunk((i, hi), (j, hj), kind))
        hi, hj = i, j
    chunks.reverse()
    return Alignment(tuple(chunks), float(score[n, m]))


def trl_substring_align(student: Sequence[int], teacher: Sequence[int],
                        tok_s: Tokenizer, tok_t: Tokenizer) -> Alignment:
    """Incremental-decode buffer baseline.

    Extends the shorter raw-text buffer one token at a time and flushes a
    group whenever the buffers compare equal. Whatever remains unflushed at
    end of sequence is emitted as one group: a combination if the leftover
    texts agree, otherwise a super-group excluded from the loss. Baseline
    alignments carry no DP score (score is 0).
    """
    s_text = [tok_s.decode_token(t) for t in student]
    t_text = [tok_t.decode_token(t) for t in teacher]
    n, m = len(student), len(teacher)

    chunks: list[AlignmentChunk] = []
    si = ti = 0
    s_start = t_start = 0
    sbuf = tbuf = ""

    def flush(kind: ChunkKind | None = None) -> None:
        nonlocal s_start, t_start, sbuf, tbuf
        if kind is None:
            one_to_one = si - s_start == 1 and ti - t_start == 1
            kind = ChunkKind.MATCH if one_to_one else ChunkKind.COMBINATION
        chunks.append(AlignmentChunk((s_start, si), (t_start, ti), kind))
        s_start, t_start = si, ti
        sbuf = tbuf = ""

    while si < n or ti < m:
        if sbuf and sbuf == tbuf:
            flush()
            continue
        if ti >= m or (si < n and len(sbuf) <= len(tbuf)):
            sbuf += s_text[si]
            si += 1
        else:
            tbuf += t_text[ti]
            ti += 1

    if sbuf or tbuf:
        flush(None if sbuf == tbuf else ChunkKind.SUPER_GROUP)
    return Alignment(tuple(chunks), 0.0)


class AlignmentCache:
    """Explicit alignment store keyed by (vocab pair, id sequences, scoring).

    Reads are lock-free; inserts take a lock so concurrent computations of
    the same key settle on a single stored value.
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def _key(student, teacher, scoring, tok_s, tok_t):
        return (
            vocabulary_hash(tok_s.vocabulary),
            vocabulary_hash(tok_t.vocabulary),
            tuple(student),
            tuple(teacher),
            scoring,
        )

    def get(self, student, teacher, scoring, tok_s, tok_t) -> Alignment | None:
        return self._store.get(self._key(student, teacher, scoring, tok_s, tok_t))

    def get_or_compute(self, student, teacher, scoring: AlignScoring,
                       tok_s: Tokenizer, tok_t: Tokenizer) -> Alignment:
        key = self._key(student, teacher, scoring, tok_s, tok_t)
        hit = self._store.get(key)
        if hit is not None:
            return hit
        computed = dp_align(student, teacher, scoring, tok_s, tok_t)
        with self._lock:
            return self._store.setdefault(key, computed)


def chunk_records(seq_id, alignment: Alignment) -> list[dict]:
    """One JSON-ready record per chunk."""
    return [
        {
            "seq_id": seq_id,
            "k": k,
            "s_lo": c.student_span[0],
            "s_hi": c.student_span[1],
            "t_lo": c.teacher_span[0],
            "t_hi": c.teacher_span[1],
            "kind": c.kind.value,
            "in_loss": c.in_loss,
        }
        for k, c in enumerate(alignment.chunks)
    ]


def write_alignment_dump(path, items: Iterable[tuple[object, Alignment]]) -> None:
    """Write alignments as JSON Lines, one record per chunk."""
    write_text(path, "".join(json_line(rec) for seq_id, alignment in items
                             for rec in chunk_records(seq_id, alignment)))

