"""Scalar reference for ``crosstok.align.dp_align``.

The cell-by-cell O(n*m*span) loop that the anti-diagonal wavefront replaced,
kept as the slow reference it is property-tested against. Candidates are
tried in tie-break preference order and the first strict maximum wins:
diagonal, 1-to-k combinations (smaller k first), k-to-1 combinations, a gap
on the teacher side, a gap on the student side.
"""

from __future__ import annotations

from typing import Sequence

from crosstok.align import Alignment, AlignmentChunk, AlignScoring, ChunkKind, _CanonTable
from crosstok.vocab import Tokenizer


class ScalarTable(_CanonTable):
    """``_CanonTable`` plus the match predicates that the slow reference
    aligners evaluate one transition at a time."""

    def diag_matches(self, i: int, j: int) -> bool:
        """1-to-1 equality of the i-th student and j-th teacher token."""
        if self.s_special[i] or self.t_special[j]:
            # specials pair only through shared roles, never through text
            return bool(self.s_roles[i] & self.t_roles[j])
        return self.s_canon[i] == self.t_canon[j]

    def one_to_many(self, i: int, j_lo: int, j_hi: int) -> bool:
        """Student token i decodes to the concatenation of teacher span [j_lo, j_hi)."""
        if self.s_special[i] or any(self.t_special[j] for j in range(j_lo, j_hi)):
            return False
        return self.s_canon[i] == b"".join(self.t_canon[j_lo:j_hi])

    def many_to_one(self, i_lo: int, i_hi: int, j: int) -> bool:
        if self.t_special[j] or any(self.s_special[i] for i in range(i_lo, i_hi)):
            return False
        return self.t_canon[j] == b"".join(self.s_canon[i_lo:i_hi])


_MATCH = (1, 1, ChunkKind.MATCH)
_MISMATCH = (1, 1, ChunkKind.MISMATCH)
_GAP_T = (1, 0, ChunkKind.GAP_TEACHER_SIDE)
_GAP_S = (0, 1, ChunkKind.GAP_STUDENT_SIDE)


def reference_dp_align(student: Sequence[int], teacher: Sequence[int], scoring: AlignScoring,
                       tok_s: Tokenizer, tok_t: Tokenizer) -> Alignment:
    n, m = len(student), len(teacher)
    table = ScalarTable(student, teacher, tok_s, tok_t)
    a_ex, a_cb, a_gap, span = scoring.alpha_exact, scoring.alpha_comb, scoring.alpha_gap, scoring.max_span

    # each cell stores its winning move (di, dj, kind): the chunk that ends
    # there spans [i - di, i) of the student and [j - dj, j) of the teacher
    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    move: list[list[tuple[int, int, ChunkKind] | None]] = [[None] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = i * a_gap
        move[i][0] = _GAP_T
    for j in range(1, m + 1):
        score[0][j] = j * a_gap
        move[0][j] = _GAP_S

    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if table.diag_matches(i - 1, j - 1):
                best, best_move = score[i - 1][j - 1] + a_ex, _MATCH
            else:
                best, best_move = score[i - 1][j - 1] - a_ex, _MISMATCH
            for k in range(2, min(span, j) + 1):
                if table.one_to_many(i - 1, j - k, j):
                    cand = score[i - 1][j - k] + a_cb * k
                    if cand > best:
                        best, best_move = cand, (1, k, ChunkKind.COMBINATION)
            for k in range(2, min(span, i) + 1):
                if table.many_to_one(i - k, i, j - 1):
                    cand = score[i - k][j - 1] + a_cb * k
                    if cand > best:
                        best, best_move = cand, (k, 1, ChunkKind.COMBINATION)
            cand = score[i - 1][j] + a_gap
            if cand > best:
                best, best_move = cand, _GAP_T
            cand = score[i][j - 1] + a_gap
            if cand > best:
                best, best_move = cand, _GAP_S
            score[i][j] = best
            move[i][j] = best_move

    chunks: list[AlignmentChunk] = []
    i, j = n, m
    while i > 0 or j > 0:
        di, dj, kind = move[i][j]  # type: ignore[misc]
        chunks.append(AlignmentChunk((i - di, i), (j - dj, j), kind))
        i, j = i - di, j - dj
    chunks.reverse()
    return Alignment(tuple(chunks), score[n][m])
