"""Exhaustive reference for ``crosstok.align.dp_align``.

Enumerates every legal transition sequence of two short token sequences and
keeps the first best-scoring one; the test oracle for the DP's optimal score.
"""

from __future__ import annotations

import math
from typing import Sequence

from crosstok.align import Alignment, AlignmentChunk, AlignScoring, ChunkKind
from crosstok.errors import ValidationError
from crosstok.vocab import Tokenizer
from dp_reference import ScalarTable

_BRUTE_FORCE_LIMIT = 12


def brute_force_align(student: Sequence[int], teacher: Sequence[int], scoring: AlignScoring,
                      tok_s: Tokenizer, tok_t: Tokenizer) -> Alignment:
    """Exhaustive enumeration of every legal transition sequence (test oracle).

    Refuses inputs with more than 12 tokens in total.
    """
    n, m = len(student), len(teacher)
    if n + m > _BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"brute-force alignment limited to n+m <= {_BRUTE_FORCE_LIMIT}, got {n + m}"
        )
    table = ScalarTable(student, teacher, tok_s, tok_t)
    a_ex, a_cb, a_gap, span = scoring.alpha_exact, scoring.alpha_comb, scoring.alpha_gap, scoring.max_span

    best_score = -math.inf
    best_chunks: list[AlignmentChunk] = []
    path: list[AlignmentChunk] = []

    def explore(i: int, j: int, acc: float) -> None:
        nonlocal best_score, best_chunks
        if i == n and j == m:
            if acc > best_score:
                best_score = acc
                best_chunks = list(path)
            return
        if i < n and j < m:
            matched = table.diag_matches(i, j)
            kind = ChunkKind.MATCH if matched else ChunkKind.MISMATCH
            path.append(AlignmentChunk((i, i + 1), (j, j + 1), kind))
            explore(i + 1, j + 1, acc + (a_ex if matched else -a_ex))
            path.pop()
            for k in range(2, min(span, m - j) + 1):
                if table.one_to_many(i, j, j + k):
                    path.append(AlignmentChunk((i, i + 1), (j, j + k), ChunkKind.COMBINATION))
                    explore(i + 1, j + k, acc + a_cb * k)
                    path.pop()
            for k in range(2, min(span, n - i) + 1):
                if table.many_to_one(i, i + k, j):
                    path.append(AlignmentChunk((i, i + k), (j, j + 1), ChunkKind.COMBINATION))
                    explore(i + k, j + 1, acc + a_cb * k)
                    path.pop()
        if i < n:
            path.append(AlignmentChunk((i, i + 1), (j, j), ChunkKind.GAP_TEACHER_SIDE))
            explore(i + 1, j, acc + a_gap)
            path.pop()
        if j < m:
            path.append(AlignmentChunk((i, i), (j, j + 1), ChunkKind.GAP_STUDENT_SIDE))
            explore(i, j + 1, acc + a_gap)
            path.pop()

    explore(0, 0, 0.0)
    return Alignment(tuple(best_chunks), best_score)
