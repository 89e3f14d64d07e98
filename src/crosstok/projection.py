"""Row-sparse projection of student-token probability mass onto teacher tokens.

Rows are built in two passes: tokens with an exact partner
(``vocab.exact_partners``) get a single entry of weight 1; every other
ordinary student token is re-tokenized with the teacher tokenizer and its
sub-tokens receive exponentially decaying weights, which are row-normalized
and then truncated to the top-k entries. Truncation can leave a multi-token
row summing to slightly less than 1, so ``project`` renormalizes its output
by default.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateDistributionError,
    UnencodableTextError,
    ValidationError,
    check_fields,
)
from .vocab import Tokenizer, Vocabulary, exact_partners

_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class ProjectionConfig:
    beta: float = 0.9
    gamma: float = 0.1
    max_span: int = 4
    top_k: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.gamma < self.beta <= 1:
            raise ValidationError(
                f"need 0 < gamma < beta <= 1, got beta={self.beta}, gamma={self.gamma}"
            )
        if self.top_k < 1:
            raise ValidationError("top_k must be at least 1")
        if self.max_span < 1:
            raise ValidationError("max_span must be at least 1")


class Provenance(str, Enum):
    EXACT = "exact"
    MULTI_TOKEN = "multi_token"
    EMPTY = "empty"


def decay_weights(length: int, beta: float = 0.9, gamma: float = 0.1) -> np.ndarray:
    """Normalized exponential-decay weights for a re-tokenized span."""
    if length < 1:
        raise ValidationError(f"span length must be at least 1, got {length}")
    raw = beta * gamma ** np.arange(length, dtype=float)
    return raw / raw.sum()


class SparseProjection:
    """Immutable row-sparse student-by-teacher weight matrix.

    ``rows[s]`` is a tuple of ``(teacher_id, weight)`` pairs sorted by
    descending weight (ties toward the smaller teacher id).
    """

    def __init__(self, n_student: int, n_teacher: int,
                 rows: Sequence[Sequence[tuple[int, float]]],
                 provenance: Sequence[Provenance],
                 config: ProjectionConfig) -> None:
        if len(rows) != n_student or len(provenance) != n_student:
            raise ValidationError("rows and provenance must cover every student id")
        self.n_student = n_student
        self.n_teacher = n_teacher
        self._flat_s = np.repeat(np.arange(n_student, dtype=np.intp), [len(row) for row in rows])
        self._flat_t = self._flat_entries(rows, 0, (int, np.integer), np.intp,
                                          "teacher id", "an integer")
        self._flat_w = self._flat_entries(rows, 1, (int, float, np.integer, np.floating), float,
                                          "weight", "a number")
        self.rows: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            tuple((int(t), float(w)) for t, w in row) for row in rows
        )
        self.provenance: tuple[Provenance, ...] = tuple(Provenance(p) for p in provenance)
        self.config = config
        self._validate()

    def _flat_entries(self, rows, field: int, types: tuple, dtype, name: str,
                      expected: str) -> np.ndarray:
        """One field of every entry, row-major, after one type check over the
        flat list (no silent ``int()``/``float()`` coercion; bools rejected)."""
        values = [entry[field] for row in rows for entry in row]
        bad = {tp for tp in set(map(type, values)) if tp is bool or not issubclass(tp, types)}
        if bad:
            at = next(i for i, v in enumerate(values) if type(v) in bad)
            raise ValidationError(f"row {self._flat_s[at]}: {name} {values[at]!r} in 'entries' "
                                  f"is not {expected}")
        try:
            return np.asarray(values, dtype=dtype)
        except OverflowError:
            raise ValidationError(f"a {name} in 'entries' is out of range") from None

    def _validate(self) -> None:
        for s, (row, prov) in enumerate(zip(self.rows, self.provenance)):
            if len(row) > self.config.top_k:
                raise ValidationError(f"row {s} has {len(row)} entries, top_k={self.config.top_k}")
            total = 0.0
            if len(row) > 1 and len({t for t, _ in row}) != len(row):
                raise ValidationError(f"row {s}: a teacher id repeats in its 'entries'")
            for t, w in row:
                if not 0 <= t < self.n_teacher:
                    raise ValidationError(f"row {s}: teacher id {t} out of range")
                if w <= 0:
                    raise ValidationError(f"row {s}: non-positive weight {w}")
                total += w
            if prov is Provenance.EXACT and (len(row) != 1 or row[0][1] != 1.0):
                raise ValidationError(f"row {s}: exact rows hold a single entry of weight 1")
            if prov is Provenance.EMPTY and row:
                raise ValidationError(f"row {s}: empty provenance with entries")
            if prov is Provenance.MULTI_TOKEN and total > 1 + 1e-9:
                raise ValidationError(f"row {s}: weights sum to {total} > 1")

    @property
    def entry_count(self) -> int:
        return int(self._flat_w.size)

    def product(self, p_s: np.ndarray) -> np.ndarray:
        """Unnormalized projected vector ``W^T p_s`` over the teacher vocabulary."""
        return np.bincount(self._flat_t, weights=self._flat_w * p_s[self._flat_s],
                           minlength=self.n_teacher)

    def transpose_product(self, d_q: np.ndarray) -> np.ndarray:
        """``W d_q`` over the student vocabulary: pulls a teacher-space
        gradient back through ``product``."""
        return np.bincount(self._flat_s, weights=self._flat_w * d_q[self._flat_t],
                           minlength=self.n_student)

    def entry_gradient(self, p_s: np.ndarray, d_q: np.ndarray) -> np.ndarray:
        """Gradient of ``d_q . product(p_s)`` in the stored entries, in
        ``entries()`` order."""
        return p_s[self._flat_s] * d_q[self._flat_t]

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Stored entries as (student_id, teacher_id, weight), row-major."""
        for s, t, w in zip(self._flat_s, self._flat_t, self._flat_w):
            yield int(s), int(t), float(w)

    def with_weights(self, flat_weights: np.ndarray) -> "SparseProjection":
        """Same sparsity pattern with replaced entry weights (for refinement)."""
        flat = np.asarray(flat_weights, dtype=float)
        if flat.shape != self._flat_w.shape:
            raise ValidationError("weight vector does not match the stored entries")
        rows: list[list[tuple[int, float]]] = [[] for _ in range(self.n_student)]
        for s, t, w in zip(self._flat_s, self._flat_t, flat):
            rows[int(s)].append((int(t), float(w)))
        return SparseProjection(self.n_student, self.n_teacher, rows, self.provenance, self.config)

    def summary(self) -> dict:
        """Provenance histogram and truncation-dropped mass statistics."""
        hist = {p.value: 0 for p in Provenance}
        dropped = []
        for row, prov in zip(self.rows, self.provenance):
            hist[prov.value] += 1
            if prov is Provenance.MULTI_TOKEN:
                dropped.append(1.0 - sum(w for _, w in row))
        return {
            "rows": self.n_student,
            "provenance": hist,
            "dropped_mass_mean": float(np.mean(dropped)) if dropped else 0.0,
            "dropped_mass_max": float(np.max(dropped)) if dropped else 0.0,
        }


def build_projection(vs: Vocabulary, vt: Vocabulary, tok_t: Tokenizer,
                     config: ProjectionConfig = ProjectionConfig()) -> SparseProjection:
    """Two-pass rule-based construction of the projection matrix.

    The exact pass gives every student token with an ``exact_partners``
    partner a single entry of weight 1. Specials without one are never
    re-tokenized; they and every other unmappable row stay empty and are
    flagged.
    """
    if len(vs) == 0 or len(vt) == 0:
        raise ValidationError("both vocabularies must be nonempty")
    if tok_t.vocabulary is not vt and tok_t.vocabulary != vt:
        raise ValidationError("teacher tokenizer does not carry the teacher vocabulary")

    rows: list[list[tuple[int, float]]] = []
    provenance: list[Provenance] = []
    for s, exact in enumerate(exact_partners(vs, vt)):
        if exact is not None:
            rows.append([(exact, 1.0)])
            provenance.append(Provenance.EXACT)
            continue

        sub_ids: list[int] | None = None
        if not vs.is_special(s):
            try:
                sub_ids = tok_t.encode(vs.canonical(s).decode("utf-8"))
            except (UnicodeDecodeError, UnencodableTextError):
                pass
        if not sub_ids or len(sub_ids) > config.max_span:
            rows.append([])
            provenance.append(Provenance.EMPTY)
            continue

        raw = decay_weights(len(sub_ids), config.beta, config.gamma)
        accum: dict[int, float] = {}
        for tid, w in zip(sub_ids, raw):
            accum[tid] = accum.get(tid, 0.0) + float(w)
        rows.append(sorted(accum.items(), key=lambda tw: (-tw[1], tw[0]))[: config.top_k])
        provenance.append(Provenance.MULTI_TOKEN)

    return SparseProjection(len(vs), len(vt), rows, provenance, config)


def project(w: SparseProjection, p_s, renormalize: bool = True) -> np.ndarray:
    """Push a student distribution through the projection.

    Renormalization compensates mass dropped by row truncation and by empty
    rows; the result is a probability vector over the teacher vocabulary.
    """
    p = np.asarray(p_s, dtype=float)
    if p.shape != (w.n_student,):
        raise ValidationError(f"expected a vector of length {w.n_student}, got shape {p.shape}")
    if p.min(initial=0.0) < -1e-12:
        raise ValidationError("input distribution has negative entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"input distribution sums to {p.sum()}, not 1")

    q = w.product(p)
    if renormalize:
        mass = q.sum()
        if mass < _MASS_FLOOR:
            raise DegenerateDistributionError(
                "projection left no probability mass (all mass on empty rows)"
            )
        q /= mass
    return q


def top1(w: SparseProjection, student_id: int) -> tuple[int, float] | None:
    """Highest-weight teacher partner of a student token, or None for empty rows."""
    if not 0 <= student_id < w.n_student:
        raise ValidationError(f"student id {student_id} out of range")
    row = w.rows[student_id]
    return row[0] if row else None


def apply_w_gradient(w: SparseProjection, p_s, upstream) -> np.ndarray:
    """Gradient of ``upstream . project(w, p_s)`` in the stored entries.

    Differentiates through the output renormalization, so a refinement step
    sees exactly the function the loss sees. Returns one value per stored
    entry, in ``entries()`` order. Degenerate inputs (no projected mass)
    yield a zero gradient.
    """
    p = np.asarray(p_s, dtype=float)
    u = np.asarray(upstream, dtype=float)
    if p.shape != (w.n_student,) or u.shape != (w.n_teacher,):
        raise ValidationError("shapes inconsistent with the projection")

    q_raw = w.product(p)
    mass = q_raw.sum()
    if mass < _MASS_FLOOR:
        return np.zeros(w.entry_count, dtype=float)
    return w.entry_gradient(p, (u - float(u @ q_raw) / mass) / mass)


def _row_record(s: int, row, prov: Provenance) -> str:
    return json.dumps(
        {"s": s, "entries": [[t, w] for t, w in row], "provenance": prov.value},
        sort_keys=True,
        separators=(",", ":"),
    )


def save_projection(w: SparseProjection, path) -> None:
    """Header record plus one JSON line per nonempty row; hash-protected."""
    lines = [
        _row_record(s, row, prov)
        for s, (row, prov) in enumerate(zip(w.rows, w.provenance))
        if row
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    header = {
        "n_student": w.n_student,
        "n_teacher": w.n_teacher,
        "config": asdict(w.config),
        "content_hash": digest,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
        for line in lines:
            fh.write(line)
            fh.write("\n")


_HEADER_FIELDS = {"n_student": int, "n_teacher": int, "config": dict, "content_hash": str}


def load_projection(path) -> SparseProjection:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValidationError(f"{path}: missing projection header")
    header = check_fields(json.loads(lines[0]), _HEADER_FIELDS, path, "header.",
                          required=_HEADER_FIELDS)
    config = ProjectionConfig(**check_fields(header["config"],
                                             typing.get_type_hints(ProjectionConfig), path,
                                             "header.config."))
    body = lines[1:]
    digest = hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()
    if digest != header["content_hash"]:
        raise ValidationError(f"{path}: content hash mismatch, file corrupted or edited")

    n_student, n_teacher = header["n_student"], header["n_teacher"]
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n_student)]
    provenance = [Provenance.EMPTY] * n_student
    seen: set[int] = set()
    for lineno, line in enumerate(body, start=2):
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not isinstance(rec, dict):
            raise ValidationError(f"{path}: line {lineno}: not a JSON object")
        field = "s"
        try:
            s = rec[field]
            field = "entries"
            row = [(t, w) for t, w in rec[field]]
            field = "provenance"
            prov = Provenance(rec[field])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: line {lineno}: cannot read row field {field!r} "
                                  f"({type(exc).__name__}: {exc})") from None
        if type(s) is not int or not 0 <= s < n_student or s in seen:
            raise ValidationError(
                f"{path}: row field 's' = {s!r} is not a new student id in [0, {n_student})"
            )
        seen.add(s)
        rows[s] = row
        provenance[s] = prov
    try:
        return SparseProjection(n_student, n_teacher, rows, provenance, config)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
