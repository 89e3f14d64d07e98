"""Row-sparse projection of student-token probability mass onto teacher tokens.

Rows are built in two passes: tokens with an exact partner
(``vocab.exact_partners``) get a single entry of weight 1; every other
ordinary student token is re-tokenized with the teacher tokenizer and,
unless a sub-token is a teacher special, its sub-tokens receive
exponentially decaying weights, which are row-normalized and then truncated
to the top-k entries. Truncation can leave a multi-token
row summing to slightly less than 1, so ``project`` renormalizes its output.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import sys
import typing
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .chunks import renormalize_on
from .errors import (UnencodableTextError, ValidationError, check_fields, json_line, located,
                     parse_object, read_text)
from .vocab import Tokenizer, Vocabulary, exact_partners


@dataclass(frozen=True)
class ProjectionConfig:
    beta: float = 0.9
    gamma: float = 0.1
    max_span: int = 4
    top_k: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.gamma < self.beta <= 1:
            raise ValidationError(f"need 0 < gamma < beta <= 1, got beta={self.beta}, "
                                  f"gamma={self.gamma}")
        if self.top_k < 1:
            raise ValidationError("top_k must be at least 1")
        if self.max_span < 1:
            raise ValidationError("max_span must be at least 1")


class Provenance(str, Enum):
    EXACT = "exact"
    MULTI_TOKEN = "multi_token"
    EMPTY = "empty"


# A member hashes and compares as its value, so ``_KIND`` maps both to the code.
_KIND = {p: code for code, p in enumerate(Provenance)}
_MEMBERS = tuple(Provenance)
_EXACT, _MULTI, _EMPTY = (_KIND[p] for p in Provenance)


def decay_weights(length: int, beta: float = 0.9, gamma: float = 0.1) -> np.ndarray:
    """Normalized exponential-decay weights for a re-tokenized span."""
    if length < 1:
        raise ValidationError(f"span length must be at least 1, got {length}")
    raw = beta * gamma ** np.arange(length, dtype=float)
    return raw / raw.sum()


class SparseProjection:
    """Immutable row-sparse student-by-teacher weight matrix in CSR form.

    Row ``s`` owns the entries ``indptr[s]:indptr[s + 1]`` of the flat
    teacher-id and weight arrays, sorted by descending weight (ties toward
    the smaller teacher id), and each row's provenance as a ``_kind`` code.
    ``rows`` and ``provenance`` are tuple views derived on each access;
    ``from_rows`` builds one from such rows.
    """

    def __init__(self, n_student: int, n_teacher: int, counts: Sequence[int],
                 teacher_ids: Sequence[int], weights: Sequence[float], provenance: Sequence,
                 config: ProjectionConfig) -> None:
        """The one construction path, holding every rule. The arguments are the
        projection file's fields, checked before anything is allocated from
        ``n_student``: ``counts`` holds Python ints or is an integer array, and
        ``provenance`` holds ``Provenance`` members or their values, or is an
        ``int8`` array of codes (indexes into ``Provenance``)."""
        for key, count in (("n_student", n_student), ("n_teacher", n_teacher)):
            if type(count) is not int:  # a bool or a float is not a count
                raise ValidationError(f"{key} must be an int, got {count!r:.80}")
        if not 0 <= n_teacher <= sys.maxsize:
            raise ValidationError(f"n_teacher must be a count in [0, {sys.maxsize}], "
                                  f"got {n_teacher}")
        for key, values in (("counts", counts), ("provenance", provenance)):
            if len(values) != n_student:  # a negative n_student never matches
                raise ValidationError(f"{key} holds {len(values)} rows, n_student is {n_student}")
        array = isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"
        if (counts.min(initial=0) < 0 if array else
                set(map(type, counts)) - {int} or min(counts, default=0) < 0):
            bad = next(c for c in (counts.tolist() if array else counts)
                       if type(c) is not int or c < 0)
            raise ValidationError(f"counts holds {bad!r:.80}, not an entry count")
        total = int(counts.sum(dtype=object)) if array else sum(counts)  # exact, no list copy
        for key, values in (("teacher_ids", teacher_ids), ("weights", weights)):
            if len(values) != total:
                raise ValidationError(f"{key} holds {len(values)} entries, counts sums to {total}")
        codes = isinstance(provenance, np.ndarray) and provenance.dtype == np.int8
        try:
            kind = provenance if codes else np.array([_KIND[p] for p in provenance], dtype=np.int8)
        except (KeyError, TypeError):
            bad = next(p for p in provenance if not isinstance(p, str) or p not in _KIND)
            raise ValidationError(f"provenance holds {bad!r:.80}, not one of "
                                  f"{[p.value for p in Provenance]}") from None
        if (bad := kind[kind.view(np.uint8) >= len(_MEMBERS)]).size:  # a negative code too
            raise ValidationError(f"provenance holds code {bad[0]}, not in [0, {len(_MEMBERS)})")
        self.n_student, self.n_teacher = n_student, n_teacher
        self._indptr = np.zeros(n_student + 1, dtype=np.intp)
        np.cumsum(counts, dtype=np.intp, out=self._indptr[1:])
        self._flat_s = np.repeat(np.arange(n_student, dtype=np.intp), np.diff(self._indptr))
        self._flat_t = self._flat_entries(teacher_ids, (int, np.integer), np.intp, "teacher id",
                                          "an integer", "teacher_ids")
        self._flat_w = self._flat_entries(weights, (int, float, np.integer, np.floating), float,
                                          "weight", "a number", "weights")
        self._kind, self.config = kind, config
        self._memo: dict = {}  # data derived from the entries; ``with_weights`` drops it
        self._validate()

    @classmethod
    def from_rows(cls, n_teacher: int, rows: Sequence[Sequence[tuple[int, float]]],
                  provenance: Sequence, config: ProjectionConfig) -> "SparseProjection":
        """The projection whose row ``s`` holds the ``(teacher_id, weight)``
        pairs ``rows[s]`` in order; ``n_student`` is ``len(rows)``."""
        return cls(len(rows), n_teacher, [len(row) for row in rows],
                   [t for row in rows for t, _ in row], [w for row in rows for _, w in row],
                   provenance, config)

    def _flat_entries(self, values: list, types: tuple, dtype, name: str, expected: str,
                      field: str) -> np.ndarray:
        """One field of every entry, row-major, after one type check over the
        flat list (no silent ``int()``/``float()`` coercion; bools rejected)."""
        if isinstance(values, np.ndarray) and values.dtype == dtype:
            return values  # holds nothing of another type
        bad = {tp for tp in set(map(type, values)) if tp is bool or not issubclass(tp, types)}
        if bad:
            at = next(i for i, v in enumerate(values) if type(v) in bad)
            raise ValidationError(f"row {self._flat_s[at]}: {name} {values[at]!r} in {field} "
                                  f"is not {expected}")
        try:
            return np.asarray(values, dtype=dtype)
        except OverflowError:
            raise ValidationError(f"a {name} in {field} is out of range") from None

    def _validate(self) -> None:
        """Each check lists rows it rejects (the entry checks: the first bad
        entry's row). The first such row is reported by its first failing
        check, in this order: entry count, repeated teacher id, entry id
        range or weight, exact rule, empty rule, row sum."""
        n, at, s, t, w = self.n_student, self._indptr, self._flat_s, self._flat_t, self._flat_w
        counts, top_k = np.diff(at), self.config.top_k
        # one sortable key per entry: its row, then its teacher id's rank among
        # the distinct ids (a rank, so any id, negative or huge, fits)
        ranks, dense = np.unique(t, return_inverse=True)
        keys = np.sort(s * ranks.size + dense)
        bad_t = (t < 0) | (t >= self.n_teacher)
        first = np.flatnonzero(bad_t | ~(w > 0))[:1]  # the first bad entry; NaN is not positive
        sums = np.bincount(s, weights=w, minlength=n)  # in row order, like a running total
        where = np.flatnonzero
        checks = [
            (where(counts > top_k), lambda r: f"row {r} has {counts[r]} entries, top_k={top_k}"),
            (keys[1:][np.diff(keys) == 0] // ranks.size,
             lambda r: f"row {r}: a teacher id repeats in its entries"),
            (s[first[bad_t[first]]], lambda r: f"row {r}: teacher id {t[first[0]]} out of range"),
            (s[first[~bad_t[first]]], lambda r: f"row {r}: non-positive weight {w[first[0]]}"),
            (where((self._kind == _EXACT) & ((counts != 1) | (np.append(w, 0.0)[at[:-1]] != 1.0))),
             lambda r: f"row {r}: exact rows hold a single entry of weight 1"),
            (where((self._kind == _EMPTY) & (counts > 0)),
             lambda r: f"row {r}: empty provenance with entries"),
            (where((self._kind == _MULTI) & (sums > 1 + 1e-9)),
             lambda r: f"row {r}: weights sum to {float(sums[r])} > 1"),
        ]
        firsts = [int(np.min(rows, initial=n)) for rows, _ in checks]
        if min(firsts) < n:
            raise ValidationError(checks[firsts.index(min(firsts))][1](min(firsts)))

    @property
    def rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """``rows[s]`` is a tuple of ``(teacher_id, weight)`` pairs; built on each access."""
        pairs = tuple(zip(self._flat_t.tolist(), self._flat_w.tolist()))
        bounds = self._indptr.tolist()
        return tuple(pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    @property
    def provenance(self) -> tuple[Provenance, ...]:
        """``provenance[s]`` is row ``s``'s ``Provenance``; built on each access."""
        return tuple(map(_MEMBERS.__getitem__, self._kind.tolist()))

    def _first_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Student id, teacher id, weight and exactness of each nonempty row's head."""
        s = np.flatnonzero(np.diff(self._indptr))
        at = self._indptr[s]
        return s, self._flat_t[at], self._flat_w[at], self._kind[s] == _EXACT

    @property
    def entry_count(self) -> int:
        return int(self._flat_w.size)

    def product(self, p_s: np.ndarray) -> np.ndarray:
        """Unnormalized projected vector ``W^T p_s`` over the teacher vocabulary;
        an ``n_teacher`` too large to allocate it is a ValidationError."""
        weights = self._flat_w * p_s[self._flat_s]
        try:
            return np.bincount(self._flat_t, weights=weights, minlength=self.n_teacher)
        except (ValueError, MemoryError):  # numpy's "array is too big", or out of memory
            raise ValidationError(f"a teacher-space vector of n_teacher {self.n_teacher} "
                                  "entries cannot be allocated") from None

    def pullback(self, p_s: np.ndarray, d_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A teacher-space gradient ``d_q`` pulled back through ``product(p_s)``:
        ``W d_q`` over the student vocabulary, and the gradient in the stored
        entries (``entries()`` order), from one gather of ``d_q``."""
        d_e = d_q[self._flat_t]
        return (np.bincount(self._flat_s, weights=self._flat_w * d_e, minlength=self.n_student),
                p_s[self._flat_s] * d_e)

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Stored entries as (student_id, teacher_id, weight), row-major."""
        return zip(self._flat_s.tolist(), self._flat_t.tolist(), self._flat_w.tolist())

    def with_weights(self, flat_weights: np.ndarray) -> "SparseProjection":
        """Same sparsity pattern with replaced entry weights (for refinement)."""
        flat = np.array(flat_weights, dtype=float)
        if flat.shape != self._flat_w.shape:
            raise ValidationError("weight vector does not match the stored entries")
        out = copy.copy(self)
        out._flat_w, out._memo = flat, {}
        out._validate()
        return out

    def summary(self) -> dict:
        """Provenance histogram and truncation-dropped mass statistics."""
        hist = np.bincount(self._kind, minlength=len(Provenance))
        sums = np.bincount(self._flat_s, weights=self._flat_w, minlength=self.n_student)
        dropped = 1.0 - sums[self._kind == _MULTI]
        return {
            "rows": self.n_student,
            "provenance": {p.value: int(count) for p, count in zip(Provenance, hist)},
            "dropped_mass_mean": float(np.mean(dropped)) if dropped.size else 0.0,
            "dropped_mass_max": float(np.max(dropped)) if dropped.size else 0.0,
        }


def build_projection(vs: Vocabulary, vt: Vocabulary, tok_t: Tokenizer,
                     config: ProjectionConfig = ProjectionConfig()) -> SparseProjection:
    """Two-pass rule-based construction of the projection matrix.

    The exact pass gives every student token with an ``exact_partners``
    partner a single entry of weight 1. Specials without one are never
    re-tokenized, and a re-tokenized row that lands on a teacher special is
    dropped, since specials pair only by role; these and every other
    unmappable row stay empty and are flagged. Only the re-tokenized rows
    run Python code per row; their entries are merged (repeated teacher ids
    summed in span order), ranked and truncated in flat arrays.
    """
    if len(vs) == 0 or len(vt) == 0:
        raise ValidationError("both vocabularies must be nonempty")
    if tok_t.vocabulary is not vt and tok_t.vocabulary != vt:
        raise ValidationError("teacher tokenizer does not carry the teacher vocabulary")

    n_s, n_t = len(vs), len(vt)
    partners = exact_partners(vs, vt)
    exact_s = np.flatnonzero(partners >= 0)
    exact_t = partners[exact_s]
    retokenized = partners < 0
    retokenized[list(vs.specials)] = False
    span_weights = functools.cache(lambda n: decay_weights(n, config.beta, config.gamma).tolist())
    multi_s, sub_s, sub_t, sub_w = [], [], [], []
    for s in np.flatnonzero(retokenized).tolist():
        try:
            ids = tok_t.encode(vs.canonical(s).decode("utf-8"))
        except (UnicodeDecodeError, UnencodableTextError):
            continue
        if ids and len(ids) <= config.max_span and vt.specials.isdisjoint(ids):
            multi_s.append(s)
            sub_s += [s] * len(ids)
            sub_t += ids
            sub_w += span_weights(len(ids))

    # one entry per (s, t): bincount adds each key's weights in span order
    keys, inverse = np.unique(np.array(sub_s, dtype=np.int64) * n_t
                              + np.array(sub_t, dtype=np.int64), return_inverse=True)
    merged_w = np.bincount(inverse, weights=sub_w, minlength=keys.size)
    merged_s, merged_t = np.divmod(keys, n_t)
    order = np.lexsort((merged_t, -merged_w, merged_s))  # per row: weight down, then id up
    rank = np.arange(order.size) - np.searchsorted(merged_s[order], merged_s[order])
    kept = order[rank < config.top_k]

    flat_s = np.concatenate([exact_s, merged_s[kept]]).astype(np.intp, copy=False)
    flat_t = np.concatenate([exact_t, merged_t[kept]]).astype(np.intp, copy=False)
    flat_w = np.concatenate([np.ones(exact_s.size), merged_w[kept]])
    row_major = np.argsort(flat_s, kind="stable")
    codes = np.full(n_s, _EMPTY, dtype=np.int8)
    codes[exact_s], codes[multi_s] = _EXACT, _MULTI
    return SparseProjection(n_s, n_t, np.bincount(flat_s, minlength=n_s), flat_t[row_major],
                            flat_w[row_major], codes, config)


def _student_distribution(w: SparseProjection, p_s) -> np.ndarray:
    """``p_s`` as a float vector, checked to be a probability distribution over
    the projection's student vocabulary."""
    p = np.asarray(p_s, dtype=float)
    if p.shape != (w.n_student,):
        raise ValidationError(f"expected a vector of length {w.n_student}, got shape {p.shape}")
    if not p.min(initial=0.0) >= -1e-12:
        raise ValidationError("input distribution has negative or NaN entries")
    if not abs(p.sum() - 1.0) <= 1e-9:
        raise ValidationError(f"input distribution sums to {p.sum()}, not 1")
    return p


def project(w: SparseProjection, p_s) -> np.ndarray:
    """Push a student distribution through the projection and renormalize.

    Renormalization compensates mass dropped by row truncation and by empty
    rows; the result is a probability vector over the teacher vocabulary
    (``w.product`` is the vector before it). Raises
    DegenerateDistributionError when the mass sits on empty rows only.
    """
    return renormalize_on(w.product(_student_distribution(w, p_s)), slice(None),
                          "projected student")[0]


_BODY_FIELDS = {"counts": list, "provenance": list, "teacher_ids": list, "weights": list}


def save_projection(w: SparseProjection, path) -> None:
    """Header record plus one body record holding the CSR arrays; hash-protected.

    The body's fields, in sorted key order, are each row's entry count and
    provenance value, and every entry's teacher id and weight (row-major),
    as ``json`` writes them (``int`` and ``float.__repr__``). One field is
    formatted, hashed and encoded at a time.
    """
    fields = {"counts": np.diff(w._indptr).tolist, "provenance": lambda: w.provenance,
              "teacher_ids": w._flat_t.tolist, "weights": w._flat_w.tolist}
    digest, pieces = hashlib.sha256(), []
    for sep, (key, values) in zip("{,,,", fields.items()):
        pieces.append(f'{sep}"{key}":{json.dumps(values(), separators=(",", ":"))}'.encode("utf-8"))
        digest.update(pieces[-1])
    digest.update(b"}")
    pieces.append(b"}\n")
    header = {"n_student": w.n_student, "n_teacher": w.n_teacher, "config": asdict(w.config),
              "content_hash": digest.hexdigest()}
    with open(path, "wb") as fh:
        fh.write(json_line(header).encode("utf-8"))
        fh.writelines(pieces)


_HEADER_FIELDS = {"n_student": int, "n_teacher": int, "config": dict, "content_hash": str}


def load_projection(path) -> SparseProjection:
    """Read a projection file: a header record, then one body record.

    Only the header, its config, the content hash, the layout and the field
    types are checked here; the body's lists are the constructor's arguments,
    and every rule on them is ``SparseProjection``'s.
    """
    lines = read_text(path).split("\n")
    kept = [line for line in lines if line.strip()]
    if not kept:
        raise ValidationError(f"{path}: missing projection header")
    first = lines.index(kept[0]) + 1  # the header's file line
    header = check_fields(parse_object(kept[0], path, first), _HEADER_FIELDS, path, "header.",
                          required=_HEADER_FIELDS)
    constants = check_fields(header["config"], typing.get_type_hints(ProjectionConfig), path,
                             "header.config.")
    with located(f"{path}: header.config"):
        config = ProjectionConfig(**constants)
    if hashlib.sha256("\n".join(kept[1:]).encode("utf-8")).hexdigest() != header["content_hash"]:
        raise ValidationError(f"{path}: content hash mismatch, file corrupted or edited")
    body = parse_object(kept[1], path, lines.index(kept[1], first) + 1) if len(kept) == 2 else {}
    if len(kept) != 2 or "s" in body or "entries" in body:  # a row record has both
        found = (f"{len(kept) - 1} lines follow the header" if len(kept) != 2 else
                 "the line after the header is a row record")
        raise ValidationError(f"{path}: {found}, not one body record (a file of the old "
                              f"row-per-line layout?); rebuild the projection with "
                              f"`crosstok build-w`")
    del lines, kept
    check_fields(body, _BODY_FIELDS, path, required=_BODY_FIELDS)
    with located(path):
        return SparseProjection(header["n_student"], header["n_teacher"], config=config, **body)
