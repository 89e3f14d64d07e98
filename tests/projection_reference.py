"""Per-row reference for ``crosstok.projection.SparseProjection``.

The tuple-of-tuples storage and the row-by-row validation loop that the CSR
arrays replaced, kept as the slow reference they are property-tested
against, together with the summary, ``top1``, relaxed common set and saved
file bytes derived from those rows (packed with ``struct``, not numpy, by
``pack_body``, which with ``sealed_file`` and ``unpack_file`` also lets tests
write a sealed file from arbitrary arrays). ``top1(w, s)`` reads the same answer
from a ``SparseProjection``'s CSR arrays, and ``apply_w_gradient``
differentiates ``project`` in its stored entries, one entry at a time.
``build_projection`` is the per-row builder that the flat one in
``crosstok.projection`` replaced, and ``lexsort_validate`` the
``SparseProjection._validate`` that found repeated teacher ids with
``np.lexsort``. Checks run in the order of the loop: entry
count, repeated teacher ids, then per entry the id range and a positive
weight, then the exact, empty and row-sum rules; the first failing check
names its row.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np

import vocab_reference
from crosstok import projection
from crosstok.chunks import renormalize_on
from crosstok.errors import UnencodableTextError, ValidationError
from crosstok.projection import ProjectionConfig, Provenance, SparseProjection, decay_weights


class ReferenceProjection:

    def __init__(self, n_student, n_teacher, rows, provenance, config) -> None:
        if len(rows) != n_student or len(provenance) != n_student:
            raise ValidationError("rows and provenance must cover every student id")
        self.n_student = n_student
        self.n_teacher = n_teacher
        self._flat_s = np.repeat(np.arange(n_student, dtype=np.intp), [len(row) for row in rows])
        self._flat_entries(rows, 0, (int, np.integer), np.intp, "teacher id", "an integer")
        self._flat_entries(rows, 1, (int, float, np.integer, np.floating), float,
                           "weight", "a number")
        self.rows = tuple(tuple((int(t), float(w)) for t, w in row) for row in rows)
        self.provenance = tuple(Provenance(p) for p in provenance)
        self.config = config
        self._validate()

    def _flat_entries(self, rows, field, types, dtype, name, expected):
        values = [entry[field] for row in rows for entry in row]
        bad = {tp for tp in set(map(type, values)) if tp is bool or not issubclass(tp, types)}
        if bad:
            at = next(i for i, v in enumerate(values) if type(v) in bad)
            raise ValidationError(f"row {self._flat_s[at]}: {name} {values[at]!r} is not {expected}")
        try:
            return np.asarray(values, dtype=dtype)
        except OverflowError:
            raise ValidationError(f"a {name} is out of range") from None

    def _validate(self) -> None:
        for s, (row, prov) in enumerate(zip(self.rows, self.provenance)):
            if len(row) > self.config.top_k:
                raise ValidationError(f"row {s} has {len(row)} entries, top_k={self.config.top_k}")
            total = 0.0
            if len(row) > 1 and len({t for t, _ in row}) != len(row):
                raise ValidationError(f"row {s}: a teacher id repeats in its entries")
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

    def summary(self) -> dict:
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

    def top1(self, s):
        row = self.rows[s]
        return row[0] if row else None

    def common_set_relaxed(self) -> tuple[tuple[int, int], ...]:
        ranked = sorted((self.provenance[s] is not Provenance.EXACT, -row[0][1], s, row[0][0])
                        for s, row in enumerate(self.rows) if row)
        chosen: dict[int, int] = {}
        for _, _, s, t in ranked:
            chosen.setdefault(t, s)
        return tuple(sorted((s, t) for t, s in chosen.items()))

    def saved_bytes(self) -> bytes:
        """The header line, then the rows as ``pack_body`` packs them."""
        counts = [len(row) for row in self.rows]
        header = {"n_student": self.n_student, "n_teacher": self.n_teacher,
                  "config": asdict(self.config), "entries": sum(counts)}
        return sealed_file(header, pack_body({
            "counts": counts, "provenance": self.provenance,
            "teacher_ids": [t for row in self.rows for t, _ in row],
            "weights": [w for row in self.rows for _, w in row]}))


# The projection file body, written independently of numpy: each field in file
# order with its ``struct`` code, all little-endian, and the provenance codes.
BODY_FORMATS = {"counts": "q", "provenance": "b", "teacher_ids": "q", "weights": "d"}
CODES = [p.value for p in Provenance]


def pack_body(body: dict) -> bytes:
    """``body``'s lists as raw body bytes; provenance may be ``Provenance``
    values (packed as their codes) or codes. A value no raw body can hold (an
    id that is not an int of int64, a weight that is not a float) raises
    ``TypeError`` or ``struct.error``."""
    provenance = [CODES.index(p) if isinstance(p, str) else p for p in body["provenance"]]
    out = []
    for key, code in BODY_FORMATS.items():
        values = provenance if key == "provenance" else body[key]
        if any(type(v) is not (float if code == "d" else int) for v in values):
            raise TypeError(f"{key} holds a value that a raw body cannot hold")
        out.append(struct.pack(f"<{len(values)}{code}", *values))
    return b"".join(out)


def sealed_file(header: dict, body: bytes) -> bytes:
    """``header`` with the ``content_hash`` of ``body``, as one sorted-key JSON
    line, then ``body``."""
    header = {**header, "content_hash": hashlib.sha256(body).hexdigest()}
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode() + body


def unpack_file(data: bytes) -> tuple[dict, dict]:
    """A file's header and its body's lists (provenance as value strings)."""
    line, body = data.split(b"\n", 1)
    header = json.loads(line)
    sizes = {"counts": header["n_student"], "provenance": header["n_student"],
             "teacher_ids": header["entries"], "weights": header["entries"]}
    fields, at = {}, 0
    for key, code in BODY_FORMATS.items():
        fields[key] = list(struct.unpack_from(f"<{sizes[key]}{code}", body, at))
        at += struct.calcsize(f"<{sizes[key]}{code}")
    fields["provenance"] = [CODES[c] for c in fields["provenance"]]
    return header, fields


def lexsort_validate(self) -> None:
    """``SparseProjection._validate`` as it was before its one-key sort: a
    repeated teacher id is found with ``np.lexsort`` by row, then id."""
    n, at, s, t, w = self.n_student, self._indptr, self._flat_s, self._flat_t, self._flat_w
    counts, top_k, order = np.diff(at), self.config.top_k, np.lexsort((t, s))
    bad_t = (t < 0) | (t >= self.n_teacher)
    first = np.flatnonzero(bad_t | ~(w > 0))[:1]
    sums = np.bincount(s, weights=w, minlength=n)
    where = np.flatnonzero
    kind, exact, multi, empty = self._kind, projection._EXACT, projection._MULTI, projection._EMPTY
    checks = [
        (where(counts > top_k), lambda r: f"row {r} has {counts[r]} entries, top_k={top_k}"),
        (s[order][1:][(np.diff(s[order]) == 0) & (np.diff(t[order]) == 0)],
         lambda r: f"row {r}: a teacher id repeats in its entries"),
        (s[first[bad_t[first]]], lambda r: f"row {r}: teacher id {t[first[0]]} out of range"),
        (s[first[~bad_t[first]]], lambda r: f"row {r}: non-positive weight {w[first[0]]}"),
        (where((kind == exact) & ((counts != 1) | (np.append(w, 0.0)[at[:-1]] != 1.0))),
         lambda r: f"row {r}: exact rows hold a single entry of weight 1"),
        (where((kind == empty) & (counts > 0)),
         lambda r: f"row {r}: empty provenance with entries"),
        (where((kind == multi) & (sums > 1 + 1e-9)),
         lambda r: f"row {r}: weights sum to {float(sums[r])} > 1"),
    ]
    firsts = [int(np.min(rows, initial=n)) for rows, _ in checks]
    if min(firsts) < n:
        raise ValidationError(checks[firsts.index(min(firsts))][1](min(firsts)))


def top1(w, s: int):
    """Highest-weight teacher partner ``(teacher_id, weight)`` of student id
    ``s`` in a ``SparseProjection``, read from its CSR arrays, or None for an
    empty row."""
    if not 0 <= s < w.n_student:
        raise ValidationError(f"student id {s} out of range")
    at = w._indptr[s]
    return (int(w._flat_t[at]), float(w._flat_w[at])) if at < w._indptr[s + 1] else None


def apply_w_gradient(w, p_s, upstream) -> np.ndarray:
    """Gradient of ``upstream . project(w, p_s)`` in the stored entries, one
    value per entry in ``entries()`` order.

    The chain rule through the product and the output renormalization,
    written out per entry: entry ``(s, t)`` gets
    ``p_s[s] * (upstream[t] - upstream . q) / mass``, where ``q`` is the
    renormalized projection and ``mass`` the projected mass. Takes the same
    inputs as ``project`` and raises the same errors, including for no
    projected mass.
    """
    p = projection._student_distribution(w, p_s)
    u = np.asarray(upstream, dtype=float)
    if u.shape != (w.n_teacher,):
        raise ValidationError(f"expected an upstream vector of length {w.n_teacher}, "
                              f"got shape {u.shape}")
    entries = list(w.entries())
    q_raw = np.zeros(w.n_teacher)
    for s, t, weight in entries:
        q_raw[t] += weight * p[s]
    mass = renormalize_on(q_raw, slice(None), "projected student")[1]
    shift = float(u @ q_raw) / mass
    return np.array([p[s] * (u[t] - shift) / mass for s, t, _ in entries])


def build_projection(vs, vt, tok_t, config=ProjectionConfig()):
    """One loop iteration and one list of ``(teacher_id, weight)`` tuples per
    student row, repeated teacher ids summed in a dict, each row sorted and
    cut to ``top_k``, then ``SparseProjection.from_rows``; partners
    and sub-tokens come from ``vocab_reference``. A row whose sub-tokens
    hold a teacher special stays empty."""
    if len(vs) == 0 or len(vt) == 0:
        raise ValidationError("both vocabularies must be nonempty")
    if tok_t.vocabulary is not vt and tok_t.vocabulary != vt:
        raise ValidationError("teacher tokenizer does not carry the teacher vocabulary")

    span_weights = functools.cache(lambda n: decay_weights(n, config.beta, config.gamma).tolist())
    rows = []
    provenance = []
    for s, exact in enumerate(vocab_reference.exact_partners(vs, vt)):
        sub_ids = []
        if exact is None and not vs.is_special(s):
            try:
                sub_ids = vocab_reference.encode(vt, vs.canonical(s).decode("utf-8"))
            except (UnicodeDecodeError, UnencodableTextError):
                pass
        if exact is not None:
            row, prov = [(exact, 1.0)], Provenance.EXACT
        elif (not sub_ids or len(sub_ids) > config.max_span
              or any(vt.is_special(t) for t in sub_ids)):
            row, prov = [], Provenance.EMPTY
        else:
            accum = {}
            for tid, w in zip(sub_ids, span_weights(len(sub_ids))):
                accum[tid] = accum.get(tid, 0.0) + w
            row = sorted(accum.items(), key=lambda tw: (-tw[1], tw[0]))[: config.top_k]
            prov = Provenance.MULTI_TOKEN
        rows.append(row)
        provenance.append(prov)

    return SparseProjection.from_rows(len(vt), rows, provenance, config)
