"""Per-row reference for ``crosstok.projection.SparseProjection``.

The tuple-of-tuples storage and the row-by-row validation loop that the CSR
arrays replaced, kept as the slow reference they are property-tested
against, together with the summary, ``top1``, relaxed common set and saved
file derived from those rows. ``top1(w, s)`` reads the same answer from a
``SparseProjection``'s CSR arrays, and ``apply_w_gradient`` differentiates
``project`` in its stored entries, one entry at a time. ``build_projection``, ``save_projection``
and ``load_projection`` are the per-row builder, writer and reader that the
flat ones in ``crosstok.projection`` replaced. Checks run in the order of the loop: entry
count, repeated teacher ids, then per entry the id range and a positive
weight, then the exact, empty and row-sum rules; the first failing check
names its row.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import typing
from dataclasses import asdict

import numpy as np

import vocab_reference
from crosstok import projection
from crosstok.chunks import renormalize_on
from crosstok.errors import (UnencodableTextError, ValidationError, check_fields, located,
                             parse_object, read_text)
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
        lines = [
            json.dumps({"s": s, "entries": [[t, w] for t, w in row], "provenance": prov.value},
                       sort_keys=True, separators=(",", ":"))
            for s, (row, prov) in enumerate(zip(self.rows, self.provenance))
            if row
        ]
        header = {
            "n_student": self.n_student,
            "n_teacher": self.n_teacher,
            "config": asdict(self.config),
            "content_hash": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
        }
        return "".join(line + "\n" for line in
                       [json.dumps(header, sort_keys=True, separators=(",", ":"))] + lines
                       ).encode("utf-8")


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
    cut to ``top_k``, then the rows form of ``SparseProjection``; partners
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

    return SparseProjection(len(vs), len(vt), rows, provenance, config)


def save_projection(w, path) -> None:
    """One ``JSONEncoder`` call per row's ``(teacher_id, weight)`` tuples."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    prov_json = {p: encode(p.value) for p in Provenance}
    lines = [f'{{"entries":{encode(row)},"provenance":{prov_json[prov]},"s":{s}}}'
             for s, (row, prov) in enumerate(zip(w.rows, w.provenance)) if row]
    header = {"n_student": w.n_student, "n_teacher": w.n_teacher, "config": asdict(w.config),
              "content_hash": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        fh.writelines(line + "\n" for line in lines)


_HEADER_FIELDS = {"n_student": int, "n_teacher": int, "config": dict, "content_hash": str}


def load_projection(path):
    """Rows as lists of ``(teacher_id, weight)`` tuples, one ``Provenance``
    per row, then the rows form of ``SparseProjection``; ``header.n_teacher``
    is not range-checked."""
    lines = read_text(path).split("\n")
    kept = [line for line in lines if line.strip()]
    if not kept:
        raise ValidationError(f"{path}: missing projection header")
    first = lines.index(kept[0]) + 1
    header = check_fields(parse_object(kept[0], path, first), _HEADER_FIELDS, path, "header.",
                          required=_HEADER_FIELDS)
    constants = check_fields(header["config"], typing.get_type_hints(ProjectionConfig), path,
                             "header.config.")
    with located(f"{path}: header.config"):
        config = ProjectionConfig(**constants)
    if hashlib.sha256("\n".join(kept[1:]).encode("utf-8")).hexdigest() != header["content_hash"]:
        raise ValidationError(f"{path}: content hash mismatch, file corrupted or edited")

    n_student, n_teacher = header["n_student"], header["n_teacher"]
    bad_count = ValidationError(f"{path}: header.n_student must be a row count in [0, "
                                f"{sys.maxsize}] that fits in memory, got {n_student}")
    if not 0 <= n_student <= sys.maxsize:
        raise bad_count
    try:
        rows = [()] * n_student
        provenance = [Provenance.EMPTY] * n_student
    except MemoryError:
        raise bad_count from None
    seen: set[int] = set()
    for lineno, line in enumerate(lines[first:], start=first + 1):
        if not line.strip():
            continue
        rec = parse_object(line, path, lineno)
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
            raise ValidationError(f"{path}: row field 's' = {s!r} is not a new student id "
                                  f"in [0, {n_student})")
        seen.add(s)
        rows[s] = row
        provenance[s] = prov
    with located(path):
        return SparseProjection(n_student, n_teacher, rows, provenance, config)
