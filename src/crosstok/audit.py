"""Coverage audit of the common set by token category, and loss-mode selection.

Predicates run on canonical token text. The default categories are mutually
exclusive, so the table reads as disjoint counts: digit strings by length,
ASCII punctuation, alphabetic (with an optional leading space), and anything
containing a non-ASCII byte.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, json_line
from .losses import CommonSet
from .vocab import Vocabulary

PKL_MODE = "pkl"
HKL_MODE = "hkl"

DEFAULT_CRITICAL = ("2-digit", "3-digit")


@dataclass(frozen=True)
class CategoryRule:
    name: str
    predicate: Callable[[str], bool]


def _decode(canon: bytes) -> str:
    # latin-1 is total on bytes, so predicates always see a string
    return canon.decode("latin-1")


_PUNCT = frozenset(string.punctuation)
_ALPHA = re.compile(r" ?[A-Za-z]+\Z")


def default_rules() -> tuple[CategoryRule, ...]:
    return (
        CategoryRule("1-digit", lambda s: len(s) == 1 and s.isdigit() and s.isascii()),
        CategoryRule("2-digit", lambda s: len(s) == 2 and s.isdigit() and s.isascii()),
        CategoryRule("3-digit", lambda s: len(s) == 3 and s.isdigit() and s.isascii()),
        CategoryRule("ascii-punct", lambda s: bool(s) and _PUNCT.issuperset(s)),
        CategoryRule("alphabetic", lambda s: bool(_ALPHA.match(s))),
        CategoryRule("non-ascii", lambda s: not s.isascii()),
    )


# Byte classes, one bit each; a token's classes are the OR over its bytes.
_DIGIT, _LETTER, _PUNCT_CLASS, _SPACE, _HIGH, _OTHER = 1, 2, 4, 8, 16, 32
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[np.frombuffer(string.digits.encode(), np.uint8)] = _DIGIT
_BYTE_CLASS[np.frombuffer(string.ascii_letters.encode(), np.uint8)] = _LETTER
_BYTE_CLASS[np.frombuffer(string.punctuation.encode(), np.uint8)] = _PUNCT_CLASS
_BYTE_CLASS[ord(" ")] = _SPACE
_BYTE_CLASS[0x80:] = _HIGH


def _default_members(canon: Sequence[bytes]) -> list[np.ndarray]:
    """Per ``default_rules()`` category, in order, the mask of its members
    among ``canon``, counted from the byte classes of the joined bytes."""
    lengths = np.fromiter(map(len, canon), dtype=np.intp, count=len(canon))
    filled = np.flatnonzero(lengths)
    starts = (lengths.cumsum() - lengths)[filled]
    classes = _BYTE_CLASS[np.frombuffer(b"".join(canon), dtype=np.uint8)]
    # for each nonempty token: all its classes, its first byte's, and those after it
    every, first, after = (np.zeros(len(canon), dtype=np.uint8) for _ in range(3))
    every[filled] = np.bitwise_or.reduceat(classes, starts)
    first[filled] = classes[starts]
    classes[starts] = 0
    after[filled] = np.bitwise_or.reduceat(classes, starts)
    del classes
    digits = every == _DIGIT
    return [digits & (lengths == 1), digits & (lengths == 2), digits & (lengths == 3),
            every == _PUNCT_CLASS,
            (every == _LETTER) | ((first == _SPACE) & (after == _LETTER)),
            (every & _HIGH) != 0]


@dataclass(frozen=True)
class CoverageRow:
    category: str
    matched: int
    size: int

    def __post_init__(self) -> None:
        if not 0 <= self.matched <= self.size:
            raise ValidationError(
                f"category {self.category!r}: matched {self.matched} of {self.size}"
            )

    @property
    def fraction(self) -> float | None:
        """matched / size, or None for an empty category."""
        if self.size == 0:
            return None
        return self.matched / self.size


def audit_coverage(vs: Vocabulary, c: CommonSet,
                   rules: Sequence[CategoryRule] = ()) -> list[CoverageRow]:
    """Count, per category, the student tokens that survive into the common set.

    Without ``rules`` the ``default_rules()`` categories are counted from the
    byte-class table; given rules run their predicates per token. Every
    common-set student id must be an id of ``vs``.
    """
    if c.student_ids.max(initial=-1) >= len(vs):
        raise ValidationError(f"common-set student id {c.student_ids.max()} is outside the "
                              f"student vocabulary of size {len(vs)}")
    common = np.zeros(len(vs), dtype=bool)
    common[c.student_ids] = True
    if not rules:
        return [CoverageRow(rule.name, int(np.count_nonzero(members & common)),
                            int(np.count_nonzero(members)))
                for rule, members in zip(default_rules(), _default_members(vs._canon))]
    flags = common.tolist()
    texts = list(map(_decode, vs._canon))
    rows = []
    for rule in rules:
        members = list(compress(flags, map(rule.predicate, texts)))  # each member's common flag
        rows.append(CoverageRow(rule.name, sum(members), len(members)))
    return rows


def recommend_mode(coverage: Sequence[CoverageRow],
                   critical: Sequence[str] = DEFAULT_CRITICAL,
                   threshold: float = 1.0) -> str:
    """Pick the projection loss when any critical category falls below the
    threshold, the relaxed hybrid loss otherwise. Empty critical categories
    are skipped. Every critical name must be a category, and the threshold
    a fraction in [0, 1]; both are checked before anything is decided."""
    if not 0 <= threshold <= 1:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    by_name = {row.category: row for row in coverage}
    unknown = [name for name in critical if name not in by_name]
    if unknown:
        raise ValidationError(f"unknown critical category {unknown[0]!r}")
    if any(by_name[name].size > 0 and by_name[name].fraction < threshold for name in critical):
        return PKL_MODE
    return HKL_MODE


def coverage_table(coverage: Sequence[CoverageRow]) -> str:
    """Aligned text table."""
    name_w = max([len(r.category) for r in coverage] + [8])
    lines = [f"{'category':<{name_w}}  {'common':>12}  {'fraction':>8}"]
    for row in coverage:
        frac = "n/a" if row.fraction is None else f"{100 * row.fraction:.1f}%"
        lines.append(f"{row.category:<{name_w}}  {row.matched:>5}/{row.size:<6}  {frac:>8}")
    return "\n".join(lines)


def coverage_json(coverage: Sequence[CoverageRow], recommendation: str | None = None) -> str:
    payload = {
        "rows": [
            {"category": r.category, "matched": r.matched, "size": r.size,
             "fraction": r.fraction}
            for r in coverage
        ],
    }
    if recommendation is not None:
        payload["recommendation"] = recommendation
    return json_line(payload)
