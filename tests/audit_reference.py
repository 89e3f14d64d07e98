"""The per-token category predicates that ``crosstok.audit``'s byte-class
table replaced, kept as the reference ``_default_members`` is property-tested
against. Each takes a canonical token's bytes decoded as latin-1 (total on
bytes, so every token has a text), and ``CATEGORIES`` lists them in the
audit table's order."""

import re
import string

_PUNCT = frozenset(string.punctuation)
_ALPHA = re.compile(r" ?[A-Za-z]+\Z")

CATEGORIES = (
    ("1-digit", lambda s: len(s) == 1 and s.isdigit() and s.isascii()),
    ("2-digit", lambda s: len(s) == 2 and s.isdigit() and s.isascii()),
    ("3-digit", lambda s: len(s) == 3 and s.isdigit() and s.isascii()),
    ("ascii-punct", lambda s: bool(s) and _PUNCT.issuperset(s)),
    ("alphabetic", lambda s: bool(_ALPHA.match(s))),
    ("non-ascii", lambda s: not s.isascii()),
)


def text(canon: bytes) -> str:
    return canon.decode("latin-1")


def members(canon, predicate) -> list[int]:
    """The ids of the canonical tokens ``canon`` that ``predicate`` takes."""
    return [i for i, b in enumerate(canon) if predicate(text(b))]


def coverage(canon, common) -> list[tuple[str, int, int]]:
    """Per category: its name, how many of its members are in ``common`` (a
    set of ids), and its size."""
    rows = []
    for name, predicate in CATEGORIES:
        ids = members(canon, predicate)
        rows.append((name, len(common.intersection(ids)), len(ids)))
    return rows
