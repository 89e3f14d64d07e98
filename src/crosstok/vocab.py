"""Vocabularies, token canonicalization, and deterministic toy tokenizers.

Canonical forms are byte strings: ordinary text canonicalizes to its UTF-8
bytes, and byte-fallback tokens canonicalize to the raw byte they name. Keeping
bytes (rather than decoded text) means a multi-byte character split across two
byte-fallback tokens still concatenates to the same canonical form as the
intact character.
"""

from __future__ import annotations

import hashlib
import json
import re
import string
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (MalformedTokenError, UnencodableTextError, ValidationError, check_fields,
                     check_ids, check_int, located, parse_object, read_text, write_text)

# Glyphs that tokenizer families use to mark a leading space: U+0120 (GPT-2
# style), U+2581 (SentencePiece), U+2423 (visible space).
_SPACE_MARKERS = "\u0120\u2581\u2423"
_NEWLINE_MARKER = "\u010a"  # GPT-2 style newline
_ESCAPED_NEWLINE = "\\n"
_BYTE_FALLBACK = re.compile(r"<0x([0-9A-Fa-f]{2})>\Z")
_ASCII_PUNCT = frozenset(string.punctuation)
_SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def _canonical(raw: str, errors: str = "strict") -> bytes:
    """The canonicalization rules, applied to text and encoded with ``errors``.

    Rules, in order: the leading run of space-marker glyphs becomes as many
    literal spaces; newline markers (and the escaped form ``\\n``) become
    literal newlines; a whole-token byte-fallback form ``<0xHH>`` becomes that
    raw byte; a two-character leading-space-plus-ASCII-punctuation token drops
    the space.
    """
    rest = raw.lstrip(_SPACE_MARKERS)
    if len(rest) < len(raw):
        rest = " " * (len(raw) - len(rest)) + rest
    if _NEWLINE_MARKER in rest:
        rest = rest.replace(_NEWLINE_MARKER, "\n")
    if _ESCAPED_NEWLINE in rest:
        rest = rest.replace(_ESCAPED_NEWLINE, "\n")
    if rest.startswith("<0x") and rest.endswith(">"):
        m = _BYTE_FALLBACK.match(rest)
        if m is None:
            token = rest.encode("utf-8", errors)
            raise MalformedTokenError(f"malformed byte-fallback token {token!r}: payload is not "
                                      "two hex digits")
        return bytes([int(m.group(1), 16)])
    if len(rest) == 2 and rest[0] == " " and rest[1] in _ASCII_PUNCT:
        rest = rest[1]
    return rest.encode("utf-8", errors)


_PLACEHOLDER = "\x01"  # a leading-run marker, already counted but not yet a space


def _canonical_all(tokens: Sequence[str], specials: frozenset[int]) -> list[bytes]:
    """``_canonical`` of every token, with each special's raw UTF-8 in its place.

    The leading-run and newline rules run on the ``"\\0"``-joined list at
    once, and ``_canonical`` reruns only on the tokens whose form that pass
    cannot decide: 3 characters or fewer, or ending in ``>``. It reruns on
    every token when one holds ``"\\0"``, the placeholder or a lone
    surrogate, so the first bad token in id order raises as ``_canonical``
    raises it.
    """
    text = "\0" + "\0".join(tokens)  # every token, the first too, follows a "\0"
    canon: list[bytes] = [b""] * len(tokens)
    redo: Iterable[int] = range(len(tokens))
    if text.count("\0") == len(tokens) and _PLACEHOLDER not in text:
        lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
        ends = lengths.cumsum() + np.arange(len(tokens))  # last characters, or an empty one's "\0"
        try:
            last = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)[ends]
        except UnicodeEncodeError:  # a lone surrogate
            pass
        else:
            for marker in _SPACE_MARKERS:
                text = text.replace("\0" + marker, "\0" + _PLACEHOLDER)
            while any(_PLACEHOLDER + marker in text for marker in _SPACE_MARKERS):
                for marker in _SPACE_MARKERS:  # one more marker of each leading run
                    text = text.replace(_PLACEHOLDER + marker, _PLACEHOLDER * 2)
            text = text.replace(_PLACEHOLDER, " ").replace(_NEWLINE_MARKER, "\n")
            canon = text.replace(_ESCAPED_NEWLINE, "\n").encode("utf-8")[1:].split(b"\0")
            undecided = (lengths <= 3) | (last == ord(">"))
            undecided[list(specials)] = True
            redo = np.flatnonzero(undecided).tolist()
    del text
    for i in redo:
        canon[i] = tokens[i].encode("utf-8") if i in specials else _canonical(tokens[i])
    return canon


def canonicalize_bytes(raw: bytes) -> bytes:
    """Canonicalize a token given as bytes (any bytes, UTF-8 or not). Idempotent.

    The bytes are decoded with ``surrogateescape``, so a byte that is not
    UTF-8 passes through the rules of ``_canonical`` as itself.
    """
    return _canonical(raw.decode("utf-8", "surrogateescape"), "surrogateescape")


def canonicalize(raw: str) -> bytes:
    """Canonical form of a raw token string.

    A lone surrogate raises a ValidationError naming the first one and its position.
    """
    try:
        return _canonical(raw)
    except UnicodeEncodeError:
        m = _SURROGATE.search(raw)
        raise ValidationError(f"lone surrogate {m.group()!r} at position {m.start()}, which "
                              "UTF-8 cannot encode") from None


class Vocabulary:
    """An ordered token list with integer ids and special-token metadata.

    Ids are the positions in ``tokens`` (0..n-1, no gaps). ``specials`` flags
    ids that are control tokens; ``special_roles`` names them (e.g.
    ``{"bos": 3}``) so corresponding roles can be paired across vocabularies.
    Instances are immutable after construction, which lets
    ``vocabulary_hash`` compute the content hash once, ``id_of`` (the
    token-to-id map) and ``longest_by_first`` (the longest token per first
    character) be built once on first use, and ``_memo`` keep data derived
    from this vocabulary and another one, keyed by the other's hash.
    """

    def __init__(
        self,
        tokens: Iterable[str],
        specials: Iterable[int] = (),
        special_roles: Mapping[str, int] | None = None,
    ) -> None:
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.specials: frozenset[int] = frozenset(check_ids(specials, "specials").tolist())
        self.special_roles: Mapping[str, int] = MappingProxyType(dict(special_roles or {}))
        self._hash: str | None = None
        self._memo: dict = {}

        if set(map(type, self.tokens)) - {str}:
            i, tok = next((i, t) for i, t in enumerate(self.tokens) if type(t) is not str)
            raise ValidationError(f"tokens[{i}] must be a string, got {tok!r:.80}")
        if len(set(self.tokens)) < len(self.tokens):  # name the first repeat and its first id
            first: dict[str, int] = {}
            i = next(i for i, tok in enumerate(self.tokens) if first.setdefault(tok, i) != i)
            raise ValidationError(f"duplicate token string {self.tokens[i]!r} at ids "
                                  f"{first[self.tokens[i]]} and {i}")
        for sid in self.specials:
            if not 0 <= sid < len(self.tokens):
                raise ValidationError(f"special id {sid} outside vocabulary of size {len(self.tokens)}")
        self._roles_of: dict[int, frozenset[str]] = {}
        for role, rid in self.special_roles.items():
            if _SURROGATE.search(role):
                raise ValidationError(f"role {role!r} holds a lone surrogate, which UTF-8 "
                                      "cannot encode")
            if type(rid) is not int or rid not in self.specials:
                raise ValidationError(f"role {role!r} points to id {rid}, which is not a special")
            self._roles_of[rid] = self._roles_of.get(rid, frozenset()) | {role}
        # Specials pass through canonicalization untouched; they pair only by role.
        try:
            self._canon: tuple[bytes, ...] = tuple(_canonical_all(self.tokens, self.specials))
        except UnicodeEncodeError:
            i = next(i for i, tok in enumerate(self.tokens) if _SURROGATE.search(tok))
            raise ValidationError(f"token {i} {self.tokens[i]!r} holds a lone surrogate, which "
                                  "UTF-8 cannot encode") from None

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (
            self.tokens == other.tokens
            and self.specials == other.specials
            and self.special_roles == other.special_roles
        )

    def __repr__(self) -> str:
        return f"Vocabulary(size={len(self.tokens)}, specials={sorted(self.specials)})"

    def is_special(self, token_id: int) -> bool:
        return token_id in self.specials

    def canonical(self, token_id: int) -> bytes:
        """Canonical byte form of a token (raw bytes for specials)."""
        return self._canon[token_id]

    def roles_of(self, token_id: int) -> frozenset[str]:
        """Role names assigned to a special id (empty for ordinary tokens)."""
        return self._roles_of.get(token_id, frozenset())

    @cached_property
    def id_of(self) -> dict[str, int]:
        """Each token mapped to its id; built on first use, by ``Tokenizer.encode``."""
        return dict(zip(self.tokens, range(len(self.tokens))))

    @cached_property
    def longest_by_first(self) -> dict[str, int]:
        """Each first character of a token, mapped to the length of the longest
        token that starts with it; computed on first use."""
        longest: dict[str, int] = {}
        for token in filter(None, self.tokens):
            if len(token) > longest.get(token[0], 0):
                longest[token[0]] = len(token)
        return longest


def exact_partners(vs: Vocabulary, vt: Vocabulary) -> np.ndarray:
    """Per student id, the teacher id of the same token, or -1: an ``intp`` array.

    Specials pair only through a shared role and ordinary tokens only through
    equal canonical bytes; in both cases the smallest teacher id wins.
    """
    ordinary: Sequence[int] = range(len(vt))
    canon: Sequence[bytes] = vt._canon
    if vt.specials:  # specials pair only by role, so they leave the index
        ordinary = [t for t in ordinary if t not in vt.specials]
        canon = [canon[t] for t in ordinary]
    # built from the back, so a repeated canonical form keeps its smallest id
    by_canon = dict(zip(reversed(canon), reversed(ordinary)))
    partners = np.fromiter(map(by_canon.get, vs._canon, repeat(-1)), dtype=np.intp,
                           count=len(vs))
    for s in vs.specials:
        shared = [vt.special_roles[r] for r in vs.roles_of(s) if r in vt.special_roles]
        partners[s] = min(shared, default=-1)
    return partners


def _payload(vocab: Vocabulary) -> dict:
    """The vocabulary's file content, which its hash also covers."""
    return {
        "tokens": list(vocab.tokens),
        "specials": sorted(vocab.specials),
        "special_roles": dict(sorted(vocab.special_roles.items())),
    }


def vocabulary_hash(vocab: Vocabulary) -> str:
    """Stable content hash used to cross-check files against a loaded vocabulary.

    Computed on the first call and kept on the (immutable) vocabulary.
    """
    if vocab._hash is None:
        payload = json.dumps(_payload(vocab), ensure_ascii=False, separators=(",", ":"))
        vocab._hash = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return vocab._hash


def save_vocabulary(vocab: Vocabulary, path) -> None:
    write_text(path, json.dumps(_payload(vocab), ensure_ascii=False, indent=1) + "\n")


_SPECIAL_FIELDS = {"specials": list[int], "special_roles": dict[str, int]}


def load_vocabulary(path) -> Vocabulary:
    """Load a vocabulary file.

    The ``tokens`` field is either an array of strings (index = id) or a
    map token -> integer id; the map form is validated for duplicate ids and
    id gaps.
    ``specials`` and ``special_roles`` are type-checked; other keys are
    ignored. A blank file loads as an empty vocabulary.
    """
    text = read_text(path)
    if not text.strip():
        return Vocabulary(())
    data = parse_object(text, path)

    raw_tokens = data.get("tokens", [])
    if isinstance(raw_tokens, list):
        tokens = raw_tokens
    elif isinstance(raw_tokens, dict):
        by_id: dict[int, str] = {}
        for tok, tid in raw_tokens.items():
            check_int(tid, f"{path}: the id of token {tok!r}")
            if tid in by_id:
                raise ValidationError(
                    f"{path}: tokens {by_id[tid]!r} and {tok!r} share id {tid}"
                )
            by_id[tid] = tok
        tokens = []
        for i in range(len(by_id)):
            if i not in by_id:
                raise ValidationError(f"{path}: id range has a gap at id {i}")
            tokens.append(by_id[i])
    else:
        raise ValidationError(f"{path}: 'tokens' must be an array or a token->id map")

    specials = check_fields({k: data[k] for k in _SPECIAL_FIELDS if k in data},
                            _SPECIAL_FIELDS, path)
    with located(path):
        return Vocabulary(tokens, specials.get("specials", ()), specials.get("special_roles"))


class Tokenizer:
    """Deterministic greedy longest-match encoder over an explicit vocabulary."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        lookup = self.vocabulary.id_of
        longest = self.vocabulary.longest_by_first.get
        i = 0
        n = len(text)
        while i < n:
            for width in range(min(longest(text[i], 0), n - i), 0, -1):
                tid = lookup.get(text[i : i + width])
                if tid is not None:
                    ids.append(tid)
                    i += width
                    break
            else:
                raise UnencodableTextError(
                    f"no token matches text at position {i}: {text[i:i+8]!r}"
                )
        return ids


_ASCII_CHARS = tuple(chr(c) for c in range(128))
TOY_KINDS = ("digit_splitting", "numeral_preserving", "char_level", "word_level")


def make_toy_tokenizer(kind: str, corpus: Sequence[str] = ()) -> Tokenizer:
    """Build a small deterministic tokenizer of the given kind.

    ``digit_splitting`` and ``char_level`` cover all single ASCII characters,
    so every digit is its own token. ``numeral_preserving`` adds every two- and
    three-digit string, so greedy matching emits maximal digit runs up to
    length 3 as single tokens. ``word_level`` adds each whitespace-separated
    corpus word plus its space-prefixed variant, with single-character
    fallback.
    """
    if kind not in TOY_KINDS:
        raise ValidationError(f"unknown toy tokenizer kind {kind!r}; expected one of {TOY_KINDS}")
    tokens = list(_ASCII_CHARS)
    if kind == "numeral_preserving":
        tokens += [f"{i:02d}" for i in range(100)]
        tokens += [f"{i:03d}" for i in range(1000)]
    elif kind == "word_level":
        if not corpus:
            raise ValidationError("word_level tokenizer needs a nonempty corpus")
        words = sorted({w for line in corpus for w in line.split()})
        seen = set(tokens)
        for word in words:
            for form in (word, " " + word):
                if form not in seen:
                    seen.add(form)
                    tokens.append(form)
    return Tokenizer(Vocabulary(tokens))
