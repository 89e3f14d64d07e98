"""The byte-loop canonicalization that ``crosstok.vocab._canonical`` replaced,
kept as the reference it is property-tested against: the rules walk the
token's UTF-8 bytes (leading space markers one at a time, then the newline
replacements, the byte-fallback form and the space-plus-punctuation pair)."""

import re
import string

from crosstok.errors import MalformedTokenError

_SPACE_MARKERS = (b"\xc4\xa0", b"\xe2\x96\x81", b"\xe2\x90\xa3")
_NEWLINE_MARKER = b"\xc4\x8a"  # U+010A, GPT-2 style newline
_ESCAPED_NEWLINE = b"\\n"
_BYTE_FALLBACK = re.compile(rb"<0x([0-9A-Fa-f]{2})>\Z")
_ASCII_PUNCT = frozenset(string.punctuation.encode("ascii"))


def canonicalize_bytes(raw: bytes) -> bytes:
    out = b""
    rest = raw
    while True:
        for marker in _SPACE_MARKERS:
            if rest.startswith(marker):
                out += b" "
                rest = rest[len(marker):]
                break
        else:
            break
    rest = rest.replace(_NEWLINE_MARKER, b"\n").replace(_ESCAPED_NEWLINE, b"\n")
    rest = out + rest

    if rest.startswith(b"<0x") and rest.endswith(b">"):
        m = _BYTE_FALLBACK.match(rest)
        if m is None:
            raise MalformedTokenError(
                f"malformed byte-fallback token {rest!r}: payload is not two hex digits"
            )
        rest = bytes([int(m.group(1), 16)])

    if len(rest) == 2 and rest[0] == 0x20 and rest[1] in _ASCII_PUNCT:
        rest = rest[1:]
    return rest


def vocabulary_canon(tokens, specials) -> tuple[bytes, ...]:
    """``Vocabulary._canon`` as the byte loop computed it: specials keep their
    UTF-8 bytes, and a lone surrogate raises ``UnicodeEncodeError``."""
    return tuple(tok.encode("utf-8") if i in specials else canonicalize_bytes(tok.encode("utf-8"))
                 for i, tok in enumerate(tokens))
