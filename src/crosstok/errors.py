"""Exception types shared across the package, the one file reader and the text
reader and writer over it, ``json_line``, ``check_int`` and its sequence form
``check_ids``, the field check that turns a malformed JSON object into a
ValidationError, and ``located``, which names where its input came from."""

import contextlib
import json
import sys
import typing
from collections.abc import Sequence

import numpy as np


class ValidationError(ValueError):
    """Invalid input, configuration, or invariant violation."""


class MalformedTokenError(ValidationError):
    """A token that looks like a byte-fallback form but has a non-hex payload."""


class UnencodableTextError(ValidationError):
    """Text that a tokenizer cannot segment with its vocabulary."""


class DegenerateDistributionError(ValidationError):
    """A probability vector lost all of its mass (e.g. empty projection rows)."""


@contextlib.contextmanager
def located(where):
    """Re-raise a ValidationError from the block as the same type, its message
    prefixed with ``where``."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def read_bytes(path) -> bytes:
    """The file's bytes; a path the file system cannot encode raises a
    ValidationError that names it by its ``repr``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except UnicodeEncodeError as exc:
        raise ValidationError(f"{str(path)!r}: not an encodable file path ({exc})") from None


def decode_text(data: bytes, path) -> str:
    """``data`` as UTF-8 text with ``\\r\\n`` and ``\\r`` read as ``\\n``, as text mode
    reads them; other bytes raise a ValidationError that names ``path``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path) -> str:
    """The file's UTF-8 text, as ``decode_text`` reads ``read_bytes(path)``."""
    return decode_text(read_bytes(path), path)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends, replacing the file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def json_line(value) -> str:
    """``value`` as one canonical JSON line: sorted keys, no spaces, a trailing newline."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def parse_object(text: str, path, line: int | None = None) -> dict:
    """``json.loads(text)`` if that is an object, else a ValidationError naming
    ``path`` (and the ``line`` of a JSON Lines file), built only on failure."""
    try:
        value = json.loads(text)
        if type(value) is dict:
            return value
        detail = f"got {value!r:.80}"
    except (ValueError, RecursionError) as exc:
        detail = f"{type(exc).__name__}: {exc}"
    where = f": line {line}" if line is not None else ""
    raise ValidationError(f"{path}{where}: not a JSON object ({detail})")


def check_int(value, name: str) -> None:
    """Reject a ``value`` that is not a Python int (a bool, a float, a numpy
    integer, which a JSON file header could not hold), naming it ``name``."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an int, got {value!r:.80}")


def check_ids(values, name: str) -> np.ndarray:
    """``values`` as a 1-D ``intp`` array, which shares memory with an aligned
    ``intp`` array given (an unaligned one is copied: numpy reads it about 2.5
    times slower). An integer array must hold values that ``intp`` can hold (a
    ``uint64`` above its max is refused, not wrapped); any other input must
    be an iterable of ints under ``check_int``'s rule (a bool, a float, a
    numpy scalar or a nested list fails). Errors name ``name`` and the first
    bad element: ``counts[1] must be an int, got True``."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValidationError(f"{name} must be 1-D, got an array of shape {values.shape}")
        if values.dtype.kind in "iu" and np.can_cast(values.dtype, np.intp):
            return np.require(values, np.intp, "A")
        values = values.tolist()  # checked as a list: a uint64 above intp's max fails there
    elif not isinstance(values, Sequence):
        values = list(values)  # a set or a generator
    if set(map(type, values)) - {int}:
        at = next(i for i, v in enumerate(values) if type(v) is not int)
        check_int(values[at], f"{name}[{at}]")  # raises
    try:
        return np.asarray(values, dtype=np.intp)
    except OverflowError:
        at = next(i for i, v in enumerate(values) if not -sys.maxsize - 1 <= v <= sys.maxsize)
        raise ValidationError(f"{name}[{at}] must fit intp, got {values[at]!r:.80}") from None


def _fits(value, hint) -> bool:
    """Whether a parsed JSON value fits a type (``list[T]``, ``dict[K, V]`` and
    unions included); a float takes an int, a bool only bool, and a number
    fits a float only when a finite float can hold it."""
    if hint in (bool, int, float, str, list, dict, type(None)):
        if type(value) is float or (hint is float and type(value) is int):
            return hint is float and abs(value) <= sys.float_info.max
        return type(value) is hint
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_fits(v, args[0]) for v in value)
    if typing.get_origin(hint) is dict:
        return type(value) is dict and all(_fits(k, args[0]) and _fits(v, args[1])
                                           for k, v in value.items())
    return any(_fits(value, a) for a in args)


def check_fields(values, hints: typing.Mapping[str, object], path, prefix: str = "",
                 required: typing.Iterable[str] = ()) -> dict:
    """``values`` if it is a JSON object that holds every ``required`` key and
    whose keys all appear in ``hints`` (key -> type annotation) with values
    that fit; otherwise a ValidationError naming ``path`` and ``prefix + key``
    and the type as written (``list[int]``, ``str | None``)."""
    if not isinstance(values, dict):
        raise ValidationError(f"{path}: {prefix.rstrip('.') or 'the file'} must be a JSON "
                              f"object, got {values!r:.80}")
    for key in required:
        if key not in values:
            raise ValidationError(f"{path}: {prefix}{key} is missing")
    for key, value in values.items():
        if key not in hints:
            raise ValidationError(f"{path}: {prefix}{key} is not a known field")
        hint = hints[key]
        if not _fits(value, hint):
            if type(value) in (int, float) and _fits(0.0, hint):
                expected = "a finite float"
            else:
                expected = hint.__name__ if isinstance(hint, type) else hint
            raise ValidationError(f"{path}: {prefix}{key} must be {expected}, got {value!r:.80}")
    return values
