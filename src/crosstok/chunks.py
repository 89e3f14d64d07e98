"""Chunk-level distributions built from stored per-position logits.

A logits dump stores, per position, the next-token distribution and the token
that was actually realized at that position; the realized-id sequence is the
token sequence that span alignment runs on. Merging a multi-token chunk keeps
the first position's distribution and replaces the realized first token's
probability with the chain-rule product of the realized span, then
renormalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .align import AlignmentChunk
from .errors import (DegenerateDistributionError, ValidationError, check_fields, check_ids,
                     check_int, json_line, located, parse_object, read_text, write_text)
from .vocab import Vocabulary, vocabulary_hash

SIDES = ("student", "teacher")


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax along the last axis, as a new float64 array."""
    if not temperature > 0:
        raise ValidationError(f"temperature must be positive, got {temperature}")
    z = np.array(logits, dtype=float)
    if temperature != 1:
        z /= temperature
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


_FINITE_BLOCK = 32  # rows per finite check: a (P, V) bool temporary would cost P x V bytes


@dataclass
class PositionLogits:
    """Per-position logits over one side's vocabulary plus realized token ids.

    float32 logits stay float32 (kernels upcast the rows they read, exactly);
    any other input becomes float64. ``source`` names a loaded dump's file."""

    seq_id: str
    side: str
    logits: np.ndarray
    realized_ids: np.ndarray
    vocab_hash: str | None = None
    source: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValidationError(f"side must be one of {SIDES}, got {self.side!r}")
        if not (isinstance(self.logits, np.ndarray) and self.logits.dtype == np.float32):
            self.logits = np.asarray(self.logits, dtype=float)
        self.realized_ids = check_ids(self.realized_ids, "realized_ids")
        if self.logits.ndim != 2:
            raise ValidationError("logits must be a positions-by-vocab matrix")
        if 0 in self.logits.shape:
            raise ValidationError(f"positions and vocab_size must be positive, got "
                                  f"{self.positions} and {self.vocab_size}")
        if self.realized_ids.shape != (self.logits.shape[0],):
            raise ValidationError("need one realized id per position")
        if not all(np.isfinite(self.logits[lo:lo + _FINITE_BLOCK]).all()
                   for lo in range(0, self.positions, _FINITE_BLOCK)):
            raise ValidationError(
                f"{self.side} logits of sequence {self.seq_id!r} hold non-finite values"
            )
        if self.realized_ids.min() < 0 or self.realized_ids.max() >= self.vocab_size:
            raise ValidationError("realized id outside the vocabulary")

    @property
    def positions(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[1]


def chain_rule_merge(pl: PositionLogits, chunk: AlignmentChunk,
                     temperature: float = 1.0) -> np.ndarray:
    """One side's span of an aligned chunk collapsed into one probability vector.

    Raises DegenerateDistributionError when the realized span's product
    underflows and leaves the merged vector no mass.
    """
    if not chunk.in_loss:
        raise ValidationError(f"chunk kind {chunk.kind.value!r} is excluded from the loss")
    lo, hi = chunk.span(pl.side)
    if not 0 <= lo < hi <= pl.positions:
        raise ValidationError(
            f"span [{lo}, {hi}) outside the {pl.positions}-position {pl.side} dump"
        )
    probs = softmax(pl.logits[lo:hi], temperature)
    merged = probs[0]
    if hi - lo == 1:
        return merged
    realized = pl.realized_ids[lo:hi]
    merged[realized[0]] = np.prod(probs[np.arange(hi - lo), realized])
    mass = merged.sum()
    if mass == 0:
        raise DegenerateDistributionError(
            f"{pl.side} chunk [{lo}, {hi}) of sequence {pl.seq_id!r}: the merged "
            "distribution has no mass (the realized span's probability underflows)"
        )
    merged /= mass
    return merged


def topk_support(probs, k: int) -> np.ndarray:
    """Indices of the k largest entries; boundary ties go to the smaller id."""
    check_int(k, "k")
    p = np.asarray(probs, dtype=float)
    if k < 1:
        raise ValidationError("k must be at least 1")
    if k >= p.size:
        return np.arange(p.size, dtype=np.intp)
    # linear-time selection: every entry above the k-th largest value, then
    # the smallest ids holding that value until there are k
    kth = np.partition(p, p.size - k)[p.size - k]
    keep = p > kth
    keep[np.flatnonzero(p == kth)[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def renormalize_on(probs: np.ndarray, support, side: str) -> tuple[np.ndarray, float]:
    """``probs[support]`` rescaled to sum to one, and the mass it had there.

    ``support`` is an index array or a slice; ``side`` names the distribution
    in the error raised when the support holds no mass.
    """
    restricted = probs[support]
    mass = float(restricted.sum())
    if mass < 1e-12:
        raise DegenerateDistributionError(f"{side} distribution has no mass on the support")
    return restricted / mass, mass


def as_float32(values, what) -> np.ndarray:
    """``values`` as a little-endian float32 array; a value too large for
    float32 raises a ValidationError naming ``what`` instead of becoming inf."""
    try:
        with np.errstate(over="raise"):
            return np.asarray(values, dtype="<f4")
    except FloatingPointError:
        raise ValidationError(f"{what}: a value is too large for float32") from None


def _save_matrix(values, path, sidecar: dict | None = None) -> None:
    """The one float32 writer: ``as_float32(values)`` row-major, and ``sidecar``
    (by default the matrix's ``shape``) as one JSON line in ``<path>.json``."""
    arr = as_float32(values, path)
    arr.tofile(path)
    write_text(f"{path}.json", json_line(sidecar or {"shape": list(arr.shape)}))


def _load_matrix(path, fields: dict, required, shape_of) -> tuple[dict, np.ndarray]:
    """The one float32 reader: the sidecar's fields, checked against ``fields``,
    and the stored values in the shape ``shape_of(fields)`` reads from them."""
    sidecar = f"{path}.json"
    meta = check_fields(parse_object(read_text(sidecar), sidecar), fields, sidecar,
                        required=required)
    with located(sidecar):
        shape = shape_of(meta)
    data = np.fromfile(path, dtype=np.uint8)
    if data.size != 4 * math.prod(shape):  # a partial value at the end fails too
        found, stray = divmod(data.size, 4)
        raise ValidationError(f"{path}: shape {shape} needs {math.prod(shape)} float32 values, "
                              f"found {found}" + (f" and {stray} stray bytes" if stray else ""))
    try:
        return meta, data.view("<f4").reshape(shape)
    except ValueError as exc:  # a size or a rank numpy cannot hold
        raise ValidationError(f"{sidecar}: 'shape' {shape} is not a numpy shape ({exc})") from None


def save_position_logits(pl: PositionLogits, path) -> None:
    """Write the little-endian float32 matrix and its JSON sidecar."""
    _save_matrix(pl.logits, path, {"seq_id": pl.seq_id, "side": pl.side,
                                   "vocab_hash": pl.vocab_hash,
                                   "realized_ids": [int(i) for i in pl.realized_ids],
                                   "positions": pl.positions, "vocab_size": pl.vocab_size})


_SIDECAR_FIELDS = {"seq_id": str, "side": str, "vocab_hash": str | None,
                   "realized_ids": list[int], "positions": int, "vocab_size": int}


def _dump_shape(meta: dict) -> list[int]:
    for key in ("positions", "vocab_size"):
        if meta[key] < 0:
            raise ValidationError(f"{key!r} must be non-negative, got {meta[key]}")
    return [meta["positions"], meta["vocab_size"]]


def load_position_logits(path, expected_vocab: Vocabulary | None = None,
                         side: str | None = None) -> PositionLogits:
    """Read a ``save_position_logits`` dump (float32 logits), optionally
    checked against a side and a vocabulary; errors name the file."""
    meta, logits = _load_matrix(path, _SIDECAR_FIELDS,
                                [k for k in _SIDECAR_FIELDS if k != "vocab_hash"], _dump_shape)
    with located(path):
        pl = PositionLogits(
            seq_id=meta["seq_id"],
            side=meta["side"],
            logits=logits,
            realized_ids=meta["realized_ids"],
            vocab_hash=meta.get("vocab_hash"),
            source=str(path),
        )
    if expected_vocab is not None and pl.vocab_hash is None:
        raise ValidationError(f"{path}: dump carries no vocabulary hash to check")
    check_dump(pl, side, expected_vocab, f"{path}:")
    return pl


def check_dump(pl: PositionLogits, side: str | None, vocab: Vocabulary | None,
               who: str) -> None:
    """Reject a dump from the other side, of another width or hashed from
    another vocabulary (a dump without a hash passes that check); ``None``
    skips the side or vocabulary checks, and each message starts with ``who``."""
    if side is not None and pl.side != side:
        raise ValidationError(f"{who} dump side is {pl.side!r}")
    if vocab is None:
        return
    if pl.vocab_size != len(vocab):
        raise ValidationError(f"{who} dump width {pl.vocab_size} != |V|={len(vocab)}")
    if pl.vocab_hash is not None and pl.vocab_hash != vocabulary_hash(vocab):
        raise ValidationError(f"{who} dump was produced for a different vocabulary "
                              f"(hash {pl.vocab_hash} != {vocabulary_hash(vocab)})")


def save_float_matrix(values, path) -> None:
    """Gradient tensors reuse the dump encoding: little-endian float32 + shape
    sidecar; a value too large for float32 raises a ValidationError."""
    _save_matrix(values, path)


def _matrix_shape(meta: dict) -> list[int]:
    if min(meta["shape"], default=0) < 0:
        raise ValidationError(f"'shape' must hold non-negative sizes, got {meta['shape']}")
    return meta["shape"]


def load_float_matrix(path) -> np.ndarray:
    """Read a ``save_float_matrix`` file; its sidecar's ``shape`` must list
    non-negative sizes whose product is the number of stored values."""
    return _load_matrix(path, {"shape": list[int]}, ["shape"], _matrix_shape)[1].astype(float)
