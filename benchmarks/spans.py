"""Outside-in tracing of crosstok's public functions.

``Tracer.install`` replaces each traced function in every crosstok module
namespace that binds it (callers look names up in their own module), and
traced methods on their class. Each call records a span: name, start and end
from ``perf_counter_ns``, parent span, the operation it ran in, and an
optional count. Spans stay in memory until ``write``.

Self time is a span's duration minus the durations of its direct children.
``window_gap`` checks the attribution against the caller's own clock: the
self times of the spans recorded during one timed call must add up to that
call's wall time, less the wrappers' own overhead.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

NAME, START, END, PARENT, OP, COUNT = range(6)


def _n_times_m(args, kwargs, result, before):
    return len(args[0]) * len(args[1])


def _result_len(args, kwargs, result, before):
    return len(result)


def _entry_count(args, kwargs, result, before):
    return result.entry_count


def _cache_miss(args, kwargs, result, before):
    return int(len(args[0]) > before)


def _cache_len(args, kwargs):
    return len(args[0])


# span name, defining module, attribute, count hook, namespaces left alone.
# uld stays unwrapped inside crosstok.losses so gold/hkl spans keep their ULD term.
FUNCTIONS = (
    ("vocab.load", "crosstok.vocab", "load_vocabulary", None, ()),
    ("vocab.hash", "crosstok.vocab", "vocabulary_hash", None, ()),
    ("align.dp", "crosstok.align", "dp_align", _n_times_m, ()),
    ("chunks.merge", "crosstok.chunks", "chain_rule_merge", None, ()),
    ("chunks.topk", "crosstok.chunks", "topk_support", None, ()),
    ("chunks.load_logits", "crosstok.chunks", "load_position_logits", None, ()),
    ("projection.project", "crosstok.projection", "project", None, ()),
    ("projection.build", "crosstok.projection", "build_projection", _entry_count, ()),
    ("projection.save", "crosstok.projection", "save_projection", None, ()),
    ("projection.load", "crosstok.projection", "load_projection", None, ()),
    ("losses.pkl", "crosstok.losses", "pkl", None, ()),
    ("losses.pkl_grads", "crosstok.losses", "pkl_grads", None, ()),
    ("losses.gold", "crosstok.losses", "gold", None, ()),
    ("losses.gold_grad", "crosstok.losses", "gold_grad", None, ()),
    ("losses.common_set", "crosstok.losses", "build_common_set_exact", None, ()),
    ("losses.common_set", "crosstok.losses", "build_common_set_relaxed", None, ()),
    ("losses.chunk_kl", "crosstok.losses", "chunk_kl", None, ()),
    ("losses.uld", "crosstok.losses", "uld", None, ("crosstok.losses",)),
    ("training.ce", "crosstok.training", "cross_entropy", None, ()),
    ("training.ce", "crosstok.training", "cross_entropy_grad", None, ()),
    ("training.run_step", "crosstok.training", "run_step", None, ()),
    ("audit.coverage", "crosstok.audit", "audit_coverage", None, ()),
    ("cli.main", "crosstok.cli", "main", None, ()),
)

# span name, module, class, method, count hook, pre-call hook
METHODS = (
    ("vocab.init", "crosstok.vocab", "Vocabulary", "__init__", None, None),
    ("vocab.encode", "crosstok.vocab", "Tokenizer", "encode", _result_len, None),
    ("align.cache_lookup", "crosstok.align", "AlignmentCache", "get_or_compute",
     _cache_miss, _cache_len),
)


class Tracer:
    """Span recorder. ``op`` labels the spans recorded while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None, pre=None):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre is not None else None
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, result, before)
            return result

        return traced

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "crosstok" or k.startswith("crosstok."))}
        for name, mod_name, attr, count, skip in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original, count)
            for key, module in modules.items():
                if key not in skip and getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        for name, mod_name, cls_name, attr, count, pre in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr), count, pre))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Self time in ns of every span, by index."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def window_gap(self, first: int, end: int, label, seconds: float,
                   self_ns: list[int]) -> float | None:
        """Wall time a caller measured around spans ``first..end-1`` minus their
        summed self times, in seconds; None if a span in the window carries
        another label or hangs under a span outside it."""
        for rec in self.spans[first:end]:
            if rec[OP] != label or not (rec[PARENT] == -1 or first <= rec[PARENT] < end):
                return None
        return seconds - sum(self_ns[first:end]) * 1e-9

    def write(self, path) -> None:
        """JSON Lines, one span per line; ``self_ns`` is precomputed."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (rec, self_ns) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start_ns": rec[START], "end_ns": rec[END],
                    "parent": rec[PARENT], "op": rec[OP], "self_ns": self_ns,
                    "count": rec[COUNT]}, separators=(",", ":")))
                fh.write("\n")
