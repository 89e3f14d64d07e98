"""The four benchmark workloads and their output checks.

Each workload loads its inputs in ``setup`` (timed, for ``setup_s``), may do
untimed preparation in ``prepare``, and then runs seed-fixed *units* of work.
A unit is a list of *operations*; an operation is one latency sample:

- ``step_warm_grad``: unit = one pass over the sequence pool, op = one
  ``run_step(compute_grads=True)`` whose alignments are already cached.
- ``step_cold_fwd``: unit = op = one forward ``run_step`` on a new sequence.
- ``align_corpus``: unit = one block of lines, op = one line's two encodes
  plus ``dp_align``.
- ``build_w_audit``: unit = op = ``crosstok build-w``, ``crosstok audit`` and
  ``load_projection`` of the written file.

Library calls go through module attributes (``ct.run_step``,
``ct.cli.main``) so a traced run sees the wrappers installed on them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode("utf-8")).hexdigest()


def tiling_problems(alignment, n: int, m: int) -> list[str]:
    """Chunks must tile both sequences in order, each chunk advancing a side."""
    s_at = t_at = 0
    for k, c in enumerate(alignment.chunks):
        (s_lo, s_hi), (t_lo, t_hi) = c.student_span, c.teacher_span
        if s_lo != s_at or t_lo != t_at or s_hi < s_lo or t_hi < t_lo:
            return [f"chunk {k} spans {c.student_span}/{c.teacher_span} break the tiling"]
        if s_hi == s_lo and t_hi == t_lo:
            return [f"chunk {k} is empty"]
        s_at, t_at = s_hi, t_hi
    if (s_at, t_at) != (n, m):
        return [f"chunks end at ({s_at}, {t_at}), sequences have ({n}, {m})"]
    return []


def _finite(name: str, value) -> list[str]:
    return [] if np.all(np.isfinite(value)) else [f"{name} is not finite"]


def report_problems(report, student_logits, teachers, grads: bool) -> list[str]:
    """Step report values and gradients are finite and shaped as documented."""
    out = []
    for name in ("ce", "kd", "total", "kd_multiplier"):
        out += _finite(name, getattr(report, name))
    if abs(sum(report.alphas) - 1.0) > 1e-9:
        out.append(f"teacher weights sum to {sum(report.alphas)}")
    v_s = student_logits.vocab_size
    for teacher, b in zip(teachers, report.teachers):
        r = b.report
        k = b.chunk_stats["loss_chunks"]
        if len(r.per_chunk) != k:
            out.append(f"{b.name}: {len(r.per_chunk)} chunk losses for {k} loss chunks")
        out += _finite(f"{b.name} chunk losses", r.per_chunk)
        if not grads:
            continue
        g = r.grad_chunk_logits or ()
        if len(g) != k or any(x.shape != (v_s,) for x in g):
            out.append(f"{b.name}: chunk gradients are not {k} vectors of length {v_s}")
        else:
            out += _finite(f"{b.name} chunk gradients", g)
        if teacher.mode == "pkl":
            shape = (teacher.projection.entry_count,)
            if r.grad_projection is None or r.grad_projection.shape != shape:
                out.append(f"{b.name}: projection gradient is not of shape {shape}")
            else:
                out += _finite(f"{b.name} projection gradient", r.grad_projection)
        elif r.grad_projection is not None:
            out.append(f"{b.name}: unexpected projection gradient")
    if grads:
        if report.ce_grad is None or report.ce_grad.shape != student_logits.logits.shape:
            out.append("CE gradient missing or misshaped")
        else:
            out += _finite("CE gradient", report.ce_grad)
    return out


def alignment_digest(alignment) -> str:
    return digest([[c.student_span, c.teacher_span, c.kind.value] for c in alignment.chunks])


def projection_digest(w) -> str:
    return digest([[list(map(list, row)), p.value] for row, p in zip(w.rows, w.provenance)])


def loss_values(report) -> dict:
    return {"ce": report.ce, "kd": report.kd, "total": report.total,
            **{f"{b.name}.aggregate": b.report.aggregate for b in report.teachers}}


class Op:
    """Outcome of one operation: latency sample, work done (student positions
    or student+teacher tokens, for throughput), problems found.

    Operations with the same ``key`` do identical work (a pool sequence
    stepped again, another build/audit iteration).
    """

    def __init__(self, key, seconds: float, work: int, problems: list[str]) -> None:
        self.key, self.seconds, self.work, self.problems = key, seconds, work, problems


class Workload:
    """Base: subclasses fill in setup, units and checks."""

    def __init__(self, ct, data: Path, manifest: dict, tracer=None) -> None:
        self.ct, self.data, self.manifest = ct, data, manifest
        self.tracer = tracer
        #: label the runner gives the spans of the current unit
        self.label = None
        self.golden: dict = {}
        self.computed_bytes: dict = {}
        self.first_counts: dict = {}
        #: (first span, end span, label, seconds) of every timed call, traced runs only
        self.windows: list[tuple] = []

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what ``setup`` loaded, untimed, before it loads again."""

    def prepare(self) -> list[str]:
        return []

    def has_unit(self, i: int) -> bool:
        return True

    def unit(self, i: int):
        """Yield one ``Op`` per operation of unit ``i``."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def timed(self, fn):
        """Run one library call: (result, seconds). Only spans recorded in
        here count as the operation's work."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.label
            first = len(tracer.spans)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            seconds = perf_counter() - t0
            if tracer is not None:
                tracer.op = None
                self.windows.append((first, len(tracer.spans), self.label, seconds))
        return result, seconds


class _Step(Workload):
    grads = False

    def _load_common(self):
        ct, d, m = self.ct, self.data, self.manifest
        self.vs = ct.load_vocabulary(d / m["student_vocab"])
        self.vt = ct.load_vocabulary(d / m["teacher_vocab"])
        self.w = ct.load_projection(d / m["projection"])
        self.tok_s, self.tok_t = ct.Tokenizer(self.vs), ct.Tokenizer(self.vt)
        self.cache = ct.AlignmentCache()
        self.computed_bytes = {"projection_file_bytes": (d / m["projection"]).stat().st_size,
                               "logits_bytes_read": 0}

    def _load_dump(self, name: str, vocab):
        path = self.data / name
        self.computed_bytes["logits_bytes_read"] += path.stat().st_size
        return self.ct.load_position_logits(path, expected_vocab=vocab)

    def _teachers(self, logits_by_teacher):
        ct = self.ct
        specs = self.manifest["teachers"]
        return [ct.TeacherConfig(name=s["name"], mode=s["mode"],
                                 vocab=self.vs if s["mode"] == "kl" else self.vt,
                                 logits=logits,
                                 projection=self.w if s["mode"] in ("pkl", "hkl") else None,
                                 weight=1.0 / len(specs))
                for s, logits in zip(specs, logits_by_teacher)]

    def _step(self, student, teachers, first: bool, key: str) -> Op:
        report, seconds = self.timed(lambda: self.ct.run_step(
            self.vs, student, teachers, cache=self.cache, compute_grads=self.grads))
        problems = report_problems(report, student, teachers, self.grads)
        if first:
            self.golden[f"{key}.loss"] = loss_values(report)
            for stat in ("chunks", "loss_chunks"):
                name = f"training.{stat}"
                self.first_counts[name] = self.first_counts.get(name, 0) + \
                    sum(b.chunk_stats[stat] for b in report.teachers)
        return Op(key, seconds, student.positions, problems)

    def _alignment_problems(self, student, teachers, first: bool, key: str) -> list[str]:
        out = []
        s_seq = student.realized_ids.tolist()
        for t in teachers:
            tok_t = self.tok_s if t.mode == "kl" else self.tok_t
            a = self.cache.get(s_seq, t.logits.realized_ids.tolist(), self.ct.AlignScoring(),
                               self.tok_s, tok_t)
            if a is None:
                out.append(f"{t.name}: alignment missing from the cache")
                continue
            out += tiling_problems(a, student.positions, t.logits.positions)
            if first:
                self.golden[f"{key}.{t.name}.alignment"] = alignment_digest(a)
        return out


class StepWarmGrad(_Step):
    grads = True

    def release(self) -> None:
        self.pool = None

    def setup(self) -> None:
        self._load_common()
        self.pool = []
        for seq in self.manifest["sequences"]:
            student = self._load_dump(seq["student"], self.vs)
            logits = [self._load_dump(p, self.vt) for p in seq["teachers"]]
            self.pool.append((student, self._teachers(logits)))

    def prepare(self) -> list[str]:
        # the untimed first pass that fills the alignment cache
        out = []
        for i, (student, teachers) in enumerate(self.pool):
            s_seq = student.realized_ids.tolist()
            for t in teachers:
                self.cache.get_or_compute(s_seq, t.logits.realized_ids.tolist(),
                                          self.ct.AlignScoring(), self.tok_s, self.tok_t)
            out += self._alignment_problems(student, teachers, True, f"seq{i}")
        self.golden["projection"] = projection_digest(self.w)
        return out

    def unit(self, i: int):
        for j, (student, teachers) in enumerate(self.pool):
            yield self._step(student, teachers, i == 0, f"seq{j}")


class StepColdFwd(_Step):
    def release(self) -> None:
        self.pools = None

    def setup(self) -> None:
        self._load_common()
        m = self.manifest
        vocab_of = {"student": self.vs, "kl": self.vs, "pkl": self.vt, "uld": self.vt}
        self.pools = {k: self._load_dump(p, vocab_of[k]) for k, p in m["pools"].items()}
        with open(self.data / m["sequences"], encoding="utf-8") as fh:
            self.sequences = json.load(fh)

    def has_unit(self, i: int) -> bool:
        return i < len(self.sequences)

    def _logits(self, i: int, name: str, side: str):
        seq, pool = self.sequences[i], self.pools[name]
        return self.ct.PositionLogits(seq_id=f"s{i}.{name}", side=side,
                                      logits=pool.logits[seq["rows"][name]],
                                      realized_ids=seq["realized"][name],
                                      vocab_hash=pool.vocab_hash)

    def unit(self, i: int):
        student = self._logits(i, "student", "student")
        teachers = self._teachers([self._logits(i, t["name"], "teacher")
                                   for t in self.manifest["teachers"]])
        op = self._step(student, teachers, i == 0, f"seq{i}")
        op.problems += self._alignment_problems(student, teachers, i == 0, f"seq{i}")
        yield op


class AlignCorpus(Workload):

    def setup(self) -> None:
        ct, d, m = self.ct, self.data, self.manifest
        self.tok_s = ct.Tokenizer(ct.load_vocabulary(d / m["student_vocab"]))
        self.tok_t = ct.Tokenizer(ct.load_vocabulary(d / m["teacher_vocab"]))
        self.s_lines = (d / m["student_view"]).read_text(encoding="utf-8").splitlines()
        self.t_lines = (d / m["teacher_view"]).read_text(encoding="utf-8").splitlines()
        self.block = m["block_lines"]

    def has_unit(self, i: int) -> bool:
        return (i + 1) * self.block <= len(self.s_lines)

    def _line(self, s_text: str, t_text: str):
        ct = self.ct
        s_ids = self.tok_s.encode(s_text)
        t_ids = self.tok_t.encode(t_text)
        return s_ids, t_ids, ct.dp_align(s_ids, t_ids, ct.AlignScoring(), self.tok_s, self.tok_t)

    def unit(self, i: int):
        digests = []
        for k in range(i * self.block, (i + 1) * self.block):
            (s_ids, t_ids, a), seconds = self.timed(
                lambda: self._line(self.s_lines[k], self.t_lines[k]))
            problems = tiling_problems(a, len(s_ids), len(t_ids))
            if i == 0:
                digests.append(alignment_digest(a))
            yield Op(k, seconds, len(s_ids) + len(t_ids), problems)
        if i == 0:
            self.golden["block0.alignments"] = digest(digests)


class BuildWAudit(Workload):

    def setup(self) -> None:
        ct, d, m = self.ct, self.data, self.manifest
        self.vs = ct.load_vocabulary(d / m["student_vocab"])
        self.vt = ct.load_vocabulary(d / m["teacher_vocab"])
        self.tok_t = ct.Tokenizer(self.vt)
        self.out = d / "w.jsonl"
        self.parts: dict[str, list[float]] = {"build_w_s": [], "audit_s": []}
        self.file_digest = None

    def _cli(self, *argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ct.cli.main(list(argv))
        return code, buf.getvalue()

    def unit(self, i: int):
        d, m = self.data, self.manifest
        vocabs = ("--student-vocab", str(d / m["student_vocab"]),
                  "--teacher-vocab", str(d / m["teacher_vocab"]))
        (build_code, _), build_s = self.timed(
            lambda: self._cli("build-w", *vocabs, "--out", str(self.out)))
        (audit_code, audit_out), audit_s = self.timed(
            lambda: self._cli("--format", "json", "audit", *vocabs))
        loaded, load_s = self.timed(lambda: self.ct.load_projection(self.out))
        self.parts["build_w_s"].append(build_s)
        self.parts["audit_s"].append(audit_s)

        problems = []
        if build_code or audit_code:
            problems.append(f"exit codes build-w={build_code} audit={audit_code}")
        raw = self.out.read_bytes()
        file_digest = hashlib.sha256(raw).hexdigest()
        if self.file_digest is None:
            self.file_digest = file_digest
            self.computed_bytes = {"projection_file_bytes": len(raw)}
        elif file_digest != self.file_digest:
            problems.append("build-w output differs between iterations")
        try:
            audit = json.loads(audit_out)
        except ValueError:
            audit = None
            problems.append("audit did not print JSON")
        if i == 0 and loaded is not None and audit is not None:
            self.golden["projection"] = projection_digest(loaded)
            self.golden["projection.entries"] = loaded.entry_count
            self.golden["audit"] = digest(audit)
            self.golden["recommendation"] = audit.get("recommendation")
        del loaded  # hold one projection at a time, like the program does
        yield Op("iteration", build_s + audit_s + load_s, 0, problems)

    def finish(self) -> list[str]:
        """The reloaded projection must equal one built in-process."""
        if self.file_digest is None:
            return ["no projection was written"]
        got = self.ct.load_projection(self.out)
        built = self.ct.build_projection(self.vs, self.vt, self.tok_t)
        if (got.n_student, got.n_teacher, got.config) != (built.n_student, built.n_teacher,
                                                           built.config):
            return ["reloaded projection header differs from the built one"]
        if got.rows != built.rows or got.provenance != built.provenance:
            return ["reloaded projection rows differ from the built one"]
        return []


WORKLOAD_CLASSES = {
    "step_warm_grad": StepWarmGrad,
    "step_cold_fwd": StepColdFwd,
    "align_corpus": AlignCorpus,
    "build_w_audit": BuildWAudit,
}


def matches_golden(observed: dict, golden: dict) -> list[str]:
    """Digests match exactly; loss values within the acceptance tolerance
    (1e-12 relative to max(1, |value|))."""
    out = []
    for key, want in golden.items():
        got = observed.get(key)
        if isinstance(want, dict):
            for name, value in want.items():
                g = (got or {}).get(name)
                if g is None or not math.isclose(g, value, rel_tol=0.0,
                                                 abs_tol=1e-12 * max(1.0, abs(value))):
                    out.append(f"golden {key}.{name}: {g!r} != {value!r}")
        elif got != want:
            out.append(f"golden {key}: {got!r} != {want!r}")
    return out
