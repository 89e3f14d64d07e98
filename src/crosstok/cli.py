"""Command-line surface: build projections, align, audit, and evaluate losses.

Exit codes: 0 success, 1 validation error, 2 I/O error. Every command is
deterministic given its inputs and seed; re-running writes byte-identical
files.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import typing
from pathlib import Path

from .align import AlignScoring, ChunkKind, dp_align, trl_substring_align, write_alignment_dump
from .audit import DEFAULT_CRITICAL, audit_coverage, coverage_json, coverage_table, recommend_mode
from .chunks import as_float32, load_position_logits, save_float_matrix
from .errors import (ValidationError, check_fields, json_line, located, parse_object, read_text,
                     write_text)
from .losses import HybridWeights, build_common_set_exact
from .projection import ProjectionConfig, build_projection, load_projection, save_projection
from .training import (
    ScalingPolicy,
    TeacherConfig,
    gradient_check,
    run_step,
)
from .vocab import Tokenizer, load_vocabulary

GRADCHECK_TOLERANCE = 1e-6

try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim  # glibc only
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = (ctypes.c_size_t,), ctypes.c_int
except (OSError, TypeError, AttributeError):
    _MALLOC_TRIM = None


def _flags_over_config(args, config: dict, hints: dict) -> dict:
    """Keyword arguments named by ``hints`` (name -> type): the top-level config
    values present, overridden by same-name CLI flags, each checked by type
    (overridden config values too). A bad value is named by the config path
    and key, or by its flag."""
    picked = check_fields({name: config[name] for name in hints if name in config},
                          hints, args.config)
    for name in hints:
        value = getattr(args, name, None)
        if value is not None:
            picked.update(check_fields({name: value}, hints, "--" + name.replace("_", "-")))
    return picked


def _section(config: dict, path, name: str, cls):
    """``cls`` built from the keys present in the config's ``name`` object."""
    values = check_fields(config.get(name, {}), typing.get_type_hints(cls), path, f"{name}.")
    with located(path):
        return cls(**values)


def _emit(args, payload: dict, text: str) -> None:
    sys.stdout.write(json_line(payload) if args.format == "json" else text + "\n")


def _check_out(out: str, what: str) -> None:
    """Reject an ``--out`` that cannot name the file ``what`` before any input
    is read: a directory, or a file in a directory that does not exist."""
    if os.path.isdir(out):
        raise ValidationError(f"--out {out!r} is a directory; it must name {what}")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ValidationError(f"--out {out!r}: its directory does not exist")


def cmd_build_w(args, config: dict) -> int:
    _check_out(args.out, "the projection file")
    vs = load_vocabulary(args.student_vocab)
    vt = load_vocabulary(args.teacher_vocab)
    cfg = ProjectionConfig(**_flags_over_config(args, config,
                                                 typing.get_type_hints(ProjectionConfig)))
    w = build_projection(vs, vt, Tokenizer(vt), cfg)
    save_projection(w, args.out)
    summary = {"out": str(args.out), **w.summary()}
    text = "\n".join(
        [f"projection written to {args.out}"]
        + [f"  {k} rows: {v}" for k, v in summary["provenance"].items()]
        + [f"  dropped mass: mean {summary['dropped_mass_mean']:.3e}, "
           f"max {summary['dropped_mass_max']:.3e}"]
    )
    _emit(args, summary, text)
    return 0


def cmd_align(args, config: dict) -> int:
    _check_out(args.out, "the chunk dump")
    tok_s = Tokenizer(load_vocabulary(args.student_vocab))
    tok_t = Tokenizer(load_vocabulary(args.teacher_vocab))
    scoring = AlignScoring(**_flags_over_config(args, config, typing.get_type_hints(AlignScoring)))
    bos_id = None
    if args.student_add_bos:
        bos_id = tok_s.vocabulary.special_roles.get("bos")
        if bos_id is None:
            raise ValidationError(
                "--student-add-bos needs a 'bos' role in the student vocabulary"
            )
    texts = read_text(args.texts).split("\n")  # "\n" only: \f, \v or U+2028 stay in their line
    if not texts[-1]:  # the empty piece after a final newline
        texts.pop()

    items = []
    counts = {kind.value: 0 for kind in ChunkKind}
    for i, text in enumerate(texts):
        s_ids = tok_s.encode(text)
        if bos_id is not None:
            s_ids = [bos_id] + s_ids
        t_ids = tok_t.encode(text)
        if args.baseline:
            alignment = trl_substring_align(s_ids, t_ids, tok_s, tok_t)
        else:
            alignment = dp_align(s_ids, t_ids, scoring, tok_s, tok_t)
        for chunk in alignment.chunks:
            counts[chunk.kind.value] += 1
        items.append((i, alignment))
    write_alignment_dump(args.out, items)

    summary = {
        "out": str(args.out),
        "sequences": len(items),
        "engine": "baseline" if args.baseline else "dp",
        **counts,
    }
    text = "\n".join(
        [f"aligned {len(items)} sequence(s) -> {args.out}"]
        + [f"  {kind}: {n}" for kind, n in counts.items() if n]
    )
    _emit(args, summary, text)
    return 0


def cmd_audit(args, config: dict) -> int:
    vs = load_vocabulary(args.student_vocab)
    vt = load_vocabulary(args.teacher_vocab)
    c = build_common_set_exact(vs, vt)
    rows = audit_coverage(vs, c)
    critical = tuple(args.critical.split(",")) if args.critical else DEFAULT_CRITICAL
    threshold = _flags_over_config(args, config, {"threshold": float})
    mode = recommend_mode(rows, critical=critical, **threshold)
    if args.format == "json":
        sys.stdout.write(coverage_json(rows, recommendation=mode))
    else:
        print(coverage_table(rows))
        print(f"recommended loss mode: {mode}")
    return 0


_FILES = {"vocab": str, "logits": str}
_TEACHER_FIELDS = {**_FILES, "mode": str, "name": str, "projection": str | None,
                   "weight": float}


def _file_part(name: str) -> bool:
    """Whether ``name`` can sit inside one file name on this file system."""
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        return False
    return not {"\0", os.sep, os.altsep} & set(name)


def _teacher_names(teacher_cfgs: list, path, grad: bool) -> list[str]:
    """Each teacher's name (its logits path when unnamed), checked before any
    file is read: names are unique and not empty, and with ``grad`` each can
    sit inside the gradient file names written after it."""
    names: list[str] = []
    for i, tc in enumerate(teacher_cfgs):
        name = tc.get("name", tc["logits"])
        if "name" in tc and not name:
            raise ValidationError(f"{path}: teachers[{i}].name must not be empty")
        if grad and not _file_part(name):
            why = (f"must fit in a gradient file name, got {name!r}" if "name" in tc else
                   f"is missing, and the logits path {name!r} cannot name gradient files")
            raise ValidationError(f"{path}: teachers[{i}].name {why} (--grad)")
        if name in names:
            raise ValidationError(f"{path}: teachers[{names.index(name)}] and teachers[{i}] "
                                  f"share the name {name!r}")
        names.append(name)
    return names


def _load_step_inputs(config: dict, path, grad: bool):
    sections = check_fields({k: config[k] for k in ("student", "teachers") if k in config},
                            {"student": dict, "teachers": list}, path,
                            required=("student", "teachers"))
    student_cfg = check_fields(sections["student"], _FILES, path, "student.", required=_FILES)
    teacher_cfgs = sections["teachers"]
    for i, tc in enumerate(teacher_cfgs):
        check_fields(tc, _TEACHER_FIELDS, path, f"teachers[{i}].",
                     required=("mode", *_FILES))
    names = _teacher_names(teacher_cfgs, path, grad)

    load = functools.cache(lambda reader, file: reader(file))  # a file named twice is read once
    student_vocab = load(load_vocabulary, student_cfg["vocab"])
    student_logits = load_position_logits(student_cfg["logits"], student_vocab, "student")
    teachers = []
    for name, tc in zip(names, teacher_cfgs):
        vocab = load(load_vocabulary, tc["vocab"])
        logits = load_position_logits(tc["logits"], vocab, "teacher")
        projection = load(load_projection, tc["projection"]) if tc.get("projection") else None
        with located(path):
            teachers.append(TeacherConfig(name, tc["mode"], vocab, logits, projection,
                                          **{k: tc[k] for k in ("weight",) if k in tc}))
    return student_vocab, student_logits, teachers


_STEP_KNOBS = ("temperature", "top_k")  # ``run_step`` keywords set at the config's top level
_STEP_SECTIONS = {"policy": ScalingPolicy, "scoring": AlignScoring, "hybrid": HybridWeights}
_STEP_KEYS = ("student", "teachers", "schedule", *_STEP_KNOBS, *_STEP_SECTIONS)


def cmd_loss(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.gradcheck:
        with located("--instances"):
            worst = gradient_check(seed=seed, instances=args.instances)
        ok = all(err < GRADCHECK_TOLERANCE for err in worst.values())
        payload = {"max_relative_error": worst, "tolerance": GRADCHECK_TOLERANCE,
                   "pass": ok}
        text = "\n".join(
            [f"finite-difference check (seed {seed}, {args.instances} instances)"]
            + [f"  {name}: {err:.3e}" for name, err in sorted(worst.items())]
            + [f"  -> {'PASS' if ok else 'FAIL'} at {GRADCHECK_TOLERANCE:.0e}"]
        )
        _emit(args, payload, text)
        return 0 if ok else 1

    if args.grad and args.out is None:
        raise ValidationError("--grad needs --out to anchor the gradient files")
    if args.out is not None:
        _check_out(args.out, "the report file")
    if not config:
        raise ValidationError("loss needs --config pointing at a step config file")
    if unknown := [key for key in config if key not in _STEP_KEYS]:
        raise ValidationError(f"{args.config}: {unknown[0]} is not a known field")
    student_vocab, student_logits, teachers = _load_step_inputs(config, args.config, args.grad)
    step_hints = typing.get_type_hints(run_step)
    step_kwargs = _flags_over_config(args, config, {k: step_hints[k] for k in _STEP_KNOBS})
    sections = {name: _section(config, args.config, name, cls)
                for name, cls in _STEP_SECTIONS.items()}
    schedule = check_fields(config.get("schedule", {}), {"kind": str}, args.config, "schedule.")

    with located(args.config):
        report = run_step(student_vocab, student_logits, teachers, compute_grads=args.grad,
                          schedule=schedule.get("kind", "static"), **sections, **step_kwargs)

    grad_files: dict[str, str] = {}
    if args.grad:
        # (report key, file stem, values); row k of a teacher's chunk_logits is chunk k
        grads = [("ce", "ce_grad", report.ce_grad)] + [
            (f"{t.name}/{part}", f"{t.name}.{part}", values) for t in report.teachers
            for part, values in (("chunk_logits", t.report.grad_chunk_logits),
                                 ("w_entries", t.report.grad_projection)) if values is not None]
        for key, _, values in grads:  # cast once to check, so a failure writes no file
            as_float32(values, f"gradient {key}")
        for key, stem, values in grads:
            path = Path(args.out).with_suffix(f".{stem}.bin")
            save_float_matrix(values, path)
            grad_files[key] = path.name

    rendered = report.to_json(config_echo=config,
                              **({"gradient_files": grad_files} if args.grad else {}))
    if args.out is not None:
        write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosstok",
        description="Cross-tokenizer distillation toolkit: alignment, projection, "
                    "coverage audit, and loss evaluation over stored logits.",
    )
    parser.add_argument("--config", help="JSON config file (step config for 'loss', "
                                         "default overrides elsewhere)")
    parser.add_argument("--seed", type=int, help="seed for randomized checks")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    vocabs = argparse.ArgumentParser(add_help=False)
    vocabs.add_argument("--student-vocab", required=True)
    vocabs.add_argument("--teacher-vocab", required=True)

    p = sub.add_parser("build-w", parents=[vocabs],
                       help="build and save a sparse projection matrix")
    p.add_argument("--out", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--max-span", type=int)
    p.add_argument("--top-k", type=int)
    p.set_defaults(func=cmd_build_w)

    p = sub.add_parser("align", parents=[vocabs],
                       help="align a file of texts under both tokenizers")
    p.add_argument("--texts", required=True, help="one input text per line")
    p.add_argument("--out", required=True, help="chunk dump (JSON Lines)")
    p.add_argument("--baseline", action="store_true",
                   help="use the incremental-decode buffer baseline instead of the DP")
    p.add_argument("--student-add-bos", action="store_true",
                   help="prepend the student vocabulary's 'bos' role token to every "
                        "encoded student sequence")
    p.add_argument("--alpha-exact", type=float)
    p.add_argument("--alpha-comb", type=float)
    p.add_argument("--alpha-gap", type=float)
    p.add_argument("--max-span", type=int)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("audit", parents=[vocabs],
                       help="coverage audit and loss-mode recommendation")
    p.add_argument("--critical", help="comma-separated critical categories")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("loss", help="evaluate a simulated step from a step config")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--grad", action="store_true",
                   help="also write gradient tensors next to the report")
    p.add_argument("--gradcheck", action="store_true",
                   help="run the finite-difference suite instead of a step")
    p.add_argument("--instances", type=int, default=20,
                   help="instance count for --gradcheck")
    p.set_defaults(func=cmd_loss)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    When the command returns, the C heap's free pages go back to the OS
    (glibc's ``malloc_trim``). Each large block glibc frees raises its mmap
    threshold, so a command's later vocabulary-sized arrays come from the
    heap, and their pages stay resident after they are freed, held by small
    blocks above them. Without the trim, the peak of a process that runs
    commands in turn follows its allocation history: ``build-w`` then
    ``audit`` on 128k x 100k vocabularies, repeated in one process, peaked
    at 164 or 187 MiB depending on the length of the working directory's path.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = {} if args.config is None else parse_object(read_text(args.config), args.config)
        return args.func(args, config)
    except (OSError, ValueError) as exc:
        # a ValidationError, or another ValueError that no check names yet
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    finally:
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


if __name__ == "__main__":
    sys.exit(main())
