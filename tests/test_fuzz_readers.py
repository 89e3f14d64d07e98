"""Every reader and every CLI command, fed mutated copies of valid files.

A mutation truncates a file, flips bytes, nests a value too deep to parse,
retypes a value, drops a key, or puts NaN, an infinity or a huge integer in a
value. A library reader may then only return, raise an OSError, or raise a
ValidationError whose message starts with the path it was given (a ``.bin``
path prefixes its sidecar's). A CLI command may only return 0, 1 or 2, and
reports a failure on stderr as ``error: ...``; it never raises. A step config
that fails validation is named first (``error: <config>: ...``), unless it
holds a path the file system cannot encode, which is named instead.
"""

import hashlib
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosstok.cli import main
from crosstok.errors import ValidationError

from test_readers import JSON_LINES, READERS

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

DEEP = "\x00deep\x00"  # stands for a value nested too deep to parse
RETYPED = [None, True, 0, -1, 1.5, "x", "\ud800", [], {}]
EXTREME = [float("nan"), float("inf"), float("-inf"), 10**30, -(10**30), 2**63, 10**400]
KINDS = ("truncate", "flip", "nest", "retype", "drop", "extreme")


def spots(doc, at=()):
    """The key path of every value in a parsed JSON document, the root first."""
    yield at
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list)
             else ())
    for key, value in items:
        yield from spots(value, at + (key,))


def owner(doc, at):
    for key in at[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, data: bytes, json_lines: bool = False, binary: bool = False,
            headed: bool = False) -> bytes:
    """``data`` with one mutation; a binary file only truncates or flips bytes,
    and a headed file (a JSON header line, then raw bytes: the projection)
    takes the JSON mutations in its header line only."""
    kind = draw(st.sampled_from(KINDS[:2] if binary else KINDS))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    lines = data.split(b"\n", 1) if headed else data.split(b"\n") if json_lines else [data]
    i = 0 if headed else draw(st.sampled_from([i for i, line in enumerate(lines)
                                               if line.strip()]))
    doc = json.loads(lines[i])
    if kind == "drop":
        at = draw(st.sampled_from([at for at in spots(doc)
                                   if at and isinstance(owner(doc, at), dict)]))
        del owner(doc, at)[at[-1]]
    else:
        value = DEEP if kind == "nest" else draw(st.sampled_from(
            RETYPED if kind == "retype" else EXTREME))
        at = draw(st.sampled_from(list(spots(doc))))
        if at:
            owner(doc, at)[at[-1]] = value
        else:
            doc = value
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)
    lines[i] = text.encode()
    return b"\n".join(lines)


def resealed(data: bytes) -> bytes:
    """A projection file with its header's content hash recomputed over the
    body, so that a mutated body reaches the length and row checks."""
    line, _, body = data.partition(b"\n")
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):
        return data
    if not isinstance(header, dict):
        return data
    header["content_hash"] = hashlib.sha256(body).hexdigest()
    return json.dumps(header).encode() + b"\n" + body


def is_binary(path) -> bool:
    return path.suffix in (".bin", ".txt")


def is_headed(path) -> bool:
    return path.suffix == ".proj"


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("reader", READERS)
def test_reader_names_its_file(tmp_path, reader, data):
    path, sidecar, load = READERS[reader](tmp_path)
    target = data.draw(st.sampled_from(sorted({path, sidecar})))
    out = data.draw(mutated(target.read_bytes(), reader in JSON_LINES, is_binary(target),
                            is_headed(target)))
    if is_headed(target) and data.draw(st.booleans()):
        out = resealed(out)
    target.write_bytes(out)
    try:
        load(path)
    except ValidationError as exc:
        assert str(exc).startswith(str(path)), str(exc)
    except OSError as exc:
        assert exc.filename is not None


@pytest.fixture
def commands(step_fixture, bos_fixture):
    """Per command: its arguments and the input files a mutation may hit
    (``loss-config``: the step config alone, the file ``loss`` names first)."""
    fx = step_fixture(modes=("pkl", "gold"))
    vocabs = ["--student-vocab", str(bos_fixture["student_vocab"]),
              "--teacher-vocab", str(bos_fixture["teacher_vocab"])]
    vocab_files = [bos_fixture["student_vocab"], bos_fixture["teacher_vocab"]]
    out = str(bos_fixture["dir"] / "out")
    step_files = [fx["config"], fx["student_vocab"], fx["teacher_vocab"], fx["projection"],
                  *sorted(fx["dir"].glob("*.bin*"))]
    return {
        "build-w": (["build-w", *vocabs, "--out", out], vocab_files),
        "align": (["align", *vocabs, "--texts", str(bos_fixture["texts"]), "--out", out],
                  vocab_files + [bos_fixture["texts"]]),
        "audit": (["audit", *vocabs], vocab_files),
        "loss": (["--config", str(fx["config"]), "loss"], step_files),
        "loss-config": (["--config", str(fx["config"]), "loss"], step_files[:1]),
    }


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("command", ["build-w", "align", "audit", "loss", "loss-config"])
def test_command_exits_cleanly(commands, capsys, tmp_path, command, data):
    argv, files = commands[command]
    target = data.draw(st.sampled_from(files))
    backup = tmp_path / "backup"
    shutil.copyfile(target, backup)
    out = data.draw(mutated(target.read_bytes(), target.suffix == ".jsonl", is_binary(target),
                            is_headed(target)))
    if is_headed(target) and data.draw(st.booleans()):
        out = resealed(out)
    target.write_bytes(out)
    try:
        rc = main(argv)
    finally:
        shutil.copyfile(backup, target)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert rc == 0 or err.startswith("error: "), err
    if command.startswith("loss") and target == files[0] and rc == 1:
        assert err.startswith(f"error: {target}: ") or repr("\ud800") in err, err
