"""Every input file is read through ``errors.read_text`` and ``errors.parse_object``:
a truncated file, a non-UTF-8 byte or nesting too deep to parse fails with a
ValidationError (CLI: exit 1, ``error: <path>: ...``) that starts with the path,
and with ``line N`` in a JSON Lines file."""

import json
import sys

import numpy as np
import pytest

from crosstok.align import AlignScoring, dp_align, write_alignment_dump
from crosstok.chunks import load_float_matrix, load_position_logits, save_float_matrix
from crosstok.cli import main
from crosstok.errors import ValidationError, parse_object, read_text
from crosstok.projection import build_projection, load_projection, save_projection
from crosstok.vocab import (Tokenizer, Vocabulary, load_vocabulary, make_toy_tokenizer,
                            save_vocabulary)

from conftest import read_alignment_dump, write_dump

VOCAB = Vocabulary(["a", "b", "ab"])


def vocab_file(tmp_path):
    path = tmp_path / "vocab.json"
    save_vocabulary(VOCAB, path)
    return path, path, load_vocabulary


def projection_file(tmp_path):
    path = tmp_path / "w.jsonl"
    tok = make_toy_tokenizer("char_level")
    save_projection(build_projection(VOCAB, tok.vocabulary, tok), path)
    return path, path, load_projection


def logits_file(tmp_path):
    path = write_dump(tmp_path / "s.bin", "student", np.zeros((2, 3)), [0, 1], VOCAB)
    return path, tmp_path / "s.bin.json", load_position_logits


def float_matrix_file(tmp_path):
    path = tmp_path / "g.bin"
    save_float_matrix(np.zeros((2, 3)), path)
    return path, tmp_path / "g.bin.json", load_float_matrix


def alignment_dump_file(tmp_path):
    tok = Tokenizer(VOCAB)
    path = tmp_path / "dump.jsonl"
    ids = tok.encode("abab")
    write_alignment_dump(path, [(0, dp_align(ids, ids, AlignScoring(), tok, tok))])
    return path, path, read_alignment_dump


READERS = {"vocabulary": vocab_file, "projection": projection_file,
           "logits": logits_file, "float_matrix": float_matrix_file,
           "alignment_dump": alignment_dump_file}
JSON_LINES = {"projection", "alignment_dump"}
MUTATIONS = {
    "truncated": lambda data: data[:data.index(b"}")],
    "leading_0xff": lambda data: b"\xff" + data,
    "nested": lambda data: b"[" * 100_000,
}


def expected_prefix(path, mutation: str, line: bool) -> str:
    if mutation == "leading_0xff":
        return f"{path}: not UTF-8 text ("
    return f"{path}{': line 1' if line else ''}: not a JSON object ("


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("reader", READERS)
def test_reader_names_the_file(tmp_path, reader, mutation):
    path, mutated, load = READERS[reader](tmp_path)
    mutated.write_bytes(MUTATIONS[mutation](mutated.read_bytes()))
    with pytest.raises(ValidationError) as info:
        load(path)
    assert str(info.value).startswith(expected_prefix(mutated, mutation, reader in JSON_LINES))


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_step_config_names_the_file(tmp_path, capsys, mutation):
    config = tmp_path / "step.json"
    config.write_bytes(MUTATIONS[mutation](json.dumps({"student": {}, "teachers": []}).encode()))
    assert main(["--config", str(config), "loss"]) == 1
    assert capsys.readouterr().err.startswith("error: " + expected_prefix(config, mutation, False))


@pytest.mark.parametrize("data", [b"\xffab\n", "ab\nb\xe9".encode()[:-1]],
                         ids=["leading_0xff", "truncated"])
def test_texts_file_names_the_file(tmp_path, capsys, data):
    vocab = vocab_file(tmp_path)[0]
    texts = tmp_path / "texts.txt"
    texts.write_bytes(data)
    assert main(["align", "--student-vocab", str(vocab), "--teacher-vocab", str(vocab),
                 "--texts", str(texts), "--out", str(tmp_path / "out.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {texts}: not UTF-8 text (")


@pytest.mark.parametrize("text, detail", [
    ("[1, 2]", "got [1, 2]"),
    ('{"a": 1', "JSONDecodeError: "),
    ("9" * 5000, "ValueError: Exceeds the limit"),
    ("[" * 100_000, "RecursionError: "),
], ids=["array", "malformed", "long-integer", "nested"])
def test_parse_object_message(text, detail):
    with pytest.raises(ValidationError) as info:
        parse_object(text, "f.jsonl", 7)
    assert str(info.value).startswith(f"f.jsonl: line 7: not a JSON object ({detail}")


def test_parse_object_keeps_json_loads_inputs():
    assert parse_object('{"w": NaN, "n": 1e400}', "f.json")["n"] == float("inf")


def test_read_text_names_an_unencodable_path():
    with pytest.raises(ValidationError) as info:
        read_text("dir/\ud800.json")
    assert str(info.value).startswith("'dir/\\ud800.json': not an encodable file path (")


@pytest.mark.parametrize("n_teacher", [-1, 10**30], ids=["negative", "1e30"])
def test_projection_teacher_count_named(tmp_path, n_teacher):
    """An impossible ``n_teacher`` fails at load, by name, not later
    inside ``product``."""
    path = projection_file(tmp_path)[0]
    header, rest = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(header), "n_teacher": n_teacher}) + "\n" + rest)
    with pytest.raises(ValidationError) as info:
        load_projection(path)
    assert str(info.value) == (f"{path}: n_teacher must be a count in [0, "
                               f"{sys.maxsize}], got {n_teacher}")
