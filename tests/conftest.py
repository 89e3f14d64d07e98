"""Shared on-disk fixtures for CLI and acceptance tests."""

import json

import numpy as np
import pytest

from crosstok.chunks import PositionLogits, save_position_logits
from crosstok.errors import parse_object, read_text
from crosstok.projection import build_projection, save_projection
from crosstok.vocab import Tokenizer, Vocabulary, save_vocabulary, vocabulary_hash

DIGIT_STUDENT = ("2", "0", "1", "201")
DIGIT_TEACHER = ("2", "0", "1")


def read_alignment_dump(path) -> list[dict]:
    """The records of a ``write_alignment_dump`` file, one JSON object per
    nonblank line, each read by ``parse_object`` naming its file line."""
    lines = read_text(path).split("\n")
    return [parse_object(line, path, n) for n, line in enumerate(lines, 1) if line.strip()]


def write_dump(path, side, logits, realized, vocab, seq_id="seq0"):
    pl = PositionLogits(seq_id=seq_id, side=side,
                        logits=np.asarray(logits, dtype=float),
                        realized_ids=np.asarray(realized),
                        vocab_hash=vocabulary_hash(vocab))
    save_position_logits(pl, path)
    return path


@pytest.fixture
def step_fixture(tmp_path):
    """Builds vocab files, logits dumps, a projection, and a step config.

    The student utters "201" as a single token; cross-tokenizer teachers see
    the digit-split ["2", "0", "1"].
    """

    def build(modes=("pkl",), weights=None, policy=None, schedule=None,
              temperature=1.0, seed=0, name="step"):
        rng = np.random.default_rng(seed)
        vs = Vocabulary(list(DIGIT_STUDENT))
        vt = Vocabulary(list(DIGIT_TEACHER))
        vs_path = tmp_path / "student_vocab.json"
        vt_path = tmp_path / "teacher_vocab.json"
        save_vocabulary(vs, vs_path)
        save_vocabulary(vt, vt_path)

        w_path = tmp_path / "projection.jsonl"
        save_projection(build_projection(vs, vt, Tokenizer(vt)), w_path)

        student_dump = write_dump(tmp_path / "student.bin", "student",
                                  rng.normal(size=(1, 4)), [3], vs)

        if weights is None:
            weights = [round(1.0 / len(modes), 12)] * len(modes)
            weights[-1] = 1.0 - sum(weights[:-1])
        teachers = []
        for i, mode in enumerate(modes):
            if mode == "kl":
                dump_path = write_dump(tmp_path / f"teacher{i}.bin", "teacher",
                                       rng.normal(size=(1, 4)), [3], vs,
                                       seq_id=f"teacher{i}")
                teachers.append({"name": f"t{i}_{mode}", "mode": mode,
                                 "vocab": str(vs_path), "logits": str(dump_path),
                                 "weight": weights[i]})
            else:
                dump_path = write_dump(tmp_path / f"teacher{i}.bin", "teacher",
                                       rng.normal(size=(3, 3)), [0, 1, 2], vt,
                                       seq_id=f"teacher{i}")
                entry = {"name": f"t{i}_{mode}", "mode": mode,
                         "vocab": str(vt_path), "logits": str(dump_path),
                         "weight": weights[i]}
                if mode in ("pkl", "hkl"):
                    entry["projection"] = str(w_path)
                teachers.append(entry)

        config = {
            "student": {"vocab": str(vs_path), "logits": str(tmp_path / "student.bin")},
            "teachers": teachers,
            "temperature": temperature,
        }
        if policy is not None:
            config["policy"] = policy
        if schedule is not None:
            config["schedule"] = schedule
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return {
            "config": config_path,
            "student_vocab": vs_path,
            "teacher_vocab": vt_path,
            "projection": w_path,
            "dir": tmp_path,
        }

    return build


@pytest.fixture
def bos_fixture(tmp_path):
    """Vocab and text files reproducing the BOS-asymmetry alignment case."""
    vs = Vocabulary(["<bos>", "Hello", " world", "."], specials=[0],
                    special_roles={"bos": 0})
    vt = Vocabulary(["Hello", " world", "."])
    vs_path = tmp_path / "bos_student.json"
    vt_path = tmp_path / "bos_teacher.json"
    save_vocabulary(vs, vs_path)
    save_vocabulary(vt, vt_path)
    texts = tmp_path / "texts.txt"
    texts.write_text("Hello world.\n", encoding="utf-8")
    return {"student_vocab": vs_path, "teacher_vocab": vt_path, "texts": texts,
            "dir": tmp_path}
