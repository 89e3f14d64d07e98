import functools
import hashlib
import json
import math
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import crosstok.cli as cli
from crosstok.chunks import load_float_matrix
from crosstok.cli import main
from crosstok.errors import json_line
from crosstok.projection import (build_projection, decay_weights, load_projection,
                                 save_projection)
from crosstok.training import run_step
from crosstok.vocab import (Tokenizer, Vocabulary, load_vocabulary, make_toy_tokenizer,
                            save_vocabulary)

from conftest import read_alignment_dump, write_dump
from projection_reference import unpack_file
from test_projection import OLD_LAYOUT, rewrite_body


def write_toy_vocab(path, kind):
    save_vocabulary(make_toy_tokenizer(kind).vocabulary, path)
    return path


class TestBuildW:
    def test_digit_pair_row_matches_library(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        out = tmp_path / "w.proj"
        assert main(["build-w", "--student-vocab", str(vs), "--teacher-vocab", str(vt),
                     "--out", str(out)]) == 0
        w = load_projection(out)
        student = load_vocabulary(vs)
        teacher = load_vocabulary(vt)
        row = w.rows[student.id_of["201"]]
        assert [t for t, _ in row] == [teacher.id_of[c] for c in "201"]
        assert [wt for _, wt in row] == pytest.approx(list(decay_weights(3)))

    def test_identical_vocabs_all_exact(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "char_level")
        out = tmp_path / "w.proj"
        assert main(["--format", "json", "build-w", "--student-vocab", str(vs),
                     "--teacher-vocab", str(vs), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["provenance"]["exact"] == summary["rows"]
        assert summary["provenance"]["multi_token"] == 0

    def test_missing_vocab_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["build-w", "--student-vocab", str(missing),
                   "--teacher-vocab", str(missing), "--out", str(tmp_path / "w")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_constants_exit_1(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "char_level")
        rc = main(["build-w", "--student-vocab", str(vs), "--teacher-vocab", str(vs),
                   "--out", str(tmp_path / "w"), "--beta", "0.1", "--gamma", "0.9"])
        assert rc == 1


class TestOutCheckedFirst:
    """``build-w`` and ``align`` reject an ``--out`` that cannot name a file
    before any input is read: the vocabulary paths here do not exist, which
    would exit 2."""

    @pytest.mark.parametrize("command, what", [
        (["build-w"], "the projection file"),
        (["align", "--texts", "missing.txt"], "the chunk dump")])
    def test_bad_out_rejected_before_any_vocabulary(self, tmp_path, capsys, command, what):
        (tmp_path / "outdir").mkdir()
        directory, missing = str(tmp_path / "outdir"), str(tmp_path / "nodir" / "w.proj")
        cases = [(out, f"--out {out!r} is a directory; it must name {what}")
                 for out in (directory, directory + "/")]
        cases.append((missing, f"--out {missing!r}: its directory does not exist"))
        before = sorted(tmp_path.rglob("*"))
        for out, message in cases:
            rc = main([command[0], "--student-vocab", str(tmp_path / "nope_s.json"),
                       "--teacher-vocab", str(tmp_path / "nope_t.json"), *command[1:],
                       "--out", out])
            assert rc == 1 and capsys.readouterr().err == f"error: {message}\n"
            assert sorted(tmp_path.rglob("*")) == before


class TestAlign:
    def test_default_engine_gap_plus_matches(self, bos_fixture, tmp_path, capsys):
        out = tmp_path / "dp.jsonl"
        rc = main(["--format", "json", "align",
                   "--student-vocab", str(bos_fixture["student_vocab"]),
                   "--teacher-vocab", str(bos_fixture["teacher_vocab"]),
                   "--texts", str(bos_fixture["texts"]),
                   "--out", str(out), "--student-add-bos"])
        assert rc == 0
        kinds = [r["kind"] for r in read_alignment_dump(out)]
        assert kinds == ["gap_teacher_side", "match", "match", "match"]
        summary = json.loads(capsys.readouterr().out)
        assert summary["match"] == 3 and summary["gap_teacher_side"] == 1

    def test_nan_flag_exits_1(self, bos_fixture, tmp_path, capsys):
        rc = main(["align",
                   "--student-vocab", str(bos_fixture["student_vocab"]),
                   "--teacher-vocab", str(bos_fixture["teacher_vocab"]),
                   "--texts", str(bos_fixture["texts"]),
                   "--out", str(tmp_path / "dp.jsonl"), "--alpha-gap", "nan"])
        assert rc == 1 and "alpha_gap" in capsys.readouterr().err

    def test_baseline_engine_super_group(self, bos_fixture, tmp_path):
        out = tmp_path / "trl.jsonl"
        rc = main(["align",
                   "--student-vocab", str(bos_fixture["student_vocab"]),
                   "--teacher-vocab", str(bos_fixture["teacher_vocab"]),
                   "--texts", str(bos_fixture["texts"]),
                   "--out", str(out), "--student-add-bos", "--baseline"])
        assert rc == 0
        records = read_alignment_dump(out)
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "super_group" and rec["in_loss"] is False
        assert (rec["s_hi"] - rec["s_lo"], rec["t_hi"] - rec["t_lo"]) == (4, 3)

    def test_empty_text_file(self, tmp_path):
        vs = write_toy_vocab(tmp_path / "s.json", "char_level")
        texts = tmp_path / "texts.txt"
        texts.write_text("", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        rc = main(["align", "--student-vocab", str(vs), "--teacher-vocab", str(vs),
                   "--texts", str(texts), "--out", str(out)])
        assert rc == 0
        assert read_alignment_dump(out) == []

    def test_texts_split_on_newline_only(self, tmp_path, capsys):
        """A form feed or a file separator inside a line, which
        ``str.splitlines`` split on, keeps the line one sequence; ``\\r\\n``
        still ends a line."""
        vs = write_toy_vocab(tmp_path / "s.json", "char_level")
        texts = tmp_path / "texts.txt"
        texts.write_bytes(b"a\x0cb\r\nc d\ne\x1cf\n")
        out = tmp_path / "out.jsonl"
        assert main(["--format", "json", "align", "--student-vocab", str(vs),
                     "--teacher-vocab", str(vs), "--texts", str(texts), "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["sequences"] == 3
        seq_ids = [r["seq_id"] for r in read_alignment_dump(out)]
        assert seq_ids == [0] * 3 + [1] * 3 + [2] * 3  # one chunk per character

    def test_unencodable_text_exits_1(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "char_level")
        texts = tmp_path / "texts.txt"
        texts.write_text("café\n", encoding="utf-8")
        rc = main(["align", "--student-vocab", str(vs), "--teacher-vocab", str(vs),
                   "--texts", str(texts), "--out", str(tmp_path / "out.jsonl")])
        assert rc == 1


class TestAudit:
    def test_digit_splitting_recommends_projection_loss(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        assert main(["audit", "--student-vocab", str(vs), "--teacher-vocab", str(vt)]) == 0
        out = capsys.readouterr().out
        assert "recommended loss mode: pkl" in out
        assert "0/100" in out.replace(" ", "")

    def test_same_scheme_recommends_hybrid(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        assert main(["--format", "json", "audit", "--student-vocab", str(vs),
                     "--teacher-vocab", str(vs)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recommendation"] == "hkl"

    def test_mistyped_specials_exits_1(self, tmp_path, capsys):
        vs = tmp_path / "s.json"
        vs.write_text(json.dumps({"tokens": ["a", "b"], "specials": "ab"}))
        assert main(["audit", "--student-vocab", str(vs), "--teacher-vocab", str(vs)]) == 1
        err = capsys.readouterr().err
        assert "s.json" in err and "specials" in err

    def test_non_string_token_exits_1(self, tmp_path, capsys):
        vs = tmp_path / "s.json"
        vs.write_text(json.dumps({"tokens": ["a", None]}), encoding="utf-8")
        assert main(["audit", "--student-vocab", str(vs), "--teacher-vocab", str(vs)]) == 1
        err = capsys.readouterr().err
        assert "s.json" in err and "tokens[1]" in err

    def test_surrogate_token_exits_1(self, tmp_path, capsys):
        vs = tmp_path / "s.json"
        vs.write_text('{"tokens": ["\\ud800", "a"]}', encoding="utf-8")
        assert main(["audit", "--student-vocab", str(vs), "--teacher-vocab", str(vs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vs}: token 0 ") and "surrogate" in err

    @pytest.mark.parametrize("critical", ["2-digit,bogus", "bogus,2-digit"])
    def test_unknown_critical_name_exits_1_in_any_order(self, tmp_path, capsys, critical):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        assert main(["audit", "--student-vocab", str(vs), "--teacher-vocab", str(vt),
                     "--critical", critical]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown critical category 'bogus'\n"

    @pytest.mark.parametrize("threshold", ["-1", "2"])
    def test_threshold_outside_unit_interval_exits_1(self, tmp_path, capsys, threshold):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        assert main(["audit", "--student-vocab", str(vs), "--teacher-vocab", str(vt),
                     "--threshold", threshold]) == 1
        assert capsys.readouterr().err == (f"error: threshold must be in [0, 1], "
                                           f"got {float(threshold)}\n")

    def test_zero_threshold_always_hybrid(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        assert main(["--format", "json", "audit", "--student-vocab", str(vs),
                     "--teacher-vocab", str(vt), "--threshold", "0.0"]) == 0
        assert json.loads(capsys.readouterr().out)["recommendation"] == "hkl"


class TestLoss:
    def test_single_pkl_teacher_report(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("pkl",))
        out = tmp_path / "report.json"
        rc = main(["--config", str(fx["config"]), "loss", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["teachers"][0]["mode"] == "pkl"
        assert payload["total"] == pytest.approx(2 * payload["ce"], rel=1e-12)
        assert payload["kd_multiplier"] == pytest.approx(
            payload["ce"] / payload["kd"], rel=1e-12)

    def test_all_modes_route(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("kl", "pkl", "hkl", "gold", "uld"),
                          weights=[0.2, 0.2, 0.2, 0.2, 0.2])
        out = tmp_path / "report.json"
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [t["mode"] for t in payload["teachers"]] == ["kl", "pkl", "hkl", "gold", "uld"]
        assert payload["alphas"] == [0.2, 0.2, 0.2, 0.2, 0.2]

    def test_reports_byte_identical(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("pkl", "hkl"), weights=[0.5, 0.5])
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out1)]) == 0
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shared_files_loaded_once(self, step_fixture, tmp_path, monkeypatch):
        """Three teachers naming one vocabulary and one projection read each
        file once, and the report and ``--grad`` files are the bytes of a run
        whose teachers name a copy each (the report's echo of the config's
        paths aside)."""
        fx = step_fixture(modes=("pkl", "hkl", "pkl"), weights=[0.25, 0.25, 0.5])
        out = tmp_path / "report.json"

        def run():
            assert main(["--config", str(fx["config"]), "loss", "--out", str(out), "--grad"]) == 0
            files = {path.name: path.read_bytes() for path in sorted(tmp_path.glob("report*"))}
            report = json.loads(files.pop("report.json"))
            assert report.pop("config_echo")
            return files, json_line(report)

        reads = []

        def counted(load):
            return lambda path: reads.append(path) or load(path)

        monkeypatch.setattr(cli, "load_vocabulary", counted(cli.load_vocabulary))
        monkeypatch.setattr(cli, "load_projection", counted(cli.load_projection))
        shared = run()
        assert sorted(reads) == sorted(map(str, [fx["student_vocab"], fx["teacher_vocab"],
                                                 fx["projection"]]))
        config = json.loads(fx["config"].read_text())
        for i, teacher in enumerate(config["teachers"]):
            for key in ("vocab", "projection"):
                copy = tmp_path / f"{i}.{Path(teacher[key]).name}"
                copy.write_bytes(Path(teacher[key]).read_bytes())
                teacher[key] = str(copy)
        fx["config"].write_text(json.dumps(config))
        reads.clear()
        assert run() == shared and len(shared[0]) > 2
        assert len(reads) == 7

    def test_grad_writes_tensors(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("pkl",))
        out = tmp_path / "report.json"
        rc = main(["--config", str(fx["config"]), "loss", "--out", str(out), "--grad"])
        assert rc == 0
        payload = json.loads(out.read_text())
        files = payload["gradient_files"]
        assert "ce" in files and "t0_pkl/w_entries" in files
        for name in files.values():
            assert (tmp_path / name).exists()

    def test_grad_writes_one_chunk_matrix_per_teacher(self, step_fixture, tmp_path,
                                                      monkeypatch):
        """Row k of ``<out>.<name>.chunk_logits.bin`` is chunk k's gradient, as
        float32; ``pkl`` teachers add ``w_entries`` and the student ``ce``."""
        fx = step_fixture(modes=("pkl", "gold", "kl"), weights=[0.2, 0.3, 0.5])
        reports = []

        @functools.wraps(run_step)  # the CLI reads run_step's type hints
        def recorded(*args, **kwargs):
            reports.append(run_step(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_step", recorded)
        out = tmp_path / "r.json"
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out), "--grad"]) == 0
        [report] = reports
        files = json.loads(out.read_text())["gradient_files"]
        assert sorted(files) == ["ce", "t0_pkl/chunk_logits", "t0_pkl/w_entries",
                                 "t1_gold/chunk_logits", "t2_kl/chunk_logits"]
        for t in report.teachers:
            rows = t.report.grad_chunk_logits
            path = tmp_path / files[f"{t.name}/chunk_logits"]
            assert path.name == f"r.{t.name}.chunk_logits.bin"
            sidecar = json.loads(path.with_name(path.name + ".json").read_text())
            assert sidecar == {"shape": [len(rows), rows[0].size]}
            matrix = load_float_matrix(path)
            for k, row in enumerate(rows):
                assert np.array_equal(matrix[k], row.astype(np.float32))
        assert np.array_equal(load_float_matrix(tmp_path / files["ce"]),
                              report.ce_grad.astype(np.float32))

    def test_fixed_policy(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("pkl",), policy={"kind": "fixed", "lambda_kd": 1.0,
                                                  "lambda_ce": 0.1})
        out = tmp_path / "report.json"
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kd_multiplier"] == 1.0
        assert payload["total"] == pytest.approx(payload["kd"] + 0.1 * payload["ce"])

    def test_gradcheck_passes(self, capsys):
        rc = main(["--format", "json", "--seed", "11", "loss", "--gradcheck",
                   "--instances", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert all(err < 1e-6 for err in payload["max_relative_error"].values())

    def test_gradcheck_json_keys(self, capsys):
        """One family per mode, ``pkl`` split into logits and entries; the
        record's keys come out sorted."""
        assert main(["--format", "json", "--seed", "11", "loss", "--gradcheck",
                     "--instances", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["max_relative_error", "pass", "tolerance"]
        assert list(payload["max_relative_error"]) == ["gold", "hkl", "kl", "pkl_entries",
                                                       "pkl_logits", "uld"]

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_gradcheck_without_instances_exits_1(self, capsys, instances):
        rc = main(["loss", "--gradcheck", "--instances", instances])
        captured = capsys.readouterr()
        assert rc == 1 and "PASS" not in captured.out
        assert f"error: --instances: instances must be at least 1, got {instances}" in captured.err

    def test_gradcheck_passes_on_small_projection_weights(self, capsys):
        rc = main(["--format", "json", "--seed", "142", "loss", "--gradcheck"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_relative_error"]["pkl_entries"] < 1e-6
        assert rc == 0 and payload["pass"] is True

    def test_loss_without_config_exits_1(self, capsys):
        assert main(["loss"]) == 1

    def test_adaptive_schedule_from_config(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("pkl", "hkl"),
                          schedule={"kind": "adaptive_maxprob"})
        out = tmp_path / "report.json"
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(sum(payload["alphas"]) - 1.0) < 1e-12

    def test_nan_teacher_dump_exits_1(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        dump_path = fx["dir"] / "teacher0.bin"
        values = np.fromfile(dump_path, dtype="<f4")
        values[4] = np.nan
        values.tofile(dump_path)
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert "teacher0.bin" in err and "non-finite" in err
        assert "Traceback" not in err

    def test_unknown_mode_exits_1(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c["teachers"][0].update(mode="bogus"))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert "mode must be one of" in err and "got 'bogus'" in err
        assert "Traceback" not in err

    def test_zero_position_dump_exits_1(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        sidecar = fx["dir"] / "teacher0.bin.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()),
                                       "positions": 0, "realized_ids": []}))
        (fx["dir"] / "teacher0.bin").write_bytes(b"")
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {fx['dir'] / 'teacher0.bin'}: positions and vocab_size must be "
                       "positive, got 0 and 3\n")

    @pytest.mark.parametrize("big", [10**30, -10**30], ids=["1e30", "-1e30"])
    def test_oversized_realized_id_exits_1(self, step_fixture, capsys, big):
        fx = step_fixture(modes=("pkl",))
        sidecar = fx["dir"] / "teacher0.bin.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "realized_ids": [big] + meta["realized_ids"][1:]}))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {fx['dir'] / 'teacher0.bin'}: realized_ids[0] must fit intp, "
                       f"got {big}\n")

    def test_projection_row_outside_student_range_exits_1(self, step_fixture, capsys):
        """A body one row longer than ``n_student`` fails the length check."""
        fx = step_fixture(modes=("pkl",))
        rewrite_body(fx["projection"], lambda b: {
            "counts": b["counts"] + [0], "provenance": b["provenance"] + ["empty"],
            "teacher_ids": b["teacher_ids"], "weights": b["weights"]})
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err == (f"error: {fx['projection']}: the body holds 141 bytes, "
                                           "not 9 per row and 16 per entry (n_student 4, "
                                           "entries 6)\n")

    def test_projection_of_an_old_layout_exits_1(self, step_fixture, capsys):
        """A file of the JSON-body layout (its header has no ``entries``) fails
        with a pointer to ``crosstok build-w``."""
        fx = step_fixture(modes=("pkl",))
        header, body = unpack_file(fx["projection"].read_bytes())
        del header["entries"]
        line = json.dumps(body, sort_keys=True, separators=(",", ":"))
        header["content_hash"] = hashlib.sha256(line.encode()).hexdigest()
        fx["projection"].write_text(f"{json.dumps(header)}\n{line}\n")
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err == f"error: {fx['projection']}: {OLD_LAYOUT}\n"

    def test_negative_kd_exits_1(self, tmp_path, capsys):
        vs, vt = Vocabulary(["a", "b"]), Vocabulary(["a", "c"])
        save_vocabulary(vs, tmp_path / "vs.json")
        save_vocabulary(vt, tmp_path / "vt.json")
        write_dump(tmp_path / "s.bin", "student", [[3.0, 0.0]], [0], vs)
        write_dump(tmp_path / "t.bin", "teacher", [[0.0, 3.0]], [0], vt)
        config = tmp_path / "step.json"
        config.write_text(json.dumps({
            "student": {"vocab": str(tmp_path / "vs.json"), "logits": str(tmp_path / "s.bin")},
            "teachers": [{"name": "partial", "mode": "gold", "vocab": str(tmp_path / "vt.json"),
                          "logits": str(tmp_path / "t.bin")}],
            "hybrid": {"lambda_kl": 1.0, "lambda_uld": 0.0}}))
        assert main(["--config", str(config), "loss"]) == 1
        assert "'partial'" in capsys.readouterr().err


    def test_degenerate_merge_exits_1(self, tmp_path, capsys):
        vocab = Vocabulary(["a", "b", "ab"])
        save_vocabulary(vocab, tmp_path / "v.json")
        write_dump(tmp_path / "s.bin", "student", [[800.0, 0.0, 0.0], [0.0, 0.0, 800.0]],
                   [0, 1], vocab)
        write_dump(tmp_path / "t.bin", "teacher", [[0.0, 0.0, 1.0]], [2], vocab)
        config = tmp_path / "step.json"
        config.write_text(json.dumps({
            "student": {"vocab": str(tmp_path / "v.json"), "logits": str(tmp_path / "s.bin")},
            "teachers": [{"name": "t", "mode": "kl", "vocab": str(tmp_path / "v.json"),
                          "logits": str(tmp_path / "t.bin")}],
            "policy": {"kind": "fixed"}}))
        assert main(["--config", str(config), "loss"]) == 1
        err = capsys.readouterr().err
        assert "no mass" in err and "Traceback" not in err
        assert f"step.json: student ({tmp_path / 's.bin'}): student chunk [0, 2)" in err

    def test_projection_entry_float_id_exits_1(self, step_fixture, capsys):
        """A float written where a teacher id belongs reads as the int64 of its
        bits, an id out of range."""
        fx = step_fixture(modes=("pkl",))
        bits = struct.unpack("<q", struct.pack("<d", 2.7))[0]
        rewrite_body(fx["projection"], lambda b: {
            **b, "teacher_ids": b["teacher_ids"][:-1] + [bits]})
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err == (f"error: {fx['projection']}: row 3: teacher id "
                                           f"{bits} out of range\n")

    def test_projection_header_without_config_exits_1(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        line, body = fx["projection"].read_bytes().split(b"\n", 1)
        header = json.loads(line)
        del header["config"]
        fx["projection"].write_bytes(json.dumps(header).encode() + b"\n" + body)
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert "projection.proj" in err and "config" in err


def edit_config(fx, edit):
    config = json.loads(fx["config"].read_text())
    edit(config)
    fx["config"].write_text(json.dumps(config))


class TestConfigFields:
    """A missing or mistyped key fails as a ValidationError naming the file and
    the field, and the CLI exits 1."""

    CASES = [
        (lambda c: c["teachers"][0].pop("mode"), "teachers[0].mode"),
        (lambda c: c["teachers"][0].pop("logits"), "teachers[0].logits"),
        (lambda c: c["teachers"][0].update(weight="1"), "teachers[0].weight"),
        (lambda c: c["student"].pop("vocab"), "student.vocab"),
        (lambda c: c.update(teachers={}), "teachers"),
        (lambda c: c.update(policy=[]), "policy"),
        (lambda c: c.update(policy={"lambda_ce": "0.1"}), "policy.lambda_ce"),
        (lambda c: c.update(scoring={"max_span": 2.5}), "scoring.max_span"),
        (lambda c: c.update(hybrid={"lambda_kl": None}), "hybrid.lambda_kl"),
        (lambda c: c.update(schedule={"kind": "static", "weights": 1}), "schedule.weights"),
        (lambda c: c.update(top_k="8"), "top_k"),
        (lambda c: c.update(temperature=True), "temperature"),
    ]

    @pytest.mark.parametrize("edit, field", CASES, ids=[field for _, field in CASES])
    def test_bad_step_config_exits_1(self, step_fixture, capsys, edit, field):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, edit)
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert fx["config"].name in err and field in err

    def test_unknown_policy_key_exits_1(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c.update(policy={"kind": "fixed", "lambda": 1.0}))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert "policy.lambda" in capsys.readouterr().err

    NON_FINITE = [
        (lambda c: c.update(temperature=math.nan), "temperature"),
        (lambda c: c["teachers"][0].update(weight=math.nan), "teachers[0].weight"),
        (lambda c: c.update(policy={"kind": "fixed", "lambda_ce": math.nan}), "policy.lambda_ce"),
        (lambda c: c.update(hybrid={"lambda_uld": math.inf}), "hybrid.lambda_uld"),
        (lambda c: c.update(scoring={"alpha_gap": -math.inf}), "scoring.alpha_gap"),
    ]

    @pytest.mark.parametrize("edit, field", NON_FINITE, ids=[field for _, field in NON_FINITE])
    def test_non_finite_setting_exits_1(self, step_fixture, capsys, edit, field):
        """JSON ``NaN``/``Infinity`` literals parse as floats; they fail by name."""
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, edit)
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert fx["config"].name in err and field in err

    HUGE = [
        (lambda c: c.update(temperature=10**400), "temperature"),
        (lambda c: c["teachers"][0].update(weight=10**400), "teachers[0].weight"),
        (lambda c: c.update(scoring={"alpha_comb": 10**400}), "scoring.alpha_comb"),
    ]

    @pytest.mark.parametrize("edit, field", HUGE, ids=[field for _, field in HUGE])
    def test_integer_beyond_float_range_exits_1(self, step_fixture, capsys, edit, field):
        """An integer literal no float can hold fails by name, like ``Infinity``."""
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, edit)
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {fx['config']}: {field} must be a finite float, got ")

    def test_large_integer_scoring_runs_as_float(self, step_fixture, tmp_path):
        fx = step_fixture(modes=("pkl",))
        reports = []
        for scoring in ({"alpha_exact": 10**30, "alpha_gap": -(10**30)},
                        {"alpha_exact": 1e30, "alpha_gap": -1e30}):
            edit_config(fx, lambda c: c.update(scoring=scoring))
            assert main(["--config", str(fx["config"]), "loss",
                         "--out", str(tmp_path / "r.json")]) == 0
            report = json.loads((tmp_path / "r.json").read_text())
            reports.append({k: v for k, v in report.items() if k != "config_echo"})
        assert reports[0] == reports[1]

    def test_schedule_weights_key_rejected(self, step_fixture, capsys):
        """Static weights live on the teachers; the schedule has no weight list."""
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c.update(schedule={"kind": "static", "weights": [1.0]}))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert "schedule.weights" in capsys.readouterr().err

    def test_readme_step_config_runs(self, step_fixture, tmp_path):
        """The README's step-config example, with its files swapped for fixture
        files of the same role, is a config ``crosstok loss`` accepts."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Step config schema", 1)[1].split("```json\n", 1)[1]
        config = json.loads(block.split("```", 1)[0])
        fx = step_fixture(modes=("pkl",))
        files = {"student.json": fx["student_vocab"], "teacher.json": fx["teacher_vocab"],
                 "w.proj": fx["projection"], "student.bin": fx["dir"] / "student.bin",
                 "teacher0.bin": fx["dir"] / "teacher0.bin"}
        for section in [config["student"], *config["teachers"]]:
            for key in ("vocab", "logits", "projection"):
                if key in section:
                    section[key] = str(files[section[key]])
        path = tmp_path / "readme_step.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(path), "loss"]) == 0

    @pytest.mark.parametrize("key", ["eps", "temprature"])
    def test_unknown_top_level_key_exits_1(self, step_fixture, capsys, key):
        """A top-level key the step does not know, such as the log floor that
        is now a constant or a misspelled temperature, fails by name before
        any file is read (the student vocabulary is gone, which would exit 2)."""
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c.update({key: 5.0}))
        fx["student_vocab"].unlink()
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err == f"error: {fx['config']}: {key} is not a known field\n"

    @pytest.mark.parametrize("field", ["positions", "vocab_size", "realized_ids", "side"])
    def test_sidecar_missing_field_exits_1(self, step_fixture, capsys, field):
        fx = step_fixture(modes=("pkl",))
        sidecar = fx["dir"] / "student.bin.json"
        meta = json.loads(sidecar.read_text())
        del meta[field]
        sidecar.write_text(json.dumps(meta))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert "student.bin.json" in err and field in err

    def test_sidecar_mistyped_positions_exits_1(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        sidecar = fx["dir"] / "teacher0.bin.json"
        meta = json.loads(sidecar.read_text())
        meta["positions"] = "3"
        sidecar.write_text(json.dumps(meta))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert "teacher0.bin.json" in err and "positions" in err

    def test_build_w_config_type_exits_1(self, tmp_path, capsys):
        vs = write_toy_vocab(tmp_path / "s.json", "char_level")
        config = tmp_path / "build.json"
        config.write_text(json.dumps({"top_k": "8"}))
        rc = main(["--config", str(config), "build-w", "--student-vocab", str(vs),
                   "--teacher-vocab", str(vs), "--out", str(tmp_path / "w")])
        assert rc == 1
        assert "build.json" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        config = tmp_path / "build.json"
        config.write_text(json.dumps({"top_k": 3, "max_span": 2}))
        rc = main(["--config", str(config), "build-w", "--student-vocab", str(vs),
                   "--teacher-vocab", str(vt), "--out", str(tmp_path / "w"), "--top-k", "2"])
        assert rc == 0
        w = load_projection(tmp_path / "w")
        assert w.config.top_k == 2 and w.config.max_span == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("align", "--alpha-gap", "nan"),
        ("build-w", "--beta", "inf"),
    ])
    def test_bad_flag_named_by_flag(self, bos_fixture, tmp_path, capsys, command, flag, value):
        texts = ["--texts", str(bos_fixture["texts"])] if command == "align" else []
        rc = main([command, *texts, "--student-vocab", str(bos_fixture["student_vocab"]),
                   "--teacher-vocab", str(bos_fixture["teacher_vocab"]),
                   "--out", str(tmp_path / "out"), flag, value])
        err = capsys.readouterr().err
        assert rc == 1 and f"error: {flag}: " in err and "a finite float" in err
        assert "None" not in err

    def test_bad_config_value_named_by_path_beside_a_good_flag(self, bos_fixture, tmp_path,
                                                               capsys):
        config = tmp_path / "align.json"
        config.write_text(json.dumps({"alpha_gap": math.nan}))
        rc = main(["--config", str(config), "align", "--texts", str(bos_fixture["texts"]),
                   "--student-vocab", str(bos_fixture["student_vocab"]),
                   "--teacher-vocab", str(bos_fixture["teacher_vocab"]),
                   "--out", str(tmp_path / "out"), "--alpha-comb", "2"])
        err = capsys.readouterr().err
        assert rc == 1 and f"error: {config}: alpha_gap must be a finite float" in err

    def test_bad_config_value_checked_under_its_own_flag(self, bos_fixture, tmp_path, capsys):
        # the flag overrides the value, but the config file is still broken
        config = tmp_path / "align.json"
        config.write_text(json.dumps({"alpha_gap": math.nan}))
        rc = main(["--config", str(config), "align", "--texts", str(bos_fixture["texts"]),
                   "--student-vocab", str(bos_fixture["student_vocab"]),
                   "--teacher-vocab", str(bos_fixture["teacher_vocab"]),
                   "--out", str(tmp_path / "out"), "--alpha-gap", "-2"])
        err = capsys.readouterr().err
        assert rc == 1 and f"error: {config}: alpha_gap must be a finite float" in err


def near_copy_kl_config(tmp_path, lambda_kd):
    """The 3-token ``kl`` step with a near-copy teacher under a fixed policy
    with ``lambda_ce = 0`` and T = 2."""
    vocab = Vocabulary(["a", "b", "c"])
    save_vocabulary(vocab, tmp_path / "v.json")
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 3))
    write_dump(tmp_path / "s.bin", "student", z, [0, 1, 2], vocab)
    write_dump(tmp_path / "t.bin", "teacher", z + 0.01 * rng.normal(size=z.shape), [0, 1, 2],
               vocab)
    config = tmp_path / "step.json"
    config.write_text(json.dumps({
        "student": {"vocab": str(tmp_path / "v.json"), "logits": str(tmp_path / "s.bin")},
        "teachers": [{"name": "t", "mode": "kl", "vocab": str(tmp_path / "v.json"),
                      "logits": str(tmp_path / "t.bin")}],
        "policy": {"kind": "fixed", "lambda_kd": lambda_kd, "lambda_ce": 0.0},
        "temperature": 2.0}))
    return config


class TestGradientOverflow:
    """A gradient that float64 (``lambda_kd = 1e308``) or float32 (``1e100``)
    cannot hold fails ``loss --grad`` with one error line, no file and no
    numpy warning."""

    @pytest.mark.parametrize("lambda_kd, words", [
        (1e308, ["lambda_kd", "temperature", "not finite"]),
        (1e100, ["gradient t/chunk_logits: a value is too large for float32"]),
    ], ids=["float64", "float32"])
    def test_exits_1_before_any_file(self, tmp_path, capsys, lambda_kd, words):
        config = near_copy_kl_config(tmp_path, lambda_kd)
        out = tmp_path / "grads"
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["--config", str(config), "loss", "--grad", "--out", str(out / "r.json")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in words)
        assert list(out.iterdir()) == []

    def test_finite_float64_gradient_reported_without_grad(self, tmp_path, capsys):
        config = near_copy_kl_config(tmp_path, 1e100)
        assert main(["--config", str(config), "loss"]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["total"])


class TestStepConfigSemantics:
    """A well-typed step config value that the step cannot use fails as
    ``error: <config>: ...``, naming the config once; ``--grad`` checks its
    output names before any work."""

    SEMANTIC = [
        (lambda c: c.update(temperature=0), "temperature must be positive, got 0"),
        (lambda c: c.update(temperature=1e160),
         "temperature must have a positive finite square, got 1e+160"),
        (lambda c: c.update(temperature=1e-300),
         "temperature must have a positive finite square, got 1e-300"),
        (lambda c: c.update(top_k=0), "top_k must be at least 1, got 0"),
        (lambda c: c.update(policy={"kind": "adaptive"}),
         "policy kind must be 'dynamic' or 'fixed', got 'adaptive'"),
        (lambda c: c.update(policy={"kind": "fixed", "lambda_ce": -1.0}),
         "fixed policy weights must be non-negative"),
        (lambda c: c.update(schedule={"kind": "bogus"}), "schedule kind must be one of"),
        (lambda c: c.update(scoring={"alpha_gap": 1.0}), "alpha_gap must be negative, got 1.0"),
        (lambda c: c.update(scoring={"max_span": 1}), "max_span must be at least 2"),
        (lambda c: c.update(hybrid={"lambda_kl": -1.0}), "hybrid loss weights must be "
                                                          "non-negative"),
        (lambda c: c.update(teachers=[]), "need at least one teacher"),
        (lambda c: c["teachers"][0].update(weight=-1.0),
         "teacher 't0_pkl': weight must be non-negative, got -1.0"),
        (lambda c: c["teachers"][0].update(weight=0.5), "static teacher weights sum to 0.5"),
        (lambda c: c["teachers"][0].update(mode="adaptive"),
         "teacher 't0_pkl': mode must be one of"),
        (lambda c: c["teachers"][0].pop("projection"), "teacher 't0_pkl': mode pkl needs a "
                                                        "projection"),
        (lambda c: c["teachers"][0].update(mode="kl"),
         "teacher 't0_pkl': KL mode requires the student's vocabulary"),
    ]
    IDS = ["temperature", "temperature-square-overflows", "temperature-square-underflows",
           "top_k", "policy-kind", "policy-weights", "schedule-kind", "alpha_gap", "max_span",
           "hybrid", "no-teacher", "weight", "weight-sum", "mode", "no-projection", "kl-vocabulary"]
    # the step's own constants: named with nothing between the config and the message
    WHOLE_LINE = tuple(message for (_, message), name in zip(SEMANTIC, IDS)
                       if name.startswith("temperature") or name == "top_k")

    @pytest.mark.parametrize("edit, message", SEMANTIC, ids=IDS)
    def test_semantic_error_names_the_config(self, step_fixture, capsys, edit, message):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, edit)
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fx['config']}: ") and message in err, err
        assert err.count(str(fx["config"])) == 1
        if message in self.WHOLE_LINE:
            assert err == f"error: {fx['config']}: {message}\n"

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the test
    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(temperature=1e-10), "temperature 1e-10 scales the KD loss "),
        (lambda c: c.update(policy={"kind": "fixed", "lambda_kd": 1e308, "lambda_ce": 1e308}),
         "report field total is inf: "),
        (lambda c: c.update(scoring={"alpha_exact": 1e308, "alpha_comb": 1e308,
                                     "alpha_gap": -1e308}),
         "alpha_exact=1e+308, alpha_comb=1e+308 and alpha_gap=-1e+308 could take "),
    ], ids=["kd-under-floor", "total-inf", "score-inf"])
    def test_dropped_or_non_finite_number_fails_in_one_line(self, step_fixture, tmp_path,
                                                            capsys, edit, message):
        """A KD term that T² alone would drop, or a total or alignment score
        past the float range, exits 1 with one ``error:`` line and no report."""
        # seed 1: the teacher's top token is not the student's, so the KD term
        # stays above the floor at any T, and CE + KD exceeds 1.8
        fx = step_fixture(modes=("kl",), seed=1)
        edit_config(fx, edit)
        out = tmp_path / "report.json"
        assert main(["--config", str(fx["config"]), "loss", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fx['config']}: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_unencodable_file_path_named(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c["teachers"][0].update(vocab="\ud800"))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err.startswith("error: '\\ud800': not an encodable file path")

    def grad_run(self, fx, tmp_path, capsys, with_out=True):
        """Exit code and stderr of ``loss --grad``, with ``--out`` in an empty
        directory; no file may appear there on failure."""
        out = tmp_path / "grads"
        out.mkdir()
        rc = main(["--config", str(fx["config"]), "loss", "--grad",
                   *(["--out", str(out / "r.json")] if with_out else [])])
        if rc:
            assert list(out.iterdir()) == []
        return rc, capsys.readouterr().err

    def test_grad_rejects_unnamed_teacher_with_a_directory(self, step_fixture, tmp_path,
                                                           capsys):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c["teachers"][0].pop("name"))
        rc, err = self.grad_run(fx, tmp_path, capsys)
        assert rc == 1 and err.startswith(f"error: {fx['config']}: teachers[0].name is missing")

    @pytest.mark.parametrize("name", ["a/b", "\ud800", "a\0b"], ids=["slash", "surrogate",
                                                                    "nul"])
    def test_grad_rejects_name_that_cannot_be_a_file_name_part(self, step_fixture, tmp_path,
                                                               capsys, name):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c["teachers"][0].update(name=name))
        rc, err = self.grad_run(fx, tmp_path, capsys)
        assert rc == 1 and err.startswith(
            f"error: {fx['config']}: teachers[0].name must fit in a gradient file name")

    @pytest.mark.parametrize("grad", [False, True], ids=["report", "grad"])
    def test_repeated_teacher_name_rejected(self, step_fixture, tmp_path, capsys, grad):
        fx = step_fixture(modes=("pkl", "gold"))
        edit_config(fx, lambda c: [t.update(name="t") for t in c["teachers"]])
        if grad:
            rc, err = self.grad_run(fx, tmp_path, capsys)
        else:
            rc, err = main(["--config", str(fx["config"]), "loss"]), capsys.readouterr().err
        assert rc == 1 and err == (f"error: {fx['config']}: teachers[0] and teachers[1] share "
                                   "the name 't'\n")

    def test_empty_teacher_name_rejected(self, step_fixture, capsys):
        fx = step_fixture(modes=("pkl",))
        edit_config(fx, lambda c: c["teachers"][0].update(name=""))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err == (f"error: {fx['config']}: teachers[0].name must not "
                                           "be empty\n")

    def test_grad_without_out_rejected_before_the_step(self, step_fixture, tmp_path, capsys):
        fx = step_fixture(modes=("pkl",), temperature=0)
        rc, err = self.grad_run(fx, tmp_path, capsys, with_out=False)
        assert rc == 1 and err == "error: --grad needs --out to anchor the gradient files\n"

    @pytest.mark.parametrize("grad", [[], ["--grad"]], ids=["report", "grad"])
    @pytest.mark.parametrize("slash", ["", "/"], ids=["plain", "trailing-slash"])
    def test_out_naming_a_directory_rejected_before_any_file(self, step_fixture, tmp_path,
                                                             capsys, grad, slash):
        fx = step_fixture(modes=("pkl", "gold"))
        out = tmp_path / "reports"
        out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        rc = main(["--config", str(fx["config"]), "loss", *grad, "--out", str(out) + slash])
        assert rc == 1 and capsys.readouterr().err == (
            f"error: --out {str(out) + slash!r} is a directory; it must name the report file\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("grad", [[], ["--grad"]], ids=["report", "grad"])
    def test_out_in_a_missing_directory_rejected_before_any_file(self, step_fixture, tmp_path,
                                                                 capsys, grad):
        fx = step_fixture(modes=("pkl", "gold"))
        # a missing input would fail with exit 2 if any input were read first
        (fx["dir"] / "student_vocab.json").unlink()
        out = tmp_path / "nodir" / "r.json"
        before = sorted(tmp_path.rglob("*"))
        rc = main(["--config", str(fx["config"]), "loss", *grad, "--out", str(out)])
        assert rc == 1 and capsys.readouterr().err == (
            f"error: --out {str(out)!r}: its directory does not exist\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("dump, other", [("student.bin", "teacher"),
                                             ("teacher0.bin", "student")])
    def test_wrong_side_dump_named_by_its_file(self, step_fixture, capsys, dump, other):
        fx = step_fixture(modes=("pkl",))
        path = fx["dir"] / dump
        sidecar = fx["dir"] / (dump + ".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "side": other}))
        assert main(["--config", str(fx["config"]), "loss"]) == 1
        assert capsys.readouterr().err == f"error: {path}: dump side is {other!r}\n"

    def test_grad_file_names_follow_teacher_names(self, step_fixture, tmp_path, capsys):
        fx = step_fixture(modes=("pkl", "gold"))
        edit_config(fx, lambda c: c["teachers"][1].update(name="t.b"))
        assert self.grad_run(fx, tmp_path, capsys)[0] == 0
        report = json.loads((tmp_path / "grads" / "r.json").read_text())
        assert sorted(report["gradient_files"].items()) == [
            ("ce", "r.ce_grad.bin"), ("t.b/chunk_logits", "r.t.b.chunk_logits.bin"),
            ("t0_pkl/chunk_logits", "r.t0_pkl.chunk_logits.bin"),
            ("t0_pkl/w_entries", "r.t0_pkl.w_entries.bin")]


class TestHeapTrim:
    def test_trimmed_after_each_command(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_MALLOC_TRIM", calls.append)
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vocabs = ["--student-vocab", str(vs), "--teacher-vocab", str(vs)]
        assert main(["build-w", *vocabs, "--out", str(tmp_path / "w.proj")]) == 0
        assert main(["audit", *vocabs]) == 0
        assert main(["audit", "--student-vocab", str(tmp_path / "nope.json"),
                     "--teacher-vocab", str(vs)]) == 2
        assert calls == [0, 0, 0]

    @pytest.mark.skipif(cli._MALLOC_TRIM is None, reason="no malloc_trim in this C library")
    def test_trim_is_callable(self):
        assert cli._MALLOC_TRIM(0) in (0, 1)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        vs = write_toy_vocab(tmp_path / "s.json", "numeral_preserving")
        vt = write_toy_vocab(tmp_path / "t.json", "digit_splitting")
        proc = subprocess.run(
            [sys.executable, "-m", "crosstok.cli", "audit",
             "--student-vocab", str(vs), "--teacher-vocab", str(vt)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "pkl" in proc.stdout


# ---------------------------------------------------------------------------
# Byte-identity pins: the alignment dump and the loss report's alignment
# statistics on a toy pair with a BOS special, 1-to-k and k-to-1
# combinations, mismatches and gaps. Recorded from the scalar DP.

PIN_TEXTS = [
    "In 2019 the 42 cats saw 7 dogs and 123 birds.",
    "abc 123 hello world 7",
    "",
    "on 04/05 at 1200 we met 99 of them",
    "zebra 2019, 2020 and 42!",
]
PINNED_ALIGN_DUMPS = {
    "dp": "3e8990e80e34cabea231386aa5c004b45e8cfc0b7be8930ee97f0d13d7af5929",
    "baseline": "7fac42d2070722ab56e37513052e4d9e1522aca0c1155e2d388ff89568fbb09a",
    "dp-span2": "31897a02fb8c21f57aa5f97bb8a16f1fd66d9d8951d3ec5e5a2fdd309ad5011d",
}
PINNED_LOSS_CHUNK_STATS = {
    "default": {"chunks": 53, "combinations": 13, "gaps": 15, "loss_chunks": 35,
                "matches": 22, "mismatches": 3, "score": 88.5},
    "odd": {"chunks": 72, "combinations": 9, "gaps": 41, "loss_chunks": 31,
            "matches": 22, "mismatches": 0, "score": 61.09999999999997},
}
# re-recorded when --grad went from one file pair per chunk (1,962 files) to
# one chunk matrix per teacher: every other file kept its bytes, and each
# matrix holds that teacher's former chunk files in chunk order
PINNED_LOSS_FILES = 48
PINNED_LOSS_BYTES = "7557ec2cca633ded19d2377a174f4bc8ac629000dec4595418e1250bfa8c63a7"


@pytest.fixture
def pin_pair(tmp_path):
    numerals = make_toy_tokenizer("numeral_preserving").vocabulary
    student = Vocabulary(list(numerals.tokens) + ["<s>"], specials=[len(numerals)],
                         special_roles={"bos": len(numerals)})
    teacher = make_toy_tokenizer("word_level", PIN_TEXTS[:2]).vocabulary
    save_vocabulary(student, tmp_path / "s.json")
    save_vocabulary(teacher, tmp_path / "t.json")
    (tmp_path / "texts.txt").write_text("\n".join(PIN_TEXTS) + "\n", encoding="utf-8")
    return {"student": student, "teacher": teacher, "dir": tmp_path}


class TestOutputPins:
    @pytest.mark.parametrize("name, flags", [("dp", []), ("baseline", ["--baseline"]),
                                             ("dp-span2", ["--max-span", "2"])])
    def test_align_dump_bytes(self, pin_pair, name, flags):
        d = pin_pair["dir"]
        out = d / "dump.jsonl"
        assert main(["align", "--student-vocab", str(d / "s.json"),
                     "--teacher-vocab", str(d / "t.json"), "--texts", str(d / "texts.txt"),
                     "--out", str(out), "--student-add-bos", *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ALIGN_DUMPS[name]

    def test_loss_chunk_stats(self, pin_pair, tmp_path):
        student, teacher, d = pin_pair["student"], pin_pair["teacher"], pin_pair["dir"]
        text = PIN_TEXTS[0] + " " + PIN_TEXTS[3]
        rng = np.random.default_rng(5)
        s_ids = [student.special_roles["bos"]] + Tokenizer(student).encode(text)
        t_ids = Tokenizer(teacher).encode(text)
        write_dump(d / "s.bin", "student", rng.normal(size=(len(s_ids), len(student))),
                   s_ids, student)
        write_dump(d / "t.bin", "teacher", rng.normal(size=(len(t_ids), len(teacher))),
                   t_ids, teacher)
        save_projection(build_projection(student, teacher, Tokenizer(teacher)), d / "w.jsonl")
        teacher_cfg = {"name": "words", "mode": "pkl", "vocab": str(d / "t.json"),
                       "logits": str(d / "t.bin"), "projection": str(d / "w.jsonl")}
        stats = {}
        for label, scoring in (("default", {}),
                               ("odd", {"alpha_exact": 2.9, "alpha_comb": 1.3,
                                        "alpha_gap": -0.7, "max_span": 3})):
            config = d / f"{label}.json"
            config.write_text(json.dumps({
                "student": {"vocab": str(d / "s.json"), "logits": str(d / "s.bin")},
                "teachers": [teacher_cfg], "scoring": scoring, "top_k": 16,
                "policy": {"kind": "fixed"}}))
            out = tmp_path / f"{label}.report.json"
            assert main(["--config", str(config), "loss", "--out", str(out)]) == 0
            [report] = json.loads(out.read_text())["teachers"]
            stats[label] = report["chunk_stats"]
        assert stats == PINNED_LOSS_CHUNK_STATS

    def test_loss_output_bytes(self, pin_pair, monkeypatch):
        """One digest over the report and every gradient file that `crosstok loss`
        writes for five teachers (one per mode) under three schedule and policy
        configurations, each run with and without --grad. Paths in the config
        are relative, so the echoed config is the same in every directory."""
        student, teacher = pin_pair["student"], pin_pair["teacher"]
        monkeypatch.chdir(pin_pair["dir"])
        text = " ".join(PIN_TEXTS)
        rng = np.random.default_rng(13)
        s_ids = [student.special_roles["bos"]] + Tokenizer(student).encode(text)
        t_ids = Tokenizer(teacher).encode(text)
        write_dump("s.bin", "student", 3 * rng.normal(size=(len(s_ids), len(student))),
                   s_ids, student)
        save_projection(build_projection(student, teacher, Tokenizer(teacher)), "w.jsonl")
        teachers = []
        for mode, weight in zip(("pkl", "hkl", "gold", "uld", "kl"), (0.1, 0.15, 0.2, 0.25, 0.3)):
            vocab, ids, vocab_file = ((student, s_ids, "s.json") if mode == "kl"
                                      else (teacher, t_ids, "t.json"))
            write_dump(f"{mode}.bin", "teacher", 3 * rng.normal(size=(len(ids), len(vocab))),
                       ids, vocab, seq_id=mode)
            teachers.append({"name": mode, "mode": mode, "vocab": vocab_file,
                             "logits": f"{mode}.bin", "weight": weight,
                             **({"projection": "w.jsonl"} if mode in ("pkl", "hkl") else {})})
        runs = {"t2-static": {"temperature": 2.0, "schedule": {"kind": "static"}},
                "adaptive-ce": {"schedule": {"kind": "adaptive_ce"}},
                "adaptive-entropy-fixed": {"schedule": {"kind": "adaptive_entropy"},
                                           "policy": {"kind": "fixed", "lambda_kd": 0.7,
                                                      "lambda_ce": 0.3}}}
        out = Path("out")
        for label, settings in runs.items():
            config = Path(f"{label}.json")
            config.write_text(json.dumps({"student": {"vocab": "s.json", "logits": "s.bin"},
                                          "teachers": teachers, "top_k": 16, **settings}))
            for grad in ([], ["--grad"]):
                run_dir = out / (label + "".join(grad))
                run_dir.mkdir(parents=True)
                assert main(["--config", str(config), "loss", "--out",
                             str(run_dir / "r.json"), *grad]) == 0
        digest = hashlib.sha256()
        files = sorted(p for p in out.rglob("*") if p.is_file())
        for p in files:
            digest.update(p.as_posix().encode() + b"\n" + hashlib.sha256(p.read_bytes()).digest())
        assert len(files) == PINNED_LOSS_FILES
        assert digest.hexdigest() == PINNED_LOSS_BYTES
