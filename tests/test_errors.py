"""``check_fields`` messages: the path, the key and the type as written;
``check_real`` on every real-valued setting; and ``errors`` as the one module
that writes text files or sorts JSON keys."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from crosstok.align import AlignScoring
from crosstok.chunks import PositionLogits
from crosstok.errors import ValidationError, check_fields
from crosstok.losses import HybridWeights
from crosstok.projection import ProjectionConfig
from crosstok.training import ScalingPolicy, TeacherConfig, run_step
from crosstok.vocab import Vocabulary, vocabulary_hash


@pytest.mark.parametrize("hint, value, expected", [
    (list[int], [2, "x"], "list[int], got [2, 'x']"),
    (dict[str, int], {"bos": "x"}, "dict[str, int], got {'bos': 'x'}"),
    (str | None, 3, "str | None, got 3"),
    (float, math.nan, "a finite float, got nan"),
    (float | None, -math.inf, "a finite float, got -inf"),
    (float, 10**400, f"a finite float, got {10**400!r:.80}"),
    (float | None, -(10**309), f"a finite float, got {-(10**309)!r:.80}"),
], ids=["list", "dict", "union", "nan", "optional-inf", "huge-int", "optional-huge-int"])
def test_mistyped_value_message(hint, value, expected):
    with pytest.raises(ValidationError) as info:
        check_fields({"key": value}, {"key": hint}, "cfg.json", "section.")
    assert str(info.value) == f"cfg.json: section.key must be {expected}"


VOCAB = Vocabulary(["a", "b"])


def one_step(temperature):
    def dump(side):
        return PositionLogits("s0", side, np.zeros((2, 2)), [0, 1], vocabulary_hash(VOCAB))

    teacher = TeacherConfig("t", "kl", VOCAB, dump("teacher"))
    return run_step(VOCAB, dump("student"), [teacher], temperature=temperature)


# each real-valued setting: how to build with it set to a value, and its name
REAL_SETTINGS = {
    "ProjectionConfig": (lambda v: ProjectionConfig(beta=v), "beta"),
    "TeacherConfig": (lambda v: TeacherConfig("t", "kl", VOCAB, None, weight=v),
                      "teacher 't': weight"),
    "AlignScoring": (lambda v: AlignScoring(alpha_exact=v), "alpha_exact"),
    "HybridWeights": (lambda v: HybridWeights(lambda_kl=v), "lambda_kl"),
    "ScalingPolicy": (lambda v: ScalingPolicy(lambda_kd=v), "lambda_kd"),
    "run_step": (one_step, "temperature"),
}


@pytest.mark.parametrize("value", [True, "0.5", None, np.float32(0.5)],
                         ids=["bool", "string", "none", "float32"])
@pytest.mark.parametrize("site", sorted(REAL_SETTINGS))
def test_real_setting_refuses_other_types(site, value):
    """Each was accepted before (a bool as 1 or 0, a ``float32`` that JSON
    cannot write) or failed with a ``TypeError`` from a comparison."""
    build, name = REAL_SETTINGS[site]
    with pytest.raises(ValidationError) as info:
        build(value)
    assert str(info.value) == f"{name} must be an int or a float, got {value!r:.80}"


@pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5)], ids=["int", "float", "float64"])
@pytest.mark.parametrize("site", sorted(REAL_SETTINGS))
def test_real_setting_takes_an_int_or_a_float(site, value):
    REAL_SETTINGS[site][0](value)


SRC = Path(__file__).resolve().parents[1] / "src" / "crosstok"


def _writes_text(call: ast.Call) -> bool:
    """``open`` in a writing mode without ``b``, or a ``Path.write_text``
    (``errors.write_text`` is called by its bare name)."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "write_text":
        return True
    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    if not isinstance(mode, ast.Constant):
        return True  # a mode computed at run time could write text
    return bool(set(mode.value) & set("wax+")) and "b" not in mode.value


def _sorts_json_keys(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute) and call.func.attr in ("dump", "dumps")
            and any(k.arg == "sort_keys" and not (isinstance(k.value, ast.Constant)
                                                  and k.value.value is False)
                    for k in call.keywords))


def test_one_module_writes_text_and_sorts_json_keys():
    """Text files are written, and canonical JSON encoded, in ``errors`` only:
    every other module calls ``write_text`` and ``json_line``. Binary writes
    (the float32 matrices, the projection file) are not text writes."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        calls = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
        lines = [c.lineno for c in calls if _writes_text(c) or _sorts_json_keys(c)]
        if lines:
            found[path.name] = lines
    assert set(found) == {"errors.py"}, found
