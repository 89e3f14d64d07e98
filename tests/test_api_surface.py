"""Every library name the benchmark's tracer wraps must still resolve, and
the benchmark's output check must read a step report.

``benchmarks/spans.py`` lists the public functions and methods that a
``--trace 1`` run wraps; a renamed or deleted one would make that run die
with an ``AttributeError``. This reads the list without changing it, and
checks that a traced step attributes its cross-entropy to a span.
``benchmarks/workloads.py`` checks each step report it times; a report field
it cannot read would show only as incorrect outputs in a benchmark run. And
every public function of ``losses``, ``align``, ``audit``, ``projection``,
``training`` and ``errors`` has a reader: a library module or the tracer.
None of the ways into the loss kernels takes a log floor.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import crosstok.losses as losses
import crosstok.training as training
from crosstok.chunks import PositionLogits
from crosstok.projection import build_projection
from crosstok.training import TeacherConfig
from crosstok.vocab import Tokenizer, Vocabulary, vocabulary_hash

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_TABLE = load_benchmark_module("spans")
WORKLOADS = load_benchmark_module("workloads")


@pytest.mark.parametrize("entry", SPAN_TABLE.FUNCTIONS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_function_resolves(entry):
    _, module, attr = entry[:3]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("entry", SPAN_TABLE.METHODS, ids=lambda e: f"{e[2]}.{e[3]}")
def test_traced_method_resolves(entry):
    _, module, cls, method = entry[:4]
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


# ``chunks`` and ``vocab`` are left out on purpose: they keep public tools that
# no library module calls, namely the file writer and reader pairs
# (``load_float_matrix``, ``save_vocabulary``), ``canonicalize_bytes`` for a
# token given as raw bytes, and the README quickstart's ``make_toy_tokenizer``.
@pytest.mark.parametrize("module", ["losses", "align", "audit", "projection", "training",
                                    "errors"])
def test_every_public_function_has_a_reader(module):
    """A public function defined in the module is named in a library module
    other than by its own ``def`` (``__init__.py``'s export does not count),
    or the tracer wraps it. One that neither reads is a second path with no
    caller, such as a way into the loss kernels beside ``loss_kernel``."""
    mod = importlib.import_module(f"crosstok.{module}")
    traced = {entry[2] for entry in SPAN_TABLE.FUNCTIONS if entry[1] == mod.__name__}
    package = Path(mod.__file__).parent
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))
                     if path.name != "__init__.py")
    public = [name for name, obj in vars(mod).items()
              if inspect.isfunction(obj) and obj.__module__ == mod.__name__
              and not name.startswith("_")]
    assert module != "losses" or "loss_kernel" in public
    unread = [name for name in public if name not in traced
              and not re.search(rf"\b{name}\b", text.replace(f"def {name}(", ""))]
    assert unread == []


LOSS_ENTRY_POINTS = {"run_step": training.run_step, "loss_kernel": losses.loss_kernel,
                     "gradient_check": training.gradient_check,
                     **{entry[2]: getattr(losses, entry[2]) for entry in SPAN_TABLE.FUNCTIONS
                        if entry[1] == losses.__name__}}


@pytest.mark.parametrize("name", sorted(LOSS_ENTRY_POINTS))
def test_log_floor_is_not_a_parameter(name):
    """The KL log floor is the constant ``losses.LOG_EPS``: no way into the
    kernels (the step, ``loss_kernel``, the gradient check or a loss view the
    tracer wraps) takes an ``eps`` again, and the gradient check no ``h``."""
    params = inspect.signature(LOSS_ENTRY_POINTS[name]).parameters
    assert "eps" not in params
    assert name != "gradient_check" or "h" not in params


@pytest.mark.parametrize("grads", [False, True], ids=["forward", "grad"])
def test_step_records_one_ce_span_under_run_step(grads):
    vocab = Vocabulary(["a", "b", "c"])
    rng = np.random.default_rng(0)

    def dump(side):
        return PositionLogits("s0", side, rng.normal(size=(3, 3)), [0, 1, 2],
                              vocabulary_hash(vocab))

    tracer = SPAN_TABLE.Tracer()
    tracer.install()
    try:
        teacher = TeacherConfig("t", "kl", vocab, dump("teacher"))
        training.run_step(vocab, dump("student"), [teacher], compute_grads=grads)
    finally:
        tracer.uninstall()
    names = [rec[SPAN_TABLE.NAME] for rec in tracer.spans]
    assert names.count("training.ce") == 1
    ce = tracer.spans[names.index("training.ce")]
    assert ce[SPAN_TABLE.PARENT] == names.index("training.run_step")


@pytest.mark.parametrize("grads", [False, True], ids=["forward", "grad"])
def test_benchmark_output_check_reads_a_step_report(grads):
    """A ``pkl`` and a ``kl`` teacher: the check reads the projection gradient
    of one and the absence of it on the other."""
    vocab = Vocabulary(["a", "b", "c", "ab"])
    rng = np.random.default_rng(1)

    def dump(side):
        return PositionLogits("s0", side, rng.normal(size=(3, 4)), [3, 2, 0],
                              vocabulary_hash(vocab))

    w = build_projection(vocab, vocab, Tokenizer(vocab))
    student = dump("student")
    teachers = [TeacherConfig("p", "pkl", vocab, dump("teacher"), w, weight=0.25),
                TeacherConfig("k", "kl", vocab, dump("teacher"), weight=0.75)]
    report = training.run_step(vocab, student, teachers, compute_grads=grads)
    assert WORKLOADS.report_problems(report, student, teachers, grads) == []
    assert set(WORKLOADS.loss_values(report)) == {"ce", "kd", "total", "p.aggregate",
                                                  "k.aggregate"}
