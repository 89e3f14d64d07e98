"""The row-major step against the teacher-major reference it replaced.

``run_step`` walks every teacher's loss chunks in student-span order, merges
each distinct student span once, binds each kernel once per vocabulary pair
and projection, and writes chunk gradients into one block per teacher.
``tests/step_reference.py`` keeps the old loop and kernels, run serially on
one thread; the step, whose calling thread and one helper share the span
groups, must match it byte for byte.
"""

import functools
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosstok.losses as losses
import crosstok.training as training
from crosstok.align import AlignmentCache, AlignScoring
from crosstok.chunks import PositionLogits
from crosstok.errors import DegenerateDistributionError, ValidationError
from crosstok.losses import HybridWeights, build_common_set_relaxed, loss_kernel
from crosstok.projection import SparseProjection, build_projection
from crosstok.training import ScalingPolicy, TeacherConfig, run_step
from crosstok.vocab import Tokenizer, Vocabulary, make_toy_tokenizer

from step_reference import reference_run_step
from test_losses import random_projection

TEXTS = ("In 2019 the 42 cats saw 7 dogs", "x = 201 + 35 * 7 ; y = 4096",
         "call 555 0199 at 10:45 on 04/05")
TEACHER_KINDS = [(kind, mode) for kind in ("digit_splitting", "word_level")
                 for mode in ("pkl", "hkl", "gold", "uld")] + [("student", "kl")]


@functools.cache
def tokenizers():
    tok_s = make_toy_tokenizer("numeral_preserving")
    return {"student": tok_s, "digit_splitting": make_toy_tokenizer("digit_splitting"),
            "word_level": make_toy_tokenizer("word_level", TEXTS)}


@functools.cache
def projection(kind):
    toks = tokenizers()
    return build_projection(toks["student"].vocabulary, toks[kind].vocabulary, toks[kind])


def step_inputs(rng, text, specs, dtype):
    toks = tokenizers()
    vs = toks["student"].vocabulary

    def dump(side, tok, seq_id):
        ids = tok.encode(text)
        logits = (2.0 * rng.normal(size=(len(ids), len(tok.vocabulary)))).astype(dtype)
        return PositionLogits(seq_id, side, logits, ids)

    student = dump("student", toks["student"], "s")
    weights = [round(1.0 / len(specs), 12)] * len(specs)
    weights[-1] = 1.0 - sum(weights[:-1])
    teachers = [TeacherConfig(f"{kind}.{mode}.{i}", mode, toks[kind].vocabulary,
                              dump("teacher", toks[kind], f"t{i}"),
                              projection(kind) if mode in ("pkl", "hkl") else None, weight)
                for i, ((kind, mode), weight) in enumerate(zip(specs, weights))]
    return vs, student, teachers


def assert_same_bytes(got, want):
    assert got.to_json() == want.to_json()
    assert (got.ce_grad is None) == (want.ce_grad is None)
    if want.ce_grad is not None:
        assert got.ce_grad.tobytes() == want.ce_grad.tobytes()
    for a, b in zip(got.teachers, want.teachers, strict=True):
        ga, gb = a.report.grad_chunk_logits, b.report.grad_chunk_logits
        assert (ga is None) == (gb is None)
        if gb is not None:
            assert len(ga) == len(gb)
            assert all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(ga, gb))
        wa, wb = a.report.grad_projection, b.report.grad_projection
        assert (wa is None) == (wb is None)
        if wb is not None:
            assert wa.tobytes() == wb.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), text=st.sampled_from(TEXTS),
       specs=st.lists(st.sampled_from(TEACHER_KINDS), min_size=1, max_size=4),
       temperature=st.sampled_from([0.5, 1.0, 2.0]),
       policy=st.sampled_from([ScalingPolicy("dynamic"), ScalingPolicy("fixed", 0.7, 0.2)]),
       schedule=st.sampled_from(training.SCHEDULE_KINDS),
       top_k=st.sampled_from([16, 8192]),
       hybrid=st.sampled_from([HybridWeights(), HybridWeights(0.5, 2.0), HybridWeights(1.0, 0.0)]),
       grads=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]))
def test_row_major_step_matches_teacher_major_reference(seed, text, specs, temperature, policy,
                                                        schedule, top_k, hybrid, grads, dtype):
    vs, student, teachers = step_inputs(np.random.default_rng(seed), text, specs, dtype)
    kwargs = dict(policy=policy, schedule=schedule, temperature=temperature,
                  top_k=top_k, hybrid=hybrid, compute_grads=grads)
    try:
        want = reference_run_step(vs, student, teachers, **kwargs)
    except ValidationError:  # e.g. a negative KD under the dynamic policy
        with pytest.raises(ValidationError):
            run_step(vs, student, teachers, **kwargs)
        return
    assert_same_bytes(run_step(vs, student, teachers, **kwargs), want)


def test_reference_inputs_have_multi_position_spans_on_both_sides():
    specs = [("digit_splitting", "pkl"), ("word_level", "gold")]
    vs, student, teachers = step_inputs(np.random.default_rng(0), TEXTS[0], specs, np.float64)
    cache = AlignmentCache()
    run_step(vs, student, teachers, cache=cache)
    toks = tokenizers()
    widths = set()
    for t, kind in zip(teachers, ("digit_splitting", "word_level")):
        alignment = cache.get(student.realized_ids.tolist(), t.logits.realized_ids.tolist(),
                              AlignScoring(), toks["student"], toks[kind])
        for c in alignment.loss_chunks():
            widths.add((c.student_span[1] - c.student_span[0] > 1,
                        c.teacher_span[1] - c.teacher_span[0] > 1))
    assert {(True, False), (False, True)} <= widths


def counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_second_step_binds_no_common_set(monkeypatch):
    vs = Vocabulary(["2", "0", "1", "201", "bind-once-s"])
    vt = Vocabulary(["2", "0", "1", "bind-once-t"])
    w = build_projection(vs, vt, Tokenizer(vt))
    rng = np.random.default_rng(5)
    student = PositionLogits("s", "student", rng.normal(size=(1, len(vs))), [3])
    teachers = [TeacherConfig(mode, mode, vt,
                              PositionLogits(mode, "teacher", rng.normal(size=(3, len(vt))),
                                             [0, 1, 2]),
                              w if mode == "hkl" else None, weight)
                for mode, weight in (("gold", 0.5), ("hkl", 0.5))]
    calls = []
    counting(monkeypatch, losses, "exact_partners", calls)
    counting(monkeypatch, losses, "build_common_set_relaxed", calls)
    step = functools.partial(run_step, vs, student, teachers, policy=ScalingPolicy("fixed"),
                             compute_grads=True)
    first = step()
    assert sorted(calls) == ["build_common_set_relaxed", "exact_partners"]
    calls.clear()
    again = step()
    assert calls == []
    assert_same_bytes(again, first)


def test_each_student_span_is_merged_once(monkeypatch):
    """Every student span of the step's loss chunks is merged exactly once;
    with two threads the merges interleave, so their order is not pinned
    (the results' order is: the reference property compares every byte)."""
    specs = [("digit_splitting", "pkl"), ("word_level", "hkl"), ("digit_splitting", "gold"),
             ("student", "kl")]
    vs, student, teachers = step_inputs(np.random.default_rng(1), TEXTS[1], specs, np.float32)
    merged = []
    real = training.chain_rule_merge

    def recorded(pl, chunk, temperature):
        merged.append((pl.side, chunk.student_span))
        return real(pl, chunk, temperature)

    monkeypatch.setattr(training, "chain_rule_merge", recorded)
    report = run_step(vs, student, teachers, compute_grads=True)
    student_spans = [span for side, span in merged if side == "student"]
    teacher_spans = [span for side, span in merged if side == "teacher"]
    assert sorted(student_spans) == sorted(set(teacher_spans))
    assert len(student_spans) < len(teacher_spans) == sum(
        b.chunk_stats["loss_chunks"] for b in report.teachers)


def test_hkl_on_reweighted_projection_equals_a_fresh_bind():
    rng = np.random.default_rng(11)
    vs = Vocabulary([f"s{i}" for i in range(12)])
    vt = Vocabulary([f"t{i}" for i in range(9)])
    w = random_projection(rng, len(vs), len(vt))
    # 12 rows over 9 teacher ids: some two rows share a head teacher id. Scale
    # the row that wins it in the relaxed set until its head weighs half the
    # runner-up's, so the runner-up wins it instead.
    heads = sorted((row[0][0], -row[0][1], s) for s, row in enumerate(w.rows))
    (t, winner_head, winner), (_, rival_head, rival) = next(
        pair for pair in zip(heads, heads[1:]) if pair[0][0] == pair[1][0])
    scale = np.ones(len(vs))
    scale[winner] = rival_head / winner_head / 2
    reweighted = w.with_weights(np.array([wt for _, _, wt in w.entries()])
                                * np.repeat(scale, np.diff(w._indptr)))
    before, after = build_common_set_relaxed(w), build_common_set_relaxed(reweighted)
    assert not (np.array_equal(before.student_ids, after.student_ids)
                and np.array_equal(before.teacher_ids, after.teacher_ids))
    assert (winner, t) in zip(before.student_ids.tolist(), before.teacher_ids.tolist())
    assert (rival, t) in zip(after.student_ids.tolist(), after.teacher_ids.tolist())
    pt, ps = rng.dirichlet(np.ones(len(vt))), rng.dirichlet(np.ones(len(vs)))
    hw = HybridWeights()
    loss_kernel("hkl", vs, vt, w, 8, hw)(pt, ps, np.empty(len(vs)))  # binds and memoizes w's set
    fresh = SparseProjection.from_rows(len(vt), reweighted.rows, reweighted.provenance, w.config)
    got = loss_kernel("hkl", vs, vt, reweighted, 8, hw)(pt, ps, np.empty(len(vs)))
    want = loss_kernel("hkl", vs, vt, fresh, 8, hw)(pt, ps, np.empty(len(vs)))
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def degenerate_teacher(name, vocab, realized, bad_at, source):
    """A ``kl`` teacher whose merged span starting at ``bad_at`` has no mass."""
    logits = np.zeros((len(realized), len(vocab)))
    logits[bad_at, 0] = 800.0  # all mass on "a" at the span's first position
    logits[bad_at + 1, 2] = 800.0  # and none on the realized "b" after it
    return TeacherConfig(name, "kl", vocab,
                         PositionLogits(name, "teacher", logits, realized, source=source),
                         weight=0.5)


def test_first_failing_chunk_in_student_order_is_reported():
    # the student says "ab" "ab"; teacher A splits the second "ab" into
    # "a" "b", teacher B the first, and each split merges to no mass
    vocab = Vocabulary(["a", "b", "ab"])
    student = PositionLogits("s", "student", np.zeros((2, 3)), [2, 2])
    late = degenerate_teacher("A", vocab, [2, 0, 1], 1, "a.bin")
    early = degenerate_teacher("B", vocab, [0, 1, 2], 0, "b.bin")
    with pytest.raises(DegenerateDistributionError) as info:
        run_step(vocab, student, [late, early], policy=ScalingPolicy("fixed"))
    assert str(info.value).startswith(
        "teacher 'B' (b.bin): teacher chunk [0, 2) of sequence 'B': the merged distribution "
        "has no mass")
    # with one failing teacher, the error names it and its dump
    with pytest.raises(DegenerateDistributionError, match=r"^teacher 'A' \(a\.bin\): "):
        run_step(vocab, student, [late, healthy(early)], policy=ScalingPolicy("fixed"))


WAIT_S = 10  # a pinned wait that times out fails the step, and with it the test


def pinned(monkeypatch, positions, holds):
    """The step's span groups pinned to threads.

    ``begun[s]`` is set when a student span starting at position s starts
    its merge, ``tried[s]`` when a teacher merge in such a span returns or
    raises, and ``helped`` when the helper starts a student merge. The
    helper's CE waits until the caller has started one, so the caller claims
    the first group; ``holds(begun, tried, helped)`` maps a span start to the
    event its student merges wait for. Returns the thread that merged each
    student span.
    """
    caller = threading.current_thread()
    begun = [threading.Event() for _ in range(positions)]
    tried = [threading.Event() for _ in range(positions)]
    called, helped = threading.Event(), threading.Event()
    waits = holds(begun, tried, helped)
    ran = {}
    real_merge = training.chain_rule_merge

    def merge(pl, chunk, temperature):
        s = chunk.student_span[0]
        if pl.side == "student":
            ran[chunk.student_span] = threading.current_thread()
            begun[s].set()
            (called if ran[chunk.student_span] is caller else helped).set()
            if s in waits and not waits[s].wait(WAIT_S):
                raise AssertionError(f"span {s} waited in vain")
            return real_merge(pl, chunk, temperature)
        try:
            return real_merge(pl, chunk, temperature)
        finally:
            tried[s].set()

    def after_the_caller(real):
        def ce(pl):
            if not called.wait(WAIT_S):
                raise AssertionError("the caller never began a group")
            return real(pl)
        return ce

    monkeypatch.setattr(training, "chain_rule_merge", merge)
    for name in ("cross_entropy", "cross_entropy_grad"):
        monkeypatch.setattr(training, name, after_the_caller(getattr(training, name)))
    return ran


AB_VOCAB = Vocabulary(["a", "b", "ab"])
AB_STUDENT = PositionLogits("s", "student", np.zeros((3, 3)), [2, 2, 2])  # "ab" "ab" "ab"


def test_first_failing_chunk_reported_when_the_helper_ran_it(monkeypatch):
    # teacher A splits the second "ab" and B the third, each into a "a" "b"
    # that merges to no mass; the caller holds span 0's group until the
    # helper is inside span 1's, which fails only once the caller is inside
    # span 2's, which fails too
    late = degenerate_teacher("B", AB_VOCAB, [2, 2, 0, 1], 2, "b.bin")
    first = degenerate_teacher("A", AB_VOCAB, [2, 0, 1, 2], 1, "a.bin")
    threads = threading.active_count()
    ran = pinned(monkeypatch, 3, lambda begun, tried, helped: {0: begun[1], 1: begun[2]})
    with pytest.raises(DegenerateDistributionError) as info:
        run_step(AB_VOCAB, AB_STUDENT, [late, first], policy=ScalingPolicy("fixed"))
    assert str(info.value).startswith("teacher 'A' (a.bin): teacher chunk [1, 3) of sequence "
                                      "'A': the merged distribution has no mass")
    assert ran[0, 1] is ran[2, 3] is threading.current_thread() is not ran[1, 2]
    assert threading.active_count() == threads


def test_first_failing_chunk_reported_when_the_caller_ran_it(monkeypatch):
    # B's first "ab" and A's second fail; span 0's group, on the caller,
    # fails only after span 1's has failed on the helper
    first = degenerate_teacher("B", AB_VOCAB, [0, 1, 2, 2], 0, "b.bin")
    late = degenerate_teacher("A", AB_VOCAB, [2, 0, 1, 2], 1, "a.bin")
    threads = threading.active_count()
    ran = pinned(monkeypatch, 3, lambda begun, tried, helped: {0: tried[1]})
    with pytest.raises(DegenerateDistributionError) as info:
        run_step(AB_VOCAB, AB_STUDENT, [late, first], policy=ScalingPolicy("fixed"))
    assert str(info.value).startswith("teacher 'B' (b.bin): teacher chunk [0, 2) of sequence "
                                      "'B': the merged distribution has no mass")
    assert ran[0, 1] is threading.current_thread() is not ran[1, 2]
    assert threading.active_count() == threads


def test_callers_errstate_holds_on_the_helper(monkeypatch):
    # A's second "ab" underflows in its softmax, in the group the helper runs
    first = degenerate_teacher("A", AB_VOCAB, [2, 0, 1, 2], 1, "a.bin")
    other = healthy(degenerate_teacher("B", AB_VOCAB, [0, 1, 2, 2], 0, "b.bin"))
    ran = pinned(monkeypatch, 3, lambda begun, tried, helped: {0: begun[1]})
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        run_step(AB_VOCAB, AB_STUDENT, [first, other], policy=ScalingPolicy("fixed"))
    assert ran[0, 1] is threading.current_thread() is not ran[1, 2]


@pytest.mark.parametrize("grads", [False, True])
def test_groups_on_both_threads_match_one_core(monkeypatch, grads):
    """Both threads run groups, and the step matches the serial reference,
    which walks on one core."""
    specs = [("digit_splitting", "pkl"), ("word_level", "hkl"), ("student", "kl")]
    vs, student, teachers = step_inputs(np.random.default_rng(2), TEXTS[0], specs, np.float32)
    want = reference_run_step(vs, student, teachers, compute_grads=grads)
    threads = threading.active_count()
    # the first group, on the caller, waits until the helper is inside another
    ran = pinned(monkeypatch, student.positions, lambda begun, tried, helped: {0: helped})
    got = run_step(vs, student, teachers, compute_grads=grads)
    assert len(set(ran.values())) == 2 and ran[min(ran)] is threading.current_thread()
    assert threading.active_count() == threads
    assert_same_bytes(got, want)


@pytest.mark.parametrize("fails_at", [None, 1234])
def test_group_walk_under_contention(fails_at):
    """The caller and the helper switching every microsecond, with and without
    ``first`` raising: each group runs once, none starts ``_LOOKAHEAD`` or more
    groups past the next one to take, ``take`` sees the results in group order,
    the first group that raised raises (before ``first``'s error), and the
    helper is gone when the walk returns or raises."""
    n = 3000
    for first_fails in (False, True):
        calls, ahead, got = [], [], []

        def run(g):
            calls.append(g)  # a group run twice, or lost, shows in the counts
            ahead.append(g - len(got))  # len(got) is the next group to take
            if g >= (fails_at or n):
                raise ValueError(g)
            return 2 * g

        def first():
            if first_fails:
                raise KeyError("first")
            return "first"

        def walk():  # on its own thread, so that a walk that hangs fails the test
            try:
                outcome.append(training._walk(range(n), run, first, got.append))
            except (ValueError, KeyError) as exc:
                outcome.append(exc)

        threads, outcome = threading.active_count(), []
        caller = threading.Thread(target=walk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(WAIT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and threading.active_count() == threads
        [outcome] = outcome
        if fails_at is not None:
            assert type(outcome) is ValueError and outcome.args == (fails_at,)
        elif first_fails:
            assert type(outcome) is KeyError and outcome.args == ("first",)
        else:
            assert outcome == "first"
        assert got == [2 * g for g in range(fails_at or n)]
        ran = Counter(calls)
        assert set(ran.values()) == {1} and max(ahead) < training._LOOKAHEAD
        assert set(ran) == set(range(n if fails_at is None else max(ran) + 1))
        assert fails_at is None or max(ran) < fails_at + training._LOOKAHEAD


def healthy(teacher):
    """The same teacher over a dump of uniform rows."""
    logits = PositionLogits(teacher.name, "teacher", np.zeros_like(teacher.logits.logits),
                            teacher.logits.realized_ids)
    return TeacherConfig(teacher.name, teacher.mode, teacher.vocab, logits, None, teacher.weight)


def test_student_merge_error_names_the_student_dump():
    vocab = Vocabulary(["a", "b", "ab"])
    student = PositionLogits("s0", "student", [[800.0, 0.0, 0.0], [0.0, 0.0, 800.0]], [0, 1],
                             source="s.bin")
    teacher = TeacherConfig("t", "kl", vocab,
                            PositionLogits("t0", "teacher", [[0.0, 0.0, 1.0]], [2]))
    with pytest.raises(DegenerateDistributionError, match=r"^student \(s\.bin\): student chunk"):
        run_step(vocab, student, [teacher], policy=ScalingPolicy("fixed"))
