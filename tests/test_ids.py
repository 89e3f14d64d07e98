"""One integer-id rule at every site that takes a sequence of ids.

``errors.check_ids`` accepts a list of Python ints or an integer array whose
values fit ``intp``. Each site below hands its ids to it, so a bool, a numpy
scalar in a list, a float, a nested list or an id ``intp`` cannot hold fails
the same way everywhere, naming the field and the first bad element; and a
valid id list builds the same object as every integer array holding it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstok.chunks import PositionLogits
from crosstok.errors import ValidationError, check_ids
from crosstok.losses import CommonSet
from crosstok.projection import ProjectionConfig, SparseProjection
from crosstok.vocab import Vocabulary

WIDE = ProjectionConfig(top_k=128)


def projection_with_counts(counts):
    """Row ``s`` holds ``counts[s]`` entries over teacher ids ``0..counts[s]-1``;
    when a count is not a small integer, no row holds any (the constructor
    checks ``counts`` before it counts the entries)."""
    small = all(isinstance(c, (int, np.integer)) and 0 <= c <= 100 for c in counts)
    rows = [range(c) for c in counts] if small else [range(0)] * len(counts)
    return SparseProjection(len(counts), 128, counts, [t for r in rows for t in r],
                            [0.5 / len(r) for r in rows for _ in r],
                            ["multi_token" if r else "empty" for r in rows], WIDE)


# site -> (the field its errors name, build(ids), the part of the result the ids became)
SITES = {
    "realized_ids": ("realized_ids",
                     lambda ids: PositionLogits("s", "student", np.zeros((len(ids), 101)), ids),
                     lambda pl: pl.realized_ids),
    "common_student_ids": ("common-set student_ids",
                           lambda ids: CommonSet(ids, list(range(len(ids)))),
                           lambda cs: cs.student_ids),
    "common_teacher_ids": ("common-set teacher_ids",
                           lambda ids: CommonSet(list(range(len(ids))), ids),
                           lambda cs: cs.teacher_ids),
    "projection_counts": ("counts", projection_with_counts, lambda w: w.rows),
    "projection_teacher_ids": ("teacher_ids",
                               lambda ids: SparseProjection(
                                   len(ids), 128, [1] * len(ids), ids, [1.0] * len(ids),
                                   ["exact"] * len(ids), WIDE),
                               lambda w: w.rows),
    "specials": ("specials",
                 lambda ids: Vocabulary([str(i) for i in range(101)], specials=ids),
                 lambda v: v),
}

BAD = {
    "bool": ([0, True], "must be an int, got True"),
    "numpy_bool": ([0, np.True_], "must be an int, got np.True_"),
    "float": ([0, 1.0], "must be an int, got 1.0"),
    "numpy_int_in_list": ([0, np.int64(1)], "must be an int, got np.int64(1)"),
    "huge_int": ([0, 2**70], f"must fit intp, got {2**70}"),
    "uint64_array": (np.array([0, 2**63], dtype=np.uint64), f"must fit intp, got {2**63}"),
    "nested_list": ([0, [1]], "must be an int, got [1]"),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("site", SITES)
def test_bad_id_named_at_every_site(site, bad):
    field, build, _ = SITES[site]
    ids, message = BAD[bad]
    with pytest.raises(ValidationError) as info:
        build(ids)
    assert str(info.value) == f"{field}[1] {message}"


@pytest.mark.parametrize("build, field", [
    (lambda: Vocabulary(["a", "b"], specials=[1, True]), "specials"),
    (lambda: CommonSet([0, True], [1, 0]), "common-set student_ids"),
], ids=["specials", "common-set"])
def test_bool_is_not_read_as_id_1(build, field):
    """``True == 1``: before one rule held, these built, the bool read as id 1."""
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == f"{field}[1] must be an int, got True"


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.intp,
              np.uint8, np.uint16, np.uint32, np.uint64]


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype == np.intp and a.tolist() == b.tolist()
    return a == b


@settings(max_examples=40, deadline=None)
@given(site=st.sampled_from(sorted(SITES)),
       ids=st.lists(st.integers(0, 100), min_size=1, max_size=30, unique=True))
def test_list_and_every_integer_dtype_build_equal_objects(site, ids):
    _, build, view = SITES[site]
    want = view(build(ids))
    for dtype in INT_DTYPES:
        assert same(view(build(np.array(ids, dtype=dtype))), want), dtype


def test_an_intp_array_is_returned_as_a_new_array():
    ids = np.arange(3)
    got = check_ids(ids, "ids")
    assert got.tolist() == [0, 1, 2] and not np.shares_memory(got, ids)


def test_realized_ids_do_not_share_the_callers_array():
    ids = np.array([0, 1, 2])
    logits = PositionLogits("s0", "student", np.zeros((3, 4)), ids)
    ids[0] = 9
    assert logits.realized_ids.tolist() == [0, 1, 2]


def test_an_unaligned_intp_array_is_copied_aligned():
    ids = np.frombuffer(b"\0" + np.arange(3).tobytes(), np.intp, 3, 1)
    got = check_ids(ids, "ids")
    assert not ids.flags.aligned and got.flags.aligned and got.tolist() == [0, 1, 2]


def test_an_array_of_more_than_one_dimension_is_refused():
    with pytest.raises(ValidationError) as info:
        check_ids(np.zeros((2, 2), dtype=int), "ids")
    assert str(info.value) == "ids must be 1-D, got an array of shape (2, 2)"
