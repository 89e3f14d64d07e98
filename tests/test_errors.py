"""``check_fields`` messages: the path, the key and the type as written."""

import math

import pytest

from crosstok.errors import ValidationError, check_fields


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
