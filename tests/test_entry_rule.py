"""Two rules live in ``core`` alone: which raw scalar data gets read, and how an int product is bounded.

``core.as_scalars`` is the one check of raw data: it scans every object
array that no value handed out.  ``core.narrow`` is the one place a
product's factors are measured and its bound read against binary64's
exact range.  No other module of the package names the helpers behind
either rule, so no second copy of one can grow there.
"""

import ast

import pytest

from test_dead_code import PACKAGE, _names

ENTRY_RULE = {"_scanned", "_checked_ints", "_sequence_kind", "_is_value_data", "_handed_out", "_VALUE_DATA"}
MAGNITUDE_RULE = {"narrow", "_magnitude", "_FLOAT64_EXACT"}


@pytest.mark.parametrize("rule", [ENTRY_RULE, MAGNITUDE_RULE], ids=["entry", "magnitude"])
def test_only_core_names_the_rule(rule):
    found = sorted(
        f"{path.name}: {name}"
        for path in PACKAGE.glob("*.py")
        if path.name != "core.py"
        for name in set(_names(ast.parse(path.read_text(encoding="utf-8")))) & rule
    )
    assert found == []
