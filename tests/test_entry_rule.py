"""The rule for which raw scalar data gets read lives in ``core`` alone.

``core.as_scalars`` is the one check of raw data: it scans every object
array that no value handed out.  No other module of the package names
the helpers behind that rule, so no second copy of it can grow there.
"""

import ast

from test_dead_code import PACKAGE, _names

ENTRY_RULE = {"_scanned", "_checked_ints", "_sequence_kind", "_is_value_data", "_handed_out", "_VALUE_DATA"}


def test_only_core_names_the_entry_rule():
    found = sorted(
        f"{path.name}: {name}"
        for path in PACKAGE.glob("*.py")
        if path.name != "core.py"
        for name in set(_names(ast.parse(path.read_text(encoding="utf-8")))) & ENTRY_RULE
    )
    assert found == []
