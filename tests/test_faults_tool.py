"""``tools/faults.py`` runs every case and prints one JSON line each, with the keys it promises."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "faults.py"
CASES = ["ybe_matrix_n4", "ybe_matrix_n6", "ybe_residual_n4", "game_payoff", "eval_tensor"]
KEYS = {"case", "ops", "p50_us", "p90_us", "minflt_per_op", "peak_bytes", "result_bytes", "peak_results"}
# Cases whose result is a store, so that a peak in result sizes means something.
STORES = {"ybe_matrix_n4", "ybe_matrix_n6", "ybe_residual_n4"}


def test_faults_tool_prints_one_line_per_case():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--ops", "3"], capture_output=True, text=True, timeout=60, check=True
    )
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["case"] for line in lines] == CASES
    for line in lines:
        assert set(line) == KEYS and line["ops"] == 3
        assert all(line[k] >= 0 for k in ("p50_us", "p90_us", "minflt_per_op")) and line["peak_bytes"] > 0
        if line["case"] in STORES:
            assert line["result_bytes"] > 0 and line["peak_results"] > 0
        else:
            assert line["result_bytes"] is None and line["peak_results"] is None
