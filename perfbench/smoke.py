"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, at tiny sizes and in a few seconds, that:

* every workload runs with ``--trace 0`` and ``--trace 1``, passes its
  checks, and prints every metric BENCHMARK.json names, with its unit;
* a deliberately corrupted result, and an op that raises, each count as
  one failed op without aborting the run;
* the tracer patches every binding of a wrapped function and restores
  all of them;
* without the library next to it, the benchmark exits non-zero and
  prints no result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads
from tracer import Tracer, metric_names
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def check_metric_lists() -> None:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches the metrics run.py reports")
    expect(layers == {name: unit for name, unit, _ in metric_names()},
           "BENCHMARK.json per_layer matches the metrics the tracer reports")
    expect([w["name"] for w in SPEC["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists every workload")


def check_runs() -> None:
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny")
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0: {proc.stderr.strip()[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{label} result keys")
            expect(got == want, f"{label} prints every {section} metric with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{label} passes its checks")


def corrupt(x):
    """The same kind of value with one entry wrong."""
    hs = sys.modules["hyperstp"]
    if isinstance(x, (list, tuple)):
        return type(x)([corrupt(x[0]), *x[1:]])
    if isinstance(x, hs.Hypermatrix):
        data = x.data.copy()
        data[0] += 1
        return hs.Hypermatrix(x.dims, data, x.kind)
    if isinstance(x, hs.LogicalMatrix):
        return hs.LogicalMatrix(x.rows, (x.cols[0] % x.rows + 1, *x.cols[1:]))
    return x + 1


class Corrupted:
    """One round of a workload: first op corrupted, second op raising."""

    def __init__(self, wl):
        self.wl = wl

    def round(self, i):
        if i > 0:
            return []
        first, second, *rest = self.wl.round(0)

        def raising():
            raise RuntimeError("deliberate failure")

        return [Op(first.kind, lambda: corrupt(first.fn()), first.check),
                Op(second.kind, raising, second.check), *rest]


def check_failures_counted() -> None:
    workdir = run.OUT / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            wl, _, warm_ok = run.set_up(name, 3, True, workdir)
            records = run.run_rounds(Corrupted(wl), 0.0, 0)
            oks = [ok for *_, ok, _ in records]
            expect(warm_ok and len(oks) == len(wl.round(0)) and oks[:2] == [False, False] and all(oks[2:]),
                   f"{name}: corrupted and raising ops count as failed, the run goes on")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_tracer_restores() -> None:
    hs = run.load_library()
    mods = [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "hyperstp"]
    owners = mods + [hs.Hypermatrix, hs.LogicalMatrix]
    before = [dict(vars(o)) for o in owners]
    build, main = hs.permutation.build_perm_matrix, hs.cli.main
    tracer = Tracer()
    tracer.install()
    try:
        bindings = [hs.permutation, hs.expression, hs.contraction, hs.applications, hs.appendix, hs.cli, hs]
        expect(all(m.build_perm_matrix is not build for m in bindings) and hs.cli_main is not main,
               "tracer patches every binding of a wrapped function")
    finally:
        tracer.uninstall()
    expect(all(dict(vars(o)) == b for o, b in zip(owners, before)), "tracer restores every original")


def check_without_library() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        printed_result = proc.stdout.strip().startswith("{") or '"metrics"' in proc.stdout
        expect(proc.returncode != 0 and not printed_result, "without the library: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_metric_lists()
    check_runs()
    check_failures_counted()
    check_tracer_restores()
    check_without_library()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
