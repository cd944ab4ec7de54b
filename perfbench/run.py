"""hyperstp benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ybe --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                    # every workload, one process each

One closed-loop client on one thread, with BLAS pinned to one thread,
runs the workload's ops back to back and checks every result against a
reference of the benchmark's own.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off and scaled to a reference host speed (``calibrate.py``); with ``--trace 1`` they are the per-layer ones from the
outside-in tracer, plus the tracer's own overhead.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_S, Calibration, scale_now
from envinfo import environment
from tracer import Tracer, metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 7     # set-ups per run, this process plus fresh child processes
MIN_OPS = 100         # so that at least ten latencies lie beyond the 90th percentile
MIN_OPS_TINY = 20
LOOP_CAP_S = 120.0    # stop even below MIN_OPS, to end well within three minutes
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import hyperstp from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hyperstp" / "__init__.py").is_file():
        raise LibraryMissing(f"no hyperstp package under {SRC}")
    sys.path.insert(0, str(SRC))
    hs = importlib.import_module("hyperstp")
    if not Path(hs.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"hyperstp imported from {hs.__file__}, not from {SRC}")
    return hs


def set_up(name: str, seed: int, tiny: bool, workdir: Path):
    """Import, generate inputs (with .hm files) and run one checked warm-up op."""
    start = time.perf_counter()
    hs = load_library()
    wl = WORKLOADS[name](hs, seed, str(workdir), tiny)
    wl.setup()
    warm = wl.warmup()
    try:
        ok = check(warm, warm.fn())
    except Exception as exc:        # counted as a failed op, like any other
        print(f"op raised: {warm.kind}: {exc!r}", file=sys.stderr)
        ok = False
    return wl, time.perf_counter() - start, ok


def check(op, result) -> bool:
    try:
        if op.check(result):
            return True
        print(f"check failed: {op.kind}", file=sys.stderr)
    except Exception as exc:        # a broken result must not abort the run
        print(f"check raised: {op.kind}: {exc!r}", file=sys.stderr)
    return False


def run_rounds(wl, seconds: float, min_ops: int, tracer: Tracer | None = None,
               cal: Calibration | None = None):
    """Closed loop over whole rounds until ``seconds`` of wall time and ``min_ops``.

    Returns one ``(kind, start, latency_s, ok, traced)`` per op.  With a
    tracer, odd rounds run traced and even rounds untraced, so both halves
    see fresh inputs of the same profile.  With a calibration, the kernel
    is timed between ops whenever one is due, and once at the end.
    """
    records = []
    min_rounds = 1 if tracer is None else 2
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(records) >= min_ops
        if i >= min_rounds and (done or elapsed >= LOOP_CAP_S):
            break
        ops = wl.round(i)
        if not ops:
            break
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        outcomes = []
        try:
            for op in ops:
                if cal is not None and cal.due():
                    cal.sample()
                op_id = len(records) + len(outcomes)
                t0 = time.perf_counter()
                try:
                    result = tracer.run_op(op_id, op.kind, op.fn) if traced else op.fn()
                    raised = None
                except Exception as exc:   # a failing op counts as failed, the run goes on
                    result, raised = None, exc
                outcomes.append((op, result, raised, t0, time.perf_counter() - t0))
        finally:
            if traced:
                tracer.uninstall()
        for op, result, raised, t0, dt in outcomes:
            if raised is not None:
                print(f"op raised: {op.kind}: {raised!r}", file=sys.stderr)
            ok = raised is None and check(op, result)
            records.append((op.kind, t0, dt, ok, traced))
        i += 1
    if cal is not None:
        cal.sample()
    return records


def setup_probe(name: str, seed: int, tiny: bool) -> float:
    """Set up in a fresh process, so the import is timed cold each time."""
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"]
    cmd += ["--tiny"] if tiny else []
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def quantiles(latencies):
    deciles = statistics.quantiles(latencies, n=10)
    return deciles[4], deciles[8]


def report_kinds(records) -> None:
    by_kind = {}
    for kind, _, dt, _, _ in records:
        by_kind.setdefault(kind, []).append(dt)
    for kind, lat in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {kind:28s} n={len(lat):5d}  p50 {statistics.median(lat) * 1e3:9.3f} ms")


def end_to_end(records, setups, cal: Calibration | None) -> dict:
    """The metrics; with a calibration, every time is scaled to the reference speed.

    ``setups`` holds ``(wall, scaled)`` set-up times.
    """
    lat = [dt * (cal.scale(t0) if cal else 1.0) for _, t0, dt, _, _ in records]
    p50, p90 = quantiles(lat)
    return {
        "setup_s": statistics.median(scaled if cal else wall for wall, scaled in setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(records, tracer: Tracer) -> dict:
    def rate(traced):
        lat = [dt for _, _, dt, _, t in records if t == traced]
        return len(lat) / sum(lat)

    summary = tracer.summary()
    values = {"trace.overhead_ratio": rate(True) / rate(False)}
    for prefix, row in summary.items():
        for key, value in row.items():
            if key != "self_s":
                values[f"{prefix}.{key}"] = value
    print("  entry                                    calls      self_s  self_share  counts")
    for prefix, row in summary.items():
        counts = ", ".join(f"{k}={v:.6g}" for k, v in row.items() if k not in ("calls", "self_s", "self_share"))
        print(f"  {prefix:38s} {row['calls']:7d} {row['self_s']:11.4f} {row['self_share']:11.4f}  {counts}")
    print("  share of op time in permutation.build_perm_matrix self time, by op kind:")
    for kind, share in tracer.share_by_op_kind("permutation.build_perm_matrix").items():
        print(f"    {kind:28s} {share:.3f}")
    return values


def run_workload(args) -> dict:
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s, warm_ok = set_up(args.workload, args.seed, args.tiny, workdir)
        setup_s = (setup_s, scale_now(setup_s))
        if args.setup_probe:
            return {"setup_s": setup_s}
        tracer = Tracer() if args.trace else None
        # Half the fresh-process set-ups run before the loop and half after,
        # so the median spans the run like the op metrics do.
        probes = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setups = [setup_s] + [setup_probe(args.workload, args.seed, args.tiny) for _ in range(probes)]
        cal = None if args.trace else Calibration()
        records = run_rounds(wl, args.seconds, MIN_OPS_TINY if args.tiny else MIN_OPS, tracer, cal)
        setups += [setup_probe(args.workload, args.seed, args.tiny) for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not ok for *_, ok, _ in records) + (not warm_ok)
    attempted = len(records) + 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops + 1 warm-up, {sum(r[2] for r in records):.2f} s of op time")
    report_kinds(records)
    if args.trace:
        values = per_layer(records, tracer)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(str(OUT / f"spans-{args.workload}.jsonl"))
        units = {name: unit for name, unit, _ in metric_names()}
    else:
        values = end_to_end(records, setups, cal)
        units = dict(END_TO_END)
        unscaled = end_to_end(records, setups, None)
        print(f"  kernel median {cal.median_s() * 1e3:.4f} ms over {len(cal.times)} samples "
              f"(reference {REF_S * 1e3:g} ms); wall-clock, unscaled: "
              + ", ".join(f"{k} {unscaled[k]:.6g}" for k in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")))
        print(f"  {'fail_ratio':12s} {failed / attempted:12.6g} 1  ({failed} of {attempted})")
        print(f"  {'setup_s':12s} samples, wall-clock then scaled: "
              + ", ".join(f"{wall:.4f}/{scaled:.4f}" for wall, scaled in setups))
    for name, unit in units.items():
        print(f"  {name:50s} {values[name]:14.6g} {unit}")
    print("env " + json.dumps(environment(ROOT, args.seed)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process, with a summary table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print("summary")
    for name, res in results.items():
        fail_ratio = res["failed"] / res["attempted"]
        cells = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name:7s} fail_ratio {fail_ratio:.6g} 1, {cells}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args) if args.workload else run_all(args)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
