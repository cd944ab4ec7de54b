"""Latency, minor page faults and result-sized allocations per op of a few hot paths.

Run from the root of a checkout:

    python3 tools/faults.py              # every case, 2000 ops each
    python3 tools/faults.py --ops 5000

Each case runs ``--ops`` ops in a loop shaped like the benchmark's: the
operands are built fresh for every op (a fresh int R in [-9, 9] for the
Yang-Baxter cases, fresh payoffs and strategies for the game, a fresh
tensor and fresh vectors for ``eval_tensor``), only the call is timed,
and each result is freed before the next op is built.  One JSON line per
case:

* ``p50_us``, ``p90_us``: percentiles of the per-op call time;
* ``minflt_per_op``: ``ru_minflt`` over the whole loop, building
  included, divided by the number of ops;
* ``peak_bytes``: the ``tracemalloc`` peak of one extra call, its
  operands built before tracing starts;
* ``peak_results``: ``peak_bytes`` divided by ``result_bytes``, the size
  of the op's result store as int64 (for the residual, one side's), so
  every result-sized buffer the op holds at once counts one.  Both are
  null for ``game_payoff`` and ``eval_tensor``, whose results are Python
  scalars, not a store.

BLAS is pinned to one thread before numpy loads, and the package is
imported from this checkout's ``src``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hyperstp as hs  # noqa: E402


def _ints(rng, shape) -> np.ndarray:
    return rng.integers(-9, 10, shape, dtype=np.int64)


def _ybe(n: int, residual: bool):
    """A Yang-Baxter op at n: the sides alternate lhs and rhs, or the residual of both."""

    def make(rng, i):
        r = _ints(rng, (n,) * 4)
        inst = hs.YbeInstance(n, hs.Hypermatrix(r.shape, r.reshape(-1).astype(object), "int"))
        if residual:
            return lambda: hs.ybe_residual(inst)
        side = ("lhs", "rhs")[i % 2]
        return lambda: hs.ybe_sides(inst, side, "matrix")

    return make, n ** 6 * 8


def _game(counts: tuple[int, ...], players: int):
    """A game with int payoffs and int strategies, all drawn fresh."""

    def make(rng, i):
        payoffs = tuple(hs.Hypermatrix(counts, _ints(rng, counts).reshape(-1)) for _ in range(players))
        game = hs.GamePayoff(counts, payoffs)
        xs = [_ints(rng, n) for n in counts]
        return lambda: hs.game_payoff(game, xs)

    return make, None


def _tensor(n: int, r: int, s: int):
    """An order r + s int tensor over n, r vectors and s covectors, all drawn fresh."""

    def make(rng, i):
        omega = hs.Hypermatrix((n,) * (r + s), _ints(rng, n ** (r + s)))
        vectors, covectors = [_ints(rng, n) for _ in range(r)], [_ints(rng, n) for _ in range(s)]
        return lambda: hs.eval_tensor(omega, covectors, vectors)

    return make, None


CASES = {
    "ybe_matrix_n4": _ybe(4, False),
    "ybe_matrix_n6": _ybe(6, False),
    "ybe_residual_n4": _ybe(4, True),
    "game_payoff": _game((4, 5, 3), 3),
    "eval_tensor": _tensor(6, 2, 3),
}


def measure(name: str, make, result_bytes: int | None, ops: int) -> dict:
    rng = np.random.default_rng(1)
    make(rng, 0)()  # warm-up: first-use imports and memos stay out of the counts
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(ops):
        fn = make(rng, i)
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        del result, fn
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    fn = make(rng, ops)
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    return {
        "case": name,
        "ops": ops,
        "p50_us": round(statistics.median(times) * 1e6, 2),
        "p90_us": round(deciles[8] * 1e6, 2),
        "minflt_per_op": round(faults / ops, 2),
        "peak_bytes": peak,
        "result_bytes": result_bytes,
        "peak_results": round(peak / result_bytes, 2) if result_bytes else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=2000, help="ops per case (default 2000)")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    for name, (make, result_bytes) in CASES.items():
        print(json.dumps(measure(name, make, result_bytes, args.ops)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
