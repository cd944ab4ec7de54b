"""The four workloads: seeded inputs, the ops run on them, and their checks.

A workload is built from the imported ``hyperstp`` package, a seed and a
scratch directory.  ``setup()`` makes the inputs every round shares (the
``.hm`` files among them), ``warmup()`` returns one op outside the timed
stream, and ``round(i)`` returns the i-th list of ops.  Rounds are made
in order from the seed alone, so a run that completes k rounds always
did the same work.  Each op is ``(kind, fn, check)``: ``fn`` calls the library
and is what gets timed; ``check`` compares its result with a reference
from ``reference.py`` and returns True when it is right.

Library functions are always looked up on the package at call time
(``hs.mm_stp``), so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

import reference as ref

LO, HI = -9, 9          # integer inputs are drawn from [LO, HI]
VMAX = max(-LO, HI)     # so every |input| <= VMAX


class Op(NamedTuple):
    kind: str
    fn: Callable[[], object]
    check: Callable[[object], bool]


def _ints(rng, shape) -> np.ndarray:
    return rng.integers(LO, HI + 1, shape, dtype=np.int64)


def _low_discrepancy(i: int, k: int) -> float:
    """Point i of the golden-ratio sequence, shifted for stream k, in [0, 1).

    Sizes drawn from it cover their range evenly within a few rounds, so
    every run sees the same size profile whatever the seed.
    """
    return (i * 0.6180339887 + k * 0.4142135624) % 1.0


def _subsets(rng, d: int, k: int) -> list[tuple[int, ...]]:
    """k distinct non-empty proper subsets of 1..d, each increasing."""
    masks = rng.choice(np.arange(1, 2 ** d - 1), k, replace=False)
    return [tuple(a + 1 for a in range(d) if int(m) >> a & 1) for m in masks]


class Workload:
    name = ""

    def __init__(self, hs, seed: int, workdir: str, tiny: bool = False):
        self.hs = hs
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self) -> None:
        pass

    def warmup(self) -> Op:
        raise NotImplementedError

    def round(self, i: int) -> list[Op]:
        """The i-th round of ops; an empty list ends the stream."""
        raise NotImplementedError


# -- tables -------------------------------------------------------------------


class Tables(Workload):
    """Distinct (dims, sigma) keys: the published ones, then random shapes.

    Round 0 opens with one op that runs every published key (the 66
    appendix tables and the six worked (2, 3, 5) tables).  Every round
    then holds one random key from each of ``STRATA`` log-spaced size
    bands between 10^2 and 10^4 entries, so all rounds have the same size
    profile however many of them a run completes.
    """

    name = "tables"
    STRATA = 8

    def setup(self):
        hs = self.hs
        registered = {(e["d"], e["n"], e["label"]) for e in hs.load_errata()["entries"]}
        self.published = []
        for d, n in hs.appendix_families():
            for label in hs.appendix_labels(d, n):
                cols = hs.appendix_table(d, n, label).cols
                self.published.append(((n,) * d, hs.appendix_sigma(d, label).image, cols, (d, n, label) in registered))
        for label in (1, 2, 3, 4, 5, 6):
            self.published.append(((2, 3, 5), hs.appendix_sigma(3, label).image, hs.example_table(label).cols, False))
        # Random shapes never repeat a dims tuple, so no (dims, sigma) key
        # recurs across ops; published keys are all below 100 entries.
        self.used_dims = set()
        self.lo, self.hi = (24, 96) if self.tiny else (100, 10_000)
        self.strata = 2 if self.tiny else self.STRATA

    def warmup(self):
        # Order 7 is outside the stream's orders, so this key never recurs.
        return self._op("warmup", [((2,) * 7, (7, 1, 2, 3, 4, 5, 6), None, False)], self.rng(1, 0))

    def round(self, i):
        """The i-th round, or [] once a size band has no fresh dims left."""
        rng = self.rng(2, i)
        ops = [self._op("published", self.published, rng)] if i == 0 else []
        edges = np.geomspace(self.lo, self.hi, self.strata + 1)
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            dims = self._random_dims(rng, lo, hi, _low_discrepancy(i, k))
            if dims is None:
                return []
            sigma = tuple(int(v) + 1 for v in rng.permutation(len(dims)))
            ops.append(self._op("random", [(dims, sigma, None, False)], rng))
        return ops

    def _random_dims(self, rng, lo, hi, u, attempts=100_000):
        """Fresh dims of order 3-6 with about ``lo * (hi/lo)^u`` entries.

        ``u`` comes from ``_low_discrepancy``; the seed picks the order and
        how the size splits into dims.
        After 100 misses the size is drawn at random within the band.
        """
        for attempt in range(attempts):
            if attempt >= 100:
                u = rng.uniform()
            d = int(rng.integers(3, 7))
            target = lo * (hi / lo) ** u
            dims = tuple(max(2, round(target ** w)) for w in rng.dirichlet(np.ones(d)))
            if lo <= math.prod(dims) < hi and dims not in self.used_dims:
                self.used_dims.add(dims)
                return dims
        return None

    def _op(self, kind, keys, rng):
        """Per key: build W, transpose, express, convert, round-trip.

        ``keys`` holds ``(dims, sigma, published_cols, registered)``; the
        published columns are None for keys without a published table.
        The transpose uses a second permutation and the three expressions
        distinct row splits, so within a key only the round trip
        rebuilds a permutation matrix it has just built.
        """
        hs = self.hs
        cases = []
        for dims, sigma, published, registered in keys:
            d = len(dims)
            tau = sigma
            while tau == sigma:
                tau = tuple(int(v) + 1 for v in rng.permutation(d))
            a_np = _ints(rng, dims)
            a = hs.Hypermatrix(dims, a_np.reshape(-1).astype(object), "int")
            cases.append((dims, sigma, tau, a_np, a, *_subsets(rng, d, 3), published, registered))

        def fn():
            out = []
            for dims, sigma, tau, _, a, rows1, rows2, rows3, _, _ in cases:
                w = hs.build_perm_matrix(dims, sigma)
                st = hs.sigma_transpose_via_perm(a, tau)
                m1 = hs.matrix_expression(a, rows1)
                m2 = hs.convert_expression(m1, rows2)
                m3 = hs.vec_to_matrix_form(a.data, dims, rows3)
                out.append((w, st, m1, m2, m3, hs.matrix_form_to_vec(m3)))
            return out

        def check(results):
            return len(results) == len(cases) and all(map(self._check_case, cases, results))

        return Op(f"tables_{kind}", fn, check)

    @staticmethod
    def _check_case(case, res):
        dims, sigma, tau, a_np, _, rows1, rows2, rows3, published, registered = case
        w, st, m1, m2, m3, back = res
        cols = ref.perm_cols_ref(dims, sigma)
        if w.rows != cols.size or not np.array_equal(np.asarray(w.cols), cols):
            return False
        if published is not None and (w.cols == tuple(published)) == registered:
            return False    # a registered erratum must differ, anything else must match
        moved = np.transpose(a_np, [s - 1 for s in tau])
        if st.dims != moved.shape or not ref.same(st.data, moved.reshape(-1), "int", 0):
            return False
        for m, rows in ((m1, rows1), (m2, rows2), (m3, rows3)):
            if m.row_axes != rows or not ref.same(m.mat, ref.expression_ref(a_np, rows), "int", 0):
                return False
        return ref.same(back, a_np.reshape(-1), "int", 0)


# -- ybe ------------------------------------------------------------------------


class Ybe(Workload):
    """Yang-Baxter sides with a fresh random R per op.

    A round has six n=4 matrix-route sides, two n=4 brute-force residuals
    and one n=6 matrix-route side of each kind: the slow kinds each make
    a fifth of the ops, so the 90th percentile sits inside one of them
    whichever of the two is slower, and the median inside the n=4 sides.
    """

    name = "ybe"
    ROUND = (("lhs", 4), ("rhs", 4), ("res", 4), ("lhs", 6), ("lhs", 4),
             ("rhs", 4), ("res", 4), ("rhs", 6), ("lhs", 4), ("rhs", 4))

    def _n(self, n):
        return {4: 2, 6: 3}[n] if self.tiny else n

    def warmup(self):
        return self._op("lhs", 4, self.rng(1, 0))

    def round(self, i):
        rng = self.rng(2, i)
        return [self._op(what, n, rng) for what, n in self.ROUND]

    def _op(self, what, n, rng):
        hs = self.hs
        n_real = self._n(n)
        r_np = _ints(rng, (n_real,) * 4)
        ref.require_int64_safe(VMAX ** 3 * n_real ** 3)
        inst = hs.YbeInstance(n_real, hs.Hypermatrix(r_np.shape, r_np.reshape(-1).astype(object), "int"))

        if what == "res":
            def fn():
                return hs.ybe_residual(inst)

            def check(res):
                lhs, rhs = ref.ybe_refs(r_np)
                return ref.same(res, np.abs(lhs - rhs).max(), "int", 0)

            return Op(f"ybe_residual_n{n}", fn, check)

        def fn():
            return hs.ybe_sides(inst, what, "matrix")

        def check(res):
            want = ref.ybe_refs(r_np)[0 if what == "lhs" else 1]
            return res.dims == want.shape and ref.same(res.data, want.reshape(-1), "int", 0)

        return Op(f"ybe_matrix_n{n}", fn, check)


# -- exact and float ------------------------------------------------------------------


# Inner dimensions that force lcm padding on both sides of an STP
# (lcm 24: the left factor is padded by I_3 or I_2, the right by I_2 or I_3).
_MISMATCHED = ((8, 12), (12, 8))


class Exact(Workload):
    """Arithmetic layers on the int backend; ``Float`` reruns it on binary64.

    A round is one op of each kind in ``ROUND``; an op runs every call of
    its kind.  With five kinds of equal weight the median and the 90th
    percentile fall mid-way into a kind's latency cluster whatever order
    the kinds' latencies take, on either backend.  Each kind's sizes
    sweep a range of about 2-4x in work along ``_low_discrepancy``, so a
    cluster is wide and smooth: when the machine runs slower for part of
    a run, a percentile moves with it in proportion instead of jumping
    between a fast and a slow mode.  The seed draws the values and axis
    pairings, not the sizes, so every seed does the same amount of work.
    """

    name = "exact"
    kind = "int"
    ROUND = ("contract_expr", "onto", "stp", "multilinear_binary", "cli")
    CLI_POOL = 4

    def _hm(self, arr):
        data = arr.reshape(-1).astype(object if self.kind == "int" else np.float64)
        return self.hs.Hypermatrix(arr.shape, data, self.kind)

    def _arr(self, arr):
        return arr.astype(object if self.kind == "int" else np.float64)

    def _bound(self, bound):
        if self.kind == "int":
            ref.require_int64_safe(bound)
        return bound

    def _same_hm(self, res, want, bound):
        return res.dims == want.shape and ref.same(res.data, want.reshape(-1), self.kind, bound)

    def _shape(self, *dims):
        """``dims``, or a 2-or-3 shape of the same order for the smoke test."""
        return tuple(2 + k % 2 for k in range(len(dims))) if self.tiny else dims

    def setup(self):
        """Write the CLI's input files: contraction pairs and STP pairs."""
        hs = self.hs
        rng = self.rng(0)
        self.cli_inputs = []
        for j in range(self.CLI_POOL):
            p, q, r, s = self._shape(3 + j, 4, 5, 3)
            a, b = _ints(rng, (p, q, r)), _ints(rng, (r, q, s))
            n, pp = _MISMATCHED[j % len(_MISMATCHED)]
            m, qq = self._shape(4 + 2 * j, 6)
            sa, sb = _ints(rng, (m, n)), _ints(rng, (pp, qq))
            paths = {}
            for key, arr in (("a", a), ("b", b), ("sa", sa), ("sb", sb)):
                paths[key] = os.path.join(self.workdir, f"{key}{j}.hm")
                hs.write_hm(self._hm(arr), paths[key])
            self.cli_inputs.append((paths, a, b, sa, sb))

    def warmup(self):
        return self._op("contract_expr", self.rng(1, 0), 0)

    def round(self, i):
        rng = self.rng(2, i)
        return [self._op(kind, rng, i) for kind in self.ROUND]

    def _op(self, kind, rng, i):
        """One op: every (call, check) part that ``_parts_<kind>`` makes."""
        size = _low_discrepancy(i, self.ROUND.index(kind))
        parts = getattr(self, f"_parts_{kind}")(rng, i, size)

        def fn():
            return [call() for call, _ in parts]

        def check(results):
            return all(ok(res) for (_, ok), res in zip(parts, results))

        return Op(f"{self.name}_{kind}", fn, check)

    def _parts_contract_expr(self, rng, i, size):
        """Order-3 against order-4, two axes paired in shuffled order."""
        hs = self.hs
        p, q, r, s, u = self._shape(10 + round(16 * size), 18, 18, 7, 7)
        slots = rng.permutation(4)                       # b axis (0-based) of q, r, s, u
        b_shape = tuple(int(v) for v in np.array([q, r, s, u])[np.argsort(slots)])
        a_np, b_np = _ints(rng, (p, q, r)), _ints(rng, b_shape)
        a_axes, b_axes = (2, 3), (int(slots[0]) + 1, int(slots[1]) + 1)
        if rng.integers(2):
            a_axes, b_axes = a_axes[::-1], b_axes[::-1]
        a, b = self._hm(a_np), self._hm(b_np)
        bound = self._bound(VMAX ** 2 * q * r)
        return [(lambda: hs.contract_via_expression(a, b, a_axes, b_axes),
                 lambda res: self._same_hm(res, ref.contract_ref(a_np, b_np, a_axes, b_axes), bound))]

    def _parts_onto(self, rng, i, size):
        """A whole order-2 operand onto two axes of an order-4 one, both methods."""
        hs = self.hs
        dims = self._shape(*((4, 5, 4, 5), (5, 5, 5, 5), (5, 6, 5, 6), (6, 6, 6, 6))[int(4 * size)])
        rs = tuple(sorted(int(v) + 1 for v in rng.choice(4, 2, replace=False)))
        a_np, b_np = _ints(rng, dims), _ints(rng, tuple(dims[x - 1] for x in rs))
        a, b = self._hm(a_np), self._hm(b_np)
        bound = self._bound(VMAX ** 2 * b_np.size)

        def ok(res):
            return self._same_hm(res, ref.contract_ref(a_np, b_np, rs, (1, 2)), bound)

        return [(lambda: hs.onto_contract(a, b, rs, "expression"), ok),
                (lambda: hs.onto_contract(a, b, rs, "stp"), ok)]

    def _parts_stp(self, rng, i, size):
        """mm, mv and vv semi-tensor products with mismatched inner dims."""
        hs = self.hs
        n, p = _MISMATCHED[i % len(_MISMATCHED)]
        t = math.lcm(n, p)
        m, q, k1, k2 = self._shape(14 + round(12 * size), 22, 30, 25)
        a_np, b_np, x_np = _ints(rng, (m, n)), _ints(rng, (p, q)), _ints(rng, p)
        u_np, v_np = _ints(rng, n * k1), _ints(rng, p * k2)
        a, b, x, u, v = (self._arr(z) for z in (a_np, b_np, x_np, u_np, v_np))
        bound = self._bound(VMAX ** 2 * max(t, math.lcm(u_np.size, v_np.size)))
        return [
            (lambda: hs.mm_stp(a, b), lambda res: ref.same(res, ref.stp_mm_ref(a_np, b_np), self.kind, bound)),
            (lambda: hs.mv_stp(a, x), lambda res: ref.same(res, ref.stp_mv_ref(a_np, x_np), self.kind, bound)),
            (lambda: hs.vv_stp(u, v), lambda res: ref.same(res, ref.stp_vv_ref(u_np, v_np), self.kind, bound)),
        ]

    def _parts_multilinear_binary(self, rng, i, size):
        """Game payoff (order-3 tensor, three strategy vectors) and an
        order-6 operator on two order-2 operands (nested contractions)."""
        hs = self.hs
        dims = self._shape(10, 10, 8 + round(5 * size))
        pi_np = _ints(rng, dims)
        xs_np = [_ints(rng, n) for n in dims]
        pi, xs = self._hm(pi_np), [self._arr(x) for x in xs_np]
        blk = self._shape(*((3, 3), (3, 4), (4, 4))[int(3 * size)])
        op_np, b_np, c_np = _ints(rng, blk * 3), _ints(rng, blk), _ints(rng, blk)
        op, b, c = self._hm(op_np), self._hm(b_np), self._hm(c_np)
        bound = self._bound(max(VMAX ** 4 * pi_np.size, VMAX ** 3 * math.prod(blk) ** 2))

        def ok_binary(res):
            first = ref.contract_ref(op_np, b_np, (5, 6), (1, 2))
            return self._same_hm(res, ref.contract_ref(first, c_np, (3, 4), (1, 2)), bound)

        return [
            (lambda: hs.eval_multilinear_scalar(pi, xs),
             lambda res: ref.same(res, np.einsum("abc,a,b,c->", pi_np, *xs_np), self.kind, bound)),
            (lambda: hs.binary_apply(op, b, c), ok_binary),
        ]

    def _parts_cli(self, rng, i, size):
        """In-process CLI: contract (both routes), contract --method expr, stp --op mm."""
        hs = self.hs
        paths, a_np, b_np, sa_np, sb_np = self.cli_inputs[i % self.CLI_POOL]
        # The same two output files every round: each run rewrites one file
        # rather than creating one, so directory growth cannot slow the loop.
        outs = [os.path.join(self.workdir, f"out_{tag}.hm") for tag in ("both", "expr")]
        contract = ["contract", "--a", paths["a"], "--b", paths["b"], "--a-axes", "2,3", "--b-axes", "2,1"]
        bound = self._bound(VMAX ** 2 * max(a_np.shape[1] * a_np.shape[2], math.lcm(sa_np.shape[1], sb_np.shape[0])))

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                return hs.cli_main(argv), buf.getvalue()

        def ok_doc(want, path=None):
            def ok(res):
                code, text = res
                if path is not None:
                    with open(path, encoding="utf-8") as fh:
                        text = fh.read()
                doc = json.loads(text)
                got = np.array(doc["data"], dtype=object if self.kind == "int" else np.float64)
                return (code == 0 and doc["scalar_kind"] == self.kind and tuple(doc["shape"]) == want.shape
                        and ref.same(got, want.reshape(-1), self.kind, bound))
            return ok

        contracted = ref.contract_ref(a_np, b_np, (2, 3), (2, 1))
        return [
            (lambda: run(contract + [outs[0]]), ok_doc(contracted, outs[0])),
            (lambda: run(contract + ["--method", "expr", outs[1]]), ok_doc(contracted, outs[1])),
            (lambda: run(["stp", "--op", "mm", paths["sa"], paths["sb"]]), ok_doc(ref.stp_mm_ref(sa_np, sb_np))),
        ]


class Float(Exact):
    """The ``exact`` ops, shapes and seeded values, on the float backend."""

    name = "float"
    kind = "float"


WORKLOADS = {w.name: w for w in (Tables, Ybe, Exact, Float)}
