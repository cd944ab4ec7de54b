"""Outside-in tracer: spans and computed counts around hyperstp's layers.

The tracer wraps public entry points without touching the package's
source.  A module function is replaced in *every* ``hyperstp.*`` module
namespace that binds it (``from .permutation import build_perm_matrix``
makes a second binding that a patch of ``permutation`` alone would miss);
a method is replaced on its class.  ``uninstall()`` puts every original
back.

Each call records a span ``(id, name, start_ns, end_ns, parent, op)`` in
memory.  The benchmark opens one root span per op, so every library span
belongs to an op.  A span's self time is its duration minus the time its
direct children cover.  Counts (entries, multiply-adds, bytes) are
computed from argument shapes, never measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

# -- computed counts ----------------------------------------------------------


def _sigma_image(sigma):
    return tuple(getattr(sigma, "image", sigma))


def _count_build(stats, args, result):
    key = (tuple(int(n) for n in args[0]), _sigma_image(args[1]))
    seen = stats.setdefault("_seen", set())
    stats["repeats"] += key in seen
    seen.add(key)
    stats["entries"] += result.n_cols


def _count_gather(stats, args, result):
    stats["entries"] += args[0].n_cols


def _count_compose_transpose(stats, args, result):
    stats["entries"] += result.n_cols


def _count_expression(stats, args, result):
    stats["entries"] += result.mat.size


def _shape2(a):
    """Shape of an STP matrix operand as the library reads it (1-D is a row)."""
    shape = getattr(a, "shape", None) or (len(a),)
    return (1, shape[0]) if len(shape) == 1 else shape


def _vec_len(x):
    shape = getattr(x, "shape", None) or (len(x),)
    return math.prod(shape)


def _count_mm(stats, args, result):
    """Dense form: (m a) x t x (q b) with a = t/n, b = t/p.  Block form: m q t."""
    (m, n), (p, q) = _shape2(args[0]), _shape2(args[1])
    t = math.lcm(n, p)
    stats["useful_macs"] += m * q * t
    stats["dense_macs"] += m * q * t * (t // n) * (t // p)


def _count_mv(stats, args, result):
    """Dense form: (m a) x t with a = t/n.  Block form: n per output row, m t."""
    (m, n), p = _shape2(args[0]), _vec_len(args[1])
    t = math.lcm(n, p)
    stats["useful_macs"] += m * t
    stats["dense_macs"] += m * (t // n) * t


def _count_vv(stats, args, result):
    """Dense form: t.  Block form: one product per overlapping pair of blocks."""
    a, b = _vec_len(args[0]), _vec_len(args[1])
    stats["useful_macs"] += a + b - math.gcd(a, b)
    stats["dense_macs"] += math.lcm(a, b)


def _count_contract(stats, args, result):
    a, b = args[0], args[1]
    paired = math.prod(a.dims[x - 1] for x in args[2])
    stats["macs"] += a.size * b.size // paired


def _count_bytes_in(stats, args, result):
    stats["bytes"] += len(args[0].encode("utf-8"))


def _count_bytes_out(stats, args, result):
    stats["bytes"] += len(result.encode("utf-8"))


def _no_count(stats, args, result):
    pass


# Metric prefix -> (wrapped targets, counter, counts it reports).
# A target is "module:function" or "module:Class.method".
ENTRIES = {
    "permutation.build_perm_matrix": (["permutation:build_perm_matrix"], _count_build, ("entries", "repeat_share")),
    "permutation.gather": (["permutation:LogicalMatrix.gather_row", "permutation:LogicalMatrix.apply"],
                           _count_gather, ("entries",)),
    "permutation.compose_transpose": (["permutation:LogicalMatrix.compose", "permutation:LogicalMatrix.transpose"],
                                      _count_compose_transpose, ("entries",)),
    "expression.matrix_expression": (["expression:matrix_expression"], _count_expression, ("entries",)),
    "expression.convert": (["expression:convert_expression", "expression:vec_to_matrix_form",
                            "expression:matrix_form_to_vec", "expression:sigma_transpose_via_perm"], _no_count, ()),
    "stp.mm_stp": (["stp:mm_stp"], _count_mm, ("useful_mac_ratio",)),
    "stp.mv_stp": (["stp:mv_stp"], _count_mv, ("useful_mac_ratio",)),
    "stp.vv_stp": (["stp:vv_stp"], _count_vv, ("useful_mac_ratio",)),
    "contraction.contract_via_expression": (["contraction:contract_via_expression"], _count_contract, ("macs",)),
    "contraction.contract_bruteforce": (["contraction:contract_bruteforce"], _count_contract, ("macs",)),
    "contraction.onto_contract": (["contraction:onto_contract"], _no_count, ()),
    "core.Hypermatrix.init": (["core:Hypermatrix.__init__"], _no_count, ()),
    "applications.ybe_sides": (["applications:ybe_sides"], _no_count, ()),
    "applications.ybe_residual": (["applications:ybe_residual"], _no_count, ()),
    "appendix.verify_appendix": (["appendix:verify_appendix"], _no_count, ()),
    "cli.main": (["cli:main"], _no_count, ()),
    "io.loads_hm": (["io:loads_hm"], _count_bytes_in, ("bytes",)),
    "io.dumps_hm": (["io:dumps_hm"], _count_bytes_out, ("bytes",)),
}

# Unit and direction of each per-entry metric; every entry reports
# ``calls`` and ``self_share`` plus the counts listed in ENTRIES.
METRIC_UNITS = {
    "calls": ("count", "lower"),
    "self_share": ("1", "lower"),
    "entries": ("count", "lower"),
    "repeat_share": ("1", "higher"),
    "useful_mac_ratio": ("1", "higher"),
    "macs": ("count", "lower"),
    "bytes": ("bytes", "lower"),
}


def metric_names():
    """Every per-layer metric name with its unit and direction, in order."""
    out = []
    for prefix, (_, _, counts) in ENTRIES.items():
        for key in ("calls", "self_share") + counts:
            out.append((f"{prefix}.{key}", *METRIC_UNITS[key]))
    out.append(("trace.overhead_ratio", "1", "higher"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []                       # (id, name, start_ns, end_ns, parent, op)
        self.stats = defaultdict(lambda: defaultdict(int))
        self._stack = [None]
        self._op = None
        self._next = 0
        self._patches = []                    # (owner, attribute, original)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for name, (targets, counter, _) in ENTRIES.items():
            for target in targets:
                mod_name, attr = target.split(":")
                module = importlib.import_module(f"hyperstp.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], counter))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, counter)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").partition(".")[0] != "hyperstp":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, original, counter):
        stats = self.stats[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self._op))
            stats["calls"] += 1
            counter(stats, args, result)
            return result

        return wrapper

    # -- op spans --------------------------------------------------------

    def run_op(self, op_id: int, kind: str, fn):
        """Run ``fn`` as the root span of one op and return its result."""
        sid = self._next
        self._next += 1
        self._op = op_id
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, f"op:{kind}", start, end, None, op_id))

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time in seconds of every span, by span id."""
        covered = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: (end - start - covered[sid]) * 1e-9 for sid, _, start, end, _, _ in self.spans}

    def summary(self) -> dict:
        """Per entry: calls, self seconds, self share of op time, counts."""
        self_s = self.self_times()
        op_total = sum((e - s) * 1e-9 for _, name, s, e, parent, _ in self.spans if parent is None)
        by_name = defaultdict(float)
        for sid, name, *_ in self.spans:
            by_name[name] += self_s[sid]
        out = {}
        for name, (_, _, counts) in ENTRIES.items():
            st = self.stats[name]
            row = {"calls": st["calls"], "self_s": by_name[name],
                   "self_share": by_name[name] / op_total if op_total else 0.0}
            for key in counts:
                if key == "repeat_share":
                    row[key] = st["repeats"] / st["calls"] if st["calls"] else 0.0
                elif key == "useful_mac_ratio":
                    row[key] = st["useful_macs"] / st["dense_macs"] if st["dense_macs"] else 0.0
                else:
                    row[key] = st[key]
            out[name] = row
        return out

    def share_by_op_kind(self, entry: str) -> dict[str, float]:
        """Share of each op kind's time spent in ``entry``'s self time."""
        self_s = self.self_times()
        kind_of, total, inside = {}, defaultdict(float), defaultdict(float)
        for sid, name, start, end, parent, op in self.spans:
            if parent is None:
                kind = name[3:]
                kind_of[op] = kind
                total[kind] += (end - start) * 1e-9
        for sid, name, _, _, _, op in self.spans:
            if name == entry:
                inside[kind_of[op]] += self_s[sid]
        return {kind: inside[kind] / total[kind] for kind in sorted(total)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
