"""Command-line interface.

Subcommands: ``permmat``, ``transpose``, ``mexpr``, ``contract``,
``stp``, ``ybe``, ``verify-appendix``.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 verification failure.  All output is ASCII with
``.`` as the decimal separator and is byte-stable across runs; a warning
goes to stderr as ``warning: <message>``.  ``ybe`` and ``verify-appendix``
import ``applications`` and ``appendix`` when they run, so no other
command loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from .contraction import _agreement_bound, contract
from .core import Hypermatrix, _stored, same_kind
from .expression import matrix_expression, sigma_transpose
from .io import DocumentError, dumps_hm, print_delta, read_hm, write_hm, densify
from .permutation import build_perm_matrix
from .stp import _stp_dot, _vv_sum

USAGE_ERROR, DATA_ERROR, VERIFY_ERROR = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _scalar_str(v, kind: str) -> str:
    return repr(float(v)) if kind == "float" else str(int(v))


def _as_matrix_hm(a: Hypermatrix) -> np.ndarray:
    """The store as a matrix: an order-1 value is a column, an order-0 one 1 x 1."""
    if a.order > 2:
        raise ValueError(f"order-{a.order} hypermatrix is not a matrix")
    return a._flat().reshape((a.dims + (1, 1))[:2])


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperstp", description="hypermatrix algebra toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("permmat", help="print a permutation matrix in delta-notation")
    p.add_argument("--dims", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--dense", action="store_true")

    p = sub.add_parser("transpose", help="axis-permute a hypermatrix file")
    p.add_argument("--sigma", required=True)
    p.add_argument("infile")
    p.add_argument("outfile")

    p = sub.add_parser("mexpr", help="print a matrix expression with axis metadata")
    p.add_argument("--rows", required=True)
    p.add_argument("infile")

    p = sub.add_parser("contract", help="contracted product of two hypermatrix files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--a-axes", required=True)
    p.add_argument("--b-axes", required=True)
    p.add_argument("--method", choices=["brute", "expr"])
    p.add_argument("outfile")

    p = sub.add_parser("stp", help="semi-tensor product of two hypermatrix files")
    p.add_argument("--op", choices=["mm", "mv", "vv"], required=True)
    p.add_argument("afile")
    p.add_argument("bfile")

    p = sub.add_parser("ybe", help="sides or residual of the Yang-Baxter constraint")
    p.add_argument("--r", required=True)
    p.add_argument("--side", choices=["lhs", "rhs"])
    p.add_argument("--method", choices=["brute", "matrix"], default="brute")

    sub.add_parser("verify-appendix", help="regenerate and check every bundled table")
    return parser


# ``main`` builds its parser once per process: building costs more than a
# small command, and parsing keeps no state between calls.
_parser = functools.cache(build_parser)


@functools.cache
def _command_parsers() -> dict[str, _Parser]:
    """Each command's parser, as ``build_parser`` made it, by command name."""
    return next(a.choices for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with a known command parsed by its own parser alone.

    The top-level parser hands every string after the command name to that
    command's parser, so the namespace, the messages and the help text are
    the same; the two-level parse costs about twice as much.  The top-level
    parser runs only when ``argv[0]`` names no command.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _command_parsers().get(argv[0]) if argv else None
    if command is None:
        return _parser().parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _cmd_permmat(args) -> int:
    dims = _int_list(args.dims, "--dims")
    sigma = _int_list(args.sigma, "--sigma")
    w = build_perm_matrix(dims, sigma)
    if args.dense:
        for row in densify(w):
            print(" ".join(str(v) for v in row))
    else:
        print(print_delta(w))
    return 0


def _cmd_transpose(args) -> int:
    sigma = _int_list(args.sigma, "--sigma")
    a = read_hm(args.infile)
    write_hm(sigma_transpose(a, sigma), args.outfile)
    return 0


def _cmd_mexpr(args) -> int:
    rows = _int_list(args.rows, "--rows")
    a = read_hm(args.infile)
    m = matrix_expression(a, rows=rows)
    doc = {
        "row_axes": list(m.row_axes),
        "col_axes": list(m.col_axes),
        "dims": list(m.dims),
        "shape": [m.mat.shape[0], m.mat.shape[1]],
        "scalar_kind": m.kind,
        "mat": m.mat.tolist(),
    }
    print(json.dumps(doc))
    return 0


def _cmd_contract(args) -> int:
    a = read_hm(args.a)
    b = read_hm(args.b)
    a_axes = _int_list(args.a_axes, "--a-axes")
    b_axes = _int_list(args.b_axes, "--b-axes")
    out = contract(a, b, a_axes, b_axes, args.method or "brute")
    if not args.method:
        other = contract(a, b, a_axes, b_axes, "expr")
        if out.kind == "float":
            agree = np.all(np.abs(out.data - other.data) <= _agreement_bound(a, b, a_axes, b_axes))
        else:
            agree = out == other
        if not agree:
            print("contraction methods disagree", file=sys.stderr)
            return VERIFY_ERROR
    write_hm(out, args.outfile)
    return 0


def _cmd_stp(args) -> int:
    a = read_hm(args.afile)
    b = read_hm(args.bfile)
    kind = same_kind(a, b)
    if args.op == "vv" and (a.order != 1 or b.order != 1):
        raise ValueError("vv needs two order-1 hypermatrices")
    if args.op == "mv" and b.order != 1:
        raise ValueError("mv needs an order-1 second operand")
    # The public products' arithmetic on the loaded stores: nothing is scanned.
    if args.op == "vv":
        print(_scalar_str(_vv_sum(a._flat(), b._flat()), kind))
        return 0
    out = _stp_dot(_as_matrix_hm(a), _as_matrix_hm(b))
    out = out.sum(axis=1) if args.op == "mv" else out
    print(dumps_hm(_stored(out.shape, out, kind)))
    return 0


def _cmd_ybe(args) -> int:
    from .applications import YbeInstance, ybe_residual, ybe_sides

    r = read_hm(args.r)
    inst = YbeInstance(r.dims[0] if r.dims else 1, r)
    if args.side:
        print(dumps_hm(ybe_sides(inst, args.side, args.method)))
        return 0
    print(_scalar_str(ybe_residual(inst, args.method), r.kind))
    return 0


def _cmd_verify_appendix(_args) -> int:
    from .appendix import verification_ok, verify_appendix

    reports = verify_appendix()
    for rep in reports:
        line = f"{rep.status} d={rep.d} n={rep.n} label={rep.label} sigma={list(rep.sigma)}"
        if rep.registered:
            line += f" reason: {rep.registered}"
        print(line)
        if not rep.matches:
            for diff_line in rep.diff_lines():
                print(f"  {diff_line}")
    ok = verification_ok(reports)
    print("appendix verification:", "OK" if ok else "FAILED")
    return 0 if ok else VERIFY_ERROR


_COMMANDS = {
    "permmat": _cmd_permmat,
    "transpose": _cmd_transpose,
    "mexpr": _cmd_mexpr,
    "contract": _cmd_contract,
    "stp": _cmd_stp,
    "ybe": _cmd_ybe,
    "verify-appendix": _cmd_verify_appendix,
}


def _print_warning(message, *_where):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        # Warnings print as ``warning: <message>``, without the source path
        # and line, so stderr does not depend on where the package lives.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DocumentError, OSError, ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
