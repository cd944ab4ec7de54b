import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperstp
from hyperstp import (
    DocumentError,
    Hypermatrix,
    LogicalMatrix,
    densify,
    dumps_hm,
    loads_hm,
    parse_delta,
    print_delta,
    read_hm,
    write_hm,
)
from hyperstp import cli
from hyperstp.cli import UsageError, _parser, main
from hyperstp.contraction import _agreement_bound
from hyperstp.core import MAX_ENTRIES

from conftest import random_dims, random_hm


# -- .hm documents -----------------------------------------------------------


def test_hm_parse_int():
    a = loads_hm('{"shape":[2,2],"data":[1,2,3,4],"scalar_kind":"int"}')
    assert a.dims == (2, 2) and a.kind == "int" and list(a.data) == [1, 2, 3, 4]


def test_hm_parse_scalar():
    a = loads_hm('{"shape":[],"data":[7],"scalar_kind":"int"}')
    assert a.order == 0 and a.to_scalar() == 7


def test_hm_roundtrip_random(rng, tmp_path):
    for kind in ("int", "float"):
        for _ in range(10):
            a = random_hm(rng, random_dims(rng, max_order=3, max_dim=4, max_size=64), kind=kind)
            path = tmp_path / "x.hm"
            write_hm(a, path)
            assert read_hm(path) == a


def test_hm_float_shortest_roundtrip():
    a = Hypermatrix.from_flat((2,), [0.1, 1 / 3], "float")
    text = dumps_hm(a)
    assert "0.1" in text
    assert loads_hm(text) == a


def test_hm_rejects_malformed():
    with pytest.raises(DocumentError, match="unknown field"):
        loads_hm('{"shape":[2],"data":[1,2],"scalar_kind":"int","extra":1}')
    with pytest.raises(DocumentError, match="missing field"):
        loads_hm('{"shape":[2],"data":[1,2]}')
    with pytest.raises(DocumentError, match="position 2"):
        loads_hm('{"shape":[2],"data":[1,2.5],"scalar_kind":"int"}')
    with pytest.raises(DocumentError, match="length"):
        loads_hm('{"shape":[3],"data":[1,2],"scalar_kind":"int"}')
    with pytest.raises(DocumentError, match="non-finite"):
        loads_hm('{"shape":[1],"data":[Infinity],"scalar_kind":"float"}')
    with pytest.raises(DocumentError):
        loads_hm("not json")
    with pytest.raises(DocumentError, match="scalar_kind"):
        loads_hm('{"shape":[1],"data":[1],"scalar_kind":"bool"}')


@pytest.mark.parametrize("shape, data, kind", [
    ([2, 0], "", "int"),
    ([-1], "1", "float"),
    ([1099511627776, 1099511627776], "1", "int"),
    ([0], "1" + "0" * 400, "float"),
    ([2], "1, 1" + "0" * 400, "float"),
    ([3], "1.5, 1e400", "float"),
    ([3], "1, 2", "int"),
    ([2], "", "float"),
])
def test_loaded_documents_fail_as_the_constructor_does(shape, data, kind):
    """The constructor's checks, in its order and with its messages, after the document's own type pass."""
    with pytest.raises((ValueError, OverflowError)) as want:
        Hypermatrix(shape, json.loads(f"[{data}]"), kind)
    with pytest.raises(DocumentError) as got:
        loads_hm(f'{{"shape": {shape}, "data": [{data}], "scalar_kind": "{kind}"}}')
    assert str(got.value) == str(want.value)


def test_a_loaded_document_skips_the_constructors_type_pass(monkeypatch):
    import hyperstp.core as core

    cases = [((2, 3), [1, -2, 3, 2 ** 70, 0, 5], "int"), ((2,), [1, 2.5], "float"), ((), [7], "int")]
    built = [Hypermatrix(*case) for case in cases]
    real, scans = core._scanned, []
    monkeypatch.setattr(core, "_scanned", lambda arr: scans.append(arr.size) or real(arr))
    for (shape, data, kind), want in zip(cases, built):
        a = loads_hm(json.dumps({"shape": shape, "data": data, "scalar_kind": kind}))
        assert a == want and a.data.tolist() == want.data.tolist()
        assert all(type(v) is type(w) for v, w in zip(a.data.tolist(), want.data.tolist()))
    assert scans == []


def test_read_hm_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "bad.hm"
    path.write_bytes(b"\xff" + b'{"shape":[1],"data":[1],"scalar_kind":"int"}')
    with pytest.raises(DocumentError, match="not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"):
        read_hm(path)


HM_TEXT = '{"shape":[2],"data":[1,2],"scalar_kind":"int"}'


def test_hm_refuses_a_bom_as_json_loads_does(tmp_path):
    want = "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    with pytest.raises(DocumentError) as err:
        loads_hm("\ufeff" + HM_TEXT)
    assert str(err.value) == want
    path = tmp_path / "bom.hm"
    path.write_bytes(b"\xef\xbb\xbf" + HM_TEXT.encode())
    with pytest.raises(DocumentError) as err:
        read_hm(path)
    assert str(err.value) == want


@pytest.mark.parametrize("name", ["NaN", "Infinity", "-Infinity"])
def test_hm_refuses_non_finite_constants(name):
    with pytest.raises(DocumentError) as err:
        loads_hm(f'{{"shape":[2],"data":[1.5,{name}],"scalar_kind":"float"}}')
    assert str(err.value) == f"not valid JSON: non-finite constant {name} is not allowed"


def test_hm_crlf_document_loads_as_its_lf_twin(tmp_path):
    lf, crlf = tmp_path / "lf.hm", tmp_path / "crlf.hm"
    text = '{\n  "shape": [2, 2],\n  "data": [1, -2,\n 3, 4],\n  "scalar_kind": "int"\n}\n'
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert read_hm(crlf) == read_hm(lf) == Hypermatrix((2, 2), [1, -2, 3, 4])


def test_hm_loads_bytes_and_refuses_other_types_as_json_loads_does():
    assert loads_hm(HM_TEXT.encode()) == loads_hm(HM_TEXT)
    with pytest.raises(TypeError, match="must be str, bytes or bytearray, not NoneType"):
        loads_hm(None)


@pytest.mark.parametrize("a", [
    Hypermatrix((2, 2), [1, -2, 3, 4]),
    Hypermatrix((3,), [0.1, -2.5e-300, 1e8], "float"),
    Hypermatrix((2,), [2 ** 63, -(2 ** 70) - 1]),
    Hypermatrix((), [7]),
])
def test_dumps_hm_writes_json_dumps_bytes(a):
    doc = {"shape": list(a.dims), "data": a.data.tolist(), "scalar_kind": a.kind}
    assert dumps_hm(a) == json.dumps(doc, allow_nan=False)


def test_hm_rejects_non_finite_on_write():
    a = Hypermatrix.from_flat((1,), [1.0], "float")
    object.__setattr__(a, "_data", np.array([float("nan")]))
    with pytest.raises(DocumentError):
        dumps_hm(a)


def _doc_bytes(a):
    return (dumps_hm(a) + "\n").encode()


def test_write_hm_rewrites_a_longer_and_a_shorter_document(tmp_path):
    short = Hypermatrix((2,), [1, 2])
    long = Hypermatrix((3, 4), list(range(-6, 6)))
    path = tmp_path / "x.hm"
    for a in (long, short, long):
        write_hm(a, path)
        assert path.read_bytes() == _doc_bytes(a)


def test_write_hm_rewrites_through_hard_links_and_symlinks(tmp_path):
    path, hard, soft = tmp_path / "x.hm", tmp_path / "hard.hm", tmp_path / "soft.hm"
    write_hm(Hypermatrix((3, 4), list(range(12))), path)
    os.link(path, hard)
    soft.symlink_to(path)
    ino = path.stat().st_ino
    a = Hypermatrix((2,), [5, 6])
    write_hm(a, hard)
    assert path.read_bytes() == _doc_bytes(a) and path.stat().st_ino == ino
    b = Hypermatrix((1,), [7])
    write_hm(b, soft)
    assert soft.is_symlink() and path.read_bytes() == hard.read_bytes() == _doc_bytes(b)
    assert path.stat().st_ino == ino


def test_write_hm_creates_a_file_with_the_umask_mode(tmp_path):
    old = os.umask(0o027)
    try:
        write_hm(Hypermatrix((1,), [1]), tmp_path / "new.hm")
    finally:
        os.umask(old)
    assert (tmp_path / "new.hm").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_write_hm_writes_to_devnull_and_to_a_fifo(tmp_path):
    a = Hypermatrix((2, 2), [1, 2, 3, 4])
    write_hm(a, os.devnull)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_hm(a, fifo)
    reader.join(timeout=10)
    assert got == [_doc_bytes(a)]


def test_write_hm_leaves_the_target_when_serialising_fails(tmp_path, monkeypatch):
    path = tmp_path / "x.hm"
    write_hm(Hypermatrix((2,), [1, 2]), path)
    before = path.read_bytes()

    def fail(a):
        raise DocumentError("cannot serialise")

    monkeypatch.setattr(hyperstp.io, "dumps_hm", fail)
    with pytest.raises(DocumentError):
        write_hm(Hypermatrix((1,), [3]), path)
    assert path.read_bytes() == before


# -- delta-notation -----------------------------------------------------------


def test_delta_parse_appendix_entry():
    w = parse_delta("d8[1,3,5,7,2,4,6,8]")
    assert w.rows == 8 and w.cols == (1, 3, 5, 7, 2, 4, 6, 8)


def test_delta_identity():
    assert parse_delta("d2[1,2]") == LogicalMatrix.identity(2)


def test_delta_roundtrip_generated():
    from itertools import permutations

    from hyperstp import Permutation, build_perm_matrix

    for d in (2, 3, 4):
        for n in (2, 3):
            for p in permutations(range(1, d + 1)):
                w = build_perm_matrix((n,) * d, Permutation(p))
                assert parse_delta(print_delta(w)) == w


def test_delta_rejects_bad_text():
    with pytest.raises(DocumentError):
        parse_delta("delta8[1,2]")
    with pytest.raises(DocumentError, match="entry 2"):
        parse_delta("d2[1,3]")
    with pytest.raises(DocumentError):
        parse_delta("d2[1,2")


def test_densify():
    assert densify(LogicalMatrix(2, (2, 1))).tolist() == [[0, 1], [1, 0]]
    assert densify(LogicalMatrix.identity(3)).tolist() == np.eye(3, dtype=int).tolist()
    w = LogicalMatrix(3, (2, 2, 1))
    assert [int(c) for c in densify(w).argmax(axis=0) + 1] == list(w.cols)


# -- CLI -----------------------------------------------------------------------


def write_doc(path, shape, data, kind="int"):
    path.write_text(json.dumps({"shape": shape, "data": data, "scalar_kind": kind}))
    return str(path)


def test_cli_permmat_exact_output(capsys):
    assert main(["permmat", "--dims", "2,2,2", "--sigma", "2,3,1"]) == 0
    assert capsys.readouterr().out == "d8[1,3,5,7,2,4,6,8]\n"


def test_cli_warning_prints_its_message_without_a_source_path(capsys):
    assert main(["permmat", "--dims", "1,2", "--sigma", "2,1"]) == 0
    out, err = capsys.readouterr()
    assert out == "d2[1,2]\n"
    assert err == "warning: permutation matrix over dims with entries < 2 degenerates\n"


def test_python_m_hyperstp_runs_the_readme_example_with_a_clean_stderr():
    src = str(Path(hyperstp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "hyperstp", "permmat", "--dims", "2,2,2", "--sigma", "2,3,1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "d8[1,3,5,7,2,4,6,8]\n", "")


def test_cli_verify_appendix_stdout_is_byte_stable(capsys):
    assert main(["verify-appendix"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode("utf-8")).hexdigest() == "a7fa2a69da028189c3df766f78bcbd58"


# The documents of the CI workflow's byte-stability steps, as its printf commands write them.
CI_DOCS = {
    "square.hm": '{"shape":[2,2],"data":[1,2,3,4],"scalar_kind":"int"}',
    "int3.hm": '{"shape":[2,3,2],"data":[1,-2,3,4,-5,6,7,8,-9,0,2,-3],"scalar_kind":"int"}',
    "int2.hm": '{"shape":[3,2],"data":[2,-1,0,3,-4,5],"scalar_kind":"int"}',
    "float_a.hm": '{"shape":[2,3],"data":[0.1,-2.5,3.25,1e8,-0.3,7.0],"scalar_kind":"float"}',
    "float_b.hm": '{"shape":[3,2],"data":[1.5,-0.2,0.7,3.0,-4.125,1e-3],"scalar_kind":"float"}',
    "identity.hm": '{"shape":[2,2,2,2],"data":[1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1],"scalar_kind":"int"}',
    "A.hm": '{"shape":[2,3],"data":[1,-2,3,4,-5,6],"scalar_kind":"int"}',
    "X.hm": '{"shape":[4],"data":[2,-1,0,3],"scalar_kind":"int"}',
    "Y.hm": '{"shape":[6],"data":[1,2,-3,4,0,-5],"scalar_kind":"int"}',
    "FX.hm": '{"shape":[4],"data":[1.5,-0.2,0.7,3.0],"scalar_kind":"float"}',
    "FY.hm": '{"shape":[6],"data":[-4.125,1e-3,0.5,2.0,-1.0,0.25],"scalar_kind":"float"}',
    "MX.hm": '{"shape":[2],"data":[1600000000,1600000000],"scalar_kind":"int"}',
    "MY.hm": '{"shape":[3],"data":[1600000000,1600000000,1600000000],"scalar_kind":"int"}',
    "signed.hm": '{"shape":[2,2,2,2],"data":[3,-1,4,-5,9,-2,6,-8,7,-11,10,-13,12,-15,14,-16],"scalar_kind":"int"}',
}


@pytest.mark.parametrize("argv, md5", [
    ("transpose --sigma 2,1 square.hm OUT", "6dbaa0cb56e7297d2e83af5fd4f79ed6"),
    ("contract --a int3.hm --b int2.hm --a-axes 2,3 --b-axes 1,2 OUT", "bc5a1fc53882ecde771419c3190268ba"),
    ("contract --a float_a.hm --b float_b.hm --a-axes 2 --b-axes 1 OUT", "c0dd5e5ea664f77343f720c860b245b7"),
    ("mexpr --rows 3,1 int3.hm", "da634b95bb66fd6d141b5fa839c7626e"),
    ("mexpr --rows 2 float_a.hm", "c3e50035bbe13fcf28e5ac885f3a4e8d"),
    ("permmat --dims 2,3,5 --sigma 1,3,2 --dense", "0a286e53c75d63bd4de2f8d5706144fd"),
    # The CI step compares the text "1"; this is the md5 of the line that prints it.
    ("ybe --r identity.hm", "b026324c6904b2a9cb4b88d6d61c81d1"),
    ("stp --op mm A.hm A.hm", "777446511dd6765f11bc493d4ca7e8e5"),
    ("stp --op mv A.hm X.hm", "4794788537431189483733bea6b12bee"),
    ("stp --op vv X.hm Y.hm", "91bc4d3dbcedbd15689018fc0ccceeab"),
    ("stp --op mm float_a.hm float_a.hm", "0765be05298a3b6ac458a99f138b0ef5"),
    ("stp --op mv float_a.hm FX.hm", "87be603c4668e1890b1de35c949433db"),
    ("stp --op vv FX.hm FY.hm", "1f943a883f1c47213dfdf73d30a2f8b8"),
    # The CI step compares the text 15360000000000000000, 6·M² past 2**63; this is the md5 of its line.
    ("stp --op vv MX.hm MY.hm", "12cec223bd2ab232fac5b1d52179ffc4"),
    ("ybe --r signed.hm --side lhs --method matrix", "ba34c0a1ec6eb7b97678684fc7c8a3fc"),
    ("ybe --r signed.hm --side rhs --method matrix", "4dd40e3eb059875686e5b9f59d5d1eb9"),
    ("ybe --r signed.hm --method matrix", "f319173c01cc489b4ce5975911b1a546"),
])
def test_cli_output_has_the_ci_md5(tmp_path, capsys, argv, md5):
    # The in-process twin of a CI byte-stability step: OUT is the file written in place of /dev/stdout.
    assert main(_ci_argv(tmp_path, argv.split())) == 0
    got = (tmp_path / "out.hm").read_bytes() if "OUT" in argv else capsys.readouterr().out.encode("utf-8")
    assert hashlib.md5(got).hexdigest() == md5


def _ci_argv(tmp_path, words):
    """``words`` with each CI document name written to a file in ``tmp_path`` and OUT as ``tmp_path/out.hm``."""
    for name, text in CI_DOCS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / "out.hm") if w == "OUT" else str(tmp_path / w) if w in CI_DOCS else w for w in words]


# -- argv corpus ---------------------------------------------------------------

# Help texts at COLUMNS=80, as argparse prints them.
TOP_HELP = """\
usage: hyperstp [-h]
                {permmat,transpose,mexpr,contract,stp,ybe,verify-appendix} ...

hypermatrix algebra toolbox

positional arguments:
  {permmat,transpose,mexpr,contract,stp,ybe,verify-appendix}
    permmat             print a permutation matrix in delta-notation
    transpose           axis-permute a hypermatrix file
    mexpr               print a matrix expression with axis metadata
    contract            contracted product of two hypermatrix files
    stp                 semi-tensor product of two hypermatrix files
    ybe                 sides or residual of the Yang-Baxter constraint
    verify-appendix     regenerate and check every bundled table

options:
  -h, --help            show this help message and exit
"""
CONTRACT_HELP = """\
usage: hyperstp contract [-h] --a A --b B --a-axes A_AXES --b-axes B_AXES
                         [--method {brute,expr}]
                         outfile

positional arguments:
  outfile

options:
  -h, --help            show this help message and exit
  --a A
  --b B
  --a-axes A_AXES
  --b-axes B_AXES
  --method {brute,expr}
"""
STP_HELP = """\
usage: hyperstp stp [-h] --op {mm,mv,vv} afile bfile

positional arguments:
  afile
  bfile

options:
  -h, --help       show this help message and exit
  --op {mm,mv,vv}
"""
COMMAND_CHOICES = "'permmat', 'transpose', 'mexpr', 'contract', 'stp', 'ybe', 'verify-appendix'"
INT_CONTRACT = ["--a", "int3.hm", "--b", "int2.hm"]

# (argv, exit code, stdout, stderr).  A help request ends in SystemExit; its code is the exit code.
ARGV_CORPUS = [
    ([], 1, "", "usage error: the following arguments are required: command\n"),
    (["nope"], 1, "", f"usage error: argument command: invalid choice: 'nope' (choose from {COMMAND_CHOICES})\n"),
    (["-x"], 1, "", "usage error: the following arguments are required: command\n"),
    (["-h"], 0, TOP_HELP, ""),
    (["--help"], 0, TOP_HELP, ""),
    (["contract", "-h"], 0, CONTRACT_HELP, ""),
    (["stp", "--help"], 0, STP_HELP, ""),
    (["contract", "--a", "x"], 1, "",
     "usage error: the following arguments are required: --b, --a-axes, --b-axes, outfile\n"),
    (["stp", "--op", "xx", "A.hm", "A.hm"], 1, "",
     "usage error: argument --op: invalid choice: 'xx' (choose from 'mm', 'mv', 'vv')\n"),
    (["permmat", "--dims", "2", "--sigma", "1", "extra"], 1, "", "usage error: unrecognized arguments: extra\n"),
    (["transpose", "--sigma", "2,1", "--bogus", "square.hm", "OUT"], 1, "",
     "usage error: unrecognized arguments: --bogus\n"),
    (["transpose", "--bogus", "square.hm", "OUT"], 1, "", "usage error: the following arguments are required: --sigma\n"),
    (["mexpr", "--rows"], 1, "", "usage error: argument --rows: expected one argument\n"),
    (["permmat", "--d", "2", "--sigma", "1"], 1, "", "usage error: ambiguous option: --d could match --dims, --dense\n"),
    (["verify-appendix", "x"], 1, "", "usage error: unrecognized arguments: x\n"),
    (["permmat", "--dims", "2,x", "--sigma", "1,2"], 1, "",
     "usage error: --dims expects comma-separated integers, got '2,x'\n"),
    (["contract", *INT_CONTRACT, "--a-axes=2,3", "--b-axes=1,2", "OUT"], 0, "", ""),
    (["contract", "--meth", "expr", *INT_CONTRACT, "--a-axes", "2,3", "--b-axes", "1,2", "OUT"], 0, "", ""),
    (["permmat", "--di", "2,2", "--sigma", "2,1"], 0, "d4[1,3,2,4]\n", ""),
    (["stp", "--op", "vv", "X.hm", "Y.hm"], 0, "-18\n", ""),
    (["mexpr", "--rows", "3", "square.hm"], 2, "",
     "error: row axes (3,) and column axes (1, 2) do not partition 1..2\n"),
]


def _exit_code(run, argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code, out, err", ARGV_CORPUS)
def test_cli_argv_corpus(tmp_path, capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert (_exit_code(main, _ci_argv(tmp_path, argv)), *capsys.readouterr()) == (code, out, err)
    if code == 0 and "OUT" in argv:  # both contract forms write the CI step's bytes
        assert hashlib.md5((tmp_path / "out.hm").read_bytes()).hexdigest() == "bc5a1fc53882ecde771419c3190268ba"


@pytest.mark.parametrize("argv", [argv for argv, *_ in ARGV_CORPUS if argv and argv[0] in cli._COMMANDS])
def test_cli_command_parser_gives_the_top_level_parsers_namespace(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = _ci_argv(tmp_path, argv)

    def outcome(parse):
        try:
            return parse(argv)
        except (UsageError, SystemExit) as exc:
            return type(exc), str(exc), capsys.readouterr()

    assert outcome(cli._parse_args) == outcome(_parser().parse_args)


def test_cli_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hyperstp", "permmat", "--dims", "2,2,2", "--sigma", "2,3,1"])
    assert main() == 0
    assert capsys.readouterr() == ("d8[1,3,5,7,2,4,6,8]\n", "")
    monkeypatch.setattr(sys, "argv", ["hyperstp", "contract", "--a", "x"])
    assert main(None) == 1
    assert capsys.readouterr() == ("", ARGV_CORPUS[7][3])


@pytest.mark.parametrize("dims, sigma, out", [
    ("2,3,5", "3,1,2", "d30[1,7,13,19,25,2,8,14,20,26,3,9,15,21,27,4,10,16,22,28,5,11,17,23,29,6,12,18,24,30]"),
    ("3,1,4,2", "4,2,1,3", "d24[1,13,2,14,3,15,4,16,5,17,6,18,7,19,8,20,9,21,10,22,11,23,12,24]"),
    ("2,3,2,2", "4,3,1,2", "d24[1,13,7,19,2,14,8,20,3,15,9,21,4,16,10,22,5,17,11,23,6,18,12,24]"),
    ("5,4", "2,1", "d20[1,6,11,16,2,7,12,17,3,8,13,18,4,9,14,19,5,10,15,20]"),
])
def test_cli_permmat_output_is_pinned(capsys, dims, sigma, out):
    assert main(["permmat", "--dims", dims, "--sigma", sigma]) == 0
    assert capsys.readouterr().out == out + "\n"


def test_cli_permmat_deterministic(capsys):
    main(["permmat", "--dims", "2,3,5", "--sigma", "1,3,2"])
    first = capsys.readouterr().out
    main(["permmat", "--dims", "2,3,5", "--sigma", "1,3,2"])
    assert capsys.readouterr().out == first


def test_cli_permmat_dense(capsys):
    assert main(["permmat", "--dims", "2", "--sigma", "1", "--dense"]) == 0
    assert capsys.readouterr().out == "1 0\n0 1\n"


def test_cli_usage_errors(capsys):
    assert main(["permmat", "--dims", "2,2"]) == 1
    assert main(["nope"]) == 1
    assert main(["permmat", "--dims", "2,x", "--sigma", "1,2"]) == 1


def test_cli_usage_errors_have_the_ci_steps_exit_codes_and_line(capsys):
    # The in-process twin of the CI step "Usage errors exit 1 with one stderr line".
    assert main(["contract", "--a", "x"]) == 1
    err = "usage error: the following arguments are required: --b, --a-axes, --b-axes, outfile\n"
    assert capsys.readouterr() == ("", err)
    assert main(["nope"]) == 1


def test_cli_parser_is_built_once_and_reused(capsys):
    assert _parser() is _parser()
    assert main(["permmat", "--dims", "2,2"]) == 1
    assert main(["permmat", "--dims", "2,2", "--sigma", "2,1", "--dense"]) == 0
    assert main(["permmat", "--dims", "2,2", "--sigma", "2,1"]) == 0
    assert capsys.readouterr().out == "1 0 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1\nd4[1,3,2,4]\n"


def test_cli_data_errors(tmp_path, capsys):
    assert main(["permmat", "--dims", "2,2", "--sigma", "1,1"]) == 2
    bad = tmp_path / "bad.hm"
    bad.write_text("{}")
    assert main(["mexpr", "--rows", "1", str(bad)]) == 2
    assert main(["mexpr", "--rows", "1", str(tmp_path / "missing.hm")]) == 2


def test_cli_permmat_over_entry_budget_is_data_error(capsys):
    assert main(["permmat", "--dims", f"4097,{MAX_ENTRIES // 4096}", "--sigma", "2,1"]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_permmat_dense_over_entry_budget_is_data_error(capsys):
    assert main(["permmat", "--dims", "64,65", "--sigma", "2,1", "--dense"]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_stp_over_padding_budget_is_data_error(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("padding allocated past the budget")

    monkeypatch.setattr(np, "kron", refuse)
    row = write_doc(tmp_path / "row.hm", [1, 10000], [1] * 10000)
    col = write_doc(tmp_path / "col.hm", [10001, 1], [1] * 10001)
    assert main(["stp", "--op", "mm", row, col]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_deeply_nested_document_is_data_error(tmp_path, capsys):
    deep = tmp_path / "deep.hm"
    deep.write_text("[" * 100_000)
    assert main(["transpose", "--sigma", "1", str(deep), str(tmp_path / "out.hm")]) == 2
    assert "recursion" in capsys.readouterr().err


def test_cli_transpose(tmp_path, capsys):
    src = write_doc(tmp_path / "a.hm", [2, 3], [1, 2, 3, 4, 5, 6])
    out = str(tmp_path / "t.hm")
    assert main(["transpose", "--sigma", "2,1", src, out]) == 0
    t = read_hm(out)
    assert t.dims == (3, 2) and t.nd.tolist() == [[1, 4], [2, 5], [3, 6]]


def test_cli_writing_to_a_directory_is_data_error(tmp_path, capsys):
    a = write_doc(tmp_path / "a.hm", [2, 2], [1, 2, 3, 4])
    assert main(["transpose", "--sigma", "2,1", a, str(tmp_path)]) == 2
    assert main(["contract", "--a", a, "--b", a, "--a-axes", "2", "--b-axes", "1", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_cli_mexpr(tmp_path, capsys):
    src = write_doc(tmp_path / "a.hm", [2, 3, 2], list(range(1, 13)))
    assert main(["mexpr", "--rows", "2", src]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["row_axes"] == [2] and doc["col_axes"] == [1, 3]
    assert doc["shape"] == [3, 4]
    assert doc["mat"][1] == [3, 4, 9, 10]


def test_cli_contract_methods_and_agreement(tmp_path, capsys):
    a = write_doc(tmp_path / "a.hm", [2, 3], [1, 2, 3, 4, 5, 6])
    b = write_doc(tmp_path / "b.hm", [3, 2], [7, 8, 9, 10, 11, 12])
    out = str(tmp_path / "c.hm")
    assert main(["contract", "--a", a, "--b", b, "--a-axes", "2", "--b-axes", "1", out]) == 0
    both = read_hm(out)
    assert main(["contract", "--a", a, "--b", b, "--a-axes", "2", "--b-axes", "1", "--method", "brute", out]) == 0
    brute = read_hm(out)
    assert main(["contract", "--a", a, "--b", b, "--a-axes", "2", "--b-axes", "1", "--method", "expr", out]) == 0
    expr = read_hm(out)
    assert both == brute == expr
    assert brute.nd.tolist() == (np.array([[1, 2, 3], [4, 5, 6]]) @ np.array([[7, 8], [9, 10], [11, 12]])).tolist()


def test_cli_contract_over_entry_budget_is_data_error(tmp_path, capsys):
    # An outer product of two 4097-entry vectors has 4097**2 entries, just past the budget.
    x = write_doc(tmp_path / "x.hm", [4097], [1] * 4097)
    out = tmp_path / "c.hm"
    for method in ([], ["--method", "brute"], ["--method", "expr"]):
        assert main(["contract", "--a", x, "--b", x, "--a-axes", "", "--b-axes", "", *method, str(out)]) == 2
        assert f"has {4097 ** 2} entries, above the budget of {MAX_ENTRIES}" in capsys.readouterr().err
    assert not out.exists()


def _cancelling_docs(tmp_path, seed):
    """A 1 x 64 row at scale 1e8 and a 64 x 1 column whose contraction cancels to about 0."""
    rng = np.random.default_rng(seed)
    row, col = rng.uniform(-1, 1, 64) * 1e8, rng.uniform(-1, 1, 64)
    row[-1] = -np.dot(row[:-1], col[:-1]) / col[-1]
    return (
        write_doc(tmp_path / "a.hm", [1, 64], row.tolist(), "float"),
        write_doc(tmp_path / "b.hm", [64, 1], col.tolist(), "float"),
    )


def _contract_argv(a, b, out):
    return ["contract", "--a", a, "--b", b, "--a-axes", "2", "--b-axes", "1", str(out)]


def test_cli_contract_accepts_correct_cancelling_float_results(tmp_path):
    # Both routes are within 2·γ_K·(|a| ⋆ |b|) of the exact sum, yet their
    # results, near 0, differ by far more than 1e-9 of themselves.
    apart = []
    for seed in range(1, 6):
        a, b = _cancelling_docs(tmp_path, seed)
        assert main(_contract_argv(a, b, tmp_path / "c.hm")) == 0
        x, y = read_hm(a), read_hm(b)
        brute, expr = (hyperstp.contract(x, y, (2,), (1,), m) for m in ("brute", "expr"))
        assert read_hm(tmp_path / "c.hm") == brute
        apart.append(not brute.approx_equal(expr, 1e-9))
    assert any(apart)


def test_cli_contract_rejects_a_float_result_past_the_bound(tmp_path, monkeypatch, capsys):
    a, b = _cancelling_docs(tmp_path, 1)
    bound = _agreement_bound(read_hm(a), read_hm(b), (2,), (1,))
    real = cli.contract

    def off(x, y, x_axes, y_axes, method):
        out = real(x, y, x_axes, y_axes, method)
        # Routes within the bound of each other land at least twice it apart.
        return Hypermatrix(out.dims, out.data + 3 * bound, "float") if method == "expr" else out

    monkeypatch.setattr(cli, "contract", off)
    assert main(_contract_argv(a, b, tmp_path / "c.hm")) == 3
    assert "contraction methods disagree" in capsys.readouterr().err
    assert not (tmp_path / "c.hm").exists()


def test_cli_stp_mm_scans_no_operand_and_no_result(tmp_path, monkeypatch, capsys):
    import hyperstp.core as core

    rng = np.random.default_rng(7)
    a_np, b_np = rng.integers(-9, 10, (6, 4)), rng.integers(-9, 10, (6, 6))
    a = write_doc(tmp_path / "a.hm", [6, 4], a_np.reshape(-1).tolist())
    b = write_doc(tmp_path / "b.hm", [6, 6], b_np.reshape(-1).tolist())
    want = hyperstp.mm_stp(a_np, b_np)
    real, scans = core._scanned, []
    monkeypatch.setattr(core, "_scanned", lambda arr: scans.append(arr.size) or real(arr))
    assert main(["stp", "--op", "mm", a, b]) == 0
    assert scans == []
    doc = json.loads(capsys.readouterr().out)
    assert doc["shape"] == list(want.shape) and doc["data"] == want.reshape(-1).tolist()


def test_cli_stp_vv(tmp_path, capsys):
    x = write_doc(tmp_path / "x.hm", [2], [1, 2])
    y = write_doc(tmp_path / "y.hm", [3], [1, 1, 1])
    assert main(["stp", "--op", "vv", x, y]) == 0
    assert capsys.readouterr().out == "9\n"


def test_cli_stp_mv_and_mm(tmp_path, capsys):
    a = write_doc(tmp_path / "a.hm", [2, 2], [1, 1, 1, -1])
    x = write_doc(tmp_path / "x.hm", [4], [1, 2, 3, 4])
    assert main(["stp", "--op", "mv", a, x]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"] == [4, 6, -2, -2]
    b = write_doc(tmp_path / "b.hm", [2, 2], [1, 0, 0, 1])
    assert main(["stp", "--op", "mm", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shape"] == [2, 2] and doc["data"] == [1, 1, 1, -1]


def test_cli_ybe(tmp_path, capsys):
    r = write_doc(tmp_path / "r.hm", [2, 2, 2, 2], [0] * 16)
    assert main(["ybe", "--r", r]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["ybe", "--r", r, "--side", "lhs", "--method", "matrix"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shape"] == [2] * 6 and all(v == 0 for v in doc["data"])


def test_cli_ybe_method_reaches_the_residual(tmp_path, capsys, monkeypatch):
    import hyperstp.contraction as contraction_mod

    calls = []
    real = contraction_mod.contract_bruteforce

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(contraction_mod, "contract_bruteforce", spy)
    r = write_doc(tmp_path / "r.hm", [2, 2, 2, 2], list(range(16)))
    assert main(["ybe", "--r", r]) == 0
    brute = capsys.readouterr().out
    assert calls
    calls.clear()
    assert main(["ybe", "--r", r, "--method", "matrix"]) == 0
    assert capsys.readouterr().out == brute and not calls


def test_cli_verify_appendix(capsys):
    assert main(["verify-appendix"]) == 0
    out = capsys.readouterr().out
    assert "appendix verification: OK" in out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "EXPECTED-MISMATCH", "MISMATCH"))]
    assert len(lines) == 66
    assert not any(l.startswith("MISMATCH") for l in lines)
    assert any(l.startswith("EXPECTED-MISMATCH") for l in lines)
    assert "reason:" in out and "+" in out  # diffs shown for expected mismatches


def test_cli_verify_appendix_detects_regression(monkeypatch, capsys):
    import hyperstp.appendix as appendix_mod

    # sabotage one non-errata table to prove regressions exit nonzero
    broken = dict(appendix_mod.APPENDIX_TABLES)
    d3n2 = dict(broken[(3, 2)])
    d3n2[1] = tuple([2, 1] + list(range(3, 9)))
    broken[(3, 2)] = d3n2
    monkeypatch.setattr(appendix_mod, "APPENDIX_TABLES", broken)
    assert main(["verify-appendix"]) == 3
    assert "MISMATCH d=3 n=2 label=1" in capsys.readouterr().out


# -- CLI fuzz ------------------------------------------------------------------


def _doc(shape=(2,), data=(1, 2), kind="int") -> bytes:
    return json.dumps({"shape": shape, "data": data, "scalar_kind": kind}).encode()


def _nested(depth: int, closed: bool) -> bytes:
    inner = b"[" * depth + (b"]" * depth if closed else b"")
    return b'{"shape":[1],"data":[' + inner + b'],"scalar_kind":"int"}'


_not_a_number = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2))
_not_a_list = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.dictionaries(st.text(max_size=2), st.integers())
)

# Every document here is malformed: none of them may reach a result.
malformed_documents = st.one_of(
    _not_a_list.map(lambda v: _doc(shape=v)),
    _not_a_list.map(lambda v: _doc(data=v)),
    st.one_of(_not_a_list, st.just("bool")).filter(lambda v: v not in ("int", "float")).map(lambda v: _doc(kind=v)),
    st.one_of(_not_a_number, st.floats(allow_nan=False)).map(lambda v: _doc(shape=[2, v])),
    _not_a_number.map(lambda v: _doc(data=[1, v])),
    st.builds(_nested, st.integers(1, 100_000), st.booleans()),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth),
    st.builds(lambda k, junk: _doc()[:k] + b"\xff" + junk, st.integers(0, 40), st.binary(max_size=8)),
    st.integers(19, 6000).map(lambda k: b'{"shape":[1%s],"data":[1],"scalar_kind":"int"}' % (b"0" * k)),
    st.integers(309, 6000).map(lambda k: b'{"shape":[1],"data":[1%s],"scalar_kind":"float"}' % (b"0" * k)),
    st.integers(309, 100_000).map(lambda k: b'{"shape":[1],"data":[1e%d],"scalar_kind":"float"}' % k),
)


@settings(max_examples=60, deadline=None)
@given(malformed_documents, st.sampled_from(["transpose", "mexpr", "contract", "stp", "ybe"]))
def test_cli_fuzz_malformed_documents_exit_with_a_code(tmp_path_factory, doc, command):
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = folder / "doc.hm", str(folder / "out.hm")
    path.write_bytes(doc)
    f = str(path)
    argv = {
        "transpose": ["transpose", "--sigma", "1", f, out],
        "mexpr": ["mexpr", "--rows", "1", f],
        "contract": ["contract", "--a", f, "--b", f, "--a-axes", "1", "--b-axes", "1", out],
        "stp": ["stp", "--op", "mm", f, f],
        "ybe": ["ybe", "--r", f],
    }[command]
    assert main(argv) in (1, 2)


# Flag values: empty, small, zero, negative, huge and (by repetition) duplicate.
HUGE = str(10 ** 20)
_flag_values = st.lists(st.sampled_from(["1", "2", "3", "0", "-1", HUGE, "-" + HUGE]), max_size=4).map(",".join)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["permmat", "transpose", "mexpr", "contract"]), _flag_values, _flag_values, st.booleans())
def test_cli_fuzz_flags_exit_with_a_code(tmp_path_factory, command, first, second, valid_sigma):
    if valid_sigma:  # a permutation, so permmat's --dims reaches the size and budget checks
        second = ",".join(str(k) for k in range(1, len(first.split(",")) + 1)) if first else ""
    folder = tmp_path_factory.mktemp("flags")
    a = write_doc(folder / "a.hm", [2, 3, 2], list(range(12)))
    b = write_doc(folder / "b.hm", [3, 2], list(range(6)))
    out = str(folder / "out.hm")
    argv = {
        "permmat": ["permmat", f"--dims={first}", f"--sigma={second}"],
        "transpose": ["transpose", f"--sigma={first}", a, out],
        "mexpr": ["mexpr", f"--rows={first}", a],
        "contract": ["contract", "--a", a, "--b", b, f"--a-axes={first}", f"--b-axes={second}", out],
    }[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
    if any(HUGE in arg for arg in argv):
        assert code == 2  # refused by a size, range or permutation check
