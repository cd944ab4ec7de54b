import contextlib
import io
import json
import os
import subprocess
import sys
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
from hyperstp.cli import _parser, main
from hyperstp.permutation import MAX_PERM_ENTRIES

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


def test_read_hm_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "bad.hm"
    path.write_bytes(b"\xff" + b'{"shape":[1],"data":[1],"scalar_kind":"int"}')
    with pytest.raises(DocumentError, match="UTF-8"):
        read_hm(path)


def test_hm_rejects_non_finite_on_write():
    a = Hypermatrix.from_flat((1,), [1.0], "float")
    object.__setattr__(a, "data", np.array([float("nan")]))
    with pytest.raises(DocumentError):
        dumps_hm(a)


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
    assert main(["permmat", "--dims", f"4097,{MAX_PERM_ENTRIES // 4096}", "--sigma", "2,1"]) == 2
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
