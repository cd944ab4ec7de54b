from itertools import product
from math import factorial

import pytest

from hyperstp import (
    appendix_families,
    appendix_labels,
    appendix_sigma,
    appendix_table,
    build_perm_matrix,
    example_table,
    kron_chain,
    load_errata,
    verification_ok,
    verify_appendix,
    verify_example_tables,
)
from hyperstp.appendix import errata_index

from conftest import basis_vec


def test_families_and_labels():
    assert appendix_families() == [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
    assert appendix_labels(3, 2) == list(range(1, 7))
    assert appendix_labels(4, 3) == list(range(1, 25))


def test_lookup_examples():
    assert appendix_table(3, 2, 4).cols == (1, 3, 5, 7, 2, 4, 6, 8)
    assert appendix_table(3, 3, 2).cols[:9] == (1, 4, 7, 2, 5, 8, 3, 6, 9)
    assert appendix_table(3, 3, 2).cols[-3:] == (21, 24, 27)
    assert appendix_table(4, 2, 10).cols == (1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15, 8, 16)


def test_lookup_unknown():
    with pytest.raises(KeyError):
        appendix_table(5, 2, 1)
    with pytest.raises(KeyError):
        appendix_table(3, 2, 9)


def test_sigma_labels_number_the_images_in_lexicographic_order():
    # As printed: label 4 of degree 3 is (2, 3, 1); labels 10 and 24 of degree 4 are (2, 3, 4, 1) and (4, 3, 2, 1).
    assert appendix_sigma(3, 4).image == (2, 3, 1)
    assert appendix_sigma(4, 10).image == (2, 3, 4, 1)
    assert appendix_sigma(4, 24).image == (4, 3, 2, 1)
    for d in (3, 4):
        images = [appendix_sigma(d, label).image for label in range(1, factorial(d) + 1)]
        assert images == sorted(set(images)) and len(images) == factorial(d)
    for d, label in [(3, 0), (3, 7), (4, 25), (4, -1), (2, 1), (5, 1)]:
        with pytest.raises(KeyError, match=f"no label {label} for degree {d}"):
            appendix_sigma(d, label)


def test_published_tables_reproduced_except_registered_errata():
    registered = errata_index()
    for (d, n) in appendix_families():
        for label in appendix_labels(d, n):
            generated = build_perm_matrix((n,) * d, appendix_sigma(d, label))
            published = appendix_table(d, n, label)
            if (d, n, label) in registered:
                assert generated.cols != published.cols, (d, n, label)
            else:
                assert generated.cols == published.cols, (d, n, label)


def test_registered_errata_reasons_hold():
    for entry in load_errata()["entries"]:
        d, n, label = entry["d"], entry["n"], entry["label"]
        published = appendix_table(d, n, label)
        if "inverse permutation" in entry["reason"]:
            inv = appendix_sigma(d, label).inverse()
            assert published.cols == build_perm_matrix((n,) * d, inv).cols, (d, n, label)
        elif "duplicates the label-14" in entry["reason"]:
            assert published.cols == appendix_table(d, n, 14).cols
        elif "not a permutation" in entry["reason"]:
            assert not published.is_permutation()


def test_verify_appendix_report():
    reports = verify_appendix()
    assert len(reports) == 6 + 6 + 6 + 24 + 24
    assert verification_ok(reports)
    statuses = {r.status for r in reports}
    assert statuses == {"PASS", "EXPECTED-MISMATCH"}
    for r in reports:
        if not r.matches:
            assert r.diff_lines(), "mismatching tables must carry a diff"


def test_example_tables_all_reproduced():
    reports = verify_example_tables()
    assert len(reports) == 6 and all(r.matches for r in reports)
    assert example_table(1).cols == tuple(range(1, 31))


def test_generated_tables_satisfy_chain_property():
    # every regenerated table must actually reorder Kronecker chains
    for (d, n) in appendix_families():
        dims = (n,) * d
        for label in appendix_labels(d, n):
            sigma = appendix_sigma(d, label)
            w = build_perm_matrix(dims, sigma)
            for basis in product(range(1, n + 1), repeat=d):
                xs = [basis_vec(n, i) for i in basis]
                lhs = kron_chain([xs[sigma(k) - 1] for k in range(1, d + 1)])
                assert list(w.apply(kron_chain(xs))) == list(lhs)


def test_errata_registry_is_versioned():
    registry = load_errata()
    assert registry["version"] == 1
    assert all({"d", "n", "label", "reason"} <= set(e) for e in registry["entries"])
