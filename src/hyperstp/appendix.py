"""Golden permutation-matrix tables and their verification.

The bundled tables (uniform dims, ``(d, n)`` in {(3,2), (3,3), (3,4),
(4,2), (4,3)}, plus worked tables over the mixed shape (2,3,5)) are kept
verbatim as published, misprints included.  Verification regenerates each
table from the constructive definition and compares; published entries
known to be wrong live in a versioned errata registry so they are
reported rather than trusted -- and rather than failing the build.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

from ._appendix_data import APPENDIX_TABLES, EXAMPLE_235_TABLES
from .core import _checked_int
from .permutation import LogicalMatrix, Permutation, build_perm_matrix


def appendix_families() -> list[tuple[int, int]]:
    """The (d, n) pairs with bundled tables."""
    return sorted(APPENDIX_TABLES)


def appendix_labels(d: int, n: int) -> list[int]:
    d, n = _checked_int(d), _checked_int(n)
    if (d, n) not in APPENDIX_TABLES:
        raise KeyError(f"no bundled tables for d={d}, n={n}")
    return sorted(APPENDIX_TABLES[(d, n)])


def appendix_sigma(d: int, label: int) -> Permutation:
    """The permutation a table label claims to represent.

    The labels 1, ..., d! of a degree with bundled tables number its
    images in lexicographic order.
    """
    d, label = _checked_int(d), _checked_int(label)
    images = list(itertools.permutations(range(1, d + 1))) if d in {k for k, _ in APPENDIX_TABLES} else []
    if label not in range(1, len(images) + 1):
        raise KeyError(f"no label {label} for degree {d}")
    return Permutation(images[label - 1])


def appendix_table(d: int, n: int, label: int) -> LogicalMatrix:
    """Published table for ``(d, n, label)``, verbatim (misprints included)."""
    d, n, label = _checked_int(d), _checked_int(n), _checked_int(label)
    if (d, n) not in APPENDIX_TABLES:
        raise KeyError(f"no bundled tables for d={d}, n={n}")
    try:
        cols = APPENDIX_TABLES[(d, n)][label]
    except KeyError:
        raise KeyError(f"no label {label} for d={d}, n={n}") from None
    return LogicalMatrix(n ** d, cols)


def example_table(label: int) -> LogicalMatrix:
    """Published worked table over the mixed shape (2, 3, 5)."""
    label = _checked_int(label)
    try:
        cols = EXAMPLE_235_TABLES[label]
    except KeyError:
        raise KeyError(f"no worked (2,3,5) table with label {label}") from None
    return LogicalMatrix(30, cols)


def load_errata() -> dict:
    """The versioned errata registry shipped with the package."""
    text = resources.files("hyperstp").joinpath("data/appendix_errata.json").read_text("utf-8")
    return json.loads(text)


def errata_index() -> dict[tuple[int, int, int], str]:
    return {(e["d"], e["n"], e["label"]): e["reason"] for e in load_errata()["entries"]}


@dataclass(frozen=True)
class TableReport:
    """Outcome of regenerating one published table."""

    d: int
    n: int
    label: int
    sigma: tuple[int, ...]
    matches: bool
    registered: str | None     # errata reason, if any
    published: tuple[int, ...]
    generated: tuple[int, ...]

    @property
    def status(self) -> str:
        if self.matches:
            return "PASS"
        return "EXPECTED-MISMATCH" if self.registered else "MISMATCH"

    def diff_lines(self) -> list[str]:
        """Unified diff of published vs regenerated column indices."""
        import difflib  # only a mismatch needs it, so importing the module does not load it

        pub = [str(c) for c in self.published]
        gen = [str(c) for c in self.generated]
        return list(difflib.unified_diff(pub, gen, "published", "generated", lineterm=""))


def _report(d: int, n: int, label: int, dims: tuple[int, ...], published, registered=None) -> TableReport:
    """Regenerate the table ``label`` of degree ``d`` over ``dims`` and compare."""
    sigma = appendix_sigma(d, label)
    generated = build_perm_matrix(dims, sigma).cols
    return TableReport(d, n, label, sigma.image, generated == published, registered, published, generated)


def verify_appendix() -> list[TableReport]:
    """Regenerate every bundled table and compare with the published one.

    The build is considered good when every report is either PASS or a
    registered EXPECTED-MISMATCH, and when no registered erratum
    unexpectedly passes (which would mean the registry went stale).
    """
    registered = errata_index()
    return [
        _report(d, n, label, (n,) * d, APPENDIX_TABLES[(d, n)][label], registered.get((d, n, label)))
        for (d, n) in appendix_families()
        for label in appendix_labels(d, n)
    ]


def verify_example_tables() -> list[TableReport]:
    """Same regeneration check for the worked (2,3,5) tables (all must pass)."""
    return [_report(3, 0, label, (2, 3, 5), EXAMPLE_235_TABLES[label]) for label in sorted(EXAMPLE_235_TABLES)]


def verification_ok(reports: list[TableReport]) -> bool:
    """True when mismatches are exactly the registered errata."""
    for r in reports:
        if r.status == "MISMATCH":
            return False
        if r.registered and r.matches:
            return False
    return True
