"""Bundled reference data.

The coefficient triangle is published as OEIS A156308; its first rows are
vendored as CSV so the verification suite can compare against data that was
not produced by this package's own formulas.
"""

from __future__ import annotations

__all__ = ["a156308_rows"]


def a156308_rows() -> list[list[int]]:
    """The vendored rows of OEIS A156308, one list per triangle row."""
    # Imported here, not at the top: every launch loads this module, and only
    # `verify coefficients` reads the data.  Without ``site``, importing
    # importlib.resources also loads tempfile and pathlib.
    from importlib import resources

    text = resources.files("spreadpoly").joinpath("data/a156308.csv").read_text()
    return [[int(v) for v in line.split(",")] for line in text.strip().splitlines()]
