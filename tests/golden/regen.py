"""Regenerate the golden CSVs that ``tests/test_golden.py`` compares against.

Each ``<case>.ini`` in this directory is run through ``load_config``,
``run_scenario`` and ``emit_csv`` into ``<case>.csv``, and
``provenance.json`` records the Python and NumPy versions and the machine
that wrote them.  Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

A change that alters a golden CSV states in CHANGES.md the largest
deviation of each changed column against the old files, and why.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from lmesim.scenarios import emit_csv, load_config, run_scenario

HERE = Path(__file__).resolve().parent
CASES = tuple(sorted(path.stem for path in HERE.glob("*.ini")))
PROVENANCE = HERE / "provenance.json"


def provenance() -> dict:
    """Where the CSVs are bit-reproducible: the interpreter, NumPy and the
    machine architecture."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def render(case: str, out) -> None:
    """Write the CSV of golden case ``case`` to ``out``."""
    emit_csv(run_scenario(load_config(HERE / f"{case}.ini")), out)


def main() -> None:
    for case in CASES:
        render(case, HERE / f"{case}.csv")
    PROVENANCE.write_text(json.dumps(provenance(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} golden CSVs and {PROVENANCE.name}")


if __name__ == "__main__":
    main()
