"""Golden CSVs: one small case of every scenario kind, against the files
that ``tests/golden/regen.py`` wrote.

Where Python, NumPy and the machine match ``golden/provenance.json`` a CSV
must be byte-identical.  Elsewhere ``np.sin`` or ``np.exp`` may differ in
the last bit, so every float must agree within GOLDEN_RTOL·max(1, |x|) and
every integer and status cell exactly; that path never runs where the
provenance matches.
"""

import csv
import json
import math
import re
import subprocess
import sys

import pytest
from conftest import src_env
from golden.regen import CASES, HERE, PROVENANCE, provenance, render

GOLDEN_RTOL = 1e-12
# a float cell as `emit_csv` writes it (%.16e, or the text of a NaN or inf)
FLOAT_CELL = re.compile(r"-?\d\.\d{16}e[-+]\d{2,3}|-?inf|nan")


def _mismatches(got: str, want: str) -> list:
    """The cells of CSV text ``got`` that differ from ``want``: a float by
    more than GOLDEN_RTOL·max(1, |x|) (NaN only against NaN), any other
    cell by its text."""
    got_rows, want_rows = (list(csv.reader(text.splitlines())) for text in (got, want))
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return [f"table shape differs: {len(got_rows)} rows against {len(want_rows)}"]
    bad = []
    for k, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if k > 0 and FLOAT_CELL.fullmatch(g) and FLOAT_CELL.fullmatch(w):
                x, y = float(g), float(w)
                same = (math.isnan(x) and math.isnan(y)) or x == y \
                    or abs(x - y) <= GOLDEN_RTOL * max(1.0, abs(y))
            else:
                same = g == w
            if not same:
                bad.append(f"row {k} column {want_rows[0][j]}: {g} against {w}")
    return bad


@pytest.mark.parametrize("case", CASES)
def test_scenario_reproduces_its_golden_csv(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    render(case, out)
    got, want = out.read_bytes(), (HERE / f"{case}.csv").read_bytes()
    if provenance() == json.loads(PROVENANCE.read_text(encoding="utf-8")):
        assert got == want
    else:
        assert _mismatches(got.decode(), want.decode()) == []


def test_tolerance_comparison_rejects_what_it_must():
    want = "t,x,flag,status\n1.0000000000000000e+00,2.0000000000000000e-01,0,ok\n"
    assert _mismatches(want, want) == []
    assert _mismatches(want.replace("2.0000000000000000e-01", "2.0000000000090000e-01"),
                       want) == []
    for changed in ("2.0000000000200000e-01", "nan"):
        assert _mismatches(want.replace("2.0000000000000000e-01", changed), want) \
            == [f"row 1 column x: {changed} against 2.0000000000000000e-01"]
    assert _mismatches(want.replace(",0,", ",1,"), want) == ["row 1 column flag: 1 against 0"]
    assert _mismatches(want.replace("ok", "error:StabilityError"), want) != []
    assert _mismatches(want + want.splitlines()[1] + "\n", want) != []


def test_driven_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"driven-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lmesim", "driven",
             "--config", str(HERE / "driven.ini"), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=src_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
