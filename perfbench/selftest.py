"""Self-tests of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench/selftest.py      # or: python3 perfbench/selftest.py

* every metric name is well formed, and the names the benchmark prints are
  exactly the ones BENCHMARK.json declares;
* every generated config, for many seeds, loads through ``load_config`` with
  the kind its CLI subcommand expects;
* the oracle gate accepts a genuine CSV of each workload (at reduced size)
  and rejects it once any single checked cell is perturbed;
* the gate's negative-rate flags agree with the integrator's own.
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lmesim.scenarios import emit_csv, load_config, run_scenario  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDS = range(0, 40)
# reduced sizes: horizons in hundredths of a time unit, grid counts
SMALL = {"evolve-12": 20, "driven-2": 10, "boundary-161": 9, "relaxation-3": 1}
# columns the gate takes as given (the frame times and the grid coordinates)
UNCHECKED = {"t", "T1_over_T2", "eps1_over_eps2", "zeta2"}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_declared():
    spec = _benchmark_json()
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    printed = {"end_to_end": run.UNITS, "per_layer": run.LAYER_UNITS}
    for kind in declared:
        for name in declared[kind]:
            assert NAME.fullmatch(name), name
        assert declared[kind] == printed[kind]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_generated_configs_load(tmp_path):
    for name, subcommand in workloads.WORKLOADS.items():
        for seed in SEEDS:
            path = tmp_path / f"{name}-{seed}.ini"
            path.write_text(workloads.config_text(name, seed), encoding="utf-8")
            cfg = load_config(path)
            assert cfg.kind == subcommand.replace("-", "_"), (name, seed)


def test_seed_zero_is_the_documented_configuration():
    cfg_text = workloads.config_text("evolve-12", 0)
    for line in ("epsilon1 = 10.0", "epsilon2 = 5.0", "temperature = 15.0",
                 "temperature = 10.0", "zeta2 = 0.5", "horizon = 12.0"):
        assert line in cfg_text
    assert "relax_zeta2_min = 0.25" in workloads.config_text("relaxation-3", 0)
    assert workloads.config_text("driven-2", 7) == workloads.config_text(
        "driven-2", 7)
    assert workloads.config_text("driven-2", 7) != workloads.config_text(
        "driven-2", 8)


def _perturbed(lines, row, col):
    cells = lines[row].split(",")
    value = cells[col]
    if value == "ok":
        cells[col] = "error:Perturbed"
    else:
        x = float(value)
        cells[col] = f"{x + 1e-5 * max(1.0, abs(x)):.16e}"
    out = list(lines)
    out[row] = ",".join(cells)
    return out


def test_gate_rejects_any_single_perturbed_cell(tmp_path):
    for name, size in SMALL.items():
        ini = tmp_path / f"{name}.ini"
        ini.write_text(workloads.config_text(name, 3, size=size),
                       encoding="utf-8")
        cfg = load_config(ini)
        csv_path = tmp_path / f"{name}.csv"
        emit_csv(run_scenario(cfg), csv_path)
        gate = oracle.Oracle(cfg)
        assert gate.check(csv_path).ok, name
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = len(lines) // 2 if len(lines) > 2 else 1
        for col, column in enumerate(header):
            if column in UNCHECKED:
                continue
            bad = tmp_path / f"{name}-{column}.csv"
            bad.write_text("\n".join(_perturbed(lines, row, col)) + "\n",
                           encoding="utf-8")
            verdict = gate.check(bad)
            assert not verdict.ok, (name, column)
            assert verdict.rows_failed >= 1, (name, column)


def test_negative_rate_flags_match_the_integrator():
    # a drive strong enough to push rates below zero between frames
    from lmesim import BathParams, QubitParams, SystemConfig, integrate
    from lmesim import IntegratorConfig, maximum_entropy_state

    system = SystemConfig(
        QubitParams(10.0, 4.0, 2.0), QubitParams(5.0, 2.0, 0.2),
        BathParams(15.0, 10.0, 1.0), BathParams(10.0, 10.0, 1.0), 0.5, 0.5)
    traj = integrate(maximum_entropy_state(), 0.3371, system,
                     IntegratorConfig(step=5e-4))
    flags = oracle._negative_rate_flags(system, traj.times, 5e-4)
    assert traj.rate_negative.any() and not traj.rate_negative.all()
    assert list(flags.astype(bool)) == list(traj.rate_negative)


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for test in (test_metric_names_are_well_formed_and_declared,
                     test_seed_zero_is_the_documented_configuration,
                     test_negative_rate_flags_match_the_integrator):
            test()
        test_generated_configs_load(pathlib.Path(tmp))
        test_gate_rejects_any_single_perturbed_cell(pathlib.Path(tmp))
    print("selftest: all passed")
