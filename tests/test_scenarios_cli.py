"""Config parsing, scenario tables, CSV emission and the command line."""

import ast
import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import make_system, src_env, table_rows

from lmesim import (
    ConfigError,
    CsvTable,
    IntegrationError,
    IntegratorConfig,
    PositivityError,
    ScenarioConfig,
    drift_diffusion,
    emit_csv,
    integrate,
    load_config,
    maximum_entropy_state,
    relaxation_time,
    run_scenario,
    trajectory_observables,
)
from lmesim import cli, dynamics, scenarios, thermo
from lmesim.cli import main
from lmesim.scenarios import DRIVEN_HEADER, EVOLVE_HEADER, kind_violations

BASE = """\
[system]
epsilon1 = 10.0
epsilon2 = 5.0
coupling = 0.5
zeta2 = 0.5

[bath1]
temperature = 15.0
kappa = 10.0
cutoff = 1.0

[bath2]
temperature = 10.0
kappa = 10.0
cutoff = 1.0
"""

SHORT_EVOLVE = """
[scenario]
kind = evolve
horizon = 0.02

[integrator]
step = 1e-4
"""

SMALL_BOUNDARY = """
[scenario]
kind = sweep_boundary
t_ratio_min = 1.0
t_ratio_max = 3.0
t_ratio_count = 3
eps_ratio_min = 0.5
eps_ratio_max = 2.5
eps_ratio_count = 3
"""


def write_config(tmp_path, extra="", base=BASE, name="run.ini"):
    path = tmp_path / name
    path.write_text(base + extra, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# kind / drive consistency


def test_kind_violations(base_system, driven_system):
    assert kind_violations("evolve", base_system) == []
    assert kind_violations("driven", driven_system) == []
    bad = kind_violations("warp", base_system)
    assert len(bad) == 1 and "scenario.kind" in bad[0]
    assert any("nonzero drive" in v for v in kind_violations("driven", base_system))
    assert any("undriven" in v for v in kind_violations("steady", driven_system))


# ---------------------------------------------------------------------------
# config loading


def test_load_config_minimal_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.kind == "evolve"
    assert cfg.horizon is None and cfg.out is None
    assert cfg.system.qubit1.epsilon == 10.0
    assert cfg.system.bath1.temperature == 15.0
    assert cfg.system.bath2.k_B == 1.0
    assert not cfg.system.is_driven
    assert cfg.integrator.step is None
    # default grids
    assert len(cfg.t_ratio_grid) == 41
    assert cfg.t_ratio_grid[0] == 1.0 and cfg.t_ratio_grid[-1] == 3.0
    assert len(cfg.eps_ratio_grid) == 41
    assert cfg.eps_ratio_grid[0] == 0.5 and cfg.eps_ratio_grid[-1] == 3.0
    assert len(cfg.detuning_grid) == 101
    assert cfg.detuning_grid[-1] == 10.0
    assert len(cfg.scaling_grid) == 13
    assert cfg.scaling_grid[0] == pytest.approx(1e-4) and cfg.scaling_grid[-1] == pytest.approx(1.0)
    assert cfg.scaling_axis == "zeta2"
    assert len(cfg.relaxation_grid) == 7
    assert cfg.relaxation_grid[0] == pytest.approx(0.1)


def test_load_config_scenario_and_integrator_sections(tmp_path):
    extra = """
[scenario]
kind = sweep_scaling
scaling_axis = lambda2
horizon = 4.5
out = table.csv
scaling_min = 0.01
scaling_max = 1.0
scaling_count = 5

[integrator]
step = 2e-4
record_stride = 10
"""
    cfg = load_config(write_config(tmp_path, extra))
    assert cfg.kind == "sweep_scaling"
    assert cfg.scaling_axis == "lambda2"
    assert cfg.horizon == 4.5
    assert cfg.out == "table.csv"
    assert len(cfg.scaling_grid) == 5
    assert cfg.scaling_grid[0] == pytest.approx(0.01)
    assert cfg.scaling_grid[2] == pytest.approx(0.1)
    assert cfg.integrator.step == 2e-4
    assert cfg.integrator.record_stride == 10


def test_load_config_driven(tmp_path):
    extra = """
[scenario]
kind = driven

[drive]
amplitude1 = 2.0
frequency1 = 0.2
amplitude2 = 2.0
frequency2 = 0.2
"""
    cfg = load_config(write_config(tmp_path, extra))
    assert cfg.kind == "driven"
    assert cfg.system.is_driven
    assert cfg.system.qubit1.drive_amplitude == 2.0
    assert cfg.system.qubit2.drive_frequency == 0.2


def test_load_config_collects_every_violation(tmp_path):
    body = BASE.replace("temperature = 15.0", "temperature = -5.0")
    body = body.replace("coupling = 0.5", "coupling = abc")
    extra = """
[scenario]
threads = 0

[weird]
x = 1
"""
    path = write_config(tmp_path, extra, base=body)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msgs = err.value.violations
    assert any("bath1.temperature must be positive and finite, got -5.0" in m for m in msgs)
    assert any("system.coupling is not a number" in m for m in msgs)
    assert any("unknown key scenario.threads" in m for m in msgs)
    assert any("unknown section [weird]" in m for m in msgs)
    assert len(msgs) >= 4


def test_load_config_missing_section(tmp_path):
    body = BASE.split("[bath2]")[0]
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, base=body))
    assert any("missing required section [bath2]" in m for m in err.value.violations)


def test_load_config_missing_required_key(tmp_path):
    body = BASE.replace("epsilon1 = 10.0\n", "")
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, base=body))
    assert any("missing required key system.epsilon1" in m for m in err.value.violations)


def test_load_config_unknown_key(tmp_path):
    for extra, key in [
        ("mystery = 3\n", "bath2.mystery"),     # lands in [bath2]
        ("\n[integrator]\npositivity_tol = 1e-8\n", "integrator.positivity_tol"),
    ]:
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, extra))
        assert any(f"unknown key {key}" in m for m in err.value.violations)


def test_readme_config_example_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        example = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    cfg = load_config(write_config(tmp_path, base=example))
    assert cfg.kind == "evolve" and cfg.horizon == 12.0
    assert cfg.system.bath1.k_B == 1.0 and cfg.system.is_driven
    assert cfg.integrator == IntegratorConfig(step=5e-5, record_stride=100)


def test_load_config_rejects_non_finite_and_log_grid_zero(tmp_path):
    body = BASE.replace("epsilon1 = 10.0", "epsilon1 = inf")
    extra = """
[scenario]
scaling_min = 0.0
t_ratio_count = 0
delta_max = -1.0

[integrator]
record_stride = 1.5
"""
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, extra, base=body))
    msgs = err.value.violations
    assert any("system.epsilon1 must be finite" in m for m in msgs)
    assert any("scenario.scaling_min must be positive for a log grid" in m for m in msgs)
    assert "scenario.t_ratio_count must be >= 1, got 0" in msgs
    assert "scenario.delta_max must be >= scenario.delta_min" in msgs
    assert "integrator.record_stride is not an integer: '1.5'" in msgs
    assert len(msgs) == 5


def test_load_config_reports_every_level_at_once(tmp_path):
    # one violation per owner: the parser, a qubit, a bath, the integrator,
    # the system and the scenario, all in one ConfigError
    body = (BASE.replace("epsilon1 = 10.0", "epsilon1 = -1.0")
            .replace("coupling = 0.5", "coupling = -0.5")
            .replace("kappa = 10.0\ncutoff = 1.0\n\n[bath2]",
                     "kappa = 0.0\ncutoff = 1.0\n\n[bath2]"))
    extra = """
[drive]
frequency2 = x

[integrator]
record_stride = 0

[scenario]
horizon = -3.0
scaling_axis = zeta
"""
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, extra, base=body))
    assert sorted(err.value.violations) == sorted([
        "drive.frequency2 is not a number: 'x'",
        "qubit1.epsilon must be positive and finite, got -1.0",
        "bath1.kappa must be positive and finite, got 0.0",
        "integrator.record_stride must be an integer >= 1, got 0",
        "system.coupling must be non-negative, got -0.5",
        "scenario.horizon must be positive and finite, got -3.0",
        "scenario.scaling_axis must be one of zeta2, lambda2; got 'zeta'",
    ])


def test_load_config_rejects_kind_drive_mismatch(tmp_path):
    cfg = load_config(write_config(tmp_path, "\n[scenario]\nkind = driven\n"))
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg)
    assert any("requires nonzero drive" in m for m in err.value.violations)

    extra = """
[drive]
amplitude1 = 2.0
frequency1 = 0.2
"""
    with pytest.raises(ConfigError) as err:
        run_scenario(load_config(write_config(tmp_path, extra)))
    assert any("undriven configuration" in m for m in err.value.violations)


def test_load_config_rejects_non_positive_ratio_grids(tmp_path):
    extra = """
[scenario]
t_ratio_min = 0.0
eps_ratio_min = -1.0
"""
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, extra))
    msgs = err.value.violations
    assert any("scenario.t_ratio_grid" in m and "got 0.0" in m for m in msgs)
    assert any("scenario.eps_ratio_grid" in m and "got -1.0" in m for m in msgs)


def test_load_config_rejects_detuning_that_breaks_positivity(tmp_path):
    extra = """
[scenario]
kind = sweep_detuning
delta_min = -5.0
delta_max = 1.0
"""
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, extra))
    assert any("scenario.epsilon2 + detuning_grid must be positive" in m
               for m in err.value.violations)


# ---------------------------------------------------------------------------
# scenario tables


def test_run_scenario_evolve_table(base_system):
    cfg = ScenarioConfig(
        kind="evolve", system=base_system,
        integrator=IntegratorConfig(step=1e-4), horizon=0.02,
    )
    table = run_scenario(cfg)
    assert table.header == EVOLVE_HEADER
    rows = table_rows(table)
    assert len(rows) == 5
    ts = [row[0] for row in rows]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.02)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    first = rows[0]
    assert first[7] == pytest.approx(math.log(4.0), rel=1e-12)      # entropy
    assert first[8] == pytest.approx(1.6551, rel=1e-3)              # Sigma_dot
    assert first[9] == pytest.approx(0.25, abs=1e-12)               # min_eig
    assert all(row[10] == 0 for row in rows)                        # rate flag


def test_run_scenario_driven_table(driven_system):
    cfg = ScenarioConfig(
        kind="driven", system=driven_system,
        integrator=IntegratorConfig(step=1e-4), horizon=0.02,
    )
    table = run_scenario(cfg)
    assert table.header == DRIVEN_HEADER
    assert len(table.header) == 13
    for row in table_rows(table):
        assert 0.0 <= row[11] < 1.0
        assert 0.0 <= row[12] < 1.0


def test_run_scenario_rejects_kind_mismatch(driven_system):
    cfg = ScenarioConfig(
        kind="evolve", system=driven_system, integrator=IntegratorConfig()
    )
    with pytest.raises(ConfigError):
        run_scenario(cfg)


@pytest.mark.parametrize("kind, field, value, message", [
    ("sweep_scaling", "scaling_axis", "zeta", "scenario.scaling_axis must be one of"),
    ("sweep_detuning", "detuning_grid", (-20.0,), "scenario.epsilon2 + detuning_grid must be positive"),
    ("sweep_boundary", "eps_ratio_grid", (-1.0,), "scenario.eps_ratio_grid must be positive"),
    ("sweep_boundary", "t_ratio_grid", (0.0,), "scenario.t_ratio_grid must be positive"),
    ("sweep_scaling", "scaling_grid", (math.nan,), "scenario.scaling_grid must be non-negative"),
    ("relaxation", "relaxation_grid", (-0.1,), "scenario.relaxation_grid must be non-negative"),
    ("evolve", "horizon", 0.0, "scenario.horizon must be positive and finite"),
    ("evolve", "horizon", -1.0, "scenario.horizon must be positive and finite"),
    ("relaxation", "horizon", math.inf, "scenario.horizon must be positive and finite"),
    ("evolve", "horizon", math.nan, "scenario.horizon must be positive and finite"),
])
def test_run_scenario_rejects_values_the_loader_rejects(base_system, kind, field,
                                                        value, message):
    # values a ScenarioConfig built without load_config can carry
    grids = {"t_ratio_grid": (1.0,), "eps_ratio_grid": (2.0,), "detuning_grid": (1.0,),
             "scaling_grid": (0.5,), "relaxation_grid": (1.0,)}
    cfg = ScenarioConfig(kind=kind, system=base_system, integrator=IntegratorConfig(),
                         **{**grids, field: value})
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg)
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith(message)


def test_run_scenario_steady_table(base_system):
    cfg = ScenarioConfig(
        kind="steady", system=base_system,
        integrator=IntegratorConfig(step=5e-4),
    )
    table = run_scenario(cfg)
    assert len(table.header) == 43
    rows = table_rows(table)
    assert len(rows) == 1
    row = dict(zip(table.header, rows[0]))
    trace = sum(row[f"rho_{i}{i}_re"] for i in range(4))
    assert trace == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= row["C11_re"] <= 1.0
    assert row["C12_im"] == pytest.approx(-row["C21_im"], abs=1e-12)
    assert row["J1"] == pytest.approx(-0.014070739193283721, abs=1e-9)
    assert row["Sigma_dot"] == pytest.approx(-4.690246397758578e-4, rel=1e-6)


def test_run_scenario_boundary_grid_order_and_status(base_system):
    cfg = ScenarioConfig(
        kind="sweep_boundary", system=base_system,
        integrator=IntegratorConfig(),
        t_ratio_grid=(1.0, 2.0, 3.0), eps_ratio_grid=(0.5, 1.5, 2.5),
    )
    table = run_scenario(cfg)
    assert table.header == ("T1_over_T2", "eps1_over_eps2", "Sigma_dot_ss", "status")
    rows = table_rows(table)
    assert len(rows) == 9
    assert [r[:2] for r in rows[:4]] == [
        (1.0, 0.5), (1.0, 1.5), (1.0, 2.5), (2.0, 0.5),
    ]
    assert all(r[3] == "ok" for r in rows)
    assert all(math.isfinite(r[2]) for r in rows)
    # sign flips across the eps-ratio = T-ratio boundary within the row
    by_t = {r[0]: [q for q in rows if q[0] == r[0]] for r in rows}
    assert by_t[2.0][0][2] > 0.0 > by_t[2.0][2][2]


def test_sweep_records_numerical_failures_as_status(base_system):
    # zeta^2 = 0 leaves the drift without damping: not Hurwitz at any point
    cfg = ScenarioConfig(
        kind="sweep_boundary", system=replace(base_system, zeta2=0.0),
        integrator=IntegratorConfig(),
        t_ratio_grid=(1.0, 2.0), eps_ratio_grid=(0.5,),
    )
    rows = table_rows(run_scenario(cfg))
    assert [r[3] for r in rows] == ["error:StabilityError"] * 2
    assert all(math.isnan(r[2]) for r in rows)
    # a relaxation point's StabilityError, from its τ_r, becomes its row too
    cfg = ScenarioConfig(kind="relaxation", system=base_system,
                         integrator=IntegratorConfig(), relaxation_grid=(0.0, 1.0))
    rows = table_rows(run_scenario(cfg))
    assert rows[0][0] == 0.0 and rows[0][4] == "error:StabilityError"
    assert all(math.isnan(v) for v in rows[0][1:4])
    assert rows[1][4] == "ok"


SWEEP_GRIDS = {
    "sweep_boundary": {"t_ratio_grid": (1.0, 2.0), "eps_ratio_grid": (0.5, 1.5)},
    "sweep_detuning": {"detuning_grid": (0.0, 2.0)},
    "sweep_scaling": {"scaling_grid": (0.1, 1.0)},
    "relaxation": {"relaxation_grid": (1.0,)},
}


@pytest.mark.parametrize("kind, empty", [(kind, name) for kind, grids in SWEEP_GRIDS.items()
                                         for name in grids])
def test_sweep_with_an_empty_grid_writes_only_the_header(base_system, kind, empty, tmp_path):
    cfg = ScenarioConfig(kind=kind, system=base_system, integrator=IntegratorConfig(),
                         **{**SWEEP_GRIDS[kind], empty: ()})
    table = run_scenario(cfg)
    assert [len(cells) for cells in table.columns] == [0] * len(table.header)
    emit_csv(table, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_text() == ",".join(table.header) + "\n"


def test_sweep_lets_programming_errors_propagate(base_system, monkeypatch):
    def broken(*_args):
        raise TypeError("bug")

    monkeypatch.setattr(scenarios, "chain_stack", broken)
    cfg = ScenarioConfig(
        kind="sweep_boundary", system=base_system,
        integrator=IntegratorConfig(),
        t_ratio_grid=(1.0,), eps_ratio_grid=(0.5,),
    )
    with pytest.raises(TypeError, match="bug"):
        run_scenario(cfg)


def test_steady_sweeps_match_per_point_solves(base_system):
    # the stacked solve gives each point the bits of its own scalar solve
    def j1_alone(system):
        cov = scenarios.steady_covariance(scenarios.drift_diffusion(system))
        return scenarios.steady_heat_currents(cov, system)

    cfg = ScenarioConfig(
        kind="sweep_boundary", system=base_system,
        integrator=IntegratorConfig(),
        t_ratio_grid=(1.0, 2.5), eps_ratio_grid=(0.5, 1.5, 2.5),
    )
    for tr, er, sigma, status in table_rows(run_scenario(cfg)):
        system = replace(
            base_system,
            bath1=replace(base_system.bath1,
                          temperature=tr * base_system.bath2.temperature),
            qubit1=replace(base_system.qubit1,
                           epsilon=er * base_system.qubit2.epsilon),
        )
        j1, j2 = j1_alone(system)
        assert status == "ok"
        assert sigma == -(system.bath1.beta * j1 + system.bath2.beta * j2)

    cfg = replace(cfg, kind="sweep_scaling", scaling_axis="lambda2",
                  scaling_grid=(0.01, 0.25))
    for lam2, mag, _ in table_rows(run_scenario(cfg)):
        assert mag == abs(j1_alone(replace(base_system, coupling=math.sqrt(lam2)))[0])


def test_scaling_sweep_marks_only_the_failed_point(base_system):
    # zeta^2 = 0 is not Hurwitz; its neighbours in the same stack still solve
    cfg = ScenarioConfig(
        kind="sweep_scaling", system=base_system,
        integrator=IntegratorConfig(), scaling_grid=(0.5, 0.0, 1.0),
    )
    rows = table_rows(run_scenario(cfg))
    assert [r[2] for r in rows] == ["ok", "error:StabilityError", "ok"]
    assert math.isnan(rows[1][1])
    alone = table_rows(run_scenario(replace(cfg, scaling_grid=(0.5, 1.0))))
    assert [rows[0], rows[2]] == alone


def test_run_scenario_detuning_sign_change(base_system):
    cfg = ScenarioConfig(
        kind="sweep_detuning", system=base_system,
        integrator=IntegratorConfig(),
        detuning_grid=(0.0, 2.0, 4.0, 6.0),
    )
    table = run_scenario(cfg)
    assert table.header == ("delta_eps", "J1_ss", "status")
    rows = table_rows(table)
    assert all(r[2] == "ok" for r in rows)
    # resonant point takes heat from the hot bath; far-detuned reverses
    assert rows[0][1] > 0.0
    assert rows[2][1] < 0.0
    assert rows[3][1] < 0.0


def test_run_scenario_scaling_tables(base_system):
    cfg = ScenarioConfig(
        kind="sweep_scaling", system=base_system,
        integrator=IntegratorConfig(),
        scaling_axis="zeta2", scaling_grid=(0.01, 0.1, 1.0),
    )
    table = run_scenario(cfg)
    assert table.header == ("zeta2", "J1_ss_abs", "status")
    mags = table.columns[1]
    assert mags[0] < mags[1] < mags[2]

    # lambda2 = 0.25 restores the workhorse coupling 0.5
    cfg = replace(cfg, scaling_axis="lambda2", scaling_grid=(0.25,))
    table = run_scenario(cfg)
    assert table.header[0] == "lambda2"
    assert table.columns[1] == [pytest.approx(0.014070739193283721, rel=1e-9)]


def test_run_scenario_relaxation_point(base_system):
    cfg = ScenarioConfig(
        kind="relaxation", system=base_system,
        integrator=IntegratorConfig(), relaxation_grid=(1.0,),
    )
    table = run_scenario(cfg)
    assert table.header == ("zeta2", "tau0", "tau_r", "ratio", "status")
    (zeta2, tau0, tau_r, ratio, status) = table_rows(table)[0]
    assert status == "ok"
    assert zeta2 == 1.0
    assert 0.0 < tau_r < 0.5
    assert tau0 == pytest.approx(ratio * tau_r, rel=1e-12)
    assert 3.0 < ratio < 4.5


def test_relaxation_point_propagates_only_to_its_crossing_block(base_system, monkeypatch):
    # the slowest point of the benchmark's relaxation workload at seed 0:
    # ζ² 0.25 of the workhorse system, 8 τ_r and 1 864 frames, whose Σ̇
    # first turns from > 0 to ≤ 0 between frames 891 and 892
    system = replace(base_system, zeta2=0.25)
    traj = integrate(maximum_entropy_state(),
                     8.0 * relaxation_time(drift_diffusion(system)), system)
    sigmas = trajectory_observables(traj.times, traj.states, system, check=False).sigma_dot
    k = int(np.flatnonzero((sigmas[:-1] > 0.0) & (sigmas[1:] <= 0.0))[0])
    assert (len(traj.times), k) == (1864, 891)

    computed = []
    original = dynamics._frames

    def counting(*args):
        for block in original(*args):
            computed.extend(block[0].tolist())
            yield block

    monkeypatch.setattr(thermo, "_frames", counting)
    cfg = ScenarioConfig(kind="relaxation", system=base_system,
                         integrator=IntegratorConfig(), relaxation_grid=(0.25,))
    (row,) = table_rows(run_scenario(cfg))
    assert row[-1] == "ok"
    assert traj.times[k] < row[1] < traj.times[k + 1]
    # seven blocks of 128 frames: up to the one that holds frames 891 and 892
    assert computed == traj.times[:7 * thermo.FRAME_BLOCK].tolist()


def test_run_scenario_relaxation_reports_short_horizon(base_system):
    cfg = ScenarioConfig(
        kind="relaxation", system=base_system,
        integrator=IntegratorConfig(), relaxation_grid=(1.0,),
        horizon=0.05,
    )
    row = table_rows(run_scenario(cfg))[0]
    assert row[4] == "error:insufficient_horizon"
    assert math.isnan(row[1]) and math.isnan(row[3])
    assert row[2] > 0.0


def test_sweep_is_deterministic_across_runs(tmp_path, base_system):
    cfg = ScenarioConfig(
        kind="sweep_boundary", system=base_system,
        integrator=IntegratorConfig(),
        t_ratio_grid=(1.0, 2.0, 3.0), eps_ratio_grid=(0.5, 1.5, 2.5),
    )
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    emit_csv(run_scenario(cfg), paths[0])
    emit_csv(run_scenario(cfg), paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_layout(tmp_path):
    table = CsvTable(
        ("a", "b", "c", "d"),
        [(1.0 / 3.0, float("nan")), (7, -2), (True, False), ("ok", 'say "hi", twice')],
    )
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    blob = path.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
    lines = blob.decode("utf-8").splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1].startswith("3.3333333333333331e-01,7,1,ok")
    assert lines[2].split(",", 2)[0] == "nan"
    assert '"say ""hi"", twice"' in lines[2]


def test_emit_csv_floats_round_trip(tmp_path):
    values = (1.0 / 3.0, math.pi, 1e-300, -2.5e-17, 0.0, 123456.75)
    table = CsvTable(("x",), [values])
    path = tmp_path / "f.csv"
    emit_csv(table, path)
    lines = path.read_text().splitlines()[1:]
    for text, want in zip(lines, values):
        assert float(text) == want


@pytest.mark.parametrize("bad", [1, 3, 4])
def test_csv_table_names_the_first_column_of_the_wrong_length(bad):
    header = ("a", "b", "c", "d", "e")
    columns = [[float(k) for k in range(10)] for _ in header]
    columns[bad] = columns[bad][:7]
    for later in columns[bad + 1:]:
        later.append(1.0)
    with pytest.raises(ValueError,
                       match=rf"^column {header[bad]} has 7 cells, column a has 10$"):
        CsvTable(header, columns)
    CsvTable(header[:bad], columns[:bad])


@pytest.mark.parametrize("count", [0, 1, 3])
def test_csv_table_rejects_a_column_count_other_than_the_header_width(count):
    with pytest.raises(ValueError, match=rf"^{count} columns, header has 2$"):
        CsvTable(("x", "y"), [[1.0]] * count)
    with pytest.raises(ValueError, match=r"^0 columns, header has 0$"):
        CsvTable((), [])


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "e.csv"
    table = CsvTable(("x", 'say "hi", y'), [[], ()])
    emit_csv(table, path)
    assert path.read_text() == 'x,"say ""hi"", y"\n'
    assert path.read_bytes() == per_cell_csv(table)


def format_cell(value) -> str:
    """One cell as emit_csv formatted it cell by cell; the byte oracle."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def per_cell_csv(table) -> bytes:
    lines = [",".join(format_cell(name) for name in table.header)]
    lines += [",".join(format_cell(v) for v in row) for row in table_rows(table)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def awkward_row(row, k):
    """`row` with its cells swapped for values of the same kind that are
    awkward to format: NaN, inf, -0.0, NumPy scalars, text to quote."""
    floats = (math.nan, -0.0, math.inf, np.float64(1.0 / 3.0), -1e-300, np.float32(0.1))
    ints = (np.True_, np.int64(-7), False, 12)
    texts = ('error:"quoted", text', 'say "hi"', "two\nlines", "carriage\rreturn",
             "error:StabilityError", "ok")
    swapped = []
    for j, value in enumerate(row):
        if isinstance(value, float):
            swapped.append(floats[(j + k) % len(floats)])
        elif isinstance(value, int):
            swapped.append(ints[(j + k) % len(ints)])
        else:
            swapped.append(texts[(j + k) % len(texts)])
    return tuple(swapped)


@pytest.mark.parametrize("kind", scenarios.KINDS)
def test_emit_csv_writes_the_per_cell_bytes(tmp_path, base_system, driven_system, kind):
    # small grids with a failing point: zeta^2 = 0 in the scaling sweep, a
    # horizon too short for tau0 in the relaxation sweep
    cfg = ScenarioConfig(
        kind=kind, system=driven_system if kind == "driven" else base_system,
        integrator=IntegratorConfig(step=1e-4), horizon=0.02,
        t_ratio_grid=(1.0, 2.5), eps_ratio_grid=(0.5, 2.5),
        detuning_grid=(0.0, 5.0), scaling_grid=(0.0, 0.5),
        relaxation_grid=(0.5,),
    )
    table = run_scenario(cfg)
    rows = table_rows(table)
    rows += [awkward_row(rows[0], k) for k in range(5)]
    table = CsvTable(table.header, list(zip(*rows)))
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    assert path.read_bytes() == per_cell_csv(table)


def test_emit_csv_formats_repeated_cells_once_with_the_per_cell_bytes(tmp_path):
    # columns that repeat are formatted once per distinct value; 0.0 == -0.0
    # and NaN != NaN must not merge or split their texts
    floats = (0.0, -0.0, math.nan, float("nan"), math.inf, -math.inf, 0.1, 0.1, 1e-300)
    no_zero = (math.nan, float("nan"), math.inf, -math.inf, 1.0 / 3.0, 2.5)
    mixed = (np.float64(0.5), np.float32(0.1), True, np.int64(-7), 0.5, -0.0)
    ints = (True, np.int64(3), False, 3, np.bool_(True))
    texts = ('error:"quoted", text', "two\nlines", "ok", 'say "hi"', "ok")
    rows = [(floats[k % 9], no_zero[k % 6], mixed[k % 6], ints[k % 5], texts[k % 5],
             np.float64(floats[k % 9]), 1.0 / (k + 1))
            for k in range(45)]
    columns = list(zip(*rows))
    table = CsvTable(("a", "b", "c", "d", "e", "f", "g"), columns)
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    assert path.read_bytes() == per_cell_csv(table)
    # a column with a zero keeps %.16e; the zero-free one is deduplicated
    assert scenarios._column(columns[0]) == ("%.16e", columns[0])
    assert scenarios._column(columns[1])[0] == "%s"


def test_emit_csv_decides_columns_whose_repeats_sit_in_their_second_half(tmp_path):
    # a column is formatted once per distinct value when at least half of its
    # cells repeat: repeats that all sit in the second half count, and a first
    # half that repeats does not qualify a column whose rest is distinct
    for n in (9, 10):
        values = [1.0 / (k + 3) for k in range(n)]
        half = n // 2
        repeating = tuple(values[:half] + (values[:half] * 2)[:n - half])
        distinct = tuple(values[:half + 1] + values[:1] * (n - half - 1))
        late = tuple(values[:1] + values[:n - 1])
        assert len(set(repeating)) == half and len(set(distinct)) == half + 1
        assert len(set(late[:half + 1])) == half and len(set(late)) > half
        assert scenarios._column(repeating)[0] == "%s"
        assert scenarios._column(distinct) == ("%.16e", distinct)
        assert scenarios._column(late) == ("%.16e", late)
        table = CsvTable(("a", "b", "c"), [repeating, distinct, late])
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        assert path.read_bytes() == per_cell_csv(table)


@pytest.mark.parametrize("blocks, extra", [(2, 37), (3, 0)])
def test_emit_csv_blocks_give_the_per_cell_bytes(tmp_path, blocks, extra):
    # whole blocks of EMIT_BLOCK rows and a remainder, with cells awkward to
    # format in every kind of column and a header to quote
    n = blocks * scenarios.EMIT_BLOCK + extra
    floats = (math.nan, -0.0, math.inf, -math.inf, np.float64(1.0 / 3.0), 0.1, np.float32(0.1))
    ints = (True, np.int64(-7), False, 12, np.bool_(True))
    texts = ('error:"quoted", text', "two\nlines", "carriage\rreturn", "ok", "a,b")
    columns = [
        [1.0 / (k + 1) for k in range(n)],
        [floats[k % 7] for k in range(n)],
        [ints[k % 5] for k in range(n)],
        [texts[k % 5] for k in range(n)],
        [(floats + ints + texts)[k % 17] for k in range(n)],
        [0.5 * (k % 3) + 1.0 for k in range(n)],
    ]
    table = CsvTable(("t", 'say "hi"', "a,b", "two\nlines", "cr\rname", "f"), columns)
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    assert path.read_bytes() == per_cell_csv(table)


def test_emit_csv_reads_back_with_the_csv_module(tmp_path):
    # header and text cells holding the characters that RFC 4180 quotes read
    # back as written, one record per row
    header = ("x", 'say "hi"', "a,b", "two\nlines", "cr\rname", "crlf\r\nname")
    texts = ('error:"quoted", text', "two\nlines", "carriage\rreturn", "crlf\r\n", "ok", "")
    columns = [[0.25 * k for k in range(6)]]
    columns += [[texts[(j + k) % 6] for k in range(6)] for j in range(5)]
    table = CsvTable(header, columns)
    path = tmp_path / "t.csv"
    emit_csv(table, path)
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    assert records[0] == list(header)
    assert [(float(x), *rest) for x, *rest in records[1:]] == table_rows(table)


def test_boundary_sweep_keeps_no_object_per_point(base_system):
    # a table holds one list per column: a 101 x 101 grid leaves no tuple, or
    # any other object that the garbage collector tracks, per point
    grid = tuple(np.linspace(1.0, 3.0, 101).tolist())
    cfg = ScenarioConfig(kind="sweep_boundary", system=base_system,
                         integrator=IntegratorConfig(), t_ratio_grid=grid, eps_ratio_grid=grid)
    run_scenario(replace(cfg, t_ratio_grid=grid[:2], eps_ratio_grid=grid[:2]))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        table = run_scenario(cfg)
        created = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(table.columns[0]) == 101 * 101
    assert created < 100


def test_boundary_blocks_give_the_one_block_table(base_system, monkeypatch):
    cfg = ScenarioConfig(
        kind="sweep_boundary", system=base_system,
        integrator=IntegratorConfig(),
        t_ratio_grid=(1.0, 2.0, 3.0), eps_ratio_grid=(0.5, 1.5, 2.5),
    )
    calls = []
    stack = scenarios.chain_stack
    monkeypatch.setattr(scenarios, "chain_stack", lambda *args: calls.append(args) or stack(*args))

    def bits(table):
        return [(*(x.hex() for x in row[:3]), row[3]) for row in table_rows(table)]

    one_block = bits(run_scenario(cfg))
    assert len(calls) == 1
    for block, count in ((9, 1), (6, 2), (3, 3), (1, 3)):
        calls.clear()
        monkeypatch.setattr(scenarios, "BOUNDARY_BLOCK", block)
        assert bits(run_scenario(cfg)) == one_block
        assert len(calls) == count
    assert [row[:2] for row in one_block] == [
        (tr.hex(), er.hex()) for tr in cfg.t_ratio_grid for er in cfg.eps_ratio_grid]


# ---------------------------------------------------------------------------
# command line


def test_cli_evolve_writes_table(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["evolve", "--config", write_config(tmp_path, SHORT_EVOLVE),
               "--out", str(out)])
    assert rc == 0
    assert f"wrote {out} (5 rows)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 6


def test_cli_default_output_name_is_the_kind(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, SHORT_EVOLVE)
    monkeypatch.chdir(tmp_path)
    assert main(["evolve", "--config", path]) == 0
    assert (tmp_path / "evolve.csv").exists()
    assert "wrote evolve.csv" in capsys.readouterr().out


def test_cli_subcommand_overrides_config_kind(tmp_path, capsys, monkeypatch):
    # config says steady; the evolve subcommand wins
    extra = SHORT_EVOLVE.replace("kind = evolve", "kind = steady")
    path = write_config(tmp_path, extra)
    monkeypatch.chdir(tmp_path)
    assert main(["evolve", "--config", path]) == 0
    assert (tmp_path / "evolve.csv").exists()
    # the subcommands are the dispatch table's kinds, in its order, and each
    # one reaches its own builder in that table
    parser = cli._build_parser()
    subcommands = next(action.choices for action in parser._actions if action.dest == "command")
    assert list(subcommands) == [kind.replace("_", "-") for kind in scenarios.KINDS]
    assert scenarios.KINDS == tuple(scenarios._TABLES) == (
        "evolve", "steady", "sweep_boundary", "sweep_detuning", "sweep_scaling",
        "relaxation", "driven")
    reached = []
    for kind in scenarios.KINDS:
        monkeypatch.setitem(scenarios._TABLES, kind, lambda cfg, kind=kind: (
            reached.append((kind, cfg.kind)) or CsvTable(("x",), [(0.0,)])))
    driven = write_config(tmp_path, SHORT_EVOLVE + "\n[drive]\namplitude1 = 2.0\n"
                          "frequency1 = 0.2\n", name="driven.ini")
    for kind in scenarios.KINDS:
        assert main([kind.replace("_", "-"), "--config",
                     driven if kind == "driven" else path]) == 0
    assert reached == [(kind, kind) for kind in scenarios.KINDS]


def test_cli_step_override_changes_the_frame_grid(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["evolve", "--config", write_config(tmp_path, SHORT_EVOLVE),
               "--out", str(out), "--step", "4e-3"])
    assert rc == 0
    # 0.02 / 4e-3 = 5 steps, recorded every step: 6 frames vs 5 before
    assert "(6 rows)" in capsys.readouterr().out


def test_cli_driven_config_needs_no_kind_line(tmp_path, capsys):
    # the subcommand alone decides the kind; the file's default is evolve
    extra = """
[scenario]
horizon = 0.01

[integrator]
step = 1e-3

[drive]
amplitude1 = 2.0
frequency1 = 0.2
"""
    out = tmp_path / "d.csv"
    rc = main(["driven", "--config", write_config(tmp_path, extra),
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert out.read_text().splitlines()[0].split(",") == list(DRIVEN_HEADER)


def test_cli_sweep_subcommand_is_hyphenated(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = main(["sweep-boundary", "--config",
               write_config(tmp_path, SMALL_BOUNDARY), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T1_over_T2,eps1_over_eps2,Sigma_dot_ss,status"
    assert len(lines) == 10
    assert all(line.endswith(",ok") for line in lines[1:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["steady", "sweep-boundary"])
def test_cli_runs_with_a_cold_bath(tmp_path, capsys, kind):
    # β₂ · 2ε₂ = 1000: the bath-2 rates take their finite limits, where
    # math.expm1 and math.sinh overflow
    body = BASE.replace("temperature = 10.0", "temperature = 0.01")
    extra = SMALL_BOUNDARY if kind == "sweep-boundary" else ""
    out = tmp_path / "cold.csv"
    rc = main([kind, "--config", write_config(tmp_path, extra, base=body), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    _, *rows = (line.split(",") for line in out.read_text().splitlines())
    values = np.array([[float(x) for x in row if x != "ok"] for row in rows])
    assert np.all(np.isfinite(values))
    if kind == "sweep-boundary":
        assert len(rows) == 9 and all(row[-1] == "ok" for row in rows)


def test_cli_reports_config_violations(tmp_path, capsys):
    body = BASE.replace("temperature = 15.0", "temperature = -5.0")
    rc = main(["evolve", "--config", write_config(tmp_path, base=body)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error: bath1.temperature must be positive and finite, got -5.0" in err
    # a file that loads but does not fit the subcommand: run_scenario rejects it
    out = tmp_path / "a.csv"
    rc = main(["driven", "--config", write_config(tmp_path, SHORT_EVOLVE), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario.kind=driven requires nonzero drive")
    assert not out.exists()


def test_loader_and_cli_reject_a_drive_period_that_overflows(tmp_path, capsys):
    path = write_config(tmp_path, "\n[drive]\namplitude1 = 2.0\nfrequency1 = 1e-310\n"
                        "\n[scenario]\nkind = driven\n")
    want = "qubit1.drive_frequency must be 0 or give a finite period 2π/ω, got 1e-310"
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == [want]
    out = tmp_path / "a.csv"
    assert main(["driven", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {want}\n"
    assert not out.exists()


def test_cli_rejects_a_default_section(tmp_path, capsys):
    # configparser copies [DEFAULT]'s keys into every section by default, and
    # the loader then named keys that the file never wrote (system.kappa)
    out = tmp_path / "a.csv"
    path = write_config(tmp_path, "\n[scenario]\nkind = steady\n\n[DEFAULT]\nkappa = 10.0\n")
    assert main(["steady", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: unknown section [DEFAULT]\n"
    assert not out.exists()


def test_cli_reports_missing_and_malformed_files(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "config error:" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("no section header here\n")
    assert main(["evolve", "--config", str(bad)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_cli_rejects_bad_flag_values(tmp_path, capsys):
    path = write_config(tmp_path, SHORT_EVOLVE)
    assert main(["evolve", "--config", path, "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert main(["evolve", "--config", path, "--step", "-1"]) == 1
    assert "--step" in capsys.readouterr().err


def test_cli_threads_flag_changes_nothing(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_BOUNDARY)
    outs = [tmp_path / "plain.csv", tmp_path / "threads.csv"]
    assert main(["sweep-boundary", "--config", path, "--out", str(outs[0])]) == 0
    assert main(["sweep-boundary", "--config", path, "--out", str(outs[1]),
                 "--threads", "3"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("kind", ["evolve", "driven"])
def test_cli_rejects_non_finite_step(tmp_path, capsys, kind):
    drive = "\n[drive]\namplitude1 = 2.0\nfrequency1 = 0.2\n" if kind == "driven" else ""
    path = write_config(tmp_path, SHORT_EVOLVE + drive)
    assert main([kind, "--config", path, "--step", "inf"]) == 1
    assert "config error: --step: step must be positive and finite, got inf" \
        in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_reports_unwritable_output(tmp_path, capsys, monkeypatch, target,
                                       source):
    out = tmp_path / "missing" / "a.csv" if target == "missing_dir" else tmp_path
    if source == "flag":
        argv = ["--out", str(out)]
        extra = SHORT_EVOLVE
    else:
        argv = []
        extra = SHORT_EVOLVE.replace("horizon = 0.02", f"horizon = 0.02\nout = {out}")

    def never(_cfg):
        pytest.fail("the scenario ran before the output path was checked")

    monkeypatch.setattr(cli, "run_scenario", never)
    rc = main(["evolve", "--config", write_config(tmp_path, extra), *argv])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ")
    assert str(out) in captured.err
    assert "wrote" not in captured.out
    assert not (tmp_path / "missing").exists()


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    body = BASE.replace("zeta2 = 0.5", "zeta2 = 0.0")
    rc = main(["steady", "--config", write_config(tmp_path, base=body)])
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_cli_driven_run_that_leaves_the_state_space_exits_2(tmp_path, capsys):
    # a drive fast against the bath memory: a rate turns negative, the state
    # loses positivity at t ≈ 0.81 while its entries stay below the
    # divergence bound, and the observables' log-spectrum check stops the run
    body = """
[system]
epsilon1 = 13.435
epsilon2 = 7.441
coupling = 0.06
zeta2 = 0.313

[bath1]
temperature = 14.338
kappa = 5.36
cutoff = 0.781

[bath2]
temperature = 14.036
kappa = 5.36
cutoff = 0.781

[drive]
amplitude1 = 5.416
frequency1 = 0.126
amplitude2 = 4.422
frequency2 = 0.78

[scenario]
horizon = 1.0
"""
    out = tmp_path / "unphysical.csv"
    with pytest.warns(RuntimeWarning, match="state eigenvalue"):
        rc = main(["driven", "--config", write_config(tmp_path, base=body),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("numerical failure: state at t=0.81")
    assert not out.exists()


def _driven_ini(eps, coupling, zeta2, temps, kappa, cutoff, amps, freqs):
    return "\n".join([
        "[system]", f"epsilon1 = {eps[0]}", f"epsilon2 = {eps[1]}",
        f"coupling = {coupling}", f"zeta2 = {zeta2}",
        *(line for i in (1, 2) for line in (
            f"[bath{i}]", f"temperature = {temps[i - 1]}", f"kappa = {kappa}",
            f"cutoff = {cutoff}")),
        "[drive]", *(f"{key}{i} = {values[i - 1]}" for i in (1, 2)
                     for key, values in (("amplitude", amps), ("frequency", freqs))),
        "[scenario]", "kind = driven", "horizon = 1.0", "",
    ])


# driven runs that leave the state space, each failure with its message: the
# corner of the property tests' driven ranges grows past the entry bound
# (γ_z reaches -191.5), and the system of the test above loses positivity;
# in both, every frame from the first on has a negative rate
LEAVING_THE_STATE_SPACE = {
    "corner": (
        _driven_ini((15.0, 15.0), 0.5, 1.0, (30.0, 30.0), 20.0, 5.0,
                    (10.0, 10.0), (5.0, 5.0)),
        IntegrationError, 0.04500445193656827,
        r"state diverged: largest \|entry\| 1\.784e\+01 above 2\.0; a jump rate "
        r"first went negative before the frame at t=0\.00500049"),
    "positivity": (
        _driven_ini((13.435, 7.441), 0.06, 0.313, (14.338, 14.036), 5.36, 0.781,
                    (5.416, 4.422), (0.126, 0.78)),
        PositivityError, 0.810806,
        r"state at t=0\.810806 has negative eigenvalue -1\.220e-04 beyond tolerance; "
        r"a jump rate first went negative before the frame at t=0\.00500497"),
}


@pytest.mark.parametrize("name", LEAVING_THE_STATE_SPACE)
def test_driven_run_that_leaves_the_state_space_names_the_negative_rate(name, tmp_path,
                                                                        capsys):
    body, error, time, message = LEAVING_THE_STATE_SPACE[name]
    path = write_config(tmp_path, base=body)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # the clamped log's
        with pytest.raises(error) as err:
            run_scenario(load_config(path))
        out = tmp_path / "unphysical.csv"
        rc = main(["driven", "--config", path, "--out", str(out)])
    assert re.fullmatch(message, str(err.value))
    assert err.value.time == pytest.approx(time, abs=1e-6)
    assert rc == 2
    assert re.fullmatch(f"numerical failure: {message}\n", capsys.readouterr().err)
    assert not out.exists()


def test_cli_unknown_scenario_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["warp", "--config", "x.ini"])
    assert err.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "lmesim", "evolve",
         "--config", write_config(tmp_path, SHORT_EVOLVE), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert out.exists()


# every CLI kind in a fresh interpreter, then an import of the package and
# of each of its submodules; the script prints the SciPy modules loaded
# after each CLI kind and after the imports
FOOTPRINT_SCRIPT = """
import json, sys
import lmesim.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
def masked_modules():   # numpy.ma, not numpy.matrixlib
    return sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
undriven, driven, out = sys.argv[1:]
after_cli = {}
masked = {}
for kind in cli.KINDS:
    path = driven if kind == "driven" else undriven
    if cli.main([kind.replace("_", "-"), "--config", path, "--out", out]) != 0:
        sys.exit(f"{kind} failed")
    after_cli[kind] = scipy_modules()
    masked[kind] = masked_modules()
import importlib, pkgutil
import lmesim
# __main__ runs the CLI on import; it imports nothing but lmesim.cli
submodules = [m.name for m in pkgutil.iter_modules(lmesim.__path__) if m.name != "__main__"]
for name in submodules:
    importlib.import_module(f"lmesim.{name}")
print(json.dumps([after_cli, submodules, scipy_modules(), masked]))
"""

TINY_GRIDS = """
[scenario]
horizon = 0.02
t_ratio_count = 2
eps_ratio_count = 2
delta_count = 2
scaling_count = 2
relax_zeta2_min = 0.5
relax_zeta2_count = 2

[integrator]
step = 1e-4
"""


def scipy_imports(path):
    """The ``import scipy…``/``from scipy… import`` statements of a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [n for n in names if n.split(".")[0] == "scipy"]
    return found


def test_cli_runs_load_no_quadrature_stack(tmp_path):
    # importing any of SciPy (scipy.linalg alone takes about 0.2 s) would add
    # to every CLI start-up; no CLI kind may load it, no module of the
    # package loads it on import, and no module has a SciPy import statement
    # anywhere (the quadrature oracles that used it live in the tests); nor
    # may any kind load numpy.ma, which np.unique without return_inverse
    # imports on its first call (12-24 ms)
    undriven = write_config(tmp_path, TINY_GRIDS)
    driven = write_config(tmp_path, TINY_GRIDS + "\n[drive]\namplitude1 = 2.0\n"
                          "frequency1 = 0.2\n", name="driven.ini")
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, undriven, driven,
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=300, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    after_cli, submodules, after_import, masked = json.loads(proc.stdout.splitlines()[-1])
    assert after_cli == {kind: [] for kind in cli.KINDS}
    assert masked == {kind: [] for kind in cli.KINDS}
    assert after_import == []
    sources = sorted(Path(scenarios.__file__).parent.glob("*.py"))
    assert len(sources) == len(submodules) + 2   # plus __init__ and __main__
    assert {path.name: scipy_imports(path) for path in sources} \
        == {path.name: [] for path in sources}


def _fresh_interpreter(script, **env):
    """stdout of ``script`` run by a fresh interpreter on the source tree, with
    OPENBLAS_NUM_THREADS unset unless given in ``env``."""
    environ = src_env(**env)
    if "OPENBLAS_NUM_THREADS" not in env:
        environ.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, env=environ)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_no_numpy():
    # each public name loads its module on first use
    script = """
import json, sys
import lmesim
before = "numpy" in sys.modules
names = sorted(dir(lmesim))
from lmesim import *
print(json.dumps([before, "numpy" in sys.modules, list(lmesim.__all__), names,
                  integrate.__module__, hasattr(lmesim, "no_such_name")]))
"""
    before, after, exported, names, module, missing = json.loads(_fresh_interpreter(script))
    assert not before
    assert after
    assert len(exported) == len(set(exported))
    assert set(exported) <= set(names)
    assert module == "lmesim.dynamics"
    assert not missing


THREADS_SCRIPT = """
import json, os
import lmesim.cli
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_loads_numpy_with_one_blas_thread():
    # an idle OpenBLAS worker spins on a CPU; the CLI's process has no
    # worker, and the variable that keeps it out is gone again afterwards
    assert json.loads(_fresh_interpreter(THREADS_SCRIPT)) == [1, None]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc, on a host with two CPUs or more")
def test_cli_keeps_an_explicit_blas_thread_count():
    threads, setting = json.loads(_fresh_interpreter(THREADS_SCRIPT, OPENBLAS_NUM_THREADS="2"))
    assert threads > 1
    assert setting == "2"
