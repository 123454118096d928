"""The package names that the benchmark in ``perfbench/`` imports or wraps.

The benchmark's tracer replaces module attributes with timing wrappers and
records an attribute that is gone as absent rather than failing, and its
oracle calls package functions positionally.  A refactor that renames,
moves or re-signs one of them would quietly blind the benchmark; these
tests make it fail loudly instead.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from conftest import make_system

from lmesim import dynamics, model, scenarios, thermo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (importing module, attribute): the attributes that the tracer wraps or
# that the oracle and the per-layer microbenchmarks import
ATTRIBUTES = [
    ("model", "tdlme_rhs"),
    ("model", "liouvillian_matrix"),
    ("model", "dissipation_rates"),
    ("model", "maximum_entropy_state"),
    ("model", "decay_rate"),
    ("thermo", "integrate"),
    ("thermo", "entropy_production_rate"),
    ("thermo", "effective_temperature_check"),
    ("thermo", "thermo_record"),
    ("dynamics", "default_step"),
    ("scenarios", "integrate"),
    ("scenarios", "find_tau0"),
    ("scenarios", "effective_temperature_check"),
    ("scenarios", "drift_diffusion"),
    ("scenarios", "relaxation_time"),
    ("scenarios", "steady_covariance"),
    ("scenarios", "steady_heat_currents"),
    ("scenarios", "DEFAULT_HORIZONS"),
    ("scenarios", "DRIVEN_HEADER"),
    ("scenarios", "EVOLVE_HEADER"),
    ("cli", "load_config"),
    ("cli", "run_scenario"),
    ("cli", "emit_csv"),
    ("gaussian", "covariance_from_density"),
    ("gaussian", "steady_heat_currents"),
    ("gaussian", "decay_rate"),
    ("gaussian", "lyapunov_solve"),
]


@pytest.mark.parametrize("module, attr", ATTRIBUTES)
def test_benchmarked_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"lmesim.{module}"), attr)


def test_benchmarked_functions_keep_their_call_shapes():
    # the positional calls the oracle and the microbenchmarks make
    driven = make_system(amp=(2.0, 2.0), freq=(0.2, 0.2))
    rho = model.maximum_entropy_state().astype(complex)
    assert model.tdlme_rhs(rho, 0.3, driven).shape == (4, 4)
    assert model.liouvillian_matrix(driven).shape == (16, 16)
    assert len(model.dissipation_rates(1, 0.3, driven)) == 3
    assert np.isfinite(model.decay_rate(2.0, driven.bath1))
    assert dynamics.default_step(driven) > 0
    record = thermo.thermo_record(rho, 0.3, driven)
    assert np.isfinite(record.sigma_dot)
    assert callable(scenarios.integrate)


def test_benchmark_only_imports_are_pinned():
    # an import that the module itself does not use (marked ``# noqa: F401``)
    # would be a copy kept only for the benchmark's tracer, which records a
    # missing name as absent: the package keeps none
    kept = set()
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    assert kept == set()


def test_benchmark_imports_resolve():
    # every ``from lmesim… import name`` that the benchmark's modules make,
    # at module level or inside a function, names a module or an attribute
    imported = set()
    for name in ("oracle", "run", "selftest", "tracer"):
        path = PERFBENCH / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lmesim":
                imported |= {(node.module, alias.name) for alias in node.names}
    assert ("lmesim.scenarios", "load_config") in imported     # run.py's config check
    missing = [f"{module}.{attr}" for module, attr in sorted(imported)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
