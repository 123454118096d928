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

# (importing module, attribute): the attributes that the tracer wraps or
# that the oracle and the per-layer microbenchmarks import
ATTRIBUTES = [
    ("model", "tdlme_rhs"),
    ("model", "liouvillian_matrix"),
    ("model", "dissipation_rates"),
    ("model", "maximum_entropy_state"),
    ("model", "decay_rate"),
    ("model", "memory_correction_rate"),
    ("thermo", "dissipator"),
    ("thermo", "integrate"),
    ("thermo", "entropy_production_rate"),
    ("thermo", "matrix_log_hermitian"),
    ("thermo", "effective_temperature_check"),
    ("thermo", "thermo_record"),
    ("dynamics", "default_step"),
    ("dynamics", "liouvillian_matrix"),
    ("scenarios", "integrate"),
    ("scenarios", "thermo_record"),
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
    assert np.isfinite(model.memory_correction_rate(2.0, driven.bath1).real)
    assert thermo.dissipator(2, rho, 0.3, driven).shape == (4, 4)
    assert dynamics.default_step(driven) > 0
    record = scenarios.thermo_record(rho, 0.3, driven)
    assert np.isfinite(record.sigma_dot)
    assert callable(scenarios.integrate)


def test_benchmark_only_imports_are_pinned():
    # an import that the module itself does not use (marked ``# noqa: F401``)
    # is kept only for the benchmark, so it must be a pinned pair above: no
    # unlisted benchmark-only copy can slip in, and this set is what a
    # benchmark that no longer needs them may delete
    kept = set()
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    assert kept <= set(ATTRIBUTES)
    assert kept == {
        ("model", "memory_correction_rate"),
        ("dynamics", "liouvillian_matrix"),
        ("thermo", "matrix_log_hermitian"),
        ("thermo", "dissipator"),
        ("scenarios", "thermo_record"),
    }
