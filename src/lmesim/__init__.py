"""Local-master-equation simulator for a driven two-qubit chain between
two bosonic baths: dynamics, thermodynamic observables, a Gaussian
covariance fast path, and reproducible scenario sweeps.

Each public name is imported from its module on first use, so importing
the package (or `lmesim.cli`, before it loads NumPy) loads no NumPy.
"""

import importlib

#: each public name and the module that defines it; its keys are __all__
_SOURCES = {
    "BathParams": "baths", "decay_rate": "baths", "spectral_density": "baths",
    "IntegratorConfig": "dynamics", "Trajectory": "dynamics", "default_step": "dynamics",
    "integrate": "dynamics", "steady_state": "dynamics",
    "ConfigError": "errors", "IntegrationError": "errors", "PositivityError": "errors",
    "StabilityError": "errors", "UnsupportedConfigError": "errors",
    "covariance_from_density": "gaussian", "drift_diffusion": "gaussian",
    "relaxation_time": "gaussian", "steady_covariance": "gaussian",
    "steady_heat_currents": "gaussian",
    "embed_qubit_op": "linalg", "lyapunov_solve": "linalg",
    "QubitParams": "model", "SystemConfig": "model", "bare_hamiltonian": "model",
    "dissipation_rates": "model", "drive": "model", "instantaneous_gap": "model",
    "interaction_hamiltonian": "model", "liouvillian_matrix": "model",
    "maximum_entropy_state": "model", "tdlme_rhs": "model", "validate_density": "model",
    "CsvTable": "scenarios", "ScenarioConfig": "scenarios", "emit_csv": "scenarios",
    "load_config": "scenarios", "run_scenario": "scenarios",
    "CrossingResult": "thermo", "effective_temperature_check": "thermo", "entropy": "thermo",
    "entropy_production_rate": "thermo", "find_tau0": "thermo", "heat_current": "thermo",
    "thermo_record": "thermo", "trajectory_observables": "thermo",
}
__all__ = tuple(_SOURCES)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCES:
        # a submodule (``from lmesim import cli``) is imported on this miss
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
