"""Local-master-equation simulator for a driven two-qubit chain between
two bosonic baths: dynamics, thermodynamic observables, a Gaussian
covariance fast path, and reproducible scenario sweeps.
"""

from .baths import (
    BathParams,
    decay_rate,
    memory_correction_rate,
    spectral_density,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    default_step,
    integrate,
    steady_state,
)
from .errors import (
    ConfigError,
    IntegrationError,
    PositivityError,
    StabilityError,
    UnsupportedConfigError,
)
from .gaussian import (
    covariance_from_density,
    drift_diffusion,
    integrate_covariance,
    relaxation_time,
    steady_covariance,
    steady_heat_currents,
)
from .linalg import embed_qubit_op, lyapunov_solve
from .model import (
    QubitParams,
    SystemConfig,
    bare_hamiltonian,
    dissipation_rates,
    drive,
    gibbs_product_state,
    instantaneous_gap,
    interaction_hamiltonian,
    liouvillian_matrix,
    maximum_entropy_state,
    tdlme_rhs,
    validate_density,
)
from .scenarios import (
    CsvTable,
    ScenarioConfig,
    emit_csv,
    load_config,
    run_scenario,
)
from .thermo import (
    CrossingResult,
    PowerLawFit,
    effective_temperature_check,
    entropy,
    entropy_production_rate,
    find_tau0,
    fit_power_law,
    heat_current,
    thermo_record,
    trajectory_observables,
)

__version__ = "0.1.0"
