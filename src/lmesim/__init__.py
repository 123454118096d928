"""Local-master-equation simulator for a driven two-qubit chain between
two bosonic baths: dynamics, thermodynamic observables, a Gaussian
covariance fast path, and reproducible scenario sweeps.
"""

from .baths import (
    BathParams,
    correlation_function,
    decay_rate,
    decay_rate_quadrature,
    lamb_shift,
    lamb_shift_quadrature,
    memory_correction_rate,
    one_sided_rate,
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
    QuadratureError,
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
from .linalg import embed_qubit_op, lyapunov_solve, matrix_log_hermitian
from .model import (
    QubitParams,
    SystemConfig,
    bare_hamiltonian,
    dissipation_rates,
    dissipator,
    drive,
    gibbs_product_state,
    instantaneous_gap,
    interaction_hamiltonian,
    liouvillian_matrix,
    lme_rhs,
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
