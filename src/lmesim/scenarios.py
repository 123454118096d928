"""Scenario runner: config files in, deterministic CSV tables out.

Seven scenario kinds cover the package's standard numerical experiments:

* ``evolve``     — one undriven trajectory from the maximum-entropy state,
                   per-frame currents / entropy / entropy production.
* ``driven``     — same table for a driven run, plus the two
                   effective-temperature deviation columns.
* ``steady``     — undriven steady state: covariance, density matrix,
                   steady currents and entropy production rate.
* ``sweep_boundary`` — steady Σ̇ over a (T₁/T₂, ε₁/ε₂) grid.
* ``sweep_detuning`` — steady J₁ versus the splitting difference Δε.
* ``sweep_scaling``  — |J₁| versus ζ² (or λ²) for power-law fits.
* ``relaxation``     — τ₀, τ_r and their ratio versus ζ².

Every scenario runs in one process.  The three steady-state sweeps build
no per-point system: ``gaussian.chain_stack`` takes the swept parameters as
arrays and gives the rates, drift and diffusion of every point at once, the
points' 2x2 Lyapunov equations are solved as one stack, in closed form
and elementwise (`linalg.lyapunov_solve_stack`), and the heat currents
come from the covariance stack (one T-ratio row at a time for the boundary
grid, whose hot bath changes by row).  Relaxation runs point after point.
CSV rows are written with one ``%`` format per row.  A sweep point
whose numerics fail (an error from ``errors.NUMERICAL_ERRORS``; for the
steady sweeps a drift that fails the Lyapunov checks) becomes a row with
NaN values and an ``error:<Type>`` status instead of aborting the sweep;
any other exception is a bug and propagates.  Steady states come from
exact solves: the Lyapunov equation for the covariance and the
generator's null vector for the density matrix.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .baths import BathParams
from .dynamics import IntegratorConfig, integrate, steady_state
from .errors import NUMERICAL_ERRORS, ConfigError
from .gaussian import (
    ChainStack,
    chain_stack,
    drift_diffusion,
    relaxation_time,
    steady_covariance,
    steady_heat_currents,
)
from .linalg import hermitian_part, lyapunov_solve_stack
from .model import QubitParams, SystemConfig, maximum_entropy_state
from .thermo import effective_temperature_check, find_tau0, trajectory_observables
# unused here since the table is computed in one batched pass, but the
# benchmark's tracer (perfbench/tracer.py) wraps this name on this module
from .thermo import thermo_record  # noqa: F401

KINDS = (
    "evolve", "steady", "sweep_boundary", "sweep_detuning",
    "sweep_scaling", "relaxation", "driven",
)
SCALING_AXES = ("zeta2", "lambda2")
DEFAULT_HORIZONS = {"evolve": 12.0, "driven": 10.0}

EVOLVE_HEADER = (
    "t", "J1", "J2", "Js1", "JI1", "Js2", "JI2", "S", "Sigma_dot",
    "min_eig", "rate_neg_flag",
)
DRIVEN_HEADER = EVOLVE_HEADER + ("efftemp_dev1", "efftemp_dev2")


@dataclass
class CsvTable:
    """Header plus rectangular rows of numbers (and a status string column)."""

    header: tuple
    rows: list

    def __post_init__(self):
        self.header = tuple(self.header)
        for k, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError(
                    f"row {k} has {len(row)} cells, header has {len(self.header)}"
                )


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: physical system, integrator knobs, grids."""

    kind: str
    system: SystemConfig
    integrator: IntegratorConfig
    horizon: float | None = None
    out: str | None = None
    t_ratio_grid: tuple = ()
    eps_ratio_grid: tuple = ()
    detuning_grid: tuple = ()
    scaling_axis: str = "zeta2"
    scaling_grid: tuple = ()
    relaxation_grid: tuple = ()


def kind_violations(kind: str, system: SystemConfig) -> list:
    """Mismatches between the scenario kind and the drive settings."""
    if kind not in KINDS:
        return [f"scenario.kind must be one of {', '.join(KINDS)}; got {kind!r}"]
    if kind == "driven" and not system.is_driven:
        return ["scenario.kind=driven requires nonzero drive amplitude and frequency"]
    if kind != "driven" and system.is_driven:
        return [f"scenario.kind={kind} requires an undriven configuration "
                "(use the driven scenario for nonzero drives)"]
    return []


def _value_violations(cfg: ScenarioConfig) -> list:
    """What `load_config` rejects that a hand-built scenario can hold: an
    unknown scaling axis, a horizon, T-ratio, ε-ratio or ε₁ = ε₂ + Δε that is
    not positive and finite, or a ζ² or λ² grid point that is negative or
    not finite (0 gives a valid system, though the loader's log grids skip it)."""
    eps2 = cfg.system.qubit2.epsilon
    problems = [] if cfg.scaling_axis in SCALING_AXES else [
        f"scenario.scaling_axis must be one of {', '.join(SCALING_AXES)}; "
        f"got {cfg.scaling_axis!r}"]
    for name, values, positive in (
        ("horizon", [] if cfg.horizon is None else [cfg.horizon], True),
        ("t_ratio_grid", cfg.t_ratio_grid, True),
        ("eps_ratio_grid", cfg.eps_ratio_grid, True),
        ("epsilon2 + detuning_grid", [eps2 + d for d in cfg.detuning_grid], True),
        ("scaling_grid", cfg.scaling_grid, False),
        ("relaxation_grid", cfg.relaxation_grid, False),
    ):
        bad = [x for x in values if not ((0 < x if positive else 0 <= x) and x < math.inf)]
        if bad:
            want = "positive" if positive else "non-negative"
            problems.append(f"scenario.{name} must be {want} and finite, got {bad}")
    return problems


class _Reader:
    """Typed key access over a parsed config that records every problem."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list = []
        self.seen: dict = {}

    def _raw(self, section, key, required):
        # the parser lower-cases the keys it reads (k_B is stored as k_b)
        self.seen.setdefault(section, set()).add(self.parser.optionxform(key))
        if not self.parser.has_option(section, key):
            if required:
                self.problems.append(f"missing required key {section}.{key}")
            return None
        return self.parser.get(section, key)

    def floatval(self, section, key, required=False, default=None):
        raw = self._raw(section, key, required)
        if raw is None:
            return default
        try:
            val = float(raw)
        except ValueError:
            self.problems.append(f"{section}.{key} is not a number: {raw!r}")
            return default
        if not math.isfinite(val):
            self.problems.append(f"{section}.{key} must be finite, got {raw!r}")
            return default
        return val

    def intval(self, section, key, required=False, default=None):
        raw = self._raw(section, key, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            self.problems.append(f"{section}.{key} is not an integer: {raw!r}")
            return default

    def strval(self, section, key, required=False, default=None):
        raw = self._raw(section, key, required)
        return default if raw is None else raw.strip()

    def positive(self, section, key, required=False, default=None):
        val = self.floatval(section, key, required, default)
        if val is not None and not val > 0:
            self.problems.append(f"{section}.{key} must be positive, got {val}")
            return default
        return val

    def check_unknown_keys(self):
        for section in self.parser.sections():
            known = self.seen.get(section)
            if known is None:
                self.problems.append(f"unknown section [{section}]")
                continue
            for key in self.parser.options(section):
                if key not in known:
                    self.problems.append(f"unknown key {section}.{key}")


def _grid(reader: _Reader, prefix: str, lo_default, hi_default, n_default,
          spacing: str = "linear", positive: bool = False):
    lo = reader.floatval("scenario", f"{prefix}_min", default=lo_default)
    hi = reader.floatval("scenario", f"{prefix}_max", default=hi_default)
    n = reader.intval("scenario", f"{prefix}_count", default=n_default)
    if lo is None or hi is None or n is None:
        return ()
    if n < 1:
        reader.problems.append(f"scenario.{prefix}_count must be >= 1, got {n}")
        return ()
    if hi < lo:
        reader.problems.append(
            f"scenario.{prefix}_max must be >= scenario.{prefix}_min"
        )
        return ()
    if (positive or spacing == "log") and lo <= 0:
        why = " for a log grid" if spacing == "log" else ""
        reader.problems.append(
            f"scenario.{prefix}_min must be positive{why}, got {lo}"
        )
        return ()
    if spacing == "log":
        return tuple(float(x) for x in np.geomspace(lo, hi, n))
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file, reporting every violation at once."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)

    reader = _Reader(parser)
    problems = reader.problems
    for section in ("system", "bath1", "bath2"):
        if not parser.has_section(section):
            problems.append(f"missing required section [{section}]")
    if problems:
        raise ConfigError(problems)

    eps1 = reader.positive("system", "epsilon1", required=True)
    eps2 = reader.positive("system", "epsilon2", required=True)
    coupling = reader.floatval("system", "coupling", required=True)
    zeta2 = reader.floatval("system", "zeta2", required=True)
    if coupling is not None and coupling < 0:
        problems.append(f"system.coupling must be non-negative, got {coupling}")
    if zeta2 is not None and zeta2 < 0:
        problems.append(f"system.zeta2 must be non-negative, got {zeta2}")

    baths = []
    for name in ("bath1", "bath2"):
        t = reader.positive(name, "temperature", required=True)
        kappa = reader.positive(name, "kappa", required=True)
        cutoff = reader.positive(name, "cutoff", required=True)
        k_b = reader.positive(name, "k_B", default=1.0)
        baths.append((t, kappa, cutoff, k_b))

    amp = [0.0, 0.0]
    freq = [0.0, 0.0]
    if parser.has_section("drive"):
        for i in (0, 1):
            amp[i] = reader.floatval("drive", f"amplitude{i + 1}", default=0.0)
            freq[i] = reader.floatval("drive", f"frequency{i + 1}", default=0.0)
            if amp[i] < 0:
                problems.append(
                    f"drive.amplitude{i + 1} must be non-negative, got {amp[i]}"
                )
            if freq[i] < 0:
                problems.append(
                    f"drive.frequency{i + 1} must be non-negative, got {freq[i]}"
                )

    # a missing [scenario] section reads as all defaults
    kind = reader.strval("scenario", "kind", default="evolve")
    horizon = reader.positive("scenario", "horizon")
    out = reader.strval("scenario", "out")
    scaling_axis = reader.strval("scenario", "scaling_axis", default="zeta2")
    if scaling_axis not in SCALING_AXES:
        problems.append(
            f"scenario.scaling_axis must be one of {', '.join(SCALING_AXES)};"
            f" got {scaling_axis!r}"
        )
        scaling_axis = "zeta2"
    t_ratio = _grid(reader, "t_ratio", 1.0, 3.0, 41, positive=True)
    eps_ratio = _grid(reader, "eps_ratio", 0.5, 3.0, 41, positive=True)
    detuning = _grid(reader, "delta", 0.0, 10.0, 101)
    scaling = _grid(reader, "scaling", 1e-4, 1.0, 13, spacing="log")
    relax = _grid(reader, "relax_zeta2", 0.1, 1.0, 7, spacing="log")

    step = record_stride = None
    if parser.has_section("integrator"):
        step = reader.positive("integrator", "step")
        record_stride = reader.intval("integrator", "record_stride")
        if record_stride is not None and record_stride < 1:
            problems.append(
                f"integrator.record_stride must be >= 1, got {record_stride}"
            )
            record_stride = None
    reader.check_unknown_keys()

    if eps2 is not None and detuning and eps2 + min(detuning) <= 0:
        problems.append(
            "scenario.delta_min would make epsilon1 = epsilon2 + delta non-positive"
        )

    system = None
    if not problems:
        try:
            system = SystemConfig(
                qubit1=QubitParams(eps1, amp[0], freq[0]),
                qubit2=QubitParams(eps2, amp[1], freq[1]),
                bath1=BathParams(*baths[0]),
                bath2=BathParams(*baths[1]),
                coupling=coupling,
                zeta2=zeta2,
            )
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError(problems)

    return ScenarioConfig(
        kind=kind,
        system=system,
        integrator=IntegratorConfig(step=step, record_stride=record_stride),
        horizon=horizon,
        out=out,
        t_ratio_grid=t_ratio,
        eps_ratio_grid=eps_ratio,
        detuning_grid=detuning,
        scaling_axis=scaling_axis,
        scaling_grid=scaling,
        relaxation_grid=relax,
    )


# ---------------------------------------------------------------------------
# sweep points

def _steady_sigma(bath1: BathParams, bath2: BathParams, j1, j2):
    return -(bath1.beta * j1 + bath2.beta * j2)


def _steady_rows(leads, chain: ChainStack, value) -> list:
    """Rows ``(*lead, value(J1, J2), "ok")``, one per point of `chain`.

    The points' Lyapunov equations are solved as one stack and their heat
    currents come from the covariance stack.  A point whose drift fails the
    solve's checks gets a NaN value and the status ``error:StabilityError``,
    as `lyapunov_solve` would have raised.
    """
    covs, failures = lyapunov_solve_stack(chain.drift, chain.diffusion)
    values = value(*chain.heat_currents(hermitian_part(covs)))
    return [
        (*lead, v, "ok") if failure is None
        else (*lead, math.nan, "error:StabilityError")
        for lead, v, failure in zip(leads, values.tolist(), failures)
    ]


def _relaxation_point(zeta2: float, cfg: ScenarioConfig):
    try:
        system = replace(cfg.system, zeta2=zeta2)
        tau_r = relaxation_time(drift_diffusion(system))
        span = 8.0 * tau_r if cfg.horizon is None else cfg.horizon
        traj = integrate(maximum_entropy_state(), span, system, cfg.integrator)
        res = find_tau0(traj, system)
        if not res.found:
            return (zeta2, math.nan, tau_r, math.nan, f"error:{res.reason}")
        return (zeta2, res.tau0, tau_r, res.tau0 / tau_r, "ok")
    except NUMERICAL_ERRORS as exc:
        return (zeta2, math.nan, math.nan, math.nan, f"error:{type(exc).__name__}")


# ---------------------------------------------------------------------------
# scenario implementations

def _trajectory_table(cfg: ScenarioConfig, driven: bool) -> CsvTable:
    system = cfg.system
    horizon = cfg.horizon
    if horizon is None:
        horizon = DEFAULT_HORIZONS["driven" if driven else "evolve"]
    traj = integrate(maximum_entropy_state(), horizon, system, cfg.integrator)
    cols = trajectory_observables(traj.times, traj.states, system)
    columns = [*cols[:-1], traj.min_eigenvalues, traj.rate_negative.astype(int)]
    if driven:
        columns += [effective_temperature_check(i, cols.t, system) for i in (1, 2)]
    rows = list(zip(*(c.tolist() for c in columns)))
    return CsvTable(DRIVEN_HEADER if driven else EVOLVE_HEADER, rows)


def _steady_table(cfg: ScenarioConfig) -> CsvTable:
    system = cfg.system
    cov = steady_covariance(drift_diffusion(system))
    rho = steady_state(system)
    j1, j2 = steady_heat_currents(cov, system)
    sigma = _steady_sigma(system.bath1, system.bath2, j1, j2)
    header = []
    row = []
    for i in (1, 2):
        for j in (1, 2):
            val = complex(cov[i - 1, j - 1])
            header += [f"C{i}{j}_re", f"C{i}{j}_im"]
            row += [val.real, val.imag]
    for i in range(4):
        for j in range(4):
            val = complex(rho[i, j])
            header += [f"rho_{i}{j}_re", f"rho_{i}{j}_im"]
            row += [val.real, val.imag]
    header += ["J1", "J2", "Sigma_dot"]
    row += [j1, j2, sigma]
    return CsvTable(tuple(header), [tuple(row)])


def _boundary_table(cfg: ScenarioConfig) -> CsvTable:
    base = cfg.system
    eps1 = np.array(cfg.eps_ratio_grid) * base.qubit2.epsilon
    rows = []
    # one stack per T-ratio row keeps a large grid's memory flat
    for tr in cfg.t_ratio_grid:
        bath1 = replace(base.bath1, temperature=tr * base.bath2.temperature)
        chain = chain_stack(eps1, base.qubit2.epsilon, base.zeta2,
                            base.coupling, bath1, base.bath2)
        leads = [(tr, er) for er in cfg.eps_ratio_grid]
        rows += _steady_rows(
            leads, chain, lambda j1, j2: _steady_sigma(bath1, base.bath2, j1, j2)
        )
    return CsvTable(
        ("T1_over_T2", "eps1_over_eps2", "Sigma_dot_ss", "status"), rows
    )


def _detuning_table(cfg: ScenarioConfig) -> CsvTable:
    base = cfg.system
    eps1 = base.qubit2.epsilon + np.array(cfg.detuning_grid)
    chain = chain_stack(eps1, base.qubit2.epsilon, base.zeta2, base.coupling,
                        base.bath1, base.bath2)
    leads = [(d,) for d in cfg.detuning_grid]
    rows = _steady_rows(leads, chain, lambda j1, _: j1)
    return CsvTable(("delta_eps", "J1_ss", "status"), rows)


def _scaling_table(cfg: ScenarioConfig) -> CsvTable:
    base = cfg.system
    grid = np.array(cfg.scaling_grid)
    zeta2, coupling = base.zeta2, base.coupling
    if cfg.scaling_axis == "zeta2":
        zeta2 = grid
    else:
        coupling = np.sqrt(grid)
    chain = chain_stack(base.qubit1.epsilon, base.qubit2.epsilon, zeta2,
                        coupling, base.bath1, base.bath2)
    leads = [(v,) for v in cfg.scaling_grid]
    rows = _steady_rows(leads, chain, lambda j1, _: np.abs(j1))
    return CsvTable((cfg.scaling_axis, "J1_ss_abs", "status"), rows)


def _relaxation_table(cfg: ScenarioConfig) -> CsvTable:
    rows = [_relaxation_point(z, cfg) for z in cfg.relaxation_grid]
    return CsvTable(("zeta2", "tau0", "tau_r", "ratio", "status"), rows)


def run_scenario(cfg: ScenarioConfig) -> CsvTable:
    """Execute the scenario and return its table (nothing is written here)."""
    bad = kind_violations(cfg.kind, cfg.system) + _value_violations(cfg)
    if bad:
        raise ConfigError(bad)
    if cfg.kind == "evolve":
        return _trajectory_table(cfg, driven=False)
    if cfg.kind == "driven":
        return _trajectory_table(cfg, driven=True)
    if cfg.kind == "steady":
        return _steady_table(cfg)
    if cfg.kind == "sweep_boundary":
        return _boundary_table(cfg)
    if cfg.kind == "sweep_detuning":
        return _detuning_table(cfg)
    if cfg.kind == "sweep_scaling":
        return _scaling_table(cfg)
    return _relaxation_table(cfg)


# ---------------------------------------------------------------------------
# CSV emission

@functools.lru_cache(maxsize=64)
def _row_format(types: tuple) -> tuple:
    """The ``%`` format of a row whose cells have these types, and the
    indices of its text cells: bools and ints as integers, floats as
    ``%.16e``, anything else as its (quoted) text."""
    specs = []
    text = []
    for k, cls in enumerate(types):
        if issubclass(cls, (bool, np.bool_, int, np.integer)):
            specs.append("%d")
        elif issubclass(cls, (float, np.floating)):
            specs.append("%.16e")
        else:
            specs.append("%s")
            text.append(k)
    return ",".join(specs), tuple(text)


def _quote(value) -> str:
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(table: CsvTable, path) -> None:
    """Write header + rows, LF line endings, floats at 17 significant digits."""
    lines = [",".join(table.header)]
    for row in table.rows:
        spec, text = _row_format(tuple(map(type, row)))
        if text:
            row = list(row)
            for k in text:
                row[k] = _quote(row[k])
        lines.append(spec % tuple(row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
