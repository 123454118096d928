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

Every scenario runs in one process.  The three steady-state sweeps build no
per-point system: ``gaussian.chain_stack`` takes the swept parameters as
arrays and gives the rates, drift and diffusion of every point at once, the
points' 2x2 Lyapunov equations are solved as one stack, in closed form and
elementwise (`linalg.lyapunov_solve_stack`), and the heat currents come from
the covariance stack (for the boundary grid, whose hot bath changes by row,
in blocks of whole T-ratio rows of at most ``BOUNDARY_BLOCK`` points).
Relaxation runs point after point, each propagated only up to the frame
block that holds its first downward Σ̇ crossing (`thermo.find_tau0`), so
frames after that block are not checked.  A table holds one sequence per
column, not a tuple per row; CSV formats are decided per column (a repeating
one is formatted once per distinct value) and applied per ``EMIT_BLOCK``
rows.  A sweep point whose numerics fail (one of the three
``errors.NUMERICAL_ERRORS``: ``IntegrationError``, ``StabilityError`` or
``PositivityError``; for the steady sweeps a drift that fails the Lyapunov
checks) becomes a row with NaN values and an ``error:<Type>`` status instead
of aborting the sweep; any other exception is a bug and propagates.  Steady
states come from exact solves: the Lyapunov equation for the covariance and
the generator's null vector for the density matrix.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

import numpy as np

from .baths import BathParams
from .dynamics import IntegratorConfig, _add_rate_cause, integrate, steady_state
from .errors import NUMERICAL_ERRORS, ConfigError, PositivityError
from .gaussian import (
    ChainStack,
    chain_stack,
    drift_diffusion,
    relaxation_time,
    steady_covariance,
    steady_heat_currents,
)
from .linalg import hermitian_part, lyapunov_solve_stack
from .model import QubitParams, SystemConfig, _non_negative_violations, maximum_entropy_state
from .thermo import effective_temperature_check, find_tau0, trajectory_observables

SCALING_AXES = ("zeta2", "lambda2")
#: most points of one stacked solve in the boundary sweep (whole T-ratio rows)
BOUNDARY_BLOCK = 4096
#: rows that `emit_csv` formats with one ``%``
EMIT_BLOCK = 256
DEFAULT_HORIZONS = {"evolve": 12.0, "driven": 10.0}

EVOLVE_HEADER = (
    "t", "J1", "J2", "Js1", "JI1", "Js2", "JI2", "S", "Sigma_dot",
    "min_eig", "rate_neg_flag",
)
DRIVEN_HEADER = EVOLVE_HEADER + ("efftemp_dev1", "efftemp_dev2")


@dataclass
class CsvTable:
    """Header plus one equally long sequence of cells per header name."""

    header: tuple
    columns: list

    def __post_init__(self):
        self.header = tuple(self.header)
        if not self.header or len(self.columns) != len(self.header):
            raise ValueError(f"{len(self.columns)} columns, header has {len(self.header)}")
        for name, cells in zip(self.header, self.columns):
            if len(cells) != len(self.columns[0]):
                raise ValueError(f"column {name} has {len(cells)} cells, "
                                 f"column {self.header[0]} has {len(self.columns[0])}")


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


def _value_violations(fields: dict, eps2: float | None) -> list:
    """The rules on a scenario's own fields (`ScenarioConfig` names to values):
    a known scaling axis; a positive, finite horizon, T-ratio, ε-ratio and
    ε₁ = ε₂ + Δε (skipped for ε₂ None); a non-negative, finite ζ² or λ² grid
    (0 is valid, though the loader's log grids skip it).  A message names
    the first bad value and how many more there are."""
    problems = [] if fields["scaling_axis"] in SCALING_AXES else [
        f"scenario.scaling_axis must be one of {', '.join(SCALING_AXES)}; "
        f"got {fields['scaling_axis']!r}"]
    horizon = fields["horizon"]
    eps1 = [] if eps2 is None else [eps2 + d for d in fields["detuning_grid"]]
    for name, values, positive in (
        ("horizon", [] if horizon is None else [horizon], True),
        ("t_ratio_grid", fields["t_ratio_grid"], True),
        ("eps_ratio_grid", fields["eps_ratio_grid"], True),
        ("epsilon2 + detuning_grid", eps1, True),
        ("scaling_grid", fields["scaling_grid"], False),
        ("relaxation_grid", fields["relaxation_grid"], False),
    ):
        bad = [x for x in values if not ((0 < x if positive else 0 <= x) and x < math.inf)]
        if bad:
            want = "positive" if positive else "non-negative"
            more = f" and {len(bad) - 1} more" if len(bad) > 1 else ""
            problems.append(f"scenario.{name} must be {want} and finite, got {bad[0]}{more}")
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
          log: bool = False):
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
    if log and lo <= 0:
        reader.problems.append(
            f"scenario.{prefix}_min must be positive for a log grid, got {lo}"
        )
        return ()
    return tuple(float(x) for x in (np.geomspace if log else np.linspace)(lo, hi, n))


def _build(problems: list, where: str, cls, *args):
    """``cls(*args)``, or None after adding its violations as ``<where>.<field> …``."""
    try:
        return cls(*args)
    except ConfigError as exc:
        problems += [f"{where}.{v}" for v in exc.violations]
        return None


def load_config(path) -> ScenarioConfig:
    """Parse a scenario file and validate it, reporting every violation at once.

    The loader checks the file's form: missing sections and required keys,
    values that are not numbers, integers or finite, unknown sections and
    keys, and how each grid is built (``_count >= 1``, ``_max >= _min``,
    ``_min > 0`` for a log grid), named by the INI key.  Each value rule
    belongs to the type holding the value and names its field:
    ``qubit1.epsilon``, ``bath2.kappa``, ``integrator.record_stride``,
    ``system.coupling``, ``scenario.horizon``, ``scenario.t_ratio_grid``.
    """
    # no section header can name the empty section, so [DEFAULT] is an
    # ordinary section (reported as unknown) instead of leaking its keys
    # into every other section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)

    reader = _Reader(parser)
    problems = reader.problems
    for section in ("system", "bath1", "bath2"):
        if not parser.has_section(section):
            problems.append(f"missing required section [{section}]")
    if problems:
        raise ConfigError(problems)

    # a missing [drive], [integrator] or [scenario] section reads as defaults
    qubits = []
    for i in (1, 2):
        eps = reader.floatval("system", f"epsilon{i}", required=True)
        drive = [reader.floatval("drive", f"{key}{i}", default=0.0)
                 for key in ("amplitude", "frequency")]
        qubits.append(None if eps is None
                      else _build(problems, f"qubit{i}", QubitParams, eps, *drive))
    coupling = reader.floatval("system", "coupling", required=True)
    zeta2 = reader.floatval("system", "zeta2", required=True)
    baths = []
    for name in ("bath1", "bath2"):
        values = [reader.floatval(name, key, required=True)
                  for key in ("temperature", "kappa", "cutoff")]
        values.append(reader.floatval(name, "k_B", default=1.0))
        baths.append(None if None in values else _build(problems, name, BathParams, *values))
    integrator = _build(problems, "integrator", IntegratorConfig,
                        reader.floatval("integrator", "step"),
                        reader.intval("integrator", "record_stride"))
    fields = dict(
        kind=reader.strval("scenario", "kind", default="evolve"),
        horizon=reader.floatval("scenario", "horizon"),
        out=reader.strval("scenario", "out"),
        t_ratio_grid=_grid(reader, "t_ratio", 1.0, 3.0, 41),
        eps_ratio_grid=_grid(reader, "eps_ratio", 0.5, 3.0, 41),
        detuning_grid=_grid(reader, "delta", 0.0, 10.0, 101),
        scaling_axis=reader.strval("scenario", "scaling_axis", default="zeta2"),
        scaling_grid=_grid(reader, "scaling", 1e-4, 1.0, 13, log=True),
        relaxation_grid=_grid(reader, "relax_zeta2", 0.1, 1.0, 7, log=True),
    )
    reader.check_unknown_keys()
    problems += _value_violations(fields, None if qubits[1] is None else qubits[1].epsilon)

    parts = (*qubits, *baths, coupling, zeta2)
    system = None
    if all(p is not None for p in parts):
        system = _build(problems, "system", SystemConfig, *parts)
    else:   # without its parts, check λ and ζ² by SystemConfig's rule
        for name, value in (("coupling", coupling), ("zeta2", zeta2)):
            problems += [] if value is None else _non_negative_violations(f"system.{name}", value)
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(system=system, integrator=integrator, **fields)


# ---------------------------------------------------------------------------
# sweep points

def _steady_sigma(beta1, beta2: float, j1, j2):   # β₁ may hold one value per point
    return -(beta1 * j1 + beta2 * j2)


def _steady_columns(chain: ChainStack, value):
    """Columns ``value(J1, J2)`` and ``"ok"``, one cell per point of `chain` (row-major).

    The points' Lyapunov equations are solved as one flat stack and their
    heat currents come from the covariance stack.  A point whose drift fails the
    solve's checks gets a NaN value (from its NaN solution) and the status
    ``error:StabilityError``, as `lyapunov_solve` would have raised.
    """
    covs, failures = lyapunov_solve_stack(chain.drift.reshape(-1, 2, 2),
                                          chain.diffusion.reshape(-1, 2, 2))
    values = value(*chain.heat_currents(hermitian_part(covs).reshape(chain.drift.shape)))
    status = ["ok" if failure is None else "error:StabilityError" for failure in failures]
    return values.ravel().tolist(), status


def _relaxation_point(zeta2: float, cfg: ScenarioConfig):
    try:
        system = replace(cfg.system, zeta2=zeta2)
        tau_r = relaxation_time(drift_diffusion(system))
        span = 8.0 * tau_r if cfg.horizon is None else cfg.horizon
        res = find_tau0(maximum_entropy_state(), span, system, cfg.integrator)
        if not res.found:
            return (zeta2, math.nan, tau_r, math.nan, f"error:{res.reason}")
        return (zeta2, res.tau0, tau_r, res.tau0 / tau_r, "ok")
    except NUMERICAL_ERRORS as exc:
        return (zeta2, math.nan, math.nan, math.nan, f"error:{type(exc).__name__}")


# ---------------------------------------------------------------------------
# scenario implementations

def _trajectory_table(cfg: ScenarioConfig) -> CsvTable:
    system = cfg.system
    driven = cfg.kind == "driven"
    horizon = DEFAULT_HORIZONS[cfg.kind] if cfg.horizon is None else cfg.horizon
    traj = integrate(maximum_entropy_state(), horizon, system, cfg.integrator)
    try:
        cols = trajectory_observables(traj.times, traj.states, system, spectrum=traj.spectrum)
    except PositivityError as exc:
        _add_rate_cause(exc, traj.times, traj.rate_negative)
        raise
    columns = [*cols, traj.rate_negative.astype(int)]
    if driven:
        columns += [effective_temperature_check(i, cols.t, system) for i in (1, 2)]
    return CsvTable(DRIVEN_HEADER if driven else EVOLVE_HEADER, [c.tolist() for c in columns])


def _steady_table(cfg: ScenarioConfig) -> CsvTable:
    system = cfg.system
    cov = steady_covariance(drift_diffusion(system))
    rho = steady_state(system)
    j1, j2 = steady_heat_currents(cov, system)
    sigma = _steady_sigma(system.bath1.beta, system.bath2.beta, j1, j2)
    cells = {f"C{i + 1}{j + 1}": cov[i, j] for i in range(2) for j in range(2)}
    cells |= {f"rho_{i}{j}": rho[i, j] for i in range(4) for j in range(4)}
    header = [f"{name}_{part}" for name in cells for part in ("re", "im")]
    row = [x for v in map(complex, cells.values()) for x in (v.real, v.imag)]
    return CsvTable(header + ["J1", "J2", "Sigma_dot"], [[v] for v in row + [j1, j2, sigma]])


def _boundary_table(cfg: ScenarioConfig) -> CsvTable:
    base = cfg.system
    bath2 = base.bath2
    eps1 = np.array(cfg.eps_ratio_grid) * base.qubit2.epsilon
    columns = ([tr for tr in cfg.t_ratio_grid for _ in cfg.eps_ratio_grid],
               cfg.eps_ratio_grid * len(cfg.t_ratio_grid), [], [])
    # blocks of whole T-ratio rows: few stacks, and a large grid's memory stays flat
    per_block = max(1, BOUNDARY_BLOCK // max(eps1.size, 1))
    for start in range(0, len(cfg.t_ratio_grid), per_block):
        t_ratios = cfg.t_ratio_grid[start:start + per_block]
        bath1 = [replace(base.bath1, temperature=tr * bath2.temperature) for tr in t_ratios]
        beta1 = np.array([[b.beta] for b in bath1])
        chain = chain_stack(np.broadcast_to(eps1, (len(bath1), eps1.size)),
                            base.qubit2.epsilon, base.zeta2, base.coupling, bath1, bath2)
        block = _steady_columns(chain, lambda j1, j2: _steady_sigma(beta1, bath2.beta, j1, j2))
        for column, cells in zip(columns[2:], block):   # Σ̇ and status
            column += cells
    return CsvTable(("T1_over_T2", "eps1_over_eps2", "Sigma_dot_ss", "status"), columns)


def _detuning_table(cfg: ScenarioConfig) -> CsvTable:
    base = cfg.system
    eps1 = base.qubit2.epsilon + np.array(cfg.detuning_grid)
    chain = chain_stack(eps1, base.qubit2.epsilon, base.zeta2, base.coupling,
                        base.bath1, base.bath2)
    return CsvTable(("delta_eps", "J1_ss", "status"),
                    [cfg.detuning_grid, *_steady_columns(chain, lambda j1, _: j1)])


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
    return CsvTable((cfg.scaling_axis, "J1_ss_abs", "status"),
                    [cfg.scaling_grid, *_steady_columns(chain, lambda j1, _: np.abs(j1))])


def _relaxation_table(cfg: ScenarioConfig) -> CsvTable:
    header = ("zeta2", "tau0", "tau_r", "ratio", "status")
    rows = [_relaxation_point(z, cfg) for z in cfg.relaxation_grid]
    return CsvTable(header, list(zip(*rows)) or [()] * len(header))


#: each scenario kind's table builder, in the CLI's subcommand order
_TABLES = {
    "evolve": _trajectory_table,
    "steady": _steady_table,
    "sweep_boundary": _boundary_table,
    "sweep_detuning": _detuning_table,
    "sweep_scaling": _scaling_table,
    "relaxation": _relaxation_table,
    "driven": _trajectory_table,
}
KINDS = tuple(_TABLES)


def run_scenario(cfg: ScenarioConfig) -> CsvTable:
    """Execute the scenario and return its table (nothing is written here)."""
    bad = (kind_violations(cfg.kind, cfg.system)
           + _value_violations(vars(cfg), cfg.system.qubit2.epsilon))
    if bad:
        raise ConfigError(bad)
    return _TABLES[cfg.kind](cfg)


# ---------------------------------------------------------------------------
# CSV emission

def _spec(cls) -> str:
    """The ``%`` format of a cell of this type: bools and ints as integers,
    floats as ``%.16e``, anything else as its (quoted) text."""
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(cls, (float, np.floating)):
        return "%.16e"
    return "%s"


def _quote(value) -> str:   # RFC 4180: quote a cell holding , " LF or CR
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n\r') else text


def _repeated(cells):
    """The distinct values of a column of which at least half repeat, or
    None: the set grows a sixteenth of the column at a time and gives up as
    soon as more than half of the values are distinct."""
    distinct, chunk = set(), max(1, -(-len(cells) // 16))
    for start in range(0, len(cells), chunk):
        distinct.update(cells[start:start + chunk])
        if 2 * len(distinct) > len(cells):
            return None
    return distinct


def _column(cells: tuple):
    """The ``%`` format of one column, and its cells (as text where it is
    made here).  Plain floats of which at least half repeat, with no zero
    (0.0 == -0.0 prints two ways), and strings are formatted once per
    distinct value; a column of mixed formats is formatted cell by cell."""
    types = set(map(type, cells))
    specs = {_spec(cls) for cls in types}
    if types == {float} and (distinct := _repeated(cells)) is not None \
            and 0.0 not in distinct:
        text = {v: "%.16e" % v for v in distinct}
    elif types == {str}:
        text = {v: _quote(v) for v in set(cells)}
    elif specs in ({"%d"}, {"%.16e"}):
        return specs.pop(), cells
    else:
        return "%s", [_quote(v) if (f := _spec(type(v))) == "%s" else f % v for v in cells]
    return "%s", list(map(text.__getitem__, cells))


def emit_csv(table: CsvTable, path) -> None:
    """Write header + rows, LF line endings, floats at 17 significant digits;
    header cells are quoted as text cells are.  The format is decided per
    column, then applied with one ``%`` per block of ``EMIT_BLOCK`` rows to
    the block's cells, interleaved row by row."""
    columns = [_column(cells) for cells in table.columns]
    width = len(columns)
    flat = [None] * (len(table.columns[0]) * width)
    for j, (_, cells) in enumerate(columns):
        flat[j::width] = cells
    row = ",".join(f for f, _ in columns) + "\n"
    text = [",".join(map(_quote, table.header)) + "\n"]
    for start in range(0, len(flat), EMIT_BLOCK * width):
        block = tuple(flat[start:start + EMIT_BLOCK * width])
        text.append(row * (len(block) // width) % block)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(text)
