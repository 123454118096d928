"""Oracle gate: checks a scenario CSV against independently computed values.

The references avoid the code path that produced the CSV:

* ``evolve``         -- states from the exact propagator expm(L t) instead of
                        RK4; currents from the covariance route, entropy and
                        entropy production from eigendecompositions.
* ``driven``         -- states from scipy's DOP853 on ``tdlme_rhs`` instead
                        of the fixed-step RK4.
* ``sweep_boundary`` -- rates from the closed form written out here, the
                        steady covariance from scipy's Bartels-Stewart
                        Lyapunov solver, plus the sign structure of the
                        Carnot-like boundary (acceptance criterion 1).
* ``relaxation``     -- tau0 by brentq on the entropy production of the
                        expm-propagated state, tau_r from the drift
                        eigenvalues built from the closed-form rates here.

Tolerances are those of the package's own tests, never looser.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.optimize import brentq

from lmesim.dynamics import default_step
from lmesim.gaussian import covariance_from_density, steady_heat_currents
from lmesim.model import (
    dissipation_rates,
    liouvillian_matrix,
    maximum_entropy_state,
    tdlme_rhs,
)
from lmesim.thermo import effective_temperature_check, thermo_record

TOL_STATE = 1e-11     # RK4 against the exact propagator (test_dynamics)
TOL_SPLIT = 1e-12     # J_i = J_i^s + J_i^I (acceptance criterion 9)
TOL_LYAP = 1e-12      # Lyapunov solve against a reference (test_gaussian)
TOL_ZERO_ROW = 1e-9   # equal-temperature boundary row (criterion 1)
TOL_TAU0 = 1e-6       # find_tau0 bisects to 1e-6 in time
TOL_REL = 1e-12       # tau_r and tau0/tau_r
FRAME_SPACING = 5e-3  # coarse tau0 bracket, as the package's default frames
MAX_FRAME_GAP = 1e-2


@dataclass
class Verdict:
    """Outcome of checking one CSV.

    ``problems`` are whole-file failures (wrong header, wrong grid), which
    fail every row; ``notes`` describe row-level misses.
    """

    rows: int = 0
    bad_rows: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)   # check name -> max |error|

    @property
    def ok(self) -> bool:
        return not self.problems and self.bad_rows == 0

    @property
    def rows_failed(self) -> int:
        return self.rows if self.problems else self.bad_rows

    @property
    def rows_ok(self) -> int:
        return self.rows - self.rows_failed

    def compare(self, name, got, want, tol, bad, absolute=False):
        """Mark in ``bad`` the rows where |got - want| > tol * max(1, |want|)
        (> tol with ``absolute``).  NaN on either side is a miss."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = np.abs(got - want)
        limit = tol if absolute else tol * np.maximum(1.0, np.abs(want))
        miss = ~(err <= limit)
        self.errors[name] = max(self.errors.get(name, 0.0),
                                float(np.nanmax(err, initial=0.0)))
        if miss.any():
            k = int(np.argmax(miss))
            self.notes.append(f"{name}: {int(miss.sum())} rows off, first at "
                              f"row {k}: got {got[k]!r}, want {want[k]!r}")
        bad |= miss


def read_csv(path):
    """(header, columns by name as arrays; status stays a string array)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return (), {}
    header = tuple(rows[0])
    body = rows[1:]
    cols = {}
    for j, name in enumerate(header):
        cells = [r[j] if j < len(r) else "" for r in body]
        if name == "status":
            cols[name] = np.array(cells, dtype=object)
        else:
            cols[name] = np.array([_to_float(c) for c in cells])
    return header, cols


def _to_float(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# independent physics

def decay_rate(freq, temperature, kappa, cutoff, k_b=1.0):
    """gamma(w) = pi J(w) (coth(beta w / 2) + 1), Lorentz-Drude Ohmic J."""
    freq = np.asarray(freq, dtype=float)
    beta = 1.0 / (k_b * np.asarray(temperature, dtype=float))
    spectral = (2.0 * kappa / math.pi) * freq * cutoff**2 / (cutoff**2 + freq**2)
    return math.pi * spectral * (1.0 / np.tanh(0.5 * beta * freq) + 1.0)


def drift_diffusion(eps1, eps2, t1, t2, system):
    """Batched drift W and diffusion D of the covariance equation."""
    eps1, eps2, t1, t2 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (eps1, eps2, t1, t2)))
    eps, temps = (eps1, eps2), (t1, t2)
    baths = (system.bath1, system.bath2)
    z = system.zeta2
    shape = eps1.shape
    drift = np.zeros(shape + (2, 2), dtype=complex)
    diff = np.zeros(shape + (2, 2), dtype=complex)
    gplus = []
    gtot = []
    for i in (0, 1):
        b = baths[i]
        gm = decay_rate(2.0 * eps[i], temps[i], b.kappa, b.cutoff, b.k_B)
        gp = decay_rate(-2.0 * eps[i], temps[i], b.kappa, b.cutoff, b.k_B)
        gplus.append(gp)
        gtot.append(gm + gp)
        diff[..., i, i] = z * gp
    delta = eps[0] - eps[1]
    drift[..., 0, 0] = -0.5 * z * gtot[0] + 1j * delta
    drift[..., 1, 1] = -0.5 * z * gtot[1] - 1j * delta
    drift[..., 0, 1] = drift[..., 1, 0] = 1j * system.coupling
    return drift, diff, gplus, gtot


def _entropy(rho):
    p = np.linalg.eigvalsh(rho)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def _log(rho):
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    return (v * np.log(w)) @ v.conj().T


def _sigma_static(rho, liou, system):
    """Sigma_dot = dS/dt - sum_i beta_i J_i for the undriven equation."""
    drho = (liou @ rho.reshape(16)).reshape(4, 4)
    dsdt = -float(np.einsum("ij,ji->", _log(rho), drho).real)
    j1, j2 = steady_heat_currents(covariance_from_density(rho), system)
    return dsdt - system.bath1.beta * j1 - system.bath2.beta * j2


def expm_states(system, times, rho0=None):
    """Exact undriven states at ``times`` by expm(L dt) frame to frame."""
    liou = liouvillian_matrix(system)
    v = (maximum_entropy_state() if rho0 is None else rho0).reshape(16)
    v = v.astype(complex)
    out = np.empty((len(times), 4, 4), dtype=complex)
    props = {}
    prev = 0.0
    for k, t in enumerate(times):
        dt = float(t) - prev
        if dt != 0.0:
            key = round(dt, 15)
            if key not in props:
                props[key] = expm(liou * dt)
            v = props[key] @ v
        out[k] = v.reshape(4, 4)
        prev = float(t)
    return out


def dop853_states(system, times, rho0=None):
    """Driven states at ``times`` from scipy's adaptive DOP853."""
    rho0 = maximum_entropy_state() if rho0 is None else rho0

    def rhs(t, y):
        return tdlme_rhs(y.reshape(4, 4), t, system).reshape(16)

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (float(times[0]), float(times[-1])),
                    rho0.astype(complex).reshape(16), method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.y.T.reshape(-1, 4, 4)


# ---------------------------------------------------------------------------
# references

def _negative_rate_flags(system, times, step):
    """Per frame: did any rate go negative at an RK4 stage time since the
    previous frame?  Steps of ``step`` from 0, the last one cut short."""
    starts = np.arange(0.0, float(times[-1]), step)
    starts = starts[starts < float(times[-1])]
    ends = np.minimum(starts + step, float(times[-1]))
    neg = np.zeros(starts.size, dtype=bool)
    for j, (t0, t1) in enumerate(zip(starts, ends)):
        for t in (t0, 0.5 * (t0 + t1), t1):
            neg[j] |= any(min(dissipation_rates(i, float(t), system)) < 0.0
                          for i in (1, 2))
    # step j is recorded in the first frame after its start time
    frame = np.searchsorted(times, starts, side="right")
    flags = np.zeros(len(times))
    flags[np.unique(frame[neg])] = 1.0
    return flags


def _trajectory_reference(cfg, times):
    """Expected per-frame columns on the given frame times."""
    system = cfg.system
    driven = cfg.kind == "driven"
    states = (dop853_states if driven else expm_states)(system, times)
    n = len(times)
    want = {k: np.empty(n) for k in ("J1", "J2", "S", "Sigma_dot", "min_eig")}
    liou = None if driven else liouvillian_matrix(system)
    for k, (t, rho) in enumerate(zip(times, states)):
        if driven:
            rec = thermo_record(rho, float(t), system)
            j1, j2, s, sigma = rec.j1, rec.j2, rec.entropy, rec.sigma_dot
        else:
            j1, j2 = steady_heat_currents(covariance_from_density(rho), system)
            s = _entropy(rho)
            sigma = _sigma_static(rho, liou, system)
        want["J1"][k], want["J2"][k] = j1, j2
        want["S"][k], want["Sigma_dot"][k] = s, sigma
        want["min_eig"][k] = np.linalg.eigvalsh(rho)[0]
    if driven:
        for i in (1, 2):
            want[f"efftemp_dev{i}"] = np.array(
                [effective_temperature_check(i, float(t), system) for t in times])
        step = cfg.integrator.step or default_step(system)
        want["rate_neg_flag"] = _negative_rate_flags(system, times, step)
    else:
        want["rate_neg_flag"] = np.zeros(n)   # static rates are never negative
    return want


def _boundary_reference(cfg):
    """Expected Sigma_dot_ss over the grid, in row order."""
    tg = np.array(cfg.t_ratio_grid)
    eg = np.array(cfg.eps_ratio_grid)
    tr, er = (a.ravel() for a in np.meshgrid(tg, eg, indexing="ij"))
    system = cfg.system
    t2 = system.bath2.temperature
    e2 = system.qubit2.epsilon
    drift, diff, gplus, gtot = drift_diffusion(er * e2, e2, tr * t2, t2, system)
    want = np.empty(tr.size)
    for k in range(tr.size):
        cov = solve_continuous_lyapunov(drift[k], -diff[k])
        cross = (cov[0, 1] + cov[1, 0]).real
        currents = []
        for i, eps in ((0, er[k] * e2), (1, e2)):
            currents.append(system.zeta2 * (
                -0.5 * gtot[i][k] * (4.0 * eps * cov[i, i].real
                                     + system.coupling * cross)
                + 2.0 * eps * gplus[i][k]))
        want[k] = -(currents[0] / (tr[k] * t2) + currents[1] / t2)
    return tr, er, want


def _tau0_reference(system, horizon):
    """First downward zero of Sigma_dot on exact states, or NaN."""
    liou = liouvillian_matrix(system)
    rho0 = maximum_entropy_state().astype(complex).reshape(16)
    step = expm(liou * FRAME_SPACING)

    def sigma_at(t):
        return _sigma_static((expm(liou * t) @ rho0).reshape(4, 4), liou, system)

    v = rho0
    prev = _sigma_static(v.reshape(4, 4), liou, system)
    for k in range(1, int(horizon / FRAME_SPACING) + 1):
        v = step @ v
        cur = _sigma_static(v.reshape(4, 4), liou, system)
        if prev > 0.0 >= cur:
            t_lo, t_hi = (k - 1) * FRAME_SPACING, k * FRAME_SPACING
            return brentq(sigma_at, t_lo, t_hi, xtol=1e-13, rtol=1e-15)
        prev = cur
    return math.nan


def _relaxation_reference(cfg):
    """Expected (tau0, tau_r) per zeta2 grid point."""
    base = cfg.system
    grid = np.array(cfg.relaxation_grid)
    want_tau0 = np.empty(grid.size)
    want_tau_r = np.empty(grid.size)
    for k, z in enumerate(grid):
        system = replace(base, zeta2=float(z))
        drift, _, _, _ = drift_diffusion(
            base.qubit1.epsilon, base.qubit2.epsilon,
            base.bath1.temperature, base.bath2.temperature, system)
        want_tau_r[k] = 1.0 / abs(2.0 * np.max(np.linalg.eigvals(drift).real))
        horizon = 8.0 * want_tau_r[k] if cfg.horizon is None else cfg.horizon
        want_tau0[k] = _tau0_reference(system, horizon)
    return grid, want_tau0, want_tau_r


# ---------------------------------------------------------------------------
# the gate

class Oracle:
    """Checks CSVs of one scenario config.

    References are computed on first use and reused for every later CSV of
    the same config, so a run pays for them once, outside any timed sample.
    """

    def __init__(self, cfg):
        from lmesim.scenarios import DEFAULT_HORIZONS

        if cfg.kind not in ("evolve", "driven", "sweep_boundary", "relaxation"):
            raise ValueError(f"no oracle for scenario kind {cfg.kind!r}")
        self.cfg = cfg
        self.horizon = cfg.horizon or DEFAULT_HORIZONS.get(cfg.kind)
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, path) -> Verdict:
        verdict = Verdict()
        header, cols = read_csv(path)
        kind = self.cfg.kind
        if kind in ("evolve", "driven"):
            self._check_trajectory(verdict, header, cols)
        elif kind == "sweep_boundary":
            self._check_boundary(verdict, header, cols)
        else:
            self._check_relaxation(verdict, header, cols)
        return verdict

    def _header_ok(self, verdict, header, cols, want):
        verdict.rows = len(next(iter(cols.values()), ()))
        if tuple(header) != tuple(want):
            verdict.problems.append(f"header {header} != {tuple(want)}")
            return False
        return True

    def _check_trajectory(self, verdict, header, cols):
        from lmesim.scenarios import DRIVEN_HEADER, EVOLVE_HEADER

        driven = self.cfg.kind == "driven"
        if not self._header_ok(verdict, header, cols,
                               DRIVEN_HEADER if driven else EVOLVE_HEADER):
            return
        times = cols["t"]
        gaps = np.diff(times)
        if not (len(times) >= 2 and times[0] == 0.0 and times[-1] == self.horizon
                and np.all(gaps > 0.0) and np.max(gaps) <= MAX_FRAME_GAP):
            verdict.problems.append(
                f"frames do not run from 0 to {self.horizon} in small steps")
            return
        want = self._cached(("frames", times.tobytes()), lambda: (
            _trajectory_reference(self.cfg, times)))
        bad = np.zeros(verdict.rows, dtype=bool)
        for name, ref in want.items():
            if name == "rate_neg_flag":
                verdict.compare(name, cols[name], ref, 0.0, bad, absolute=True)
            else:
                tol = TOL_SPLIT if name.startswith("efftemp") else TOL_STATE
                verdict.compare(name, cols[name], ref, tol, bad)
        for i in ("1", "2"):
            verdict.compare(f"Js{i}+JI{i}", cols[f"Js{i}"] + cols[f"JI{i}"],
                            cols[f"J{i}"], TOL_SPLIT, bad)
        verdict.bad_rows = int(bad.sum())

    def _check_boundary(self, verdict, header, cols):
        if not self._header_ok(verdict, header, cols, (
                "T1_over_T2", "eps1_over_eps2", "Sigma_dot_ss", "status")):
            return
        tr, er, want = self._cached("boundary",
                                    lambda: _boundary_reference(self.cfg))
        if not (np.array_equal(cols["T1_over_T2"], tr)
                and np.array_equal(cols["eps1_over_eps2"], er)):
            verdict.problems.append("grid columns differ from the configured grid")
            return
        sigma = cols["Sigma_dot_ss"]
        bad = cols["status"] != "ok"
        verdict.compare("Sigma_dot_ss", sigma, want, TOL_LYAP, bad)
        # criterion 1: positive below the line eps1/eps2 = T1/T2, negative
        # above it, identically zero at equal temperatures
        eg = np.array(self.cfg.eps_ratio_grid)
        cell = eg[1] - eg[0] if eg.size > 1 else 0.0
        equal = tr == tr[0]
        below = ~equal & (er <= tr - cell + 1e-12)
        above = ~equal & (er >= tr + cell - 1e-12)
        sign_bad = ((equal & ~(np.abs(sigma) < TOL_ZERO_ROW))
                    | (below & ~(sigma > 0.0)) | (above & ~(sigma < 0.0)))
        if sign_bad.any():
            verdict.notes.append("criterion 1 sign structure broken at "
                                 f"{int(sign_bad.sum())} points")
        verdict.bad_rows = int((bad | sign_bad).sum())

    def _check_relaxation(self, verdict, header, cols):
        if not self._header_ok(verdict, header, cols,
                               ("zeta2", "tau0", "tau_r", "ratio", "status")):
            return
        grid, want_tau0, want_tau_r = self._cached(
            "relaxation", lambda: _relaxation_reference(self.cfg))
        if not np.array_equal(cols["zeta2"], grid):
            verdict.problems.append("zeta2 column differs from the configured grid")
            return
        bad = cols["status"] != "ok"
        verdict.compare("tau0", cols["tau0"], want_tau0, TOL_TAU0, bad,
                        absolute=True)
        verdict.compare("tau_r", cols["tau_r"], want_tau_r, TOL_REL, bad)
        verdict.compare("ratio", cols["ratio"], cols["tau0"] / want_tau_r,
                        TOL_REL, bad)
        verdict.bad_rows = int(bad.sum())
