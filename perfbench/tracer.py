"""Spans around the package's layer boundaries, recorded from outside.

Each boundary is a public function as another module imported it (for
example ``lmesim.scenarios.integrate``); replacing that module attribute
times exactly the calls that cross from the importing layer into the
callee's layer.  Spans are aggregated in memory per boundary as call count,
total time and self time (total minus the time of nested spans), and the
per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

import numpy as np

# (importing module, attribute, layer that defines it)
BOUNDARIES = (
    ("cli", "load_config", "scenarios"),
    ("cli", "run_scenario", "scenarios"),
    ("cli", "emit_csv", "scenarios"),
    ("scenarios", "integrate", "dynamics"),
    ("scenarios", "steady_state_by_integration", "dynamics"),
    ("scenarios", "covariance_from_density", "gaussian"),
    ("scenarios", "drift_diffusion", "gaussian"),
    ("scenarios", "relaxation_time", "gaussian"),
    ("scenarios", "steady_covariance", "gaussian"),
    ("scenarios", "steady_heat_currents", "gaussian"),
    ("scenarios", "effective_temperature_check", "thermo"),
    ("scenarios", "find_tau0", "thermo"),
    ("scenarios", "thermo_record", "thermo"),
    ("thermo", "integrate", "dynamics"),
    ("thermo", "entropy_production_rate", "thermo"),
    ("thermo", "matrix_log_hermitian", "linalg"),
    ("thermo", "dissipator", "model"),
    ("dynamics", "liouvillian_matrix", "model"),
    ("gaussian", "decay_rate", "baths"),
    ("gaussian", "lyapunov_solve", "linalg"),
    ("model", "decay_rate", "baths"),
    ("model", "memory_correction_rate", "baths"),
)

# boundaries whose arguments and results are kept for the per-layer checks
CAPTURED = (
    "cli>scenarios.load_config",
    "scenarios>dynamics.integrate",
    "thermo>dynamics.integrate",
    "scenarios>gaussian.steady_covariance",
)


class Tracer:
    """Installs timing wrappers on the boundaries and keeps their statistics."""

    def __init__(self):
        self.stats = {}      # span name -> [calls, total_s, self_s]
        self.captured = {}   # span name -> [(args, result), ...]
        self.missing = []    # boundaries absent from this version
        self._open = []      # child time accumulated by each open span
        self._saved = []

    def install(self):
        for importer, attr, layer in BOUNDARIES:
            module = importlib.import_module(f"lmesim.{importer}")
            fn = getattr(module, attr, None)
            name = f"{importer}>{layer}.{attr}"
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        captured = (self.captured.setdefault(name, [])
                    if name in CAPTURED else None)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                nested = open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - nested
            if captured is not None:
                captured.append((args, result))
            return result

        return span

    def calls(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def trajectory_steps(traj) -> int:
    """Steps behind a Trajectory: full steps plus a final partial one,
    laid out as the integrator does."""
    t0, t1 = float(traj.times[0]), float(traj.times[-1])
    n_full = math.floor((t1 - t0) / traj.step + 1e-9)
    tail = (t1 - t0) - n_full * traj.step
    return n_full + (1 if tail >= 1e-12 * max(1.0, abs(t1)) else 0)


def _per_call_us(total_s, calls):
    return 1e6 * total_s / calls if calls else 0.0


def _trajectory_error(args, traj):
    """max |state - reference| over the frames of one captured trajectory."""
    import oracle

    rho0, _, system = args[:3]
    ref = (oracle.dop853_states if system.is_driven else oracle.expm_states)(
        system, traj.times, rho0)
    return float(np.max(np.abs(traj.states - ref)))


def _lyapunov_error(captures):
    from scipy.linalg import solve_continuous_lyapunov

    worst = 0.0
    for (dd,), cov in captures:
        ref = solve_continuous_lyapunov(dd.drift, -dd.diffusion)
        worst = max(worst, float(np.max(np.abs(cov - ref))))
    return worst


def _time_calls(fn, repeats):
    """Median wall time of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _model_microbenchmarks(cfg):
    """Per-call cost of the two generator builders, on the run's own system.

    ``tdlme_rhs`` is timed at the RK4 stage times t, t + h/2, t + h of 300
    steps spread over the run's horizon (2 time units for the sweeps);
    ``liouvillian_matrix`` after clearing every cache in ``lmesim.model``.
    """
    from lmesim import dynamics, model, scenarios

    system = cfg.system
    h = cfg.integrator.step or dynamics.default_step(system)
    horizon = cfg.horizon or scenarios.DEFAULT_HORIZONS.get(cfg.kind, 2.0)
    n_steps = max(1, int(horizon / h))
    stage_times = [t for k in np.linspace(0, n_steps - 1, 300).astype(int)
                   for t in (k * h, k * h + 0.5 * h, k * h + h)]
    rho = model.maximum_entropy_state().astype(complex)

    def sweep_rhs():
        for t in stage_times:
            model.tdlme_rhs(rho, t, system)

    rhs_us = 1e6 * _time_calls(sweep_rhs, 3) / len(stage_times)

    caches = [f for f in vars(model).values() if hasattr(f, "cache_clear")]

    def build():
        for f in caches:
            f.cache_clear()
        start = time.perf_counter()
        model.liouvillian_matrix(system)
        return time.perf_counter() - start

    liou_us = 1e6 * statistics.median(build() for _ in range(21))
    return rhs_us, liou_us


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics that the trace alone determines (values only)."""
    cfg = tracer.captured["cli>scenarios.load_config"][0][1]
    runs = tracer.captured.get("scenarios>dynamics.integrate", [])
    probes = tracer.captured.get("thermo>dynamics.integrate", [])
    integrate = ("scenarios>dynamics.integrate", "thermo>dynamics.integrate")
    steps = sum(trajectory_steps(traj) for _, traj in runs + probes)
    rates = ("gaussian>baths.decay_rate", "model>baths.decay_rate",
             "model>baths.memory_correction_rate")
    record = "scenarios>thermo.thermo_record"
    cov = "scenarios>gaussian.steady_covariance"
    rhs_us, liou_us = _model_microbenchmarks(cfg)
    return {
        "dynamics.integrate_s": tracer.total(*integrate),
        "dynamics.integrate_calls": tracer.calls(*integrate),
        "dynamics.steps": steps,
        "dynamics.step_us": _per_call_us(tracer.total(*integrate), steps),
        "dynamics.frames": sum(len(traj.times) for _, traj in runs),
        "dynamics.oracle_max_err": max(
            (_trajectory_error(a, traj) for a, traj in runs), default=0.0),
        "thermo.thermo_record_s": tracer.total(record),
        "thermo.frame_us": _per_call_us(tracer.total(record),
                                        tracer.calls(record)),
        "thermo.efftemp_s": tracer.total(
            "scenarios>thermo.effective_temperature_check"),
        "thermo.find_tau0_s": tracer.total("scenarios>thermo.find_tau0"),
        "thermo.sigma_evals": tracer.calls(
            "thermo>thermo.entropy_production_rate"),
        "thermo.tau0_probe_integrations": tracer.calls(
            "thermo>dynamics.integrate"),
        "model.tdlme_rhs_us": rhs_us,
        "model.liouvillian_matrix_us": liou_us,
        "baths.rate_calls": tracer.calls(*rates),
        "baths.rate_s": tracer.total(*rates),
        "gaussian.steady_covariance_s": tracer.total(cov),
        "gaussian.solve_us": _per_call_us(tracer.total(cov), tracer.calls(cov)),
        "gaussian.drift_diffusion_s": tracer.total(
            "scenarios>gaussian.drift_diffusion"),
        "gaussian.oracle_max_err": _lyapunov_error(tracer.captured.get(cov, [])),
        "linalg.lyapunov_solve_s": tracer.total("gaussian>linalg.lyapunov_solve"),
        "linalg.matrix_log_hermitian_s": tracer.total(
            "thermo>linalg.matrix_log_hermitian"),
        "scenarios.load_config_s": tracer.total("cli>scenarios.load_config"),
        "scenarios.emit_csv_s": tracer.total("cli>scenarios.emit_csv"),
        "scenarios.self_s": tracer.self_time("cli>scenarios.run_scenario"),
    }
