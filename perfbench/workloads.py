"""The benchmark's named CLI workloads and the config files they run.

Each workload is one ``lmesim <subcommand> --config <file>`` invocation.
Seed 0 generates exactly the documented configuration; any other seed
jitters the physics inside a small band (see ``_jitter``) so that a gain can
be re-checked on inputs it was not tuned on.  The program only ever sees the
generated INI text.
"""

from __future__ import annotations

import random

# Workhorse system: hot bath on the strongly split qubit.
EPSILON1 = 10.0
EPSILON2 = 5.0
T1 = 15.0
T2 = 10.0
KAPPA = 10.0
CUTOFF = 1.0
COUPLING = 0.5
ZETA2 = 0.5

# Seed jitter bands, as relative half-widths.  epsilon1 is never jittered:
# it is the stiffest scale and fixes the default RK4 step, so every seed
# does the same number of steps on evolve-12 and driven-2.  The relaxation
# grid moves by at most 2 %, which moves its slowest trajectory (the one
# that sets the wall time) by at most 2 %.  Within these bands
# epsilon1/epsilon2 >= 1.94 stays above T1/T2 <= 1.59, so the steady
# entropy production stays negative and every relaxation point has a tau0
# crossing.
TEMPERATURE_BAND = 0.03
EPSILON2_BAND = 0.03
ZETA2_GRID_BAND = 0.02


# workload name -> CLI subcommand
WORKLOADS = {
    "evolve-12": "evolve",
    "driven-2": "driven",
    "boundary-161": "sweep-boundary",
    "relaxation-3": "relaxation",
}


def _jitter(seed: int):
    """Multiplicative factors (t1, t2, eps2, zeta2 grid); all 1 for seed 0."""
    if seed == 0:
        return 1.0, 1.0, 1.0, 1.0
    rng = random.Random(seed)

    def factor(band):
        return 1.0 + rng.uniform(-band, band)

    return (factor(TEMPERATURE_BAND), factor(TEMPERATURE_BAND),
            factor(EPSILON2_BAND), factor(ZETA2_GRID_BAND))


def config_text(name: str, seed: int, size: int | None = None) -> str:
    """INI text for workload ``name``.

    ``size`` shrinks the workload for the self-tests: the horizon in
    hundredths of a time unit for the trajectory workloads, the grid count
    for the sweeps.  ``None`` gives the benchmark size.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    f_t1, f_t2, f_eps2, f_zeta2 = _jitter(seed)
    lines = [
        "[system]",
        f"epsilon1 = {EPSILON1!r}",
        f"epsilon2 = {EPSILON2 * f_eps2!r}",
        f"coupling = {COUPLING!r}",
        f"zeta2 = {ZETA2!r}",
        "[bath1]",
        f"temperature = {T1 * f_t1!r}",
        f"kappa = {KAPPA!r}",
        f"cutoff = {CUTOFF!r}",
        "[bath2]",
        f"temperature = {T2 * f_t2!r}",
        f"kappa = {KAPPA!r}",
        f"cutoff = {CUTOFF!r}",
    ]
    # ``kind`` is always written: load_config checks the file's kind
    # (default evolve) against the drive before the CLI subcommand
    # overrides it, so a driven file without it is rejected.
    if name == "evolve-12":
        horizon = 12.0 if size is None else size / 100.0
        lines += ["[scenario]", "kind = evolve", f"horizon = {horizon!r}"]
    elif name == "driven-2":
        horizon = 2.0 if size is None else size / 100.0
        lines += [
            "[drive]",
            "amplitude1 = 2.0", "frequency1 = 0.2",
            "amplitude2 = 2.0", "frequency2 = 0.2",
            "[scenario]", "kind = driven", f"horizon = {horizon!r}",
            "[integrator]", "step = 0.0005",
        ]
    elif name == "boundary-161":
        count = 161 if size is None else size
        lines += [
            "[scenario]", "kind = sweep_boundary",
            "t_ratio_min = 1.0", "t_ratio_max = 3.0", f"t_ratio_count = {count}",
            "eps_ratio_min = 0.5", "eps_ratio_max = 3.0",
            f"eps_ratio_count = {count}",
        ]
    else:
        count = 3 if size is None else size
        lo, hi = 0.25 * f_zeta2, 1.0 * f_zeta2
        if count == 1:
            lo = hi
        lines += [
            "[scenario]", "kind = relaxation",
            f"relax_zeta2_min = {lo!r}", f"relax_zeta2_max = {hi!r}",
            f"relax_zeta2_count = {count}",
        ]
    return "\n".join(lines) + "\n"
