"""Entropy, heat currents, the batched observable kernel and the
entropy-production crossing finder.

The dS/dt check propagates the state with an independent route — the
matrix exponential of the vectorized generator — so that the finite
difference of the entropy never touches the stepper under test.  The
kernel is checked against the per-frame computation it replaced, kept
here as the oracle.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    dense_reference,
    dissipator,
    driven_systems,
    fit_power_law,
    gibbs_product_state,
    make_system,
    matrix_log_hermitian,
    random_density,
    undriven_systems,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lmesim import (
    CrossingResult,
    IntegrationError,
    IntegratorConfig,
    PositivityError,
    bare_hamiltonian,
    effective_temperature_check,
    entropy,
    entropy_production_rate,
    find_tau0,
    heat_current,
    integrate,
    interaction_hamiltonian,
    liouvillian_matrix,
    maximum_entropy_state,
    thermo_record,
    trajectory_observables,
)
from lmesim import dynamics, thermo
from lmesim.model import HERMITIAN_BASIS, coordinates


def haar_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# entropy


def test_entropy_reference_states():
    assert entropy(maximum_entropy_state()) == pytest.approx(math.log(4.0), rel=1e-12)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert abs(entropy(pure)) < 1e-9
    half = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert entropy(half) == pytest.approx(math.log(2.0), rel=1e-12)


def test_entropy_unitary_invariance_and_range(rng):
    for _ in range(10):
        rho = random_density(rng)
        s = entropy(rho)
        assert 0.0 <= s <= math.log(4.0) + 1e-12
        u = haar_unitary(rng)
        assert entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=1e-10)


def test_entropy_rejects_non_finite_entries():
    # eigvalsh of a NaN matrix can still give a finite entropy
    for diagonal in ([np.nan, 0.5, 0.5, 0.0], [np.nan, 1.0, 0.0, 0.0], [0.5, 0.5, np.inf, 0.0]):
        with pytest.raises(ValueError, match="density matrix has non-finite entries"):
            entropy(np.diag(diagonal).astype(complex))


def test_entropy_of_rotated_pure_state_is_negligible(rng):
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    u = haar_unitary(rng)
    assert abs(entropy(u @ pure @ u.conj().T)) < 1e-9


# ---------------------------------------------------------------------------
# heat currents


def test_heat_current_splits_into_bare_and_interaction_parts(rng, driven_system):
    for t in (0.0, 0.7, 3.1):
        rho = random_density(rng)
        total, bare, inter = heat_current(1, rho, t, driven_system)
        assert total == pytest.approx(bare + inter, abs=1e-12)


def test_heat_current_vanishes_on_uncoupled_gibbs_state():
    cfg = make_system(coupling=0.0)
    rho = gibbs_product_state(cfg)
    for i in (1, 2):
        total, bare, inter = heat_current(i, rho, 0.0, cfg)
        assert abs(total) < 1e-10
        assert abs(bare) < 1e-10
        assert abs(inter) < 1e-10


def test_steady_heat_flows_hot_to_system_to_cold(base_system, base_steady):
    # detuned workhorse: bath 1 absorbs, bath 2 supplies
    j1 = heat_current(1, base_steady, 0.0, base_system)[0]
    j2 = heat_current(2, base_steady, 0.0, base_system)[0]
    assert j1 < 0.0 < j2
    assert j1 == pytest.approx(-0.014070739193283721, abs=1e-8)
    assert abs(j1 + j2) < 1e-9


# ---------------------------------------------------------------------------
# entropy rate and production rate


def _real_trace(a, b):
    return float(np.einsum("ij,ji->", a, b).real)


def _entropy_rate(rho, t, cfg):
    """dS/dt = -ζ² Σ_i Tr(𝓛_i[ρ] ln ρ), from the per-bath dissipators and the
    single-matrix logarithm."""
    logm = matrix_log_hermitian(rho)
    return -sum(cfg.zeta2 * _real_trace(dissipator(i, rho, t, cfg), logm)
                for i in (1, 2))


def test_entropy_time_derivative_against_finite_difference(base_system):
    # independent propagation: matrix exponential of the vectorized generator
    gen = liouvillian_matrix(base_system)
    rho0 = maximum_entropy_state()

    def state_at(t):
        return (scipy.linalg.expm(gen * t) @ rho0.reshape(16)).reshape(4, 4)

    h = 1e-4
    times = (0.3, 1.0, 2.5)
    # dS/dt = Σ̇ + Σ_i β_i J_i, all from one kernel pass over the frames
    cols = trajectory_observables(times, [state_at(t) for t in times], base_system)
    ds_dt = (cols.sigma_dot + base_system.bath1.beta * cols.j1
             + base_system.bath2.beta * cols.j2)
    for t, rate in zip(times, ds_dt):
        fd = (entropy(state_at(t + h)) - entropy(state_at(t - h))) / (2.0 * h)
        assert rate == pytest.approx(fd, abs=1e-6)


def test_production_rate_assembles_from_entropy_rate_and_currents(rng, driven_system):
    for t in (0.0, 0.9, 4.2):
        rho = random_density(rng)
        direct = entropy_production_rate(rho, t, driven_system)
        assembled = _entropy_rate(rho, t, driven_system)
        for i in (1, 2):
            assembled -= driven_system.bath(i).beta * heat_current(i, rho, t, driven_system)[0]
        assert direct == pytest.approx(assembled, abs=1e-10)


def test_production_rate_at_maximum_entropy_state(base_system):
    # ln(I/4) is proportional to the identity, so only the current terms count
    rho = maximum_entropy_state()
    direct = entropy_production_rate(rho, 0.0, base_system)
    currents = sum(
        -base_system.bath(i).beta * heat_current(i, rho, 0.0, base_system)[0]
        for i in (1, 2)
    )
    assert direct == pytest.approx(currents, abs=1e-12)
    assert direct == pytest.approx(1.6551, rel=1e-3)


def test_production_rate_zero_on_uncoupled_gibbs_state():
    cfg = make_system(coupling=0.0)
    assert abs(entropy_production_rate(gibbs_product_state(cfg), 0.0, cfg)) < 1e-9


def test_production_rate_warns_near_pure_state(base_system):
    rho = np.diag([1.0 - 1e-9, 1e-9 / 3, 1e-9 / 3, 1e-9 / 3]).astype(complex)
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        entropy_production_rate(rho, 0.0, base_system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entropy_production_rate(maximum_entropy_state(), 0.0, base_system)


def test_thermo_record_matches_individual_observables(base_trajectory, base_system):
    k = len(base_trajectory.times) // 3
    t = float(base_trajectory.times[k])
    rho = base_trajectory.states[k]
    rec = thermo_record(rho, t, base_system)
    assert rec.t == t
    for i, (jfield, jsfield, jifield) in ((1, ("j1", "js1", "ji1")),
                                          (2, ("j2", "js2", "ji2"))):
        total, bare, inter = heat_current(i, rho, t, base_system)
        assert getattr(rec, jfield) == pytest.approx(total, rel=1e-12, abs=1e-13)
        assert getattr(rec, jsfield) == pytest.approx(bare, rel=1e-12, abs=1e-13)
        assert getattr(rec, jifield) == pytest.approx(inter, rel=1e-12, abs=1e-13)
    assert rec.entropy == pytest.approx(entropy(rho), rel=1e-12)
    assert rec.sigma_dot == pytest.approx(
        entropy_production_rate(rho, t, base_system), rel=1e-12, abs=1e-13
    )


# ---------------------------------------------------------------------------
# batched observable kernel


def _per_frame_record(rho, t, cfg):
    """One frame's (J1, J2, Js1, JI1, Js2, JI2, S, Σ̇) as computed before the
    batched kernel, with the per-bath dissipators of the np.kron reference
    (independent of the package's basis), a checked matrix log, a separate
    eigenvalue solve for S and one complex trace per product."""
    h_bare = bare_hamiltonian(t, cfg)
    h_int = interaction_hamiltonian(cfg)
    h_full = h_bare + h_int
    logm = matrix_log_hermitian(rho)
    js, ji, jtot = [], [], []
    sigma = 0.0
    for i, dense in zip((1, 2), dense_reference(rho, t, cfg)[0]):
        diss = cfg.zeta2 * dense
        jtot.append(_real_trace(h_full, diss))
        js.append(_real_trace(h_bare, diss))
        ji.append(_real_trace(h_int, diss))
        sigma -= _real_trace(logm + cfg.bath(i).beta * h_full, diss)
    probs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    probs = probs[probs > 0.0]
    s = float(-np.sum(probs * np.log(probs)))
    return (jtot[0], jtot[1], js[0], ji[0], js[1], ji[1], s, sigma)


# a dissipator trace can be far smaller than the entries it sums: a double
# precision reference misses by up to ~1e-12 there, so the comparison needs
# the reference's extended precision, which some platforms lack
@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="longdouble is plain double here; the reference "
                           "cannot resolve the 1e-12 tolerance")
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(cfg=st.one_of(undriven_systems, driven_systems),
       times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_trajectory_observables_match_per_frame_records(cfg, times, seed):
    rng = np.random.default_rng(seed)
    states = np.array([random_density(rng) for _ in times])
    cols = trajectory_observables(times, states, cfg)
    assert np.array_equal(cols.t, times)
    got = np.array(cols[1:-1]).T
    for row, t, rho in zip(got, times, states):
        want = np.array(_per_frame_record(rho, t, cfg))
        assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert np.allclose(cols.lowest, np.linalg.eigvalsh(states)[:, 0], rtol=0.0, atol=1e-14)


def test_trajectory_observables_warn_on_a_near_singular_frame(base_system):
    near = np.diag([1.0 - 1.5e-10, 2e-10, 0.0, -5e-11]).astype(complex)
    states = np.array([maximum_entropy_state(), near])
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        cols = trajectory_observables([0.0, 0.1], states, base_system)
    assert cols.lowest[1] == pytest.approx(-5e-11, abs=1e-15)
    assert np.all(np.isfinite(cols.sigma_dot))


def test_trajectory_observables_reject_a_negative_frame(base_system):
    bad = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]).astype(complex)
    states = np.array([maximum_entropy_state(), bad, maximum_entropy_state()])
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        with pytest.raises(PositivityError, match="t=0.1 "):
            trajectory_observables([0.0, 0.1, 0.2], states, base_system)


def test_trajectory_observables_reject_mismatched_shapes(base_trajectory, base_system):
    # one time beside every frame of a run would give a one-row t column
    # beside full-length currents
    states = base_trajectory.states
    for times, frames in [([0.0], states), (base_trajectory.times, states[0]),
                          (np.zeros((len(states), 1)), states)]:
        with pytest.raises(ValueError, match=r"states must have shape \(n, 4, 4\)") as err:
            trajectory_observables(times, frames, base_system)
        assert str(np.shape(frames)) in str(err.value)
        assert str(np.shape(times)) in str(err.value)


def test_trajectory_observables_reject_a_mismatched_spectrum(base_trajectory, base_system):
    # one frame's spectrum beside many frames would give every frame that
    # frame's entropy and Σ̇ terms; past FRAME_BLOCK frames it would fail
    # inside the block arithmetic instead
    w, v = base_trajectory.spectrum
    for n in (101, thermo.FRAME_BLOCK + 1):
        times, states = base_trajectory.times[:n], base_trajectory.states[:n]
        with pytest.raises(ValueError, match=r"spectrum must be \(w, V\) of shapes") as err:
            trajectory_observables(times, states, base_system, spectrum=(w[n - 1:n], v[n - 1:n]))
        assert "[(1, 4), (1, 4, 4)]" in str(err.value)
        own = trajectory_observables(times, states, base_system)
        reused = trajectory_observables(times, states, base_system, spectrum=(w[:n], v[:n]))
        assert all(np.array_equal(a, b) for a, b in zip(reused, own))
    bad = w[:101].copy()
    bad[3, 2] = np.nan
    with pytest.raises(ValueError, match=r"spectrum has non-finite entries at \(3, 2\)$"):
        trajectory_observables(base_trajectory.times[:101], base_trajectory.states[:101],
                               base_system, spectrum=(bad, v[:101]))


def test_trajectory_observables_reject_a_non_finite_frame(base_system, driven_system):
    # no column may come from a NaN frame or time; the one-frame views
    # share the check
    rho = maximum_entropy_state().astype(complex)
    bad = rho.copy()
    bad[0, 0] = np.nan
    states = np.array([rho, bad, rho])
    for cfg in (base_system, driven_system):
        with pytest.raises(ValueError, match=r"states has non-finite entries at \(1, 0, 0\)$"):
            trajectory_observables([0.0, 0.1, 0.2], states, cfg)
        with pytest.raises(ValueError, match=r"times has non-finite entries at \(1,\)$"):
            trajectory_observables([0.0, np.nan, 0.2], np.array([rho] * 3), cfg)
        for view in (thermo_record, entropy_production_rate,
                     lambda r, t, c: heat_current(1, r, t, c)):
            with pytest.raises(ValueError, match="states has non-finite entries"):
                view(bad, 0.1, cfg)


def test_trajectory_observables_need_a_frame(base_system):
    with pytest.raises(ValueError, match="at least one frame"):
        trajectory_observables([], np.zeros((0, 4, 4)), base_system)


# ---------------------------------------------------------------------------
# effective-temperature diagnostic


def test_effective_temperature_check_undriven(base_system):
    for i in (1, 2):
        assert effective_temperature_check(i, 0.4, base_system) < 1e-13


def test_effective_temperature_check_takes_an_array_of_times(driven_system):
    times = np.linspace(0.0, 8.0, 161)
    for i in (1, 2):
        devs = effective_temperature_check(i, times, driven_system)
        one_by_one = [effective_temperature_check(i, float(t), driven_system) for t in times]
        assert devs.shape == times.shape
        assert np.array_equal(devs, one_by_one)
        assert np.ndim(one_by_one[0]) == 0


def test_effective_temperature_check_is_finite_for_a_cold_bath():
    # at T = 0.01 the thermal ratio e^{2βE} overflows; γ⁺ is 0 at t = 0,
    # where the memory correction vanishes, and that correction elsewhere
    with pytest.warns(UserWarning, match="high-temperature closed forms"):
        cfg = make_system(t2=0.01, amp=(2.0, 2.0), freq=(0.2, 0.2))
    times = np.linspace(0.0, 1.0, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        devs = effective_temperature_check(2, times, cfg)
        one_by_one = [effective_temperature_check(2, float(t), cfg) for t in times]
    assert np.all(np.isfinite(devs))
    assert np.array_equal(devs, one_by_one)
    assert devs[0] == 0.0        # γ⁺ and γ⁻ e^{-2βE} both round to 0
    assert np.all(devs[1:] == 1.0)    # |γ⁺| ≫ γ⁻ e^{-2βE}


def test_effective_temperature_check_grows_with_drive_frequency():
    devs = []
    for omega in (0.2, 1.0, 5.0):
        cfg = make_system(amp=(2.0, 2.0), freq=(omega, omega))
        period = 2.0 * math.pi / omega
        devs.append(max(
            effective_temperature_check(1, t, cfg)
            for t in np.linspace(0.0, period, 101)
        ))
    assert devs[0] < devs[1] < devs[2]


# ---------------------------------------------------------------------------
# crossing finder


def test_find_tau0_locates_the_crossing(base_trajectory, base_system):
    res = find_tau0(maximum_entropy_state(), 12.0, base_system)
    assert res.found
    assert res.reason is None
    t_lo, t_hi = res.bracket
    assert t_lo <= res.tau0 <= t_hi
    assert t_hi - t_lo <= 2e-6
    assert res.tau0 == pytest.approx(2.2467, rel=1e-3)

    # the bracket really straddles the sign change: re-derive Σ̇ at both
    # ends by fresh integration from the nearest recorded frame
    k = int(np.searchsorted(base_trajectory.times, t_lo, side="right")) - 1
    icfg = IntegratorConfig(step=base_trajectory.step, record_stride=10**9)

    def sigma(t):
        sub = integrate(
            base_trajectory.states[k],
            (float(base_trajectory.times[k]), t), base_system, icfg,
        )
        return entropy_production_rate(sub.final_state, t, base_system)

    assert sigma(t_lo) > 0.0 >= sigma(t_hi)


def _first_down(traj, cfg) -> int:
    """Frame k of the first Σ̇ sign change from > 0 (frame k) to ≤ 0."""
    sigmas = [entropy_production_rate(state, float(t), cfg)
              for t, state in zip(traj.times, traj.states)]
    return next(j for j in range(len(sigmas) - 1) if sigmas[j] > 0.0 >= sigmas[j + 1])


def _scan_end(k: int) -> int:
    """Frames that the scan computes for a first sign change at frame k:
    whole FRAME_BLOCKs up to the one holding frame k + 1."""
    return thermo.FRAME_BLOCK * math.ceil((k + 2) / thermo.FRAME_BLOCK)


def _recording_frames(monkeypatch, seen, replace=None):
    """Make find_tau0's frame loop record each frame of the blocks it yields
    in ``seen`` as (t, v, rate_negative), v = U r the state's row-major vec,
    with the frames numbered in ``replace`` swapped for its states (by their
    real coordinates)."""
    original = dynamics._frames
    replace = replace or {}

    def frames(*args):
        start = 0
        for times, rows, flags in original(*args):
            rows = rows.copy()
            for j in replace.keys() & range(start, start + len(rows)):
                rows[j - start] = coordinates(replace[j])
            seen.extend(zip(times, (HERMITIAN_BASIS @ r for r in rows), flags))
            start += len(rows)
            yield times, rows, flags

    monkeypatch.setattr(thermo, "_frames", frames)


def _illinois(f, t_lo, f_lo, t_hi, f_hi):
    """The documented refinement of `thermo._refine_crossing`, written out
    again: each probe the false-position point, TAU0_TIME_TOL/2 inside the
    bracket and within w0·2^(1-n) - w/2 of its midpoint; the f of an end kept
    twice in a row halved.  Returns the final bracket and the probes made."""
    tol, w0 = thermo.TAU0_TIME_TOL, t_hi - t_lo
    probes, kept = [], None
    while t_hi - t_lo > tol:
        w = t_hi - t_lo
        mid, slack = 0.5 * (t_lo + t_hi), w0 * 2.0 ** (1 - len(probes)) - 0.5 * w
        t = t_lo + w * f_lo / (f_lo - f_hi)
        t = min(max(t, t_lo + 0.5 * tol, mid - slack), t_hi - 0.5 * tol, mid + slack)
        probes.append(t)
        f_t = f(t)
        if f_t > 0.0:
            f_hi *= 0.5 if kept == "hi" else 1.0
            t_lo, f_lo, kept = t, f_t, "hi"
        else:
            f_lo *= 0.5 if kept == "lo" else 1.0
            t_hi, f_hi, kept = t, f_t, "lo"
    return (t_lo, t_hi), probes


def _check_scan(traj, cfg, icfg, monkeypatch):
    """find_tau0 on traj's run gives the documented refinement of traj's
    first sign change and computes the frames up to that change's block only."""
    k = _first_down(traj, cfg)
    # the refinement from frames k and k + 1, seeded with their Σ̇ over the
    # whole trajectory, each probe a fresh integration from frame k
    sigmas = trajectory_observables(traj.times, traj.states, cfg, check=False).sigma_dot
    probe = IntegratorConfig(step=traj.step, record_stride=10**9)

    def sigma(t):
        sub = integrate(traj.states[k], (float(traj.times[k]), t), cfg, probe)
        return entropy_production_rate(sub.final_state, t, cfg)

    (t_lo, t_hi), _ = _illinois(sigma, float(traj.times[k]), float(sigmas[k]),
                                float(traj.times[k + 1]), float(sigmas[k + 1]))
    full_scan = CrossingResult(found=True, tau0=0.5 * (t_lo + t_hi),
                               bracket=(t_lo, t_hi))

    frame_evals = []
    original = thermo.trajectory_observables

    def counting(times, states, system, check=True, spectrum=None):
        if not check:    # the scan's blocks, not the probes' one-frame views
            frame_evals.extend(times)
        return original(times, states, system, check, spectrum)

    monkeypatch.setattr(thermo, "trajectory_observables", counting)
    computed = []
    _recording_frames(monkeypatch, computed)
    assert find_tau0(maximum_entropy_state(), 12.0, cfg, icfg) == full_scan
    assert len(frame_evals) == len(computed) == _scan_end(k) < len(traj.times)


def test_find_tau0_stops_scanning_at_the_crossing(base_trajectory, base_system,
                                                  monkeypatch):
    _check_scan(base_trajectory, base_system, IntegratorConfig(), monkeypatch)


def test_find_tau0_finds_a_crossing_across_a_block_seam(base_system, monkeypatch):
    # frames every 352 steps: Σ̇ first changes sign between frames 127 and
    # 128, the last frame of one block and the first of the next
    icfg = IntegratorConfig(record_stride=352)
    traj = integrate(maximum_entropy_state(), 12.0, base_system, icfg)
    assert _first_down(traj, base_system) == thermo.FRAME_BLOCK - 1
    _check_scan(traj, base_system, icfg, monkeypatch)


def test_find_tau0_scans_the_first_frames_of_integrates_run(base_trajectory,
                                                            base_system, monkeypatch):
    seen = []
    _recording_frames(monkeypatch, seen)
    find_tau0(maximum_entropy_state(), 12.0, base_system)
    times, states, flags = map(np.array, zip(*seen))
    n = len(times)
    assert n == _scan_end(_first_down(base_trajectory, base_system))
    assert np.array_equal(times, base_trajectory.times[:n])
    assert np.array_equal(states.reshape(-1, 4, 4), base_trajectory.states[:n])
    assert np.array_equal(flags, base_trajectory.rate_negative[:n])


def test_find_tau0_checks_only_the_frames_up_to_the_crossing(base_trajectory,
                                                              base_system, monkeypatch):
    rho0 = maximum_entropy_state()
    want = find_tau0(rho0, 12.0, base_system)
    k = _first_down(base_trajectory, base_system)
    end = _scan_end(k)
    assert k + 2 < end - 1      # the crossing's block goes on after frame k + 1
    # a unit-trace frame within the frame checks' eigenvalue tolerance but
    # beyond the matrix log's
    bad = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]).astype(complex)
    for late in (k + 2, end - 1, end):    # after the crossing: never looked at
        _recording_frames(monkeypatch, [], {late: bad})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_tau0(rho0, 12.0, base_system) == want
    _recording_frames(monkeypatch, [], {1: bad})   # before it: the scan fails there
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        with pytest.raises(PositivityError):
            find_tau0(rho0, 12.0, base_system)

    # a frame that fails the frame checks fails the scan in the crossing's
    # block, and is never computed after it
    broken = np.diag([1.0 + 1e-6, 0.0, 0.0, -1e-6]).astype(complex)
    _recording_frames(monkeypatch, [], {end - 1: broken})
    with pytest.raises(IntegrationError, match="eigenvalue") as err:
        find_tau0(rho0, 12.0, base_system)
    assert err.value.time == base_trajectory.times[end - 1]
    _recording_frames(monkeypatch, [], {end: broken})
    assert find_tau0(rho0, 12.0, base_system) == want


@pytest.mark.parametrize("f, root", [
    (lambda t: 0.3 - t if t < 0.3 else 1e-6 * (0.3 - t), 0.3),    # a kink
    (lambda t: -math.tanh(200.0 * (t - 0.37)), 0.37),            # a steep tanh
    (lambda t: -(t - 0.2) ** 3, 0.2),                            # a triple root
    (lambda t: 1.0 - t, 1.0),                                    # f = 0 at t_hi
], ids=["kink", "tanh", "cubic", "zero-at-hi"])
def test_refine_crossing_keeps_its_bracket_and_probe_budget(f, root):
    tol, (t_lo, t_hi) = thermo.TAU0_TIME_TOL, (0.0, 1.0)
    seen = []

    def counted(t):
        seen.append(t)
        return f(t)

    lo, hi = thermo._refine_crossing(counted, t_lo, f(t_lo), t_hi, f(t_hi))
    (want_lo, want_hi), probes = _illinois(f, t_lo, f(t_lo), t_hi, f(t_hi))
    assert (lo, hi) == (want_lo, want_hi) and seen == probes
    assert f(lo) > 0.0 >= f(hi)
    assert lo <= root <= hi
    assert hi - lo <= tol
    assert len(seen) <= math.ceil(math.log2((t_hi - t_lo) / tol)) + 2


def test_find_tau0_refines_a_smooth_crossing_in_few_probes(base_system, monkeypatch):
    # bisection from the 5e-3 frame spacing takes 13 probes; Σ̇ is smooth
    # there, and false position with the Illinois rule needs a few
    probes = []
    original = thermo.integrate

    def counting(*args):
        probes.append(args[1])
        return original(*args)

    monkeypatch.setattr(thermo, "integrate", counting)
    res = find_tau0(maximum_entropy_state(), 12.0, base_system)
    assert res.found
    assert len(probes) <= 4


def test_find_tau0_reports_always_positive_without_coupling():
    cfg = make_system(coupling=0.0)
    icfg = IntegratorConfig(step=5e-4, record_stride=200)
    res = find_tau0(maximum_entropy_state(), 12.0, cfg, icfg)
    assert not res.found
    assert res.reason == "always_positive"
    assert res.tau0 is None


def test_find_tau0_reports_insufficient_horizon(base_system):
    res = find_tau0(maximum_entropy_state(), 0.3, base_system)
    assert not res.found
    assert res.reason == "insufficient_horizon"


def test_find_tau0_reports_never_positive(base_system, base_steady):
    # from the steady state Σ̇ sits at its (negative) stationary value
    res = find_tau0(base_steady, 0.1, base_system)
    assert not res.found
    assert res.reason == "never_positive"


# ---------------------------------------------------------------------------
# power-law fitting


def test_fit_power_law_exact_lines():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(xs, 3.0 * xs)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_power_law(xs, 2.0 * xs**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


def test_fit_power_law_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])
    # a failed sweep point leaves NaN in its column
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, bad, 3.0])
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, bad, 3.0], [1.0, 2.0, 3.0])
