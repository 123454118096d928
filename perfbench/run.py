"""End-to-end benchmark of the lmesim CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each timed sample is one ``lmesim <subcommand> --config <generated INI>``
call in a fresh interpreter (perfbench/sample.py), so no in-process cache
carries over between samples.  Samples repeat until ``--seconds`` of
sampling is used up; every CSV is then checked against an independent
oracle (perfbench/oracle.py) outside the timed region.

With ``--trace 0`` the end-to-end metrics are printed as medians over the
samples: wall_s (scenario call to CSV closed), cpu_s (CPU over that span,
pool workers included), both rescaled to a reference host speed (see
SpeedProbe), setup_s (interpreter start, imports and config loading up to
the scenario call) and peak_rss_mb (largest max-RSS of any process).  With ``--trace 1`` one untraced and one traced sample run with
``--threads 1`` and the per-layer metrics are printed.  The last line of
stdout is a JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE_TIMEOUT_S = 150
# Host-speed probe.  On a machine whose cores are shared with other
# tenants, the same sample took anywhere from 5.5 s to 11.7 s within a few
# minutes, with the CPU time inflated by the same factor.  A short fixed
# kernel, run every PROBE_PERIOD_S on every CPU while the sample runs,
# tracks that slowdown on the CPUs the sample runs on (by thread CPU time,
# so waiting for the CPU does not count).  The times are rescaled to the
# speed at which the kernel takes PROBE_REFERENCE_S, set-up by the readings
# taken during set-up; the unscaled values are printed as well.
PROBE_PERIOD_S = 0.1
PROBE_ITERATIONS = 300
PROBE_REFERENCE_S = 1e-3
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "dynamics.integrate_s": "s", "dynamics.integrate_calls": "count",
    "dynamics.steps": "count", "dynamics.step_us": "us",
    "dynamics.frames": "count", "dynamics.oracle_max_err": "abs",
    "thermo.thermo_record_s": "s", "thermo.frame_us": "us",
    "thermo.efftemp_s": "s", "thermo.find_tau0_s": "s",
    "thermo.sigma_evals": "count", "thermo.tau0_probe_integrations": "count",
    "thermo.tau0_err": "time",
    "model.tdlme_rhs_us": "us", "model.liouvillian_matrix_us": "us",
    "baths.rate_calls": "count", "baths.rate_s": "s",
    "gaussian.steady_covariance_s": "s", "gaussian.solve_us": "us",
    "gaussian.drift_diffusion_s": "s", "gaussian.oracle_max_err": "abs",
    "linalg.lyapunov_solve_s": "s", "linalg.matrix_log_hermitian_s": "s",
    "scenarios.load_config_s": "s", "scenarios.emit_csv_s": "s",
    "scenarios.csv_bytes": "bytes", "scenarios.rows_ok": "count",
    "scenarios.rows_failed": "count", "scenarios.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _running_cpus(root):
    """CPUs on which processes of the tree under ``root`` are running or
    runnable right now (from /proc; a process that has exited is skipped)."""
    cpus = []
    pending = [root]
    while pending:
        pid = pending.pop()
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
                pending.extend(int(child) for child in fh.read().split())
        except (OSError, ValueError):
            continue
        if fields[0] == "R":
            cpus.append(int(fields[36]))     # field 39: CPU last run on
    return cpus


class SpeedProbe:
    """Times a fixed kernel in the package's numerical style (a 16x16
    complex matrix-vector step driven from a Python loop) every
    PROBE_PERIOD_S on one thread pinned to each CPU, until stopped.

    Each kernel time is weighted by how many of the sample's processes run
    on that CPU at that moment, so the speed is read where the sample runs.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = 0.01 * (rng.standard_normal((16, 16))
                               + 1j * rng.standard_normal((16, 16)))
        self._stop = threading.Event()
        self.pid = None
        self.readings = []      # (monotonic start, kernel time, weight)
        cpus = sorted(os.sched_getaffinity(0))
        self._threads = [
            threading.Thread(target=self._run, args=(cpu, k / len(cpus)),
                             daemon=True)
            for k, cpu in enumerate(cpus)
        ]

    def _run(self, cpu, phase):
        os.sched_setaffinity(0, {cpu})     # this thread only
        if self._stop.wait(phase * PROBE_PERIOD_S):
            return
        while True:
            pid = self.pid
            weight = _running_cpus(pid).count(cpu) if pid else 0
            vec = np.full(16, 0.25, dtype=complex)
            at = time.monotonic()
            start = time.thread_time()
            for _ in range(PROBE_ITERATIONS):
                vec = vec + 1e-4 * (self._matrix @ vec)
                float(vec[0].real)
            self.readings.append((at, time.thread_time() - start, weight))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def start(self):
        for thread in self._threads:
            thread.start()

    def stop(self):
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def kernel_s(self, t0=-math.inf, t1=math.inf) -> float:
        """Weighted mean kernel time over readings taken in [t0, t1); the
        plain mean when the sample never showed up as running there, and
        the plain mean of all readings when there are none."""
        window = [(k, w) for at, k, w in self.readings if t0 <= at < t1]
        total = sum(w for _, w in window)
        if total:
            return sum(k * w for k, w in window) / total
        return statistics.fmean(k for k, _ in window or
                                [(k, w) for _, k, w in self.readings])


@dataclass
class Sample:
    status: int | None          # exit status, None when killed on timeout
    duration_s: float           # launch to exit, as the parent saw it
    marks: dict = field(default_factory=dict)
    probe_setup_s: float = 0.0  # speed-probe kernel time during set-up
    probe_run_s: float = 0.0    # ... and from the scenario call on
    setup_s: float = 0.0
    verdict: object = None
    csv_bytes: int = 0

    @property
    def timed(self) -> bool:
        return "t_scenario" in self.marks and "t_done" in self.marks

    @property
    def ok(self) -> bool:
        return self.status == 0 and self.timed and self.verdict is not None \
            and self.verdict.ok

    def raw(self, name):
        m = self.marks
        if name == "wall_s":
            return m["t_done"] - m["t_scenario"]
        if name == "cpu_s":
            return m["cpu_done"] - m["cpu_scenario"]
        if name == "setup_s":
            return self.setup_s
        return m["peak_rss_mb"]

    def metric(self, name):
        if name == "setup_s":
            return self.setup_s * PROBE_REFERENCE_S / self.probe_setup_s
        if name in ("wall_s", "cpu_s"):
            return self.raw(name) * PROBE_REFERENCE_S / self.probe_run_s
        return self.raw(name)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def provenance():
    """Where and on what the numbers were taken (metadata, not metrics)."""
    import scipy

    lines = 0
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def run_sample(work, tag, subcommand, ini, extra_args=(), trace=False):
    """Launch one sample, wait for it and read back its marks."""
    marks_path = os.path.join(work, f"marks-{tag}.json")
    out_path = os.path.join(work, f"out-{tag}.csv")
    log_path = os.path.join(work, f"log-{tag}.txt")
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), marks_path]
    if trace:
        cmd.append("--trace")
    cmd += ["--", subcommand, "--config", ini, "--out", out_path, *extra_args]
    probe = SpeedProbe()
    with open(log_path, "w", encoding="utf-8") as log:
        probe.start()
        launched = time.monotonic()
        # own session, so a timeout can kill pool workers along with it
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        probe.pid = proc.pid
        try:
            status = proc.wait(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            status = None
        exited = time.monotonic()
    probe.stop()
    sample = Sample(status=status, duration_s=exited - launched)
    if os.path.exists(marks_path):
        with open(marks_path, encoding="utf-8") as fh:
            sample.marks = json.load(fh)
    sample.probe_setup_s = sample.probe_run_s = probe.kernel_s()
    if sample.timed:
        t_scenario = sample.marks["t_scenario"]
        sample.setup_s = t_scenario - launched
        sample.probe_setup_s = probe.kernel_s(launched, t_scenario)
        sample.probe_run_s = probe.kernel_s(t_scenario,
                                            sample.marks["t_done"])
    if status != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"perfbench: sample {tag} exited with {status}:\n{tail}",
              file=sys.stderr)
    elif os.path.exists(out_path):
        sample.csv_bytes = os.path.getsize(out_path)
    return sample, out_path


def gate(sample, oracle, out_path, tag):
    if sample.status != 0 or not os.path.exists(out_path):
        return
    sample.verdict = oracle.check(out_path)
    if not sample.verdict.ok:
        for note in sample.verdict.problems + sample.verdict.notes:
            print(f"perfbench: sample {tag} failed the oracle: {note}",
                  file=sys.stderr)
    os.remove(out_path)


def timed_run(name, work, ini, oracle, seconds):
    """Samples until ``seconds`` of sampling is used up (at least one)."""
    samples = []
    used = 0.0
    while True:
        tag = f"{name}-{len(samples)}"
        sample, out_path = run_sample(work, tag, workloads.WORKLOADS[name], ini)
        gate(sample, oracle, out_path, tag)
        samples.append(sample)
        used += sample.duration_s
        longest = max(s.duration_s for s in samples)
        if used + longest > seconds:
            return samples


def end_to_end_metrics(samples):
    timed = [s for s in samples if s.timed]
    return {
        name: statistics.median(s.metric(name) for s in timed)
        for name in UNITS
    } if timed else {}


def trace_run(name, work, ini, oracle):
    """An untraced and a traced sample, both with sweep points in-process."""
    subcommand = workloads.WORKLOADS[name]
    pair = []
    for traced in (False, True):
        tag = f"{name}-{'traced' if traced else 'plain'}"
        sample, out_path = run_sample(work, tag, subcommand, ini,
                                      ("--threads", "1"), trace=traced)
        gate(sample, oracle, out_path, tag)
        pair.append(sample)
    plain, traced = pair
    layers = traced.marks.get("layers")
    if not (plain.timed and layers):
        return pair, {}
    verdict = traced.verdict
    metrics = dict(layers)
    metrics["thermo.tau0_err"] = verdict.errors.get("tau0", 0.0) if verdict else 0.0
    metrics["scenarios.csv_bytes"] = traced.csv_bytes
    metrics["scenarios.rows_ok"] = verdict.rows_ok if verdict else 0
    metrics["scenarios.rows_failed"] = verdict.rows_failed if verdict else 0
    metrics["trace.overhead_frac"] = (
        traced.metric("wall_s") / plain.metric("wall_s") - 1.0)
    print(f"{name}: trace ran the sweep points in-process (--threads 1) in "
          "both the untraced and the traced sample; pool workers, whose "
          "spans would be lost, were not used")
    spans = traced.marks.get("spans", {})
    for span, (calls, total, own) in sorted(spans.items(),
                                            key=lambda kv: -kv[1][1]):
        if calls:
            print(f"  span {span:48s} {calls:8d} calls {total:9.4f} s "
                  f"self {own:9.4f} s")
    for span in traced.marks.get("missing_spans", []):
        print(f"  span {span} not present in this version of the package")
    return pair, metrics


def run_workload(name, seed, seconds, trace, work):
    from lmesim.scenarios import load_config

    import oracle as oracle_mod

    ini = os.path.join(work, f"{name}.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(name, seed))
    oracle = oracle_mod.Oracle(load_config(ini))
    if trace:
        samples, metrics = trace_run(name, work, ini, oracle)
        units = LAYER_UNITS
    else:
        samples = timed_run(name, work, ini, oracle, seconds)
        metrics = end_to_end_metrics(samples)
        units = UNITS
        timed = [s for s in samples if s.timed]
        for key, value in metrics.items():
            each = " ".join(f"{s.metric(key):.4f}" for s in timed)
            line = (f"{name}: {key} {value:.4f} {units[key]} (median of "
                    f"{len(timed)} samples: {each})")
            if key != "peak_rss_mb":
                raw = statistics.median(s.raw(key) for s in timed)
                line += f"; unscaled median {raw:.4f} {units[key]}"
            print(line)
        print(f"{name}: speed-probe kernel, set-up/run, ms: " + " ".join(
            f"{1e3 * s.probe_setup_s:.3f}/{1e3 * s.probe_run_s:.3f}"
            for s in samples)
            + f" (reference {1e3 * PROBE_REFERENCE_S:g} ms)")
    failed = sum(not s.ok for s in samples)
    print(f"{name}: {len(samples) - failed}/{len(samples)} samples passed "
          "the oracle gate")
    return samples, failed, metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lmesim", "__init__.py")):
        _fail(f"no package source at {os.path.join(SRC, 'lmesim')}; run "
              "from a checkout of the repository")
    sys.path.insert(0, SRC)
    import lmesim

    if not os.path.abspath(lmesim.__file__).startswith(SRC + os.sep):
        _fail(f"imported lmesim from {lmesim.__file__}, not from {SRC}")

    print("provenance: " + json.dumps(provenance()))
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work)
    attempted = failed = 0
    out = {}
    try:
        for name in names:
            samples, bad, metrics, units = run_workload(
                name, args.seed, args.seconds, args.trace, work)
            attempted += len(samples)
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            for key, value in metrics.items():
                out[prefix + key] = {"value": value, "unit": units[key]}
            if len(metrics) != len(units):
                _fail(f"{name}: no sample produced metrics")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass    # another run is still using it
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
