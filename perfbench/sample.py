"""One benchmark sample: a single ``lmesim.cli.main`` call in a fresh
interpreter, exactly as a user runs the CLI.

    python3 perfbench/sample.py MARKS.json [--trace] -- <lmesim arguments>

Writes MARKS.json with the monotonic clock at the scenario call and after
the CSV is closed, the CPU time (this process plus reaped children, so pool
workers count) at both points, and the peak RSS of this process and of its
largest child.  With ``--trace`` the package's layer boundaries are wrapped
(see tracer.py) and the per-layer metrics are added.  Exits with main's
status.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0     # ru_maxrss is in KiB on Linux


def main(argv):
    marks_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    if rest[:1] != ["--"]:
        sys.exit("usage: sample.py MARKS.json [--trace] -- <lmesim arguments>")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lmesim.cli as cli

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    marks = {}
    run_scenario = cli.run_scenario

    def stamped(cfg):
        marks["t_scenario"] = time.monotonic()
        marks["cpu_scenario"] = _cpu_s()
        return run_scenario(cfg)

    cli.run_scenario = stamped
    status = cli.main(rest[1:])
    marks["t_done"] = time.monotonic()
    marks["cpu_done"] = _cpu_s()
    marks["peak_rss_mb"] = _peak_rss_mb()
    cli.run_scenario = run_scenario
    if tracer is not None:
        tracer.uninstall()
        if status == 0:
            marks["layers"] = tracing.layer_metrics(tracer)
        marks["spans"] = tracer.stats
        marks["missing_spans"] = tracer.missing
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
