"""End-to-end and per-layer benchmark of the sweep runner and the engine.

    python3 perfbench/run.py --workload grid-short --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``grid-short``, ``engine-long``,
``suite-fast``.  Every timed metric is stated at the host's reference
speed (:mod:`hostref`); the raw figures are printed beside it.  Output
checks run after the timed passes.  The last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced serial run.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List

from hostref import NOMINAL_S, Slice, scale, time_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-short", "engine-long", "suite-fast")
#: Set-up probes per run; setup_s is their median.
SETUP_PROBES = 5
#: Kernel runs before the first probe and after each one.
SETUP_KERNELS = 5
SETUP_TIMEOUT_S = 60.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _measure_setup(report, jobs: int) -> None:
    """Spawn the set-up probe and time it until it reports ``ready``.

    The probes are stated at the host's reference speed over the whole
    set-up phase: the median of the kernel runs before the first probe
    and after each one, once it has exited.  A probe lasts ~50 kernel
    times and spreads over both CPUs, so a ratio to the kernel runs right
    next to it mostly adds the kernel's own wobble (over ten runs: spread
    0.14 per probe, 0.06 over the phase).
    """
    raws: List[float] = []
    refs = [time_kernel() for _ in range(SETUP_KERNELS)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(jobs)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        # A probe that never says ready must not hold the run past its
        # time limit.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            raw = time.perf_counter() - t0
            proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        refs.extend(time_kernel() for _ in range(SETUP_KERNELS))
        if line.strip() != "ready" or proc.returncode != 0:
            report.problems.append(
                f"set-up probe failed (exit {proc.returncode}, said {line!r})")
            continue
        raws.append(raw)
    ref = statistics.median(refs)
    series = report.s("setup_s", "s", False)
    for raw in raws:
        series.add(1, [Slice(raw, ref, scale(raw, ref, ref))])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Runs use the default engine selection and keep every temporary
    # file inside the checkout.
    os.environ.pop("REPRO_ENGINE", None)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    os.environ["TMPDIR"] = str(run_tmp)
    tempfile.tempdir = str(run_tmp)
    sys.path.insert(0, str(ROOT / "src"))

    t_start = time.perf_counter()
    import_t0 = time.perf_counter()
    import spans
    import workloads
    import_s = time.perf_counter() - import_t0

    report = workloads.Report()
    bench = workloads.Bench(run_tmp)
    uninstall = spans.install_counter(bench.counter)
    try:
        with report.phase("setup"):
            _measure_setup(report, workloads.JOBS)
            bench.start_backends()
        if args.workload == "suite-fast":
            workloads.measure_suite(bench, report, args.seed, args.seconds,
                                    bool(args.trace), ROOT / "tests" / "goldens")
        else:
            workloads.measure_rounds(args.workload, bench, report, args.seed,
                                     args.seconds, bool(args.trace))
            if args.trace:
                workloads.suite_only_layers(report)
    finally:
        uninstall()
        bench.close()
        shutil.rmtree(run_tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()    # only when no other run is using it
        except OSError:
            pass

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.fixed["peak_rss_mb"] = (peak_mb, "MiB")

    correct = not report.problems
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    for note in report.notes:
        print(f"[{args.workload}] {note}")
    print(f"[{args.workload}] phases: " + ", ".join(
        f"{k} {v:.1f} s" for k, v in report.phases.items()))
    print(f"[{args.workload}] nominal reference {NOMINAL_S * 1e3:.1f} ms, "
          f"import {import_s:.3f} s, wall {time.perf_counter() - t_start:.1f} s, "
          f"nproc {os.cpu_count()}")
    metrics = {}
    if args.trace:
        for name, (value, unit) in sorted(report.layers.items()):
            print(f"  {name:46s} {_fmt(value):>12s} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, series in report.series.items():
            print(f"  {name:28s} {_fmt(series.value()):>12s} {series.unit:10s}"
                  f" raw {_fmt(series.raw()):>12s}  reference "
                  f"{series.ref() * 1e3:.2f} ms  samples {len(series.samples)}")
            metrics[name] = {"value": series.value(), "unit": series.unit}
        for name, (value, unit) in report.fixed.items():
            print(f"  {name:28s} {_fmt(value):>12s} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    totals = dict.fromkeys(("attempted", "failed", "retries", "timeouts"), 0)
    for backend in bench.runners:
        outcome = bench.outcome(backend)
        print(f"  {backend:12s} " + ", ".join(
            f"{k} {v}" for k, v in outcome.items()))
        for k, v in outcome.items():
            totals[k] += v
    print(f"  {'total':12s} " + ", ".join(f"{k} {v}" for k, v in totals.items()))
    print(json.dumps({"correct": correct, "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
