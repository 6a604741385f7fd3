"""Set-up probe: import ``repro`` and start every backend the benchmark
uses, until a first task has run on each; then print ``ready``.

``run.py`` times this process from spawn to the ``ready`` line, several
times per run, for the ``setup_s`` metric.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SweepRunner, SystemConfig, TrafficSpec  # noqa: E402

JOBS = int(sys.argv[1]) if len(sys.argv) > 1 else 2

configs = [
    SystemConfig(traffic=TrafficSpec.homogeneous_poisson(2, 1_000.0),
                 duration_us=200.0, warmup_us=20.0, seed=seed)
    for seed in (1, 2)
]
runners = [SweepRunner(jobs=JOBS, backend=backend)
           for backend in ("warm", "distributed")]
try:
    for runner in runners:
        runner.run_many(configs)
    print("ready", flush=True)
finally:
    for runner in runners:
        runner.close()
