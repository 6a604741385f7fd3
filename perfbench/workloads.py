"""The three workloads and their measurement loops.

Each ``measure_*`` function runs whole rounds of one workload until the
run's time is up, cutting every round into timed slices with the host
reference between them (:mod:`hostref`), and fills a :class:`Report`.
Output checks (:mod:`checks`) run after the timed passes.  With
``trace=True`` every round is followed by traced serial passes over the
same inputs, which yield the per-layer metrics.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import checks
import spans
from hostref import Series, Slice, SliceClock

from repro import (
    ResultCache,
    SweepRunner,
    SystemConfig,
    TrafficSpec,
    config_key,
    use_runner,
)
from repro.experiments import EXPERIMENT_IDS, run_experiment
from repro.runner import SweepExecutionError
from repro.runner.columnar import pack_block, unpack_block
from repro.runner.keys import canonicalize
from repro.sim.system import run_simulation

#: Worker processes of the parallel backends: the CPU count of the box
#: the bounds were set on.  More workers than CPUs measures contention.
JOBS = 2

#: grid-short: the E06 fast grid (policies x rates), 1 ms horizon, one
#: 30-config ``run_many`` batch per seed, as the experiment harness
#: submits it.  pools and wired-streams (2 of 5 policies) run scalar.
GRID_POLICIES = ("fcfs", "mru", "stream-mru", "pools", "wired-streams")
GRID_RATES = (2_000, 8_000, 16_000, 24_000, 32_000, 38_000)
GRID_DURATION_US = 1_000.0
GRID_STREAMS = 8

#: engine-long: one heavily loaded config per engine path, 0.5 s of
#: simulated time each (17k-20k packets): fused locking, fused pools,
#: fused IPS, scalar.  Short enough for ~8 rounds in a run.
ENGINE_CONFIGS = (
    ("locking", "mru", 34_000.0),
    ("locking", "flow-steer", 34_000.0),
    ("ips", "ips-mru", 40_000.0),
    ("locking", "wired-streams", 34_000.0),
)
ENGINE_DURATION_US = 500_000.0

#: suite-fast: `repro all --fast` at the seed the goldens were recorded
#: with, so every simulation experiment is checked against tests/goldens.
SUITE_SEED = 1
ANALYTIC_IDS = ("e01", "e02", "e03", "e04", "e05")
#: Experiments whose captured batches are replayed through the parallel
#: backends.
REPLAY_IDS = ("e06", "e14")
#: Replayed batches are cut into chunks of at most this many configs, so
#: that one slice stays well under a second and the metric is built from
#: many chunk medians: a chunk's time through a parallel backend swings
#: by a third from pass to pass.
REPLAY_CHUNK = 6
REPLAY_PASSES = 3
#: Least work in one slice of a suite pass.
SUITE_SLICE_S = 0.3
#: Passes over the filled cache per round.
SUITE_RERUNS = 3

#: A round's batch is re-run over the cache until this many configs have
#: been served, in one slice: a single rerun takes 1-5 ms, too short to
#: time against the host's noise.  rerun_s is the time of one rerun.
RERUN_CONFIGS = 240
RERUN_SLICES = 3

#: Least rounds per run, whatever ``--seconds`` says, so that medians
#: have samples to work on.  On grid-short (~0.5 s rounds) and
#: engine-long (~1.5-2.5 s) they fit well inside a 12 s run on a 2-CPU
#: box; a suite-fast round is a whole suite pass with its reruns and
#: replays (~45 s there), so that workload measures one round unless
#: ``--seconds`` leaves room for another.
MIN_ROUNDS = {"grid-short": 5, "engine-long": 4, "suite-fast": 1}


@dataclass
class Report:
    series: Dict[str, Series] = field(default_factory=dict)
    fixed: Dict[str, tuple] = field(default_factory=dict)   # name -> (value, unit)
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, tuple] = field(default_factory=dict)  # name -> (value, unit)
    notes: List[str] = field(default_factory=list)
    #: Wall seconds per phase of the run (printed, to size the run).
    phases: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + time.perf_counter() - t0)

    def s(self, name: str, unit: str, rate: bool,
          pooled: bool = False) -> Series:
        if name not in self.series:
            self.series[name] = Series(name, unit, rate, pooled)
        return self.series[name]


class Bench:
    """Runners, clock, counters and temporary storage of one run."""

    #: Cuts the timed slices; started by :meth:`start_backends`.
    clock: SliceClock

    def __init__(self, tmp_root: Path) -> None:
        self.tmp_root = tmp_root
        self.counter = spans.Counter()
        self.serial = SweepRunner(jobs=0)
        self.warm = SweepRunner(jobs=JOBS, backend="warm")
        self.dist = SweepRunner(jobs=JOBS, backend="distributed")
        #: Runners by backend; every runner with a cache is serial.
        self.runners: Dict[str, List[SweepRunner]] = {
            "serial": [self.serial], "warm": [self.warm],
            "distributed": [self.dist], "serial+cache": []}
        #: Configs submitted, by backend.
        self.attempted: Dict[str, int] = dict.fromkeys(self.runners, 0)
        self._backend_of: Dict[int, str] = {
            id(r): b for b, rs in self.runners.items() for r in rs}
        self._n_tmp = 0

    def start_backends(self) -> None:
        """Spawn the parallel backends' workers before anything is timed
        (``setup_s`` measures that cost on its own)."""
        configs = [
            SystemConfig(traffic=TrafficSpec.homogeneous_poisson(2, 1_000.0),
                         duration_us=200.0, warmup_us=20.0, seed=seed)
            for seed in (1, 2)
        ]
        for runner in (self.warm, self.dist):
            self.run(runner, configs)
        # The first slice's "before" reference is taken now.
        self.clock = SliceClock()

    def cache(self) -> ResultCache:
        self._n_tmp += 1
        return ResultCache(self.tmp_root / f"cache{self._n_tmp}")

    def cached_runner(self, cache: ResultCache) -> SweepRunner:
        runner = SweepRunner(jobs=0, cache=cache)
        self.runners["serial+cache"].append(runner)
        self._backend_of[id(runner)] = "serial+cache"
        return runner

    def count(self, runner: SweepRunner, configs: int) -> None:
        self.attempted[self._backend_of[id(runner)]] += configs

    def run(self, runner: SweepRunner, configs: Sequence[SystemConfig]) -> list:
        """``run_many``; a permanently failed task is counted (through
        ``RunnerStats.failures``), not raised."""
        self.count(runner, len(configs))
        try:
            return runner.run_many(configs)
        except SweepExecutionError as exc:
            return exc.results

    def timed(self, runner: SweepRunner,
              configs: Sequence[SystemConfig]) -> tuple:
        self.clock.restart()
        results = self.run(runner, configs)
        return results, self.clock.cut()

    def all_runners(self) -> List[SweepRunner]:
        return [r for rs in self.runners.values() for r in rs]

    def outcome(self, backend: str) -> Dict[str, int]:
        """Configs attempted on one backend, and its runners' failures,
        retries and timeouts."""
        rs = self.runners[backend]
        return {"attempted": self.attempted[backend],
                "failed": sum(r.stats.failures for r in rs),
                "retries": sum(r.stats.retries for r in rs),
                "timeouts": sum(r.stats.timeouts for r in rs)}

    def close(self) -> None:
        for runner in self.all_runners():
            runner.close()


def grid_batch(seed: int) -> List[SystemConfig]:
    return [
        SystemConfig(
            traffic=TrafficSpec.homogeneous_poisson(GRID_STREAMS, float(rate)),
            paradigm="locking", policy=policy,
            duration_us=GRID_DURATION_US, warmup_us=GRID_DURATION_US * 0.125,
            seed=seed,
        )
        for rate in GRID_RATES
        for policy in GRID_POLICIES
    ]


def engine_batch(seed: int) -> List[SystemConfig]:
    return [
        SystemConfig(
            traffic=TrafficSpec.homogeneous_poisson(8, rate),
            paradigm=paradigm, policy=policy,
            duration_us=ENGINE_DURATION_US, warmup_us=ENGINE_DURATION_US * 0.1,
            seed=seed,
        )
        for paradigm, policy, rate in ENGINE_CONFIGS
    ]


@contextmanager
def scalar_engine() -> Iterator[None]:
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "scalar"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = previous


def scalar_sample(configs: Sequence[SystemConfig], results: Sequence[Any],
                  rng: random.Random, k: int) -> List[str]:
    """A sample of configs must be bit-identical on the scalar engine."""
    picks = sorted(rng.sample(range(len(configs)), min(k, len(configs))))
    with scalar_engine():
        again = [run_simulation(configs[i]) for i in picks]
    return checks.identical("scalar engine vs default",
                            again, [results[i] for i in picks])


def fill_cache(cache: ResultCache, configs: Sequence[SystemConfig],
               results: Sequence[Any]) -> None:
    for config, summary in zip(configs, results):
        cache.put(config_key(config), summary)


# ----------------------------------------------------------------------
# grid-short and engine-long: rounds of serial, warm, distributed, rerun
# ----------------------------------------------------------------------
class _Layers:
    """Traced passes of one run, reduced to per-layer metrics."""

    def __init__(self) -> None:
        self.serial = spans.Tracer()    # serial passes without a cache
        self.cached = spans.Tracer()    # cold pass into a cache + rerun
        self.traced: List[Slice] = []
        self.untraced: List[Slice] = []
        self.configs = 0
        self.rerun_hits = 0
        self.pack_s = 0.0
        self.unpack_s = 0.0
        self.rows = 0

    def traced_pass(self, bench: Bench, tracer: spans.Tracer,
                    run: Callable[[], Any]) -> Slice:
        uninstall = spans.install(tracer)
        try:
            bench.clock.restart()
            run()
            return bench.clock.cut()
        finally:
            uninstall()

    def columnar(self, results: Sequence[Any]) -> None:
        pack_s, unpack_s = _time_columnar(results)
        self.pack_s += pack_s
        self.unpack_s += unpack_s
        self.rows += len(results)


def _time_columnar(results: Sequence[Any]) -> tuple:
    """Seconds to pack ``results`` into a transport block and back."""
    t0 = time.perf_counter()
    block = pack_block(results)
    t1 = time.perf_counter()
    unpack_block(block)
    return t1 - t0, time.perf_counter() - t1


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def _round_loop(name: str, seconds: float, body: Callable[[int], None],
                report: Report) -> int:
    """Whole rounds: at least ``MIN_ROUNDS[name]``, then another only
    while one as long as the last still ends within ``seconds``."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    with report.phase("rounds"):
        while (rounds < MIN_ROUNDS[name]
               or time.perf_counter() - start + last <= seconds):
            t0 = time.perf_counter()
            body(rounds)
            last = time.perf_counter() - t0
            rounds += 1
    return rounds


def measure_rounds(name: str, bench: Bench, report: Report, seed: int,
                   seconds: float, trace: bool) -> None:
    """grid-short / engine-long: each round is one seed's batch run
    serially (one slice per ``run_many`` call), through warm and through
    distributed, then re-run over a cache filled with its results."""
    long = name == "engine-long"
    make = engine_batch if long else grid_batch
    base = abs(seed) * 1000
    rate_serial = report.s("configs_per_s", "configs/s", True)
    # All configs of a grid batch share one seed, and with it (common
    # random numbers) one arrival pattern: events per batch vary by ~20%
    # from seed to seed while the batch's time barely moves.
    rate_events = report.s("events_per_s", "events/s", True, pooled=True)
    rate_warm = report.s("configs_per_s.warm", "configs/s", True)
    rate_dist = report.s("configs_per_s.distributed", "configs/s", True)
    rerun = report.s("rerun_s", "s", False)
    rerun_repeats = -(-RERUN_CONFIGS // len(make(0)))
    kept: List[tuple] = []
    layers = _Layers() if trace else None

    def body(r: int) -> None:
        batch = make(base + r)
        before = bench.counter.events
        if long:
            # One slice per long config: each is short next to the ~1 s
            # scale on which the host's speed drifts.  Samples are keyed
            # by engine path, which differ 3x in cost.
            results, slices = [], []
            for config in batch:
                before = bench.counter.events
                out, sl = bench.timed(bench.serial, [config])
                results.extend(out)
                slices.append(sl)
                rate_serial.add(1, [sl], key=str(config.policy))
                rate_events.add(bench.counter.events - before, [sl],
                                key=str(config.policy))
        else:
            results, sl = bench.timed(bench.serial, batch)
            slices = [sl]
            rate_serial.add(len(batch), slices)
            rate_events.add(bench.counter.events - before, slices)
        # The parallel backends size their chunks and leases from the
        # task costs they have seen; round 0 teaches them this workload
        # and is not counted.
        warm, dist = [], []
        for k, part in enumerate(_backend_parts(batch, long)):
            key = f"part{k}" if long else None
            out, sl = bench.timed(bench.warm, part)
            if r > 0:
                rate_warm.add(len(part), [sl], key=key)
            warm.extend(out)
            out, sl = bench.timed(bench.dist, part)
            if r > 0:
                rate_dist.add(len(part), [sl], key=key)
            dist.extend(out)
        cache = bench.cache()
        fill_cache(cache, batch, results)
        cached = bench.cached_runner(cache)
        for _ in range(RERUN_SLICES):
            bench.clock.restart()
            for _ in range(rerun_repeats):
                bench.run(cached, batch)
            rerun.add(1, [bench.clock.cut()], repeats=rerun_repeats)
        kept.append((batch, results, warm, dist))
        if layers is not None:
            layers.untraced.extend(slices)
            _trace_round(bench, layers, batch, long)

    rounds = _round_loop(name, seconds, body, report)
    report.notes.append(f"{rounds} rounds of {len(kept[0][0])} configs")

    # Output checks, after the timed passes.
    for batch, results, warm, dist in kept:
        report.problems += checks.identical("warm vs serial", warm, results)
        report.problems += checks.identical("distributed vs serial", dist, results)
        for config, summary in zip(batch, results):
            events, injected = bench.counter.per_config[id(config)]
            report.problems += checks.summary_properties(config, summary, injected)
            if long:
                report.problems += checks.poisson_count(config, injected)
    rng = random.Random(seed)
    batch, results = kept[-1][0], kept[-1][1]
    if long:
        # Full-length scalar re-run of the fused locking config (the
        # same one every run, so the run's peak memory does not depend
        # on the seed).
        report.problems += scalar_sample(batch[:1], results[:1], rng, 1)
    else:
        report.problems += scalar_sample(batch, results, rng, 5)
    if layers is not None:
        _layer_metrics(report, bench, layers, rounds)


def _backend_parts(batch: List[SystemConfig], long: bool) -> List[list]:
    """How a round's batch goes to the parallel backends.  engine-long
    sends pairs, one config per worker: with all four long configs in one
    call, the makespan depends on which two land together (the scalar
    config costs three fused ones), and that changes from call to call."""
    if long:
        return [batch[0:2], batch[2:4]]
    return [batch]


def _trace_round(bench: Bench, layers: _Layers, batch: List[SystemConfig],
                 long: bool) -> None:
    """Traced serial pass (no cache) over the round's batch, then a
    traced cold pass into a fresh cache and a traced rerun over it."""
    for configs in ([[c] for c in batch] if long else [batch]):
        sl = layers.traced_pass(bench, layers.serial,
                                lambda c=configs: bench.run(bench.serial, c))
        layers.traced.append(sl)
        layers.configs += len(configs)
    cache = bench.cache()
    runner = bench.cached_runner(cache)
    results: List[Any] = []
    layers.traced_pass(bench, layers.cached,
                       lambda: results.extend(bench.run(runner, batch)))
    again = bench.cached_runner(cache)
    layers.traced_pass(bench, layers.cached, lambda: bench.run(again, batch))
    layers.rerun_hits += again.stats.cache_hits
    layers.columnar(results)


def _layer_metrics(report: Report, bench: Bench, layers: _Layers,
                   rounds: int) -> None:
    traced_raw = sum(s.raw_s for s in layers.traced)
    factor = sum(s.scaled_s for s in layers.traced) / traced_raw
    untraced = sum(s.scaled_s for s in layers.untraced)
    per_config_untraced = untraced / layers.configs
    serial = spans.self_times(layers.serial.spans)
    cached = spans.self_times(layers.cached.spans)
    accounted = sum(total for total, _n in serial.values()) * factor
    _ledger(report, layers.serial, factor, layers.configs, per_config_untraced)
    _engine_layers(report, layers.serial, serial, factor, layers.configs)
    _cache_layers(report, cached, factor, layers.rerun_hits)
    L = report.layers
    L["trace.overhead_pct"] = (
        100.0 * (sum(s.scaled_s for s in layers.traced) / untraced - 1.0), "%")
    L["trace.accounted_share"] = (accounted / layers.configs
                                  / per_config_untraced, "ratio")
    L["runner.columnar.pack_us_per_row"] = (
        1e6 * _per(layers.pack_s, layers.rows) * factor, "us")
    L["runner.columnar.unpack_us_per_row"] = (
        1e6 * _per(layers.unpack_s, layers.rows) * factor, "us")
    _backend_layers(report, bench)


def _ledger(report: Report, tracer: spans.Tracer, factor: float,
            configs: int, untraced_per_config: float) -> None:
    """Self time per config of every layer, next to the untraced serial
    time per config (printed; the layers should account for all of it)."""
    selfs = spans.self_times(tracer.spans)
    rows = sorted(((total * factor / configs, name)
                   for name, (total, _n) in selfs.items()), reverse=True)
    total = sum(us for us, _name in rows)
    report.notes.append(
        f"ledger: {spans.config_ids(tracer.spans)} configs traced, "
        f"{1e6 * total:.1f} us/config in spans, untraced serial "
        f"{1e6 * untraced_per_config:.1f} us/config")
    for us, name in rows:
        report.notes.append(f"ledger:   {name:34s} {1e6 * us:10.1f} us/config "
                            f"{100 * us / total:5.1f}%")


def _engine_layers(report: Report, tracer: spans.Tracer,
                   selfs: Dict[str, tuple], factor: float,
                   configs: int) -> None:
    def us(name: str, per: Optional[float] = None) -> float:
        total, count = selfs.get(name, (0.0, 0))
        return 1e6 * factor * _per(total, count if per is None else per)

    fused, scalar = tracer.engine["fused"], tracer.engine["scalar"]
    sims = fused[0] + scalar[0]
    packets = fused[2] + scalar[2]
    model = tracer.model
    L = report.layers
    L["runner.keys.config_key_us"] = (us("runner.keys.config_key"), "us")
    L["runner.run_many.self_us_per_config"] = (
        us("runner.run_many", configs), "us")
    L["sim.system.build_us"] = (us("sim.system.build"), "us")
    L["sim.system.run_self_us"] = (us("sim.system.run"), "us")
    L["sim.rng.get_us"] = (us("sim.rng.get"), "us")
    L["sim.rng.gets_per_config"] = (
        _per(selfs.get("sim.rng.get", (0, 0))[1], sims), "count")
    L["sim.metrics.summarize_us"] = (us("sim.metrics.summarize"), "us")
    L["analysis.stats.batch_means_ci_us"] = (
        us("analysis.stats.batch_means_ci"), "us")
    L["workloads.arrivals.pregen_us_per_packet"] = (
        us("workloads.arrivals.pregen", packets), "us")
    L["sim.batch.us_per_event"] = (us("sim.batch.run_fused", fused[1]), "us")
    L["sim.engine.us_per_event"] = (
        us("sim.engine.run_until", scalar[1]), "us")
    L["sim.batch.fused_share"] = (_per(fused[0], sims), "ratio")
    L["core.exec_model.hit_rate"] = (
        _per(model["fast_calls"], model["calls"]), "ratio")
    L["core.exec_model.component_reuse_rate"] = (
        _per(model["reused"], model["component_evals"]), "ratio")


def _cache_layers(report: Report, selfs: Dict[str, tuple], factor: float,
                  hits: int) -> None:
    def us(name: str) -> float:
        total, count = selfs.get(name, (0.0, 0))
        return 1e6 * factor * _per(total, count)

    L = report.layers
    L["runner.cache.get_us"] = (us("runner.cache.get"), "us")
    L["runner.cache.hits"] = (hits, "count")
    L["runner.cache.put_us"] = (us("runner.cache.put"), "us")
    L["runner.checkpoint.record_us"] = (us("runner.checkpoint.record"), "us")


def _backend_layers(report: Report, bench: Bench) -> None:
    """Backend overhead per config: backend wall time per config minus
    serial compute per config divided by the worker count."""
    serial = report.series["configs_per_s"].value()
    L = report.layers
    for name, runner in (("warm", bench.warm), ("distributed", bench.dist)):
        rate = report.series[f"configs_per_s.{name}"].value()
        L[f"runner.backends.{name}.overhead_us_per_config"] = (
            1e6 * (1.0 / rate - 1.0 / serial / JOBS), "us")
    w, d = bench.warm.stats, bench.dist.stats
    L["runner.backends.warm.chunks"] = (_per(w.chunks, w.batches), "count")
    L["runner.backends.distributed.leases"] = (_per(d.leases, d.batches), "count")
    L["runner.affinity.hit_ratio"] = (
        _per(w.affinity_hits + d.affinity_hits, w.executed + d.executed), "ratio")
    L["runner.affinity.steals"] = (
        _per(w.steals + d.steals, w.batches + d.batches), "count")
    L["runner.backends.retries"] = (
        sum(r.stats.retries for r in bench.all_runners()), "count")
    L["runner.backends.distributed.lease_expiries"] = (d.lease_expiries, "count")
    L["runner.backends.distributed.dup_results"] = (d.dup_results, "count")
    L["runner.backends.distributed.stale_results"] = (d.stale_results, "count")


# ----------------------------------------------------------------------
# suite-fast: `repro all --fast`, cold then over the filled cache
# ----------------------------------------------------------------------
class _SuitePass:
    """One pass over E01-E15 through ``runner``.

    A slice ends at every experiment's end and, with ``cut_sims``, at the
    end of the first simulation that closes at least ``SUITE_SLICE_S``
    of work, so that the slices cover the whole pass and stay short next
    to the host's drift even inside a long ``run_many`` call.
    """

    def __init__(self, bench: Bench, runner: SweepRunner,
                 cut_sims: bool = True) -> None:
        self.bench = bench
        self.runner = runner
        self.cut_sims = cut_sims
        self.results: Dict[str, Any] = {}
        self.batches: List[tuple] = []          # (experiment, configs, results)
        self.slices: List[tuple] = []           # (experiment, Slice)
        self.failed_ids: List[str] = []
        self._eid = ""
        original = runner.run_many

        def run_many(configs: Sequence[SystemConfig], label: str = "") -> list:
            configs = list(configs)
            bench.count(runner, len(configs))
            out = original(configs, label)
            self.batches.append((self._eid, configs, out))
            return out

        runner.run_many = run_many  # type: ignore[method-assign]

    def _after_sim(self) -> None:
        clock = self.bench.clock
        if clock.elapsed() >= SUITE_SLICE_S:
            self.slices.append((self._eid, clock.cut()))

    def run(self) -> None:
        clock = self.bench.clock
        counter = self.bench.counter
        if self.cut_sims:
            counter.after = self._after_sim
        clock.restart()
        try:
            with use_runner(self.runner):
                for eid in EXPERIMENT_IDS:
                    self._eid = eid
                    try:
                        self.results[eid] = run_experiment(eid, fast=True,
                                                           seed=SUITE_SEED)
                    except SweepExecutionError:
                        self.failed_ids.append(eid)
                    self.slices.append((eid, clock.cut()))
        finally:
            counter.after = None

    def all_slices(self) -> List[Slice]:
        return [s for _eid, s in self.slices]

    def configs(self) -> int:
        return sum(len(c) for _e, c, _r in self.batches)


def _same_outputs(label: str, a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    out = []
    for eid in sorted(set(a) | set(b)):
        if eid not in a or eid not in b:
            out.append(f"{label}: {eid} missing")
            continue
        ra = repr((canonicalize(a[eid].rows), sorted(a[eid].meta)))
        rb = repr((canonicalize(b[eid].rows), sorted(b[eid].meta)))
        if ra != rb:
            out.append(f"{label}: {eid} output differs")
    return out


def measure_suite(bench: Bench, report: Report, seed: int, seconds: float,
                  trace: bool, goldens_dir: Path) -> None:
    rate_serial = report.s("configs_per_s", "configs/s", True)
    rate_events = report.s("events_per_s", "events/s", True)
    rate_warm = report.s("configs_per_s.warm", "configs/s", True)
    rate_dist = report.s("configs_per_s.distributed", "configs/s", True)
    rerun = report.s("rerun_s", "s", False)
    rng = random.Random(seed)
    passes: List[tuple] = []

    def body(_r: int) -> None:
        cache = bench.cache()
        before = bench.counter.events
        cold = _SuitePass(bench, bench.cached_runner(cache))
        with report.phase("cold"):
            cold.run()
        slices = cold.all_slices()
        rate_serial.add(cold.configs(), slices)
        rate_events.add(bench.counter.events - before, slices)
        reruns = []
        for _ in range(SUITE_RERUNS):
            # A rerun executes nothing; slicing it per experiment is
            # fine-grained enough.
            again = _SuitePass(bench, bench.cached_runner(cache),
                               cut_sims=False)
            with report.phase("reruns"):
                again.run()
            # Keyed by experiment: rerun_s is the sum of each
            # experiment's median over the reruns, one typical rerun.
            for eid, sl in again.slices:
                rerun.add(1, [sl], key=eid)
            reruns.append(again)
        # Replay the captured sweep batches of a few experiments through
        # the parallel backends (a whole suite pass each would triple
        # the run).  One slice per batch.
        replay = [(c[i:i + REPLAY_CHUNK], r[i:i + REPLAY_CHUNK])
                  for eid, c, r in cold.batches if eid in REPLAY_IDS
                  for i in range(0, len(c), REPLAY_CHUNK)]
        # Each chunk is one sample, keyed by chunk, so the metric is built
        # from per-chunk medians over the passes.  Pass 0 teaches the
        # backends' chunk and lease sizing this work and is not counted.
        for p in range(REPLAY_PASSES + 1):
            for series, runner, label in ((rate_warm, bench.warm, "warm"),
                                          (rate_dist, bench.dist, "distributed")):
                outs = []
                for k, (configs, _) in enumerate(replay):
                    with report.phase(f"replay.{label}"):
                        out, sl = bench.timed(runner, configs)
                    if p > 0:
                        series.add(len(configs), [sl], key=f"chunk{k}")
                    outs.extend(out)
                report.problems += checks.identical(
                    f"{label} replay vs serial", outs,
                    [x for _, r in replay for x in r])
        passes.append((cold, reruns, replay))

    rounds = _round_loop("suite-fast", seconds, body, report)
    cold, reruns, replay = passes[-1]
    report.notes.append(
        f"{rounds} round(s): {len(cold.batches)} run_many calls, "
        f"{cold.configs()} configs; {len(replay)} batches of "
        f"{sum(len(c) for c, _ in replay)} configs replayed")

    # Output checks, after the timed passes.
    checks_t0 = time.perf_counter()
    for cold, reruns, _ in passes:
        if cold.failed_ids:
            report.notes.append(f"failed experiments: {cold.failed_ids}")
        for again in reruns:
            report.problems += _same_outputs("rerun vs cold", again.results,
                                             cold.results)
    report.problems += checks.e02_rows(cold.results["e02"].rows)
    report.problems += checks.e03_rows(cold.results["e03"].rows)
    simulated = {eid: r for eid, r in cold.results.items()
                 if eid not in ANALYTIC_IDS}
    report.problems += checks.goldens(simulated, goldens_dir)
    executed = [(c, r) for _e, cs, rs in cold.batches for c, r in zip(cs, rs)]
    configs = [c for c, _ in executed]
    results = [r for _, r in executed]
    report.problems += scalar_sample(configs, results, rng, 6)
    report.phases["checks"] = time.perf_counter() - checks_t0

    if trace:
        _suite_layers(report, bench, cold)


def _suite_layers(report: Report, bench: Bench, untraced: _SuitePass) -> None:
    """A traced cold pass and a traced rerun after the untraced round."""
    serial, cached = spans.Tracer(), spans.Tracer()
    cache = bench.cache()
    uninstall = spans.install(serial)
    try:
        # Experiment-level slices only: a kernel cut from inside a
        # simulation hook would land inside the traced spans.
        cold = _SuitePass(bench, bench.cached_runner(cache), cut_sims=False)
        cold.run()
    finally:
        uninstall()
    runner = bench.cached_runner(cache)
    uninstall = spans.install(cached)
    try:
        again = _SuitePass(bench, runner, cut_sims=False)
        again.run()
    finally:
        uninstall()
    traced = cold.all_slices()
    factor = sum(s.scaled_s for s in traced) / sum(s.raw_s for s in traced)
    configs = cold.configs()
    selfs = spans.self_times(serial.spans)
    _ledger(report, serial, factor, configs,
            sum(s.scaled_s for eid, s in untraced.slices
                if eid not in ANALYTIC_IDS) / untraced.configs())
    _engine_layers(report, serial, selfs, factor, configs)
    rerun_selfs = spans.self_times(cached.spans)
    cold_selfs = dict(selfs)
    cold_selfs["runner.cache.get"] = rerun_selfs.get("runner.cache.get", (0.0, 0))
    _cache_layers(report, cold_selfs, factor, runner.stats.cache_hits)
    untraced_s = sum(s.scaled_s for s in untraced.all_slices())
    traced_s = sum(s.scaled_s for s in traced)
    L = report.layers
    L["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    # Spans cover run_many calls only; the rest of a suite pass is the
    # experiments' own code, which the untraced pass reports separately.
    accounted = sum(total for total, _n in selfs.values()) * factor
    in_runner = sum(s.scaled_s for eid, s in untraced.slices
                    if eid not in ANALYTIC_IDS)
    L["trace.accounted_share"] = (accounted / in_runner, "ratio")
    results = [r for _e, _c, rs in untraced.batches for r in rs]
    pack_s, unpack_s = _time_columnar(results)
    L["runner.columnar.pack_us_per_row"] = (
        1e6 * factor * pack_s / len(results), "us")
    L["runner.columnar.unpack_us_per_row"] = (
        1e6 * factor * unpack_s / len(results), "us")
    _backend_layers(report, bench)
    calls = len(untraced.batches)
    L["experiments.run_many_calls"] = (calls, "count")
    L["experiments.configs_per_call"] = (untraced.configs() / calls, "count")
    L["experiments.analytic_s"] = (
        sum(s.scaled_s for eid, s in untraced.slices if eid in ANALYTIC_IDS), "s")


def suite_only_layers(report: Report) -> None:
    """The suite's per-layer metrics read 0 on the other workloads."""
    for name, unit in (("experiments.run_many_calls", "count"),
                       ("experiments.configs_per_call", "count"),
                       ("experiments.analytic_s", "s")):
        report.layers.setdefault(name, (0, unit))
