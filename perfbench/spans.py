"""Timing shims around the public functions of each layer.

:func:`install` wraps the public functions of each layer so that every
call records a span: a name, a start, an end, the span that was open when
it began (its parent), and the id of the config it belongs to.  The
program's own files are untouched; the wrappers are removed again by the
returned ``uninstall`` callable.  Spans are kept in memory and reduced
to per-layer self times (span minus its children) by :func:`self_times`.

:func:`install_counter` is the one in-band hook of an untraced run: a
wrapper around ``NetworkProcessingSystem.run`` that adds up simulated
events and injected packets per config, one Python call per simulation.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.runner.runner as runner_mod
import repro.sim.batch as batch_mod
import repro.sim.metrics as metrics_mod
from repro.runner.cache import ResultCache
from repro.runner.checkpoint import CheckpointJournal
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import RandomStreams
from repro.sim.system import NetworkProcessingSystem
from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals

_now = time.perf_counter


class Tracer:
    """In-memory span store.  A span is ``[name, start, end, parent, cid]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._cid_of_config: Dict[int, int] = {}
        self._cid_of_key: Dict[str, int] = {}
        self._last_reason: Optional[str] = None
        #: Per engine path ("fused"/"scalar"): [configs, events, packets].
        self.engine: Dict[str, List[int]] = {"fused": [0, 0, 0],
                                             "scalar": [0, 0, 0]}
        #: Summed ``ExecutionTimeModel.stats()`` counters.
        self.model: Dict[str, float] = defaultdict(float)

    def cid_for_config(self, config: Any) -> int:
        return self._cid_of_config.setdefault(id(config), len(self._cid_of_config))

    def cid_for_key(self, key: str) -> int:
        return self._cid_of_key.get(key, -1)

    def wrap(self, fn: Callable, name: str,
             cid_of: Optional[Callable[[tuple], int]] = None,
             after: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        spans = self.spans
        stack = self._stack

        def shim(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            if cid_of is not None:
                cid = cid_of(args)
            else:
                cid = spans[parent][4] if parent >= 0 else -1
            idx = len(spans)
            span = [name, _now(), 0.0, parent, cid]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim


def _patch(owner: Any, attr: str, new: Callable,
           undo: List[Tuple[Any, str, Any]]) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public functions; returns the uninstaller."""
    undo: List[Tuple[Any, str, Any]] = []
    t = tracer

    def key_done(args: tuple, key: str) -> None:
        t._cid_of_key[key] = t.cid_for_config(args[0])

    def reason_seen(_args: tuple, reason: Optional[str]) -> None:
        t._last_reason = reason

    def ran(args: tuple, _summary: Any) -> None:
        system = args[0]
        path = "fused" if t._last_reason is None else "scalar"
        acc = t.engine[path]
        acc[0] += 1
        acc[1] += system.sim.events_processed
        acc[2] += system._packet_counter
        stats = system.model.stats()
        evals = stats["component_evals"]
        t.model["calls"] += stats["calls"]
        t.model["fast_calls"] += stats["fast_calls"]
        t.model["component_evals"] += evals
        t.model["reused"] += stats["component_reuse_rate"] * evals

    by_config = lambda args: t.cid_for_config(args[0])          # noqa: E731
    by_self_config = lambda args: t.cid_for_config(args[1])     # noqa: E731
    by_key = lambda args: t.cid_for_key(args[1])                # noqa: E731

    # Module-level functions are patched where the caller looks them up.
    _patch(runner_mod, "config_key",
           t.wrap(runner_mod.config_key, "runner.keys.config_key",
                  by_config, key_done), undo)
    _patch(metrics_mod, "batch_means_ci",
           t.wrap(metrics_mod.batch_means_ci, "analysis.stats.batch_means_ci"),
           undo)
    _patch(batch_mod, "run_fused",
           t.wrap(batch_mod.run_fused, "sim.batch.run_fused"), undo)
    _patch(batch_mod, "unsupported_reason",
           t.wrap(batch_mod.unsupported_reason, "sim.batch.unsupported_reason",
                  after=reason_seen), undo)
    methods = [
        (runner_mod.SweepRunner, "run_many", "runner.run_many", None, None),
        (ResultCache, "get", "runner.cache.get", by_key, None),
        (ResultCache, "put", "runner.cache.put", by_key, None),
        (CheckpointJournal, "record", "runner.checkpoint.record", by_key, None),
        (NetworkProcessingSystem, "__init__", "sim.system.build",
         by_self_config, None),
        (NetworkProcessingSystem, "run", "sim.system.run", None, ran),
        (RandomStreams, "get", "sim.rng.get", None, None),
        (Simulator, "run_until", "sim.engine.run_until", None, None),
        (MetricsCollector, "summarize", "sim.metrics.summarize", None, None),
        (PoissonArrivals, "next_batches", "workloads.arrivals.pregen",
         None, None),
        (PoissonArrivals, "next_batches_array", "workloads.arrivals.pregen",
         None, None),
        (DeterministicArrivals, "next_batches", "workloads.arrivals.pregen",
         None, None),
    ]
    for owner, attr, name, cid_of, after in methods:
        _patch(owner, attr,
               t.wrap(owner.__dict__[attr], name, cid_of, after), undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def self_times(spans: List[list]) -> Dict[str, Tuple[float, int]]:
    """Per span name: (total self seconds, number of spans)."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _cid in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: Dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, t0, t1, _parent, _cid) in enumerate(spans):
        acc = out[name]
        acc[0] += (t1 - t0) - child_time[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def config_ids(spans: List[list]) -> int:
    """Distinct configs the spans belong to."""
    return len({s[4] for s in spans if s[4] >= 0})


class Counter:
    """Simulated events and injected packets per simulated config."""

    def __init__(self) -> None:
        self.events = 0
        self.per_config: Dict[int, Tuple[int, int]] = {}
        #: Called after every simulation (the suite cuts slices there).
        self.after: Optional[Callable[[], None]] = None

    def observe(self, system: NetworkProcessingSystem) -> None:
        events = system.sim.events_processed
        self.events += events
        self.per_config[id(system.config)] = (events, system._packet_counter)
        if self.after is not None:
            self.after()


def install_counter(counter: Counter) -> Callable[[], None]:
    original = NetworkProcessingSystem.__dict__["run"]

    def run(self: NetworkProcessingSystem) -> Any:
        summary = original(self)
        counter.observe(self)
        return summary

    NetworkProcessingSystem.run = run  # type: ignore[method-assign]

    def uninstall() -> None:
        NetworkProcessingSystem.run = original  # type: ignore[method-assign]

    return uninstall
