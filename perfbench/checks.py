"""Output checks, computed apart from the program.

Every function returns a list of problems (empty = the check passed).
They run after the timed passes and use only the published summaries,
the configs, and constants quoted from the paper; a failing check makes
the benchmark run fail.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: Float slack for comparisons of quantities that are equal in exact
#: arithmetic (delay >= exec time, quantile order).
_EPS = 1e-9


def summary_properties(config: Any, summary: Any,
                       injected: int) -> List[str]:
    """Queueing identities every simulation summary must satisfy.

    ``injected`` is the number of packets the simulator injected, as
    counted by the benchmark's run hook.
    """
    where = f"{config.policy}@{config.traffic.total_rate_pps:g}pps seed={config.seed}"
    out: List[str] = []
    util = summary.utilization_per_proc
    if not all(0.0 <= u <= 1.0 for u in util):
        out.append(f"{where}: utilization outside [0, 1]: {util}")
    if summary.n_packets > injected:
        out.append(f"{where}: {summary.n_packets} measured packets > "
                   f"{injected} injected")
    if summary.n_packets == 0:
        return out
    s = summary
    if not (s.p50_delay_us <= s.p95_delay_us + _EPS
            and s.p95_delay_us <= s.p99_delay_us + _EPS):
        out.append(f"{where}: quantiles out of order p50={s.p50_delay_us} "
                   f"p95={s.p95_delay_us} p99={s.p99_delay_us}")
    if s.mean_delay_us < s.mean_exec_us * (1 - _EPS):
        out.append(f"{where}: mean delay {s.mean_delay_us} < mean exec "
                   f"{s.mean_exec_us}")
    # Utilization law U = X * S / P.  Throughput counts completions after
    # the warmup while utilization covers the whole horizon, and up to
    # one packet per processor is cut off at each end of the window, so
    # the two sides may differ by that edge work over the horizon.
    n_proc = len(util)
    mean_util = sum(util) / n_proc
    law = s.throughput_pps * s.mean_exec_us * 1e-6 / n_proc
    edge = 2.0 * s.mean_exec_us / config.duration_us
    warm_share = config.warmup_us / config.duration_us
    tolerance = 0.01 + edge + warm_share * max(mean_util, law)
    if abs(mean_util - law) > tolerance:
        out.append(f"{where}: utilization law broken: U={mean_util:.4f}, "
                   f"X*S/P={law:.4f} (tolerance {tolerance:.4f})")
    return out


def poisson_count(config: Any, injected: int, sigmas: float = 6.0) -> List[str]:
    """The injected count must be a plausible Poisson draw of mean
    rate x horizon (six standard deviations: a false alarm is ~1e-9)."""
    mean = config.traffic.total_rate_pps * config.duration_us * 1e-6
    if abs(injected - mean) > sigmas * math.sqrt(mean):
        return [f"{config.policy}: {injected} arrivals is not Poisson with "
                f"mean {mean:.0f}"]
    return []


def identical(label: str, got: Sequence[Any], want: Sequence[Any]) -> List[str]:
    """Bit-identity of two result lists.  ``repr`` makes NaN equal to
    NaN (empty 1 ms runs carry NaN delay fields)."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} results, expected {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if repr(g) != repr(w)]
    if bad:
        return [f"{label}: {len(bad)} of {len(want)} results differ "
                f"(first at index {bad[0]})"]
    return []


# ----------------------------------------------------------------------
# The paper's analytic models, recomputed from the quoted constants
# ----------------------------------------------------------------------
#: Singh-Stone-Thiebaut footprint constants for the MVS workload (eq. 2).
MVS_W, MVS_A, MVS_B, MVS_LOG10_D = 2.19827, 0.033233, 0.827457, -0.13025
#: R4400 at 100 MHz, 5 cycles per memory reference.
REFS_PER_US = 100e6 / 5.0 / 1e6
#: (split fraction, line bytes, sets) of the R4400 L1 D-cache (16 KB,
#: direct-mapped, sees half the references) and the 1 MB Challenge L2.
L1 = (0.5, 32, 16 * 1024 // 32)
L2 = (1.0, 128, 1024 * 1024 // 128)


def footprint(refs: float, line_bytes: float) -> float:
    """u(R; L) = W L^a R^(b + log10(d) log10 L), capped at R."""
    if refs <= 0:
        return 0.0
    lr = math.log10(max(refs, 1.0))
    ll = math.log10(line_bytes)
    u = 10.0 ** (math.log10(MVS_W) + MVS_A * ll + MVS_B * lr
                 + MVS_LOG10_D * ll * lr)
    if refs < 1.0:
        u = refs * 10.0 ** (math.log10(MVS_W) + MVS_A * ll)
    return min(u, refs)


def flushed(x_us: float, level: tuple) -> float:
    """F = 1 - (1 - 1/S)^n with n = u(R; L) unique intervening lines."""
    split, line, sets = level
    n = footprint(x_us * REFS_PER_US * split, line)
    return 1.0 - (1.0 - 1.0 / sets) ** n


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def e02_rows(rows: Sequence[Dict[str, float]]) -> List[str]:
    out = []
    for row in rows:
        r = row["references_R"]
        for line in (16, 32, 128):
            got = row[f"u(R; L={line})"]
            want = footprint(r, line)
            if not _close(got, want):
                out.append(f"e02: u({r:g}; {line}) = {got}, recomputed {want}")
    if not rows:
        out.append("e02: no rows")
    return out


def e03_rows(rows: Sequence[Dict[str, float]]) -> List[str]:
    out = []
    for row in rows:
        x = row["intervening_us"]
        for name, level in (("F1", L1), ("F2", L2)):
            want = flushed(x, level)
            if not _close(row[name], want, 1e-7):
                out.append(f"e03: {name}({x:g}) = {row[name]}, recomputed {want}")
    if not rows:
        out.append("e03: no rows")
    return out


def goldens(results: Dict[str, Any], directory: Path) -> List[str]:
    """Experiments run at the goldens' seed must reproduce the recorded
    rows and meta exactly (floats bit for bit)."""
    from repro.runner.keys import canonicalize

    out = []
    for eid, result in sorted(results.items()):
        path = directory / f"{eid}.json"
        if not path.exists():
            out.append(f"{eid}: no golden at {path}")
            continue
        golden = json.loads(path.read_text())
        fresh = canonicalize({"rows": result.rows,
                              "meta": {k: result.meta[k] for k in golden["meta"]
                                       if k in result.meta}})
        for part in ("rows", "meta"):
            # Canonical JSON on both sides: NaN markers (empty runs)
            # compare equal, floats compare by their exact repr.
            if (json.dumps(fresh[part], sort_keys=True)
                    != json.dumps(golden[part], sort_keys=True)):
                out.append(f"{eid}: {part} differ from the golden")
    return out
