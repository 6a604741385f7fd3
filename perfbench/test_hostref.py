"""Unit tests of the host-reference arithmetic and the span reduction.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostref import NOMINAL_S, Series, Slice, SliceClock, scale  # noqa: E402


def test_scale_at_nominal_speed_is_identity():
    assert scale(0.5, NOMINAL_S, NOMINAL_S) == pytest.approx(0.5)


def test_scale_uses_mean_of_both_references():
    # The host ran at half speed before and at full speed after: the
    # mean reference is 1.5x nominal, so the slice shrinks by 1/1.5.
    raw = 0.3
    got = scale(raw, 2 * NOMINAL_S, NOMINAL_S)
    assert got == pytest.approx(raw / 1.5)


def test_scale_explicit_nominal():
    assert scale(2.0, 0.1, 0.3, nominal_s=0.05) == pytest.approx(0.5)


@pytest.mark.parametrize("args", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                  (1.0, 1.0, -1.0), (1.0, 1.0, 1.0, 0.0)])
def test_scale_rejects_non_positive_times(args):
    with pytest.raises(ValueError):
        scale(*args)


def test_slice_clock_chains_references():
    refs = iter([0.02, 0.04, 0.01])
    clock = SliceClock(timer=lambda: next(refs), nominal_s=0.02)
    first = clock.cut()
    assert first.ref_s == pytest.approx(0.03)
    assert first.scaled_s == pytest.approx(first.raw_s * 0.02 / 0.03)
    second = clock.cut()
    # The kernel after the first slice is the "before" of the second.
    assert second.ref_s == pytest.approx(0.025)


def test_series_rate_is_median_of_scaled_rates():
    s = Series("configs_per_s", "configs/s", rate=True)
    for raw, ref in ((1.0, NOMINAL_S), (1.0, 2 * NOMINAL_S), (2.0, NOMINAL_S)):
        s.add(10, [Slice(raw, ref, scale(raw, ref, ref))])
    # Scaled seconds: 1.0, 0.5, 2.0 -> rates 10, 20, 5 -> median 10.
    assert s.value() == pytest.approx(10.0)
    # Raw rates: 10, 10, 5 -> median 10; never used for the metric.
    assert s.raw() == pytest.approx(10.0)


def test_series_groups_slices_and_keeps_time_weighted_reference():
    s = Series("rerun_s", "s", rate=False)
    a = Slice(1.0, NOMINAL_S, 1.0)
    b = Slice(1.0, 2 * NOMINAL_S, 0.5)
    s.add(1, [a, b])
    assert s.value() == pytest.approx(1.5)
    assert s.raw() == pytest.approx(2.0)
    assert s.ref() == pytest.approx(2.0 * NOMINAL_S / 1.5)
    assert math.isclose(s.samples[0].raw_s * NOMINAL_S / s.samples[0].ref_s,
                        s.samples[0].scaled_s)


def test_self_time_subtracts_children():
    pytest.importorskip("numpy")
    root = Path(__file__).resolve().parent.parent / "src"
    if not (root / "repro").is_dir():
        pytest.skip("program sources not present")
    sys.path.insert(0, str(root))
    import spans

    tree = [
        ["run_many", 0.0, 10.0, -1, -1],
        ["build", 1.0, 3.0, 0, 0],
        ["rng.get", 1.5, 2.0, 1, 0],
        ["summarize", 4.0, 8.0, 0, 0],
        ["ci", 5.0, 6.0, 3, 0],
    ]
    got = spans.self_times(tree)
    assert got["run_many"] == (pytest.approx(4.0), 1)
    assert got["build"] == (pytest.approx(1.5), 1)
    assert got["summarize"] == (pytest.approx(3.0), 1)
    # Self times add up to the root span.
    assert sum(v[0] for v in got.values()) == pytest.approx(10.0)
    assert spans.config_ids(tree) == 1
