"""The host-speed probe samples every allowed core and scales times by the reference."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hostspeed  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402


def test_probe_samples_until_it_exits_and_leaves_the_main_thread_unpinned():
    affinity = os.sched_getaffinity(0)
    with SpeedProbe() as probe:
        assert probe.samples  # the first sample is taken before the body runs
        time.sleep(3 * hostspeed.INTERVAL_S)
    count = len(probe.samples)
    assert count >= 2
    assert all(seconds > 0 for _, seconds in probe.samples)
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(probe.samples) == count
    assert os.sched_getaffinity(0) == affinity


def test_factor_uses_the_samples_inside_the_interval():
    probe = SpeedProbe()
    probe.samples = [(1.0, 1e-3), (2.0, 3e-3), (3.0, 6e-3)]
    assert probe.mean_between(0.5, 2.5) == 2e-3
    assert probe.factor(0.5, 2.5) == hostspeed.REFERENCE_S / 2e-3
    # An interval no sample fell in uses the latest sample.
    assert probe.mean_between(3.5, 3.6) == 6e-3
