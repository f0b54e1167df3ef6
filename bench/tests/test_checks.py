"""Each output check accepts a good output and rejects a corrupted one."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import run  # noqa: E402

LN2 = math.log(2.0)


def grid_text(n_sites=4, n_excited=4, value=0.3):
    lines = ["k,l,mean,stderr"]
    for k in range(n_excited + 1):
        for l in range(1, n_sites):
            mean = 0.0 if k in (0, n_excited) else value
            lines.append(f"{k},{l},{mean!r},0.01")
    return "\n".join(lines) + "\n"


def test_grid_accepts_good_output():
    assert checks.check_grid(grid_text(), 4, 4) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t[: len(t) // 2],  # truncated CSV
        lambda t: t.replace("0.3,", "nan,", 1),
        lambda t: t.replace("0.3,", f"{LN2 + 0.1!r},", 1),  # above min(l, N - l) ln 2 at l = 1
        lambda t: t.replace("0.3,", "-0.2,", 1),
        lambda t: t.replace("4,1,0.0,", "4,1,0.2,", 1),  # k = M must be zero
        lambda t: "",
    ],
)
def test_grid_rejects_corruption(corrupt):
    assert checks.check_grid(corrupt(grid_text()), 4, 4)


REFERENCE = {"8:brickwall:2": {"s_max": 0.54, "stderr": 0.002}}


def sweep_text(s_max=0.55, stderr=0.01):
    return f"n,source,depth,s_max,k_max,l_max,stderr\n8,brickwall,2,{s_max!r},4,4,{stderr!r}\n"


def test_sweep_accepts_good_output():
    assert checks.check_sweep(sweep_text(), ["8:brickwall:2"], REFERENCE) == []


@pytest.mark.parametrize(
    "text",
    [
        sweep_text(s_max=0.7),  # far outside SWEEP_Z combined errors
        sweep_text(s_max=float("nan")),
        sweep_text().replace("8,brickwall,2", "9,brickwall,2"),
        sweep_text().splitlines()[0] + "\n",  # truncated: no rows
    ],
)
def test_sweep_rejects_corruption(text):
    assert checks.check_sweep(text, ["8:brickwall:2"], REFERENCE)


def distribution_text(exact, counts, n_samples):
    lines = ["outcome,exact,empirical,stderr"]
    for outcome, p, c in zip(((2, 0), (1, 1), (0, 2)), exact, counts):
        lines.append(f"{outcome[0]} {outcome[1]},{p!r},{c / n_samples!r},0.0")
    return "\n".join(lines) + "\n"


def tvd_line(exact, counts, n_samples):
    tvd = 0.5 * sum(abs(p - c / n_samples) for p, c in zip(exact, counts))
    return f"tvd={tvd!r} over 3 outcomes\n"


EXACT, COUNTS, SAMPLES = (0.25, 0.5, 0.25), (2500, 5000, 2500), 10000


def test_distribution_accepts_good_output():
    text = distribution_text(EXACT, COUNTS, SAMPLES)
    assert checks.check_distribution(text, tvd_line(EXACT, COUNTS, SAMPLES), 2, 2, SAMPLES) == []


@pytest.mark.parametrize(
    "exact, counts, drop_last_row",
    [
        ((0.25, 0.5, 0.25), (2500, 5000, 2500), True),  # wrong outcome count
        ((0.3, 0.5, 0.25), (2500, 5000, 2500), False),  # exact law does not sum to 1
        ((0.25, 0.5, 0.25), (4000, 3000, 3000), False),  # tvd far above its expected value
        ((float("nan"), 0.5, 0.5), (2500, 5000, 2500), False),
    ],
)
def test_distribution_rejects_corruption(exact, counts, drop_last_row):
    text = distribution_text(exact, counts, SAMPLES)
    if drop_last_row:
        text = "\n".join(text.splitlines()[:-1]) + "\n"
    stdout = tvd_line(exact, counts, SAMPLES) if math.isfinite(exact[0]) else "tvd=0.0 over 3 outcomes\n"
    assert checks.check_distribution(text, stdout, 2, 2, SAMPLES)


def test_distribution_rejects_missing_tvd_line():
    text = distribution_text(EXACT, COUNTS, SAMPLES)
    assert checks.check_distribution(text, "", 2, 2, SAMPLES)


def dump_line(**changes):
    record = {"seed": 1, "clicks": [0, 1], "entropies": [0.0, 0.5, 0.0], "waiting_times": [0.1, 0.7]}
    record.update(changes)
    return json.dumps(record)


def test_dump_accepts_good_output():
    assert checks.check_dump(dump_line() + "\n" + dump_line() + "\n", 2, 2, 1, 2) == []


@pytest.mark.parametrize(
    "line",
    [
        dump_line(clicks=[0]),
        dump_line(entropies=[0.0, 0.5]),
        dump_line(entropies=[0.0, 0.5, 0.1]),  # final entropy must be 0
        dump_line(entropies=[0.0, float("nan"), 0.0]),
        dump_line(entropies=[0.0, 0.8, 0.0]),  # above ln 2 at cut 1
        dump_line(waiting_times=[0.1, -0.2]),
        dump_line()[:20],  # truncated record
    ],
)
def test_dump_rejects_corruption(line):
    assert checks.check_dump(dump_line() + "\n" + line + "\n", 2, 2, 1, 2)


def test_dump_rejects_missing_records():
    assert checks.check_dump(dump_line() + "\n", 2, 2, 1, 2)


def test_corrupted_output_counts_as_failed_run(monkeypatch, tmp_path):
    # A CLI run whose output fails its check is counted in ``failed``.
    workload = run.WORKLOADS["grid-deep"]
    broken = run.Workload(
        workload.name,
        workload.args,
        workload.samples,
        workload.smoke_samples,
        workload.trajectories_per_sample,
        lambda text, stdout, samples: checks.check_grid(text.replace("0.0,", "nan,", 1), 10, 10),
    )
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run_end_to_end(broken, seed=1, seconds=1, smoke=True)
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
