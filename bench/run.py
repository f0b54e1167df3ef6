"""lontraj benchmark: CLI workloads timed end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` the named workload is run as a fresh ``lontraj`` CLI
process again and again, every time with the same inputs, until ``S``
seconds have passed.  Every run's output is checked (see ``checks.py``); the
medians over the runs of ``wall_s``, ``setup_s``, ``traj_per_s``, ``cpu_s``
and ``peak_rss_mb`` are reported.  The four times are adjusted to a
reference host speed: a probe thread samples how fast each core runs while
the CLI runs, and each run's times are scaled by the reference probe time
over the run's mean probe time (see ``hostspeed.py``).  The medians as
measured are printed beside them.  Load comes from this one process, which
waits for each CLI run before starting the next (a closed loop with one
client); the CLI itself starts at most two workers.

With ``--trace 1`` the traced run of ``layers.py`` reports the per-layer
metrics instead; it does a fixed amount of work and ignores ``S``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks
every sample count so the whole benchmark runs in seconds; its numbers mean
nothing.

Thread-count variables such as ``OPENBLAS_NUM_THREADS`` are passed through
untouched: worker processes that each run multithreaded BLAS on two cores
are part of what is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import hostspeed
from hostspeed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"
OUT = BENCH / ".out"

SWEEP_POINTS = ("8:brickwall:2", "10:brickwall:2", "11:brickwall:2")
DUMP_N, DUMP_CUT = 12, 6


@dataclass(frozen=True)
class Workload:
    """One fixed CLI configuration; the seed, sample count and output path are added per run."""

    name: str
    args: tuple[str, ...]
    samples: int
    smoke_samples: int
    # Trajectories one sample stands for (one per sweep point in scaling-sweep).
    trajectories_per_sample: int
    verify: Callable[[str, str, int], list[str]]

    def n_samples(self, smoke: bool) -> int:
        return self.smoke_samples if smoke else self.samples

    def argv(self, seed: int, smoke: bool, output: Path) -> list[str]:
        extra = ["--samples", str(self.n_samples(smoke)), "--seed", str(seed), "--output", str(output)]
        return [*self.args, *extra]

    def check(self, text: str, stdout: str, smoke: bool) -> list[str]:
        return self.verify(text, stdout, self.n_samples(smoke))


def _load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())["points"]


def _sweep_points() -> tuple[str, ...]:
    args = []
    for spec in SWEEP_POINTS:
        args += ["--point", spec]
    return tuple(args)


# Sample counts are sized so that one CLI run takes 2 to 5 s on a 2-core
# machine and a run of the benchmark holds several of them.
WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 7a's shape: entropy grids at growing N under a 2-worker
        # pool, one pool per point, two chunks of 256 per point.  N = 12 and
        # above is left to the traced run: with both workers running
        # multithreaded BLAS on two cores, a CLI run at N = 12 measured
        # anywhere from 6 to 12 s, too unsteady to time end to end.  Not
        # listed in BENCHMARK.json either: with both workers' BLAS threads
        # spinning on two cores, the interquartile range of its median over
        # ten 20 s runs reached 0.19 to 0.33 of that median.  It stays
        # runnable by hand, and the traced run still executes it in process.
        Workload(
            "sweep-area",
            ("--mode", "scaling-sweep", *_sweep_points(), "--threads", "2"),
            512,
            8,
            len(SWEEP_POINTS),
            lambda text, stdout, samples: checks.check_sweep(text, list(SWEEP_POINTS), _load_reference()),
        ),
        # One grid whose trajectories spend most of their time drawing the
        # depth-20 brick-wall unitary, so the unitary layer shows here.  At
        # N = 10 BLAS does not thread, and a single grid starts one pool.  Two
        # workers rather than one: run serially, its median over 20 to 30 s
        # runs spread by 0.24 to 0.26 from run to run on a 2-core machine.
        Workload(
            "grid-deep",
            ("--mode", "entropy-grid", "--n", "10", "--m", "10", "--unitary", "brickwall:20", "--threads", "2"),
            512,
            4,
            1,
            lambda text, stdout, samples: checks.check_grid(text, 10, 10),
        ),
        # No entropy at all: the serial permanent oracle over 6435 outcomes,
        # then the click sampler under a 2-worker pool.  10000 samples rather
        # than 20000: a 45 s run then holds 10 to 12 CLI runs instead of 8,
        # and the interquartile range of its median over five seeds fell
        # from 0.076 to 0.057 of that median.
        Workload(
            "distribution-full",
            ("--mode", "distribution", "--n", "8", "--m", "8", "--unitary", "haar", "--threads", "2"),
            10000,
            200,
            1,
            lambda text, stdout, samples: checks.check_distribution(text, stdout, 8, 8, samples),
        ),
        # The CLI's own serial loop over run_trajectory, one cut per click,
        # and one JSON line written per trajectory.  Not listed in
        # BENCHMARK.json: with the second core taken by spinning BLAS threads
        # its median over 20 s runs spread by 0.18 to 0.24 from run to run on
        # a 2-core machine.  The traced run still executes it in process.
        Workload(
            "dump-haar",
            (
                "--mode", "trajectory-dump", "--n", str(DUMP_N), "--m", str(DUMP_N),
                "--unitary", "haar", "--cut", str(DUMP_CUT), "--waiting-times",
            ),
            800,
            4,
            1,
            lambda text, stdout, samples: checks.check_dump(text, DUMP_N, DUMP_N, DUMP_CUT, samples),
        ),
    )
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "traj_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def environment() -> dict:
    """Environment record from a fresh interpreter; also compiles and caches the package."""
    done = subprocess.run(
        [sys.executable, str(LAUNCH), "--env"], capture_output=True, text=True, check=True, cwd=ROOT
    )
    return json.loads(done.stdout)


def run_cli(workload: Workload, seed: int, smoke: bool, probe: SpeedProbe) -> tuple[dict, dict, list[str], str]:
    """One fresh CLI process.

    Returns its metrics adjusted to the reference host speed (see
    ``hostspeed.py``), the same metrics as measured, the problems found in
    its output, and the output's sha256.
    """
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    output, stamp = out_dir / "output", out_dir / "setup.stamp"
    manifest = output.with_name(output.name + ".manifest.json")
    for path in (output, stamp, manifest):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(LAUNCH), str(stamp), *workload.argv(seed, smoke, output)]
    with open(out_dir / "stdout", "w+") as stdout, open(out_dir / "stderr", "w+") as stderr:
        start = time.monotonic()
        # Its own process group, so that an interrupted benchmark can stop the CLI and its workers.
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        end = time.monotonic()
        wall = end - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        out_text, err_text = stdout.read(), stderr.read()

    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {err_text.strip()[-300:]}")
    for path in (output, stamp, manifest):
        if not path.is_file():
            problems.append(f"missing {path.name}")
    setup = float(stamp.read_text()) - start if stamp.is_file() else math.nan
    digest = ""
    if not problems:
        data = output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        problems = workload.check(data.decode(), out_text, smoke)
    trajectories = workload.n_samples(smoke) * workload.trajectories_per_sample
    cpu, rss = usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    factor = probe.factor(start, end)
    raw = {"wall_s": wall, "setup_s": setup, "traj_per_s": trajectories / (wall - setup), "cpu_s": cpu}
    adjusted = {
        "wall_s": wall * factor,
        "setup_s": setup * factor,
        "traj_per_s": trajectories / ((wall - setup) * factor),
        "cpu_s": cpu * factor,
        "peak_rss_mb": rss,
    }
    return adjusted, raw, problems, digest


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_end_to_end(workload: Workload, seed: int, seconds: int, smoke: bool) -> dict:
    runs, good, digests = [], [], set()
    with SpeedProbe() as probe:
        start = time.monotonic()
        while not runs or time.monotonic() - start < seconds:
            metrics, raw, problems, digest = run_cli(workload, seed, smoke, probe)
            runs.append((metrics, raw))
            if digest:
                digests.add(digest)
            if problems:
                print(f"run {len(runs)} FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
            else:
                good.append((metrics, raw))
    failed = len(runs) - len(good)
    good = good or runs
    summary = {}
    print(f"workload {workload.name}: {len(runs)} CLI runs, seed {seed}, {len(good)} checked ok")
    print("  lontraj " + " ".join(workload.argv(seed, smoke, Path("OUTPUT"))))
    probe_ms = [1e3 * s for _, s in probe.samples]
    print(f"  host-speed probe {statistics.median(probe_ms):.4g} ms median over {len(probe_ms)} samples, "
          f"reference {1e3 * hostspeed.REFERENCE_S:.4g} ms")
    for name, unit in E2E_UNITS.items():
        values = [m[name] for m, _ in good]
        q1, median, q3 = _quartiles(values)
        summary[name] = {"value": statistics.median(values), "unit": unit}
        as_measured = f", as measured {statistics.median(r[name] for _, r in good):.6g}" if name in good[0][1] else ""
        print(f"  {name:<12} {median:12.6g} {unit:<4} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}{as_measured})")
    print(f"  {'failed_ratio':<12} {failed / len(runs):12.6g} -    ({failed} of {len(runs)})")
    print(f"  output sha256 {', '.join(sorted(digests)) or '-'} (information, not a check)")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": summary}


def run_traced(smoke: bool) -> dict:
    import layers

    metrics, failures, attempted = layers.run_trace(list(WORKLOADS.values()), smoke)
    for name, problems in failures:
        print(f"traced {name} FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lontraj benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sample counts, for testing the benchmark")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like Ctrl-C, through run_cli's clean-up of the CLI process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lontraj" / "cli.py").is_file():
        print(f"error: no lontraj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    if env["thread_vars"]:
        print(
            f"warning: {', '.join(env['thread_vars'])} set; this hides the cost of "
            "multithreaded BLAS in every worker",
            file=sys.stderr,
        )
    if args.trace:
        result = run_traced(args.smoke)
    else:
        result = run_end_to_end(WORKLOADS[args.workload], args.seed, args.seconds, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
