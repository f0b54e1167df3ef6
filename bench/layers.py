"""Traced per-layer run: times calls into each lontraj module from outside the package.

The loop below calls the public functions in the order the entropy-grid
estimator calls them (draw the unitary, derive the click generator, take the
entropy profile, then alternate one click with one profile), with a clock
read around every call.  Each configuration runs once in this process
(``.p1``) and once in two forked processes at the same time (``.p2``), so a
``.p2``/``.p1`` ratio above 1 shows contention for the two cores.

Counts (jumps, Schmidt-spectrum kernel calls, permanents, chunks, forks)
are exact and repeat from run to run.  Flop and byte counts of the lowering
matmul are computed from the array shapes, not measured.

Also runnable on its own, in a fresh process, to time one entropy grid:

    python3 bench/layers.py grid N DEPTH THREADS SAMPLES
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lontraj import cli, experiments, oracle  # noqa: E402
from lontraj.experiments import UnitarySource, averaged_entropy_grid, derive_rng  # noqa: E402
from lontraj.oracle import enumerate_outcomes, outcome_probability  # noqa: E402
from lontraj.state import entanglement_entropy, entropy_profile, initial_state  # noqa: E402
from lontraj.trajectory import evolve_clicks, sample_click_sequence  # noqa: E402

# (N, brick-wall depth) of the layer timings; N = 16 is the largest sector the
# package is meant for and is not run end to end.
CONFIGS = ((10, 5), (12, 2), (16, 2))
# Trajectories per process and filling, each config about half a second of work.
LOOP_TRAJECTORIES = {10: 32, 12: 16, 16: 4}
GRID_SAMPLES = {"t1": 256, "t2": 512}  # t2 needs two chunks of the estimator's 256
BLAS_N, BLAS_DEPTH = 16, 2
BLAS_SAMPLES = {"t1": 32, "t2": 512}
# Set before numpy loads in the pinned process; the measured runs never set them.
PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ORACLE_M = 8
RNG_CALLS = 4000
POOL_REPEATS = 5
POOL_SAMPLES = 512  # two chunks of the estimator's 256, of almost no work each
SELF_SAMPLES = 32
SCHMIDT_KERNELS = ("svd", "svdvals", "eigvalsh", "eigh")
TRACE_SEED = 8128

clock = time.perf_counter


class Spans:
    """Outermost-call timer for wrapped functions: nested calls are not counted twice."""

    def __init__(self) -> None:
        self.depth = 0
        self.seconds = 0.0
        self.calls = 0

    def wrap(self, function):
        def timed(*args, **kwargs):
            self.depth += 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.seconds += clock() - start
                    self.calls += 1

        return timed

    def wrap_iter(self, function):
        """``wrap`` for a generator function: times each step of the iteration."""
        timed_step = self.wrap(next)

        def timed(*args, **kwargs):
            steps = function(*args, **kwargs)
            while True:
                try:
                    item = timed_step(steps)
                except StopIteration:
                    return
                yield item

        return timed


def patched(replacements: list[tuple[object, str, object]]) -> ExitStack:
    """Context replacing each (owner, attribute) by its value until the block ends."""
    stack = ExitStack()
    for owner, name, value in replacements:
        stack.enter_context(mock.patch.object(owner, name, value))
    return stack


class ForkCounter:
    """Counts forks made by this process while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.count = 0
        os.register_at_fork(after_in_parent=self._forked)

    def _forked(self) -> None:
        if self.active:
            self.count += 1


def traced_loop(n_sites: int, depth: int, n_excited: int, count: int, seed: int) -> dict:
    """Per-trajectory milliseconds of each layer over ``count`` traced trajectories."""
    source = UnitarySource.brickwall(depth)
    cut = n_sites // 2
    total = dict.fromkeys(("draw", "jumps", "entropy", "entropy_cut", "sequence"), 0.0)
    traced_wall = 0.0
    jumps = 0
    for i in range(count):
        t0 = clock()
        u = source.draw(n_sites, derive_rng(seed, i, 0))
        t1 = clock()
        rng = derive_rng(seed, i, 1)
        t2 = clock()
        state = initial_state(n_sites, n_excited)
        entropy_profile(state)
        t3 = clock()
        total["draw"] += t1 - t0
        total["entropy"] += t3 - t2
        cut_seconds = 0.0
        steps = evolve_clicks(state, u, rng)
        while True:
            a = clock()
            step = next(steps, None)
            b = clock()
            total["jumps"] += b - a
            if step is None:
                break
            jumps += 1
            entropy_profile(step[1])
            c = clock()
            entanglement_entropy(step[1], cut)
            d = clock()
            total["entropy"] += c - b
            cut_seconds += d - c
        traced_wall += clock() - t0 - cut_seconds
        total["entropy_cut"] += cut_seconds
        t4 = clock()
        sample_click_sequence(n_sites, n_excited, u, derive_rng(seed, i, 1))
        total["sequence"] += clock() - t4
    result = {key: 1e3 * value / count for key, value in total.items()}
    result["wall"] = 1e3 * traced_wall / count
    result["jumps_count"] = jumps
    return result


def forked_pair(args: tuple) -> dict:
    """Run ``traced_loop`` in two forked processes at once; mean of their results."""
    children = []
    for index in range(2):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                n_sites, depth, n_excited, count, seed = args
                payload = json.dumps(traced_loop(n_sites, depth, n_excited, count, seed + index))
                with os.fdopen(write_fd, "w") as pipe:
                    pipe.write(payload)
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    results = []
    for pid, read_fd in children:
        with os.fdopen(read_fd) as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"traced child {pid} failed")
        results.append(json.loads(payload))
    return {key: statistics.fmean(r[key] for r in results) for key in results[0]}


def schmidt_kernel_calls(n_sites: int, depth: int, seed: int) -> int:
    """Dense Schmidt-spectrum kernel calls (svd, eigvalsh, ...) in one full-filling trajectory."""
    spans = Spans()
    replacements = [
        (np.linalg, name, spans.wrap(getattr(np.linalg, name)))
        for name in SCHMIDT_KERNELS
        if hasattr(np.linalg, name)
    ]
    u = UnitarySource.brickwall(depth).draw(n_sites, derive_rng(seed, 0, 0))
    state = initial_state(n_sites, n_sites)
    with patched(replacements):
        entropy_profile(state)
        for _, state in evolve_clicks(state, u, derive_rng(seed, 0, 1)):
            entropy_profile(state)
    return spans.calls


def lowering_cost(n_sites: int, n_excited: int) -> tuple[int, int]:
    """Computed flop and bytes of the lowering matmuls over one trajectory.

    Each click multiplies the N x N unitary into the N x C(N, e-1) stack of
    lowered states: 8 real flop per complex multiply-add, 16 bytes per
    complex number read or written (unitary, stack in, result out).
    """
    flop = byte = 0
    for e in range(n_excited, 0, -1):
        dim_lo = math.comb(n_sites, e - 1)
        flop += 8 * n_sites * n_sites * dim_lo
        byte += 16 * (n_sites * n_sites + 2 * n_sites * dim_lo)
    return flop, byte


def grid_ms(n_sites: int, depth: int, threads: int, samples: int, seed: int) -> float:
    """Wall milliseconds per trajectory of one ``averaged_entropy_grid`` call."""
    source = UnitarySource.brickwall(depth)
    start = clock()
    averaged_entropy_grid(n_sites, n_sites, source, samples, seed, threads=threads)
    return 1e3 * (clock() - start) / samples


def estimator_self_ms(n_sites: int, depth: int, samples: int, seed: int) -> float:
    """Per-trajectory wall of a serial entropy grid outside the layer calls it makes.

    The estimator's calls to draw, derive_rng, initial_state, entropy_profile
    and each step of evolve_clicks are timed from outside; what is left is the
    estimator's own bookkeeping.
    """
    spans = Spans()
    replacements = [(UnitarySource, "draw", spans.wrap(UnitarySource.draw))]
    for name in ("derive_rng", "initial_state", "entropy_profile"):
        if hasattr(experiments, name):
            replacements.append((experiments, name, spans.wrap(getattr(experiments, name))))
    if hasattr(experiments, "evolve_clicks"):
        replacements.append((experiments, "evolve_clicks", spans.wrap_iter(experiments.evolve_clicks)))
    with patched(replacements):
        start = clock()
        averaged_entropy_grid(n_sites, n_sites, UnitarySource.brickwall(depth), samples, seed)
        wall = clock() - start
    return 1e3 * (wall - spans.seconds) / samples


def fresh_grid_ms(threads: int, samples: int, pinned: bool) -> float:
    """``grid_ms`` at the BLAS diagnostic size, in a fresh interpreter."""
    env = dict(os.environ, **PIN_ENV) if pinned else dict(os.environ)
    argv = [sys.executable, str(Path(__file__)), "grid", str(BLAS_N), str(BLAS_DEPTH)]
    argv += [str(threads), str(samples)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def pool_start_s(seed: int) -> float:
    """Median wall a two-chunk toy grid at two workers spends beyond half its one-worker wall."""
    source = UnitarySource.identity(2)
    gaps = []
    for repeat in range(POOL_REPEATS):
        walls = []
        for threads in (1, 2):
            start = clock()
            averaged_entropy_grid(2, 1, source, POOL_SAMPLES, seed + repeat, threads=threads)
            walls.append(clock() - start)
        gaps.append(walls[1] - walls[0] / 2)
    return statistics.median(gaps)


def oracle_metrics(seed: int) -> dict:
    """The exact outcome table of the distribution-full workload, timed and counted."""
    u = UnitarySource.haar().draw(ORACLE_M, derive_rng(seed, 0, 2))
    spans = Spans()
    with patched([(oracle, "permanent_ryser", spans.wrap(oracle.permanent_ryser))]):
        start = clock()
        outcomes = enumerate_outcomes(ORACLE_M, ORACLE_M)
        middle = clock()
        for counts in outcomes:
            outcome_probability(u, counts, ORACLE_M)
        end = clock()
    return {
        "oracle.table_s": (end - start, "s"),
        f"oracle.permanent_us.m{ORACLE_M}": (1e6 * (end - middle) / len(outcomes), "us"),
        "oracle.permanents": (spans.calls, "count"),
    }


def rng_us(seed: int) -> float:
    start = clock()
    for i in range(RNG_CALLS):
        derive_rng(seed, i, 1)
    return 1e6 * (clock() - start) / RNG_CALLS


def _library_functions() -> list[tuple[object, str]]:
    # Everything the CLI calls from the estimator and trajectory modules,
    # except its output formatters, counts as estimator time.
    names = []
    for name, value in vars(cli).items():
        module = getattr(value, "__module__", "")
        if callable(value) and module in ("lontraj.experiments", "lontraj.trajectory"):
            if not isinstance(value, type) and not name.endswith(("_csv", "_json")):
                names.append((cli, name))
    return names


def workload_metrics(workloads, smoke: bool, forks: ForkCounter, seed: int):
    """Run each workload's CLI ``execute`` in process; time the CLI's own share, count chunks and forks."""
    metrics, failures = {}, []
    out_dir = BENCH / ".out" / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        output = out_dir / f"{workload.name}.out"
        argv = workload.argv(seed, smoke, output)
        spans = Spans()
        chunks = [0]
        replacements = [(owner, name, spans.wrap(getattr(owner, name))) for owner, name in _library_functions()]
        replacements.append((UnitarySource, "draw", spans.wrap(UnitarySource.draw)))
        split = getattr(experiments, "_chunks", None)
        if split is not None:

            def counted_split(n_samples, split=split):
                spans_list = split(n_samples)
                chunks[0] += len(spans_list)
                return spans_list

            replacements.append((experiments, "_chunks", counted_split))
        else:
            print("warning: lontraj.experiments._chunks is gone; chunks reported as -1", file=sys.stderr)
            chunks[0] = -1
        output.unlink(missing_ok=True)
        forks.count = 0
        forks.active = True
        with patched(replacements):
            start = clock()
            with redirect_stdout(StringIO()) as stdout:
                status = cli.execute(cli.parse_config(argv))
            wall = clock() - start
        forks.active = False
        problems = [f"exit status {status}"] if status else []
        if not problems:
            problems = workload.check(output.read_text(), stdout.getvalue(), smoke)
        if problems:
            failures.append((workload.name, problems))
        metrics[f"cli.self_s.{workload.name}"] = (wall - spans.seconds, "s")
        # The trajectory dump is the CLI's own serial loop: it never chunks or forks.
        if "trajectory-dump" not in workload.args:
            metrics[f"experiments.chunks.{workload.name}"] = (chunks[0], "count")
            metrics[f"experiments.forks.{workload.name}"] = (forks.count, "count")
    return metrics, failures


def run_trace(workloads, smoke: bool) -> tuple[dict, list, int]:
    """All per-layer metrics as {name: (value, unit)}, the failed workload checks, and attempts."""
    seed = TRACE_SEED
    forks = ForkCounter()
    metrics: dict[str, tuple[float, str]] = {}
    loop_size = (lambda n: 1) if smoke else LOOP_TRAJECTORIES.get
    grid_samples = {"t1": 2, "t2": 4} if smoke else GRID_SAMPLES
    jumps_total = 0
    traced_wall = {}
    for n_sites, depth in CONFIGS:
        draw = {"p1": [], "p2": []}
        for filling, n_excited in (("half", n_sites // 2), ("full", n_sites)):
            args = (n_sites, depth, n_excited, loop_size(n_sites), seed)
            # Build the lazy sector tables first; the forked pair inherits them.
            traced_loop(n_sites, depth, n_excited, 1, seed - 1)
            runs = {"p1": traced_loop(*args), "p2": forked_pair(args)}
            jumps_total += runs["p1"]["jumps_count"]
            for proc, r in runs.items():
                draw[proc].append(r["draw"])
                metrics[f"state.jumps_ms.n{n_sites}.{filling}.{proc}"] = (r["jumps"], "ms")
                metrics[f"state.entropy_ms.n{n_sites}.{filling}.{proc}"] = (r["entropy"], "ms")
                metrics[f"trajectory.sequence_ms.n{n_sites}.{filling}.{proc}"] = (r["sequence"], "ms")
            p1 = runs["p1"]
            metrics[f"state.entropy_cut_ms.n{n_sites}.{filling}.p1"] = (p1["entropy_cut"], "ms")
            if filling == "full":
                traced_wall[n_sites] = p1["wall"]
                flop, byte = lowering_cost(n_sites, n_excited)
                metrics[f"state.jumps.flop.n{n_sites}"] = (flop, "flop_computed")
                metrics[f"state.jumps.bytes.n{n_sites}"] = (byte, "B_computed")
                metrics[f"state.jumps.gflops.n{n_sites}"] = (flop / (p1["jumps"] * 1e6), "GFLOP/s")
        for proc, values in draw.items():
            metrics[f"unitary.draw_ms.n{n_sites}.{proc}"] = (statistics.fmean(values), "ms")
        metrics[f"state.schmidt_blocks.n{n_sites}"] = (schmidt_kernel_calls(n_sites, depth, seed), "count")
    metrics["state.jumps.count"] = (jumps_total, "count")
    metrics["experiments.rng_us"] = (rng_us(seed), "us")

    grids = {}
    for n_sites, depth in CONFIGS:
        if n_sites == BLAS_N:
            continue
        for threads, key in ((1, "t1"), (2, "t2")):
            grids[(n_sites, key)] = grid_ms(n_sites, depth, threads, grid_samples[key], seed)
    metrics["experiments.pool_start_s"] = (pool_start_s(seed), "s")

    blas_samples = {"t1": 1, "t2": 2} if smoke else BLAS_SAMPLES
    grids[(BLAS_N, "t1")] = fresh_grid_ms(1, blas_samples["t1"], pinned=False)
    grids[(BLAS_N, "t2")] = fresh_grid_ms(2, blas_samples["t2"], pinned=False)
    pinned = fresh_grid_ms(2, blas_samples["t2"], pinned=True)
    metrics[f"blas.traj_ms.n{BLAS_N}.t2_pinned"] = (pinned, "ms")
    metrics[f"blas.pinned_speedup.n{BLAS_N}"] = (grids[(BLAS_N, "t2")] / pinned, "ratio")
    for (n_sites, key), value in grids.items():
        metrics[f"experiments.traj_ms.n{n_sites}.{key}"] = (value, "ms")
    for n_sites, depth in CONFIGS:
        self_ms = estimator_self_ms(n_sites, depth, 2 if smoke else SELF_SAMPLES, seed)
        metrics[f"experiments.self_ms.n{n_sites}"] = (self_ms, "ms")
    overhead_n = CONFIGS[1][0]
    metrics["trace.overhead_ratio"] = (grids[(overhead_n, "t1")] / traced_wall[overhead_n], "ratio")

    metrics.update(oracle_metrics(seed))
    workload_part, failures = workload_metrics(workloads, smoke, forks, seed)
    metrics.update(workload_part)
    return metrics, failures, len(workloads)


def _grid_main(argv: list[str]) -> int:
    n_sites, depth, threads, samples = (int(a) for a in argv)
    # One serial trajectory first builds the sector tables the timed call reuses.
    averaged_entropy_grid(n_sites, n_sites, UnitarySource.brickwall(depth), 1, TRACE_SEED)
    print(repr(grid_ms(n_sites, depth, threads, samples, TRACE_SEED + 1)))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 6 or sys.argv[1] != "grid":
        sys.exit("usage: layers.py grid N DEPTH THREADS SAMPLES")
    sys.exit(_grid_main(sys.argv[2:]))
