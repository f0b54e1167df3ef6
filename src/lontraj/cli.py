"""Command-line front end: configure, seed, and run the experiment modes.

Every run requires an explicit ``--seed`` and writes its outputs atomically
(temp file + rename) together with a JSON manifest naming the exact
configuration, so results can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    UnitarySource,
    averaged_entropy_grid,
    derive_rng,
    distribution_comparison,
    distribution_csv,
    grid_csv,
    mixture_entropy_report,
    scaling_csv,
    scaling_sweep,
    trajectory_records,
)
from .trajectory import record_to_json
from .unitary import load_unitary, unitary_to_json

MODES = (
    "trajectory-dump",
    "entropy-grid",
    "scaling-sweep",
    "distribution",
    "mixture-entropy",
    "dump-unitary",
)

# Modes that draw one unitary from the seed, even from a fresh-per-sample
# source, and keep it for every trajectory.
_SINGLE_DRAW_MODES = ("dump-unitary", "distribution", "mixture-entropy")

_DEFAULT_OUTPUTS = {
    "trajectory-dump": "trajectories.jsonl",
    "entropy-grid": "entropy_grid.csv",
    "scaling-sweep": "scaling_sweep.csv",
    "distribution": "distribution.csv",
    "mixture-entropy": "mixture_entropy.json",
    "dump-unitary": "unitary.json",
}

_CONFIG_KEYS = {
    "mode",
    "n",
    "m",
    "unitary",
    "samples",
    "seed",
    "output",
    "threads",
    "cut",
    "k",
    "points",
    "waiting_times",
    "dump_unitary",
}


@dataclass
class RunConfig:
    mode: str
    seed: int
    n_sites: int | None
    n_excited: int | None
    unitary: str
    n_samples: int
    output: Path
    threads: int
    cut: int | None
    k: int | None
    points: list[str] | None
    waiting_times: bool
    dump_unitary: Path | None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lontraj",
        description="Sample monitored-decay trajectories of an emitter chain behind "
        "a linear optical network and analyze their click and entropy statistics.",
    )
    parser.add_argument("--config", type=Path, help="key=value file; flags override it")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--n", type=int, help="number of emitters / detectors")
    parser.add_argument("--m", type=int, help="number of initially excited emitters")
    parser.add_argument(
        "--unitary",
        help="network unitary: identity | haar | brickwall:DEPTH | file:PATH "
        "(default haar)",
    )
    parser.add_argument("--samples", type=int, help="number of trajectories (default 1000)")
    parser.add_argument("--seed", type=int, help="master seed (required)")
    parser.add_argument("--output", type=Path, help="output file (default per mode)")
    parser.add_argument("--threads", type=int, help="worker count (default: all cores)")
    parser.add_argument("--cut", type=int, help="boundary block size for entropies")
    parser.add_argument("--k", type=int, help="click count for mixture-entropy mode")
    parser.add_argument(
        "--point",
        action="append",
        dest="points",
        metavar="N:SOURCE",
        help="scaling-sweep point, e.g. 8:brickwall:2 or 10:haar (repeatable)",
    )
    parser.add_argument(
        "--waiting-times",
        action="store_const",
        const=True,
        default=None,
        help="attach physical waiting times in trajectory-dump mode",
    )
    parser.add_argument(
        "--dump-unitary",
        type=Path,
        help="also save the run's fixed unitary as JSON (single-unitary runs only)",
    )
    return parser


def _read_config_file(path: Path) -> dict:
    values: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line {raw!r} (expected key = value)")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(key: str, value: str):
    if key in ("n", "m", "samples", "seed", "threads", "cut", "k"):
        return int(value)
    if key in ("output", "dump_unitary"):
        return Path(value)
    if key == "waiting_times":
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"cannot read boolean from {value!r}")
    if key == "points":
        return [p.strip() for p in value.split(",") if p.strip()]
    return value


def parse_config(argv=None) -> RunConfig:
    """Merge flags over an optional key=value config file into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    merged: dict = {}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            merged[key] = _coerce(key, raw)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag

    mode = merged.get("mode")
    if mode is None:
        raise ValueError("missing required option --mode")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if merged.get("seed") is None:
        raise ValueError("missing required option --seed (runs must be explicitly seeded)")

    n_sites = merged.get("n")
    n_excited = merged.get("m")
    if mode != "scaling-sweep":
        if n_sites is None:
            raise ValueError(f"mode {mode} requires --n")
        if n_sites < 1:
            raise ValueError(f"--n must be >= 1, got {n_sites}")
    if mode in ("trajectory-dump", "entropy-grid", "distribution", "mixture-entropy"):
        if n_excited is None:
            raise ValueError(f"mode {mode} requires --m")
        if not 0 <= n_excited <= n_sites:
            raise ValueError(f"--m must lie in [0, {n_sites}], got {n_excited}")

    n_samples = merged.get("samples", 1000)
    if n_samples < 1:
        raise ValueError(f"--samples must be >= 1, got {n_samples}")
    threads = merged.get("threads") or os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"--threads must be >= 1, got {threads}")

    points = merged.get("points")
    if mode == "scaling-sweep" and not points:
        raise ValueError("mode scaling-sweep requires at least one --point N:SOURCE")

    cut = merged.get("cut")
    k = merged.get("k")
    if mode in ("trajectory-dump", "mixture-entropy"):
        if cut is None:
            cut = max(1, n_sites // 2)
        if not 1 <= cut <= n_sites - 1:
            raise ValueError(f"--cut must lie in [1, {n_sites - 1}], got {cut}")
    if mode == "mixture-entropy":
        if k is None:
            k = n_excited // 2
        if not 0 <= k <= n_excited:
            raise ValueError(f"--k must lie in [0, {n_excited}], got {k}")

    return RunConfig(
        mode=mode,
        seed=merged["seed"],
        n_sites=n_sites,
        n_excited=n_excited,
        unitary=merged.get("unitary", "haar"),
        n_samples=n_samples,
        output=Path(merged.get("output", _DEFAULT_OUTPUTS[mode])),
        threads=threads,
        cut=cut,
        k=k,
        points=points,
        waiting_times=bool(merged.get("waiting_times", False)),
        dump_unitary=merged.get("dump_unitary"),
    )


def _parse_source(spec: str, n_sites: int | None) -> UnitarySource:
    if spec == "identity":
        if n_sites is None:
            raise ValueError("identity unitary needs --n")
        return UnitarySource.identity(n_sites)
    if spec == "haar":
        return UnitarySource.haar()
    if spec.startswith("brickwall:"):
        return UnitarySource.brickwall(int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        return UnitarySource.fixed(load_unitary(spec.split(":", 1)[1]))
    raise ValueError(f"cannot read unitary source {spec!r}")


def _parse_point(spec: str) -> tuple[int, str]:
    n_text, sep, source = spec.partition(":")
    if not sep:
        raise ValueError(f"cannot read sweep point {spec!r} (expected N:SOURCE)")
    return int(n_text), source


def _resolve_fixed_unitary(source: UnitarySource, n_sites: int, seed: int) -> np.ndarray:
    # Stream (0, 2) is never used by per-trajectory derivations (i, 0) / (i, 1).
    # It is also trajectory 0's waiting-time stream, but only trajectory-dump
    # attaches waiting times, and it never draws a fixed unitary.
    if source.kind == "fixed":
        return source.matrix
    return source.draw(n_sites, derive_rng(seed, 0, 2))


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _manifest(config: RunConfig, outputs: list[Path]) -> str:
    # threads and absolute paths are execution details that do not affect
    # results, so they stay out of the manifest.
    settings = {
        "mode": config.mode,
        "seed": config.seed,
        "unitary": config.unitary,
        "samples": config.n_samples,
    }
    if config.n_sites is not None:
        settings["n"] = config.n_sites
    if config.n_excited is not None:
        settings["m"] = config.n_excited
    if config.cut is not None:
        settings["cut"] = config.cut
    if config.k is not None:
        settings["k"] = config.k
    if config.points is not None:
        settings["points"] = config.points
    if config.waiting_times:
        settings["waiting_times"] = True
    manifest = {
        "config": settings,
        "outputs": [p.name for p in outputs],
        "version": __version__,
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def execute(config: RunConfig) -> int:
    """Run one configured experiment; writes the output files and their manifest."""
    outputs = [config.output]
    source = None
    u = None  # the run's single unitary, for runs that have one
    if config.mode != "scaling-sweep":
        source = _parse_source(config.unitary, config.n_sites)
        if not source.fresh_per_sample or config.mode in _SINGLE_DRAW_MODES:
            u = _resolve_fixed_unitary(source, config.n_sites, config.seed)
    dump_unitary = config.dump_unitary if config.mode != "dump-unitary" else None
    if dump_unitary is not None:
        # Checked before any mode runs, so a rejected run writes nothing.
        if u is None:
            raise ValueError("--dump-unitary needs a run with a single fixed unitary")
        outputs.append(dump_unitary)

    if config.mode == "dump-unitary":
        _write_atomic(config.output, unitary_to_json(u) + "\n")
    elif config.mode == "trajectory-dump":
        records = trajectory_records(
            config.n_sites,
            config.n_excited,
            source,
            config.cut,
            config.n_samples,
            config.seed,
            waiting_times=config.waiting_times,
            threads=config.threads,
        )
        _write_atomic(config.output, "\n".join(map(record_to_json, records)) + "\n")
    elif config.mode == "entropy-grid":
        grid = averaged_entropy_grid(
            config.n_sites,
            config.n_excited,
            source,
            config.n_samples,
            config.seed,
            threads=config.threads,
        )
        _write_atomic(config.output, grid_csv(grid))
    elif config.mode == "distribution":
        report = distribution_comparison(
            config.n_sites,
            config.n_excited,
            u,
            config.n_samples,
            config.seed,
            threads=config.threads,
        )
        _write_atomic(config.output, distribution_csv(report))
        print(f"tvd={report.tvd!r} over {len(report.outcomes)} outcomes")
    elif config.mode == "mixture-entropy":
        report = mixture_entropy_report(
            config.n_sites,
            config.n_excited,
            u,
            config.k,
            config.cut,
            config.n_samples,
            config.seed,
            threads=config.threads,
        )
        _write_atomic(
            config.output,
            json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n",
        )
    elif config.mode == "scaling-sweep":
        points = []
        for spec in config.points:
            n_sites, source_spec = _parse_point(spec)
            points.append((n_sites, _parse_source(source_spec, n_sites)))
        rows = scaling_sweep(points, config.n_samples, config.seed, threads=config.threads)
        _write_atomic(config.output, scaling_csv(rows))

    if dump_unitary is not None:
        _write_atomic(dump_unitary, unitary_to_json(u) + "\n")

    manifest_path = config.output.with_name(config.output.name + ".manifest.json")
    _write_atomic(manifest_path, _manifest(config, outputs))
    for path in outputs + [manifest_path]:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return execute(config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
