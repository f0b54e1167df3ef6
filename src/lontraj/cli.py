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

# Each mode's default output and the settings it reads beyond mode, seed,
# output, threads and dump_unitary.  parse_config sets every other setting to
# None, so the manifest records exactly what the run read.
MODES = {
    "trajectory-dump": (
        "trajectories.jsonl",
        ("n", "m", "unitary", "samples", "cut", "waiting_times"),
    ),
    "entropy-grid": ("entropy_grid.csv", ("n", "m", "unitary", "samples")),
    "scaling-sweep": ("scaling_sweep.csv", ("points", "samples")),
    "distribution": ("distribution.csv", ("n", "m", "unitary", "samples")),
    "mixture-entropy": ("mixture_entropy.json", ("n", "m", "unitary", "samples", "k", "cut")),
    "dump-unitary": ("unitary.json", ("n", "unitary")),
}

# Modes that draw one unitary from the seed, even from a fresh-per-sample
# source, and keep it for every trajectory.
_SINGLE_DRAW_MODES = ("dump-unitary", "distribution", "mixture-entropy")


@dataclass
class RunConfig:
    mode: str
    seed: int
    n_sites: int | None
    n_excited: int | None
    unitary: str | None
    n_samples: int | None
    output: Path
    threads: int
    cut: int | None
    k: int | None
    points: list[str] | None
    waiting_times: bool | None
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
        help="attach physical waiting times in trajectory-dump mode",
    )
    parser.add_argument(
        "--dump-unitary",
        type=Path,
        help="also save the run's fixed unitary as JSON (single-unitary runs only)",
    )
    return parser


def _config_tokens(parser: argparse.ArgumentParser, path: Path) -> list[str]:
    # Each ``key = value`` line becomes the flag tokens of the same setting,
    # so the file is typed and checked by the parser itself.
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    try:
        text = path.read_text()
    except OSError as error:
        raise ValueError(f"--config: cannot read {str(path)!r}: {error.strerror}") from None
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line {raw!r} (expected key = value)")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        flag = actions[key].option_strings[0]
        if actions[key].nargs == 0:  # an on/off flag
            if value.lower() in ("true", "1", "yes"):
                tokens.append(flag)
            elif value.lower() not in ("false", "0", "no"):
                raise ValueError(f"cannot read boolean from {value!r}")
        elif key == "points":
            tokens += [f"{flag}={p.strip()}" for p in value.split(",") if p.strip()]
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _check_range(key: str, value: int | None, low: int, high: int | None = None) -> None:
    if value is None:  # a setting the mode does not read
        return
    if high is None:
        if value < low:
            raise ValueError(f"--{key} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"--{key} must lie in [{low}, {high}], got {value}")


def parse_config(argv=None) -> RunConfig:
    """Merge flags over an optional key=value config file into a validated RunConfig.

    Settings that the mode does not read (see ``MODES``) are None.
    """
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    tokens = [] if args["config"] is None else _config_tokens(parser, args["config"])
    merged = vars(parser.parse_args(tokens))
    # Flags replace file values, a file's point list included.
    merged.update((key, value) for key, value in args.items() if value is not None)

    mode = merged["mode"]
    if mode is None:
        raise ValueError("missing required option --mode")
    if merged["seed"] is None:
        raise ValueError("missing required option --seed (runs must be explicitly seeded)")
    threads = merged["threads"] if merged["threads"] is not None else os.cpu_count() or 1
    _check_range("threads", threads, 1)

    default_output, reads = MODES[mode]
    s = {key: merged[key] for key in reads}
    for key in ("n", "m", "points"):
        if key in s and s[key] is None:
            flag = "at least one --point N:SOURCE" if key == "points" else f"--{key}"
            raise ValueError(f"mode {mode} requires {flag}")
    n, m = s.get("n"), s.get("m")
    _check_range("n", n, 1)
    _check_range("m", m, 0, n)
    # A mode that reads cut or k also reads n and m, checked by now.
    defaults = {"unitary": "haar", "samples": 1000}
    if "cut" in s:
        defaults["cut"] = max(1, n // 2)
    if "k" in s:
        defaults["k"] = m // 2
    s = {key: defaults.get(key) if value is None else value for key, value in s.items()}
    _check_range("samples", s.get("samples"), 1)
    if "cut" in s:
        _check_range("cut", s["cut"], 1, n - 1)
    _check_range("k", s.get("k"), 0, m)

    return RunConfig(
        mode=mode,
        seed=merged["seed"],
        n_sites=n,
        n_excited=m,
        unitary=s.get("unitary"),
        n_samples=s.get("samples"),
        output=merged["output"] or Path(default_output),
        threads=threads,
        cut=s.get("cut"),
        k=s.get("k"),
        points=s.get("points"),
        waiting_times=s.get("waiting_times"),
        dump_unitary=merged["dump_unitary"],
    )


def _parse_int(text: str, what: str, option: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option}: cannot read {what} {text!r} in {spec!r}") from None


def _parse_source(spec: str, n_sites: int | None, option: str = "--unitary") -> UnitarySource:
    if spec == "identity":
        if n_sites is None:
            raise ValueError("identity unitary needs --n")
        return UnitarySource.identity(n_sites)
    if spec == "haar":
        return UnitarySource.haar()
    if spec.startswith("brickwall:"):
        return UnitarySource.brickwall(_parse_int(spec.split(":", 1)[1], "depth", option, spec))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            return UnitarySource.fixed(load_unitary(path))
        except OSError as error:
            raise ValueError(f"{option}: cannot read {path!r}: {error.strerror}") from None
        except ValueError as error:
            raise ValueError(f"{option}: cannot read {path!r}: {error}") from None
    raise ValueError(f"{option}: cannot read unitary source {spec!r}")


def _parse_point(spec: str) -> tuple[int, str]:
    n_text, sep, source = spec.partition(":")
    if not sep:
        raise ValueError(f"cannot read sweep point {spec!r} (expected N:SOURCE)")
    return _parse_int(n_text, "N", "--point", spec), source


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
    # results, so they stay out of the manifest; so do the settings the mode
    # does not read, which are None.
    settings = {
        "n": config.n_sites,
        "m": config.n_excited,
        "unitary": config.unitary,
        "samples": config.n_samples,
        "cut": config.cut,
        "k": config.k,
        "points": config.points,
        "waiting_times": config.waiting_times or None,  # recorded only when on
    }
    settings = {key: value for key, value in settings.items() if value is not None}
    manifest = {
        "config": {"mode": config.mode, "seed": config.seed, **settings},
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
            # Stream (0, 2) is never used by per-trajectory derivations (i, 0)
            # and (i, 1).  It is also trajectory 0's waiting-time stream, but
            # only trajectory-dump attaches waiting times, and it draws no
            # unitary from the seed.  A fixed matrix of the wrong size fails here.
            u = source.draw(config.n_sites, derive_rng(config.seed, 0, 2))
    if config.dump_unitary is not None:
        # Checked before any mode runs, so a rejected run writes nothing.
        if u is None:
            raise ValueError("--dump-unitary needs a run with a single fixed unitary")
        outputs.append(config.dump_unitary)

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
            points.append((n_sites, _parse_source(source_spec, n_sites, "--point")))
        rows = scaling_sweep(points, config.n_samples, config.seed, threads=config.threads)
        _write_atomic(config.output, scaling_csv(rows))

    if config.dump_unitary is not None:
        _write_atomic(config.dump_unitary, unitary_to_json(u) + "\n")

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
