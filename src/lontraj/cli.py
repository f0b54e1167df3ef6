"""Command-line front end: configure, seed, and run the experiment modes.

Every run requires an explicit ``--seed`` and writes its outputs atomically
(temp file + rename) together with a JSON manifest naming the exact
configuration, so results can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

# A CLI process runs BLAS on one thread; parallelism comes from the pool.  The
# OpenBLAS that numpy bundles starts its thread pool when numpy loads, and its
# idle thread spins: 0.13 to 0.19 s of CPU per benchmark run on a 2-core
# host, on a core the pool's workers want.  The count is read only at load,
# so it is set here, before this module's imports load numpy, and a user's own
# setting wins.  A process that loaded numpy first keeps its environment;
# experiments._one_blas_thread pins such a process while it samples.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .experiments import (
    MAX_SAMPLES,
    MIXTURE_MAX_SUBSYSTEM,
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
from .oracle import ENUMERATION_LIMIT
from .state import MAX_SITES
from .trajectory import record_to_json
from .unitary import UnitarySource, load_unitary, unitary_to_json


# Each mode's runner turns the settings the mode reads and its unitary source
# (None for a sweep) into the output text and an optional stdout line.  Every
# estimator takes the source itself; only a unitary dump reads its matrix.
# Runners look the library functions up when called, so a wrapper patched
# into this module's namespace sees every call.


def _dump_unitary(s, source, seed, threads):
    return unitary_to_json(source.matrix) + "\n", None


def _trajectory_dump(s, source, seed, threads):
    records = trajectory_records(
        s["n"], s["m"], source, s["cut"], s["samples"], seed,
        waiting_times=s["waiting_times"], threads=threads,
    )
    return "\n".join(map(record_to_json, records)) + "\n", None


def _entropy_grid(s, source, seed, threads):
    grid = averaged_entropy_grid(s["n"], s["m"], source, s["samples"], seed, threads=threads)
    return grid_csv(grid), None


def _distribution(s, source, seed, threads):
    report = distribution_comparison(s["n"], s["m"], source, s["samples"], seed, threads)
    return distribution_csv(report), f"tvd={report.tvd!r} over {len(report.outcomes)} outcomes"


def _mixture_entropy(s, source, seed, threads):
    report = mixture_entropy_report(
        s["n"], s["m"], source, s["k"], s["cut"], s["samples"], seed, threads=threads
    )
    return json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n", None


def _scaling_sweep(s, source, seed, threads):
    points = []  # every point is parsed and checked before any point runs
    for spec in s["points"]:
        n_sites = _parse_point(spec)
        points.append((n_sites, _parse_source(spec, n_sites, "--point")))
    return scaling_csv(scaling_sweep(points, s["samples"], seed, threads=threads)), None


class Mode(NamedTuple):
    output: str  # default output file
    # Settings read beyond mode, seed, output, threads and dump_unitary.
    # parse_config keeps exactly these, so the manifest records what the run read.
    reads: tuple[str, ...]
    # Whether the run keeps one unitary drawn from stream (0, 2), even from
    # a fresh-per-sample source.  A fixed source always gives one.
    single_unitary: bool
    # (settings, source, seed, threads) -> (output text, stdout line or None)
    run: Callable


MODES = {
    "trajectory-dump": Mode(
        "trajectories.jsonl",
        ("n", "m", "unitary", "samples", "cut", "waiting_times"),
        False,
        _trajectory_dump,
    ),
    "entropy-grid": Mode(
        "entropy_grid.csv", ("n", "m", "unitary", "samples"), False, _entropy_grid
    ),
    "scaling-sweep": Mode("scaling_sweep.csv", ("points", "samples"), False, _scaling_sweep),
    "distribution": Mode("distribution.csv", ("n", "m", "unitary", "samples"), True, _distribution),
    "mixture-entropy": Mode(
        "mixture_entropy.json", ("n", "m", "unitary", "samples", "k", "cut"), True, _mixture_entropy
    ),
    "dump-unitary": Mode("unitary.json", ("n", "unitary"), True, _dump_unitary),
}


@dataclass
class RunConfig:
    mode: str
    seed: int
    output: Path
    threads: int
    dump_unitary: Path | None
    settings: dict  # parser name -> value, for the settings MODES[mode] reads


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


def _check_sector(what: str, n: int, m: int) -> None:
    # A run from m excited sites of n visits the sectors of m, m - 1, ..., 0
    # excitations and holds every state of each in memory.
    widest = comb(n, min(m, n // 2))
    if widest > ENUMERATION_LIMIT:
        raise ValueError(
            f"{what} reaches a sector of {widest} states, above the limit {ENUMERATION_LIMIT}"
        )


def parse_config(argv=None) -> RunConfig:
    """Merge flags over an optional key=value config file into a validated RunConfig.

    ``settings`` holds exactly the settings the mode reads (see ``MODES``).
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
    _check_range("seed", merged["seed"], 0)
    threads = merged["threads"] if merged["threads"] is not None else os.cpu_count() or 1
    _check_range("threads", threads, 1)

    s = {key: merged[key] for key in MODES[mode].reads}
    for key in ("n", "m", "points"):
        if key in s and s[key] is None:
            flag = "at least one --point N:SOURCE" if key == "points" else f"--{key}"
            raise ValueError(f"mode {mode} requires {flag}")
    n, m = s.get("n"), s.get("m")
    _check_range("n", n, 1, MAX_SITES)
    if ("cut" in s or mode == "entropy-grid") and n < 2:  # a grid's columns are its cuts
        raise ValueError(f"mode {mode} needs --n >= 2, so that a cut has a site on each side")
    _check_range("m", m, 0, n)
    if m is not None:
        _check_sector(f"--n {n} --m {m}", n, m)
    for spec in s.get("points") or ():
        n_point = _parse_point(spec)
        if not 2 <= n_point <= MAX_SITES:
            raise ValueError(f"--point: N must lie in [2, {MAX_SITES}], got {n_point} in {spec!r}")
        _check_sector(f"--point {spec}", n_point, n_point)  # a sweep point runs at full filling
    # A mode that reads cut or k also reads n and m, checked by now.
    if mode == "mixture-entropy" and s["cut"] is None and n // 2 > MIXTURE_MAX_SUBSYSTEM:
        raise ValueError(
            f"the default cut n // 2 = {n // 2} exceeds the mixture-entropy limit of "
            f"{MIXTURE_MAX_SUBSYSTEM}; give --cut in [1, {MIXTURE_MAX_SUBSYSTEM}]"
        )
    defaults = {"unitary": "haar", "samples": 1000}
    if "cut" in s:
        defaults["cut"] = max(1, n // 2)
    if "k" in s:
        defaults["k"] = m // 2
    s = {key: defaults.get(key) if value is None else value for key, value in s.items()}
    _check_range("samples", s.get("samples"), 1, MAX_SAMPLES)
    if mode == "mixture-entropy":  # the averaged reduced state of the cut is held in memory
        _check_range("cut", s["cut"], 1, min(n - 1, MIXTURE_MAX_SUBSYSTEM))
    elif "cut" in s:
        _check_range("cut", s["cut"], 1, n - 1)
    _check_range("k", s.get("k"), 0, m)

    return RunConfig(
        mode=mode,
        seed=merged["seed"],
        output=merged["output"] or Path(MODES[mode].output),
        threads=threads,
        dump_unitary=merged["dump_unitary"],
        settings=s,
    )


def _parse_int(text: str, what: str, option: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option}: cannot read {what} {text!r} in {spec!r}") from None


def _parse_source(spec: str, n_sites: int, option: str = "--unitary") -> UnitarySource:
    # ``spec`` is the value as typed: for --point the whole N:SOURCE.  The
    # library checks a source when it is made, and a fixed one against
    # n_sites when it is drawn; its ValueError is relayed naming both.
    text = spec.partition(":")[2] if option == "--point" else spec
    kind, sep, arg = text.partition(":")
    if text == "identity":
        make = partial(UnitarySource.identity, n_sites)
    elif text == "haar":
        make = UnitarySource.haar
    elif kind == "brickwall" and sep:
        make = partial(UnitarySource.brickwall, _parse_int(arg, "depth", option, spec))
    elif kind == "file" and sep:
        try:
            make = partial(UnitarySource.fixed, load_unitary(arg))
        except OSError as error:
            raise ValueError(f"{option}: cannot read {arg!r}: {error.strerror}") from None
        except ValueError as error:
            raise ValueError(f"{option}: cannot read {arg!r}: {error}") from None
    else:
        raise ValueError(f"{option}: cannot read unitary source {text!r}")
    try:
        source = make()
        if not source.fresh_per_sample:
            source.draw(n_sites, [])
    except ValueError as error:
        raise ValueError(f"{option}: {error} in {spec!r}") from None
    return source


def _parse_point(spec: str) -> int:
    n_text, sep, _ = spec.partition(":")
    if not sep:
        raise ValueError(f"cannot read sweep point {spec!r} (expected N:SOURCE)")
    return _parse_int(n_text, "N", "--point", spec)


def _write_atomic(path: Path, text: str) -> None:
    # mkstemp creates its file 0600; the output gets the mode a plain
    # open(path, "w") would give it.  The umask can only be read by setting it.
    umask = os.umask(0o077)
    os.umask(umask)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp_name, 0o666 & ~umask)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as error:
        raise ValueError(f"cannot write {str(path)!r}: {error.strerror}") from None


def _manifest(config: RunConfig, outputs: list[Path]) -> str:
    # threads and absolute paths are execution details that do not affect
    # results, so they stay out of the manifest; so do the settings the mode
    # does not read, and unset (None) ones.
    reads = MODES[config.mode].reads
    settings = {k: v for k, v in config.settings.items() if k in reads and v is not None}
    manifest = {
        "config": {"mode": config.mode, "seed": config.seed, **settings},
        "outputs": [p.name for p in outputs],
        "version": __version__,
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def execute(config: RunConfig) -> int:
    """Run one configured experiment; writes the output files and their manifest."""
    mode, s = MODES[config.mode], config.settings
    outputs = [config.output]
    source = None
    if "unitary" in mode.reads:
        source = _parse_source(s["unitary"], s["n"])
        if source.fresh_per_sample and mode.single_unitary:
            # The run's single unitary is drawn from stream (0, 2), which
            # per-trajectory derivations (i, 0) and (i, 1) never use.  It is
            # also trajectory 0's waiting-time stream, but only trajectory-dump
            # attaches waiting times, and it draws no unitary from the seed.
            source = UnitarySource.fixed(source.draw(s["n"], derive_rng(config.seed, 0, 2)))
    if config.dump_unitary is not None:
        # Checked before any mode runs, so a rejected run writes nothing.
        if source is None or source.matrix is None:
            raise ValueError("--dump-unitary needs a run with a single fixed unitary")
        outputs.append(config.dump_unitary)

    text, line = mode.run(s, source, config.seed, config.threads)
    manifest_path = config.output.with_name(config.output.name + ".manifest.json")
    files = [(config.output, text), (manifest_path, _manifest(config, outputs))]
    if config.dump_unitary is not None:
        files.insert(0, (config.dump_unitary, unitary_to_json(source.matrix) + "\n"))
    # A run leaves all of its files or none of the ones it wrote, and reports
    # only once every file is written.
    written = []
    try:
        for path, content in files:
            _write_atomic(path, content)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    if line is not None:
        print(line)
    for path in outputs + [manifest_path]:
        print(f"wrote {path}")
    return 0


@cache
def _freeze_heap_at_exit() -> None:
    # atexit handlers run before the interpreter's exit-time cyclic-GC passes,
    # so a heap frozen there lets those passes skip the ~25k objects that
    # numpy and the imports leave alive, which they would otherwise scan
    # several times over.  Registered once per process, by the first main();
    # until the process exits, GC runs as usual.
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    try:
        config = parse_config(argv)
        return execute(config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
