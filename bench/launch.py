"""Run the lontraj CLI as a user would, stamping the end of its set-up.

    python3 bench/launch.py STAMP_FILE CLI_ARGS...
    python3 bench/launch.py --env

The first form calls ``lontraj.cli.main`` with CLI_ARGS.  When the CLI has
been imported and its arguments parsed, before any sampling, the value of
``time.monotonic()`` is written to STAMP_FILE; the benchmark subtracts its own
launch time from it to get the set-up time.  ``--env`` prints the run's
environment record as JSON instead.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, CPUs and thread-count variables."""
    import platform

    import numpy as np

    import lontraj.cli  # noqa: F401  (compiles and caches the package like a CLI run would)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        import json

        print(json.dumps(environment(), sort_keys=True))
        return 0
    stamp_file, cli_args = argv[0], argv[1:]

    from lontraj import cli

    parse_config = cli.parse_config

    def stamped(args=None):
        config = parse_config(args)
        Path(stamp_file).write_text(repr(time.monotonic()))
        return config

    cli.parse_config = stamped
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
