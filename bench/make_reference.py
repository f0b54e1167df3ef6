"""Regenerate ``reference.json``: high-sample grid maxima for the sweep-area points.

The sweep-area check compares each run's maxima against these values, so they
must not depend on the seed a run uses.  Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from lontraj.experiments import UnitarySource, scaling_sweep  # noqa: E402

from run import SWEEP_POINTS  # noqa: E402

REFERENCE_SEED = 271828
SAMPLES = 16384


def main() -> int:
    points = []
    for spec in SWEEP_POINTS:
        n_text, _, depth = spec.partition(":brickwall:")
        points.append((int(n_text), UnitarySource.brickwall(int(depth))))
    rows = scaling_sweep(points, SAMPLES, REFERENCE_SEED, threads=2)
    reference = {
        "samples": SAMPLES,
        "seed": REFERENCE_SEED,
        "points": {
            spec: {"s_max": row.s_max, "stderr": row.stderr}
            for spec, row in zip(SWEEP_POINTS, rows)
        },
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
