"""Hash the golden CLI runs of the checkout this file sits in.

Each golden configuration is run as a fresh ``python -m lontraj.cli`` process
at ``--threads 1`` and ``2``, with ``--output out.dat`` inside an empty
temporary directory.  One line is printed per run:

    <sha256 of out.dat> <sha256 of its manifest> <sha256 of stdout> t<threads> <flags>

A refactor that must keep results byte-identical runs

    python tests/golden_runs.py > golden.txt

in a checkout of the parent commit, then

    python tests/golden_runs.py --against golden.txt

in the change: after printing its own lines it compares them with the saved
listing, prints each line that differs to stderr (``-`` saved, ``+`` now)
and exits 1 on any difference.  An optimisation that may move the last bits
passes an output directory as well,

    python tests/golden_runs.py OUTDIR > golden.txt

which keeps each run's out.dat and manifest in ``OUTDIR/g<index>-t<threads>/``
(index into ``GOLDEN``, from 00), so the two checkouts' outputs can be
compared number by number.  The script exits 1 if any run fails.  Its name
does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Three each for entropy-grid, distribution and mixture-entropy, two for
# trajectory-dump, one each for scaling-sweep and dump-unitary.
GOLDEN = [
    "--mode entropy-grid --n 6 --m 4 --unitary brickwall:2 --samples 600 --seed 5",
    "--mode entropy-grid --n 5 --m 5 --unitary haar --samples 520 --seed 8",
    "--mode entropy-grid --n 10 --m 10 --unitary brickwall:20 --samples 300 --seed 4",
    "--mode distribution --n 5 --m 4 --unitary haar --samples 700 --seed 7",
    "--mode distribution --n 5 --m 3 --unitary brickwall:3 --samples 300 --seed 6",
    "--mode distribution --n 8 --m 8 --unitary haar --samples 10000 --seed 7",
    "--mode mixture-entropy --n 6 --m 6 --unitary haar --k 3 --cut 3 --samples 600 --seed 11",
    "--mode mixture-entropy --n 4 --m 3 --unitary identity --k 0 --cut 2 --samples 300 --seed 12",
    "--mode mixture-entropy --n 6 --m 5 --unitary brickwall:4 --k 2 --cut 3 --samples 300 --seed 2",
    "--mode scaling-sweep --point 4:haar --point 6:brickwall:2 --samples 300 --seed 13",
    "--mode trajectory-dump --n 6 --m 6 --unitary brickwall:2 --cut 3 --samples 300 --seed 3"
    " --waiting-times",
    "--mode trajectory-dump --n 7 --m 4 --unitary haar --cut 2 --samples 300 --seed 9",
    "--mode dump-unitary --n 6 --unitary brickwall:3 --seed 3",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args: str, threads: int, keep: Path | None = None) -> str:
    """Run one golden configuration; return its output line.

    With ``keep``, the run's out.dat and its manifest are copied into that
    directory.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "lontraj.cli", *args.split(), "--threads", str(threads),
            "--output", "out.dat"]
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(f"{args} --threads {threads} exited {done.returncode}: "
                               f"{done.stderr.decode().strip()}")
        output = Path(work, "out.dat").read_bytes()
        manifest = Path(work, "out.dat.manifest.json").read_bytes()
        if keep is not None:
            keep.mkdir(parents=True, exist_ok=True)
            for name in ("out.dat", "out.dat.manifest.json"):
                shutil.copyfile(Path(work, name), keep / name)
    return f"{_sha(output)} {_sha(manifest)} {_sha(done.stdout)} t{threads} {args}"


def differences(saved: list[str], lines: list[str]) -> list[str]:
    """The lines of two listings that differ, as ``-`` saved and ``+`` now, in listing order."""
    out = []
    for index in range(max(len(saved), len(lines))):
        before = saved[index] if index < len(saved) else None
        now = lines[index] if index < len(lines) else None
        if before != now:
            pairs = (("-", before), ("+", now))
            out += [f"{sign} {line}" for sign, line in pairs if line is not None]
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="golden_runs.py")
    parser.add_argument("outdir", nargs="?", type=Path, help="keep each run's outputs here")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a saved listing; exit 1 if any line differs from it")
    args = parser.parse_args(argv)
    saved = None if args.against is None else args.against.read_text().splitlines()
    lines = []
    try:
        for index, flags in enumerate(GOLDEN):
            for threads in (1, 2):
                keep = None if args.outdir is None else args.outdir / f"g{index:02d}-t{threads}"
                lines.append(run(flags, threads, keep))
                print(lines[-1], flush=True)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if saved is None:
        return 0
    diff = differences(saved, lines)
    for line in diff:
        print(line, file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
