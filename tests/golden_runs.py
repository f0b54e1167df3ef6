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
compared number by number with

    python tests/golden_runs.py --drift OUTDIR_BEFORE OUTDIR_AFTER

It splits each kept file into numbers and the text between them, prints one
line per run with the largest absolute and relative difference of its
floats, and exits 1 if anything else differs: an integer (clicks, counts,
k, l, ``n_distinct_sequences``), the text around the numbers, or a missing
file.  The script exits 1 if any run fails.  Its name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Three each for entropy-grid, distribution and mixture-entropy, two for
# trajectory-dump, one each for scaling-sweep and dump-unitary; then a
# distribution and a mixture under a fixed unitary whose click-multiset tree
# holds only its first levels, so the walk goes on past it; a
# distribution under the identity, whose tree holds zero-weight nodes; and a
# mixture and a grid whose pool tasks at two threads each hold several
# chunks of float sums.
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
    "--mode distribution --n 9 --m 9 --unitary haar --samples 2000 --seed 15",
    "--mode mixture-entropy --n 10 --m 10 --unitary haar --k 5 --cut 5 --samples 600 --seed 14",
    "--mode distribution --n 6 --m 6 --unitary identity --samples 300 --seed 16",
    "--mode mixture-entropy --n 8 --m 8 --unitary haar --k 4 --cut 4 --samples 4000 --seed 17",
    "--mode entropy-grid --n 6 --m 6 --unitary haar --samples 3000 --seed 18",
]
KEPT = ("out.dat", "out.dat.manifest.json")  # each run's files in OUTDIR


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
            for name in KEPT:
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


# A number as repr() and json.dumps write one, standing apart from letters and
# points (so not a version such as 0.1.0); a float has a point or an exponent.
NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(?![\w.])")
RUN_NAME = re.compile(r"g(\d+)-t\d+")


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def drift(before: Path, after: Path) -> tuple[list[str], bool]:
    """Compare two kept output directories: (one report line per run, whether only floats moved)."""
    lines, floats_only = [], True
    runs = sorted({p.name for p in before.iterdir()} | {p.name for p in after.iterdir()})
    for name in runs:
        largest_abs = largest_rel = 0.0
        moved = total = 0
        problems = []
        for kept in KEPT:
            try:
                old, new = (NUMBER.split((d / name / kept).read_text()) for d in (before, after))
            except FileNotFoundError as error:
                problems.append(f"missing {error.filename}")
                continue
            if len(old) != len(new):
                problems.append(f"{kept}: {len(old) // 2} numbers against {len(new) // 2}")
                continue
            # Odd positions hold the numbers, even ones the text between them.
            for position, (a, b) in enumerate(zip(old, new)):
                if not (position % 2 and _is_float(a) and _is_float(b)):
                    if a != b:
                        problems.append(f"{kept}: {a!r} against {b!r}")
                    continue
                total += 1
                x, y = float(a), float(b)
                if a != b:
                    moved += 1
                    largest_abs = max(largest_abs, abs(x - y))
                    if x != y:  # not -0.0 against 0.0
                        largest_rel = max(largest_rel, abs(x - y) / max(abs(x), abs(y)))
        match = RUN_NAME.fullmatch(name)
        flags = f" [{GOLDEN[int(match[1])]}]" if match and int(match[1]) < len(GOLDEN) else ""
        summary = (f"{name}: {moved} of {total} floats moved, largest absolute "
                   f"{largest_abs:.3g}, relative {largest_rel:.3g}{flags}")
        lines.append("; ".join([summary, *problems[:3]]))
        floats_only = floats_only and not problems
    return lines, floats_only


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="golden_runs.py")
    parser.add_argument("outdir", nargs="?", type=Path, help="keep each run's outputs here")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a saved listing; exit 1 if any line differs from it")
    parser.add_argument("--drift", nargs=2, type=Path, metavar=("DIR_A", "DIR_B"),
                        help="compare two kept output directories; exit 1 unless only floats moved")
    args = parser.parse_args(argv)
    if args.drift is not None:
        lines, floats_only = drift(*args.drift)
        print("\n".join(lines))
        return 0 if floats_only else 1
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
