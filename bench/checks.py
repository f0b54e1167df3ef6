"""Output checks for the benchmark workloads, standard library only.

Every check reads the file a CLI run wrote and returns a list of problems;
an empty list means the output is accepted.  The checks hold for any seed
and tolerate last-bit drift, so a change to the RNG stream or to the order
of floating-point sums does not make them fail; a truncated file, a NaN, an
entropy outside its physical range or a wrong outcome count does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

LN2 = math.log(2.0)
# Slack for values that are exact in exact arithmetic (zero entropies, unit sums).
ABS_TOL = 1e-9
# A sweep maximum may sit this many combined standard errors from the reference.
SWEEP_Z = 5.0
# The sampled distribution's total-variation distance may reach this multiple of
# its expected value under exact sampling.  At the distribution-full size the
# ratio measured about 1.0.
TVD_FACTOR = 1.5

_TVD_LINE = re.compile(r"^tvd=(\S+) over (\d+) outcomes$", re.MULTILINE)


def _rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader)
    except StopIteration:
        return [], ["empty output"]
    if first != header:
        return [], [f"header {first} != {header}"]
    rows = list(reader)
    problems = [f"row {i} has {len(r)} fields" for i, r in enumerate(rows) if len(r) != len(header)]
    return rows, problems


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def entropy_cap(cut: int, n_sites: int) -> float:
    """Largest entanglement entropy (nats) a cut after ``cut`` of ``n_sites`` qubits allows."""
    return min(cut, n_sites - cut) * LN2


def check_grid(text: str, n_sites: int, n_excited: int) -> list[str]:
    """Entropy grid CSV: complete (k, l) table, zero at k = 0 and k = M, values in range."""
    rows, problems = _rows(text, ["k", "l", "mean", "stderr"])
    if problems or not rows:
        return problems or ["no rows"]
    expected = [(k, l) for k in range(n_excited + 1) for l in range(1, n_sites)]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    for (k, l), row in zip(expected, rows):
        try:
            if (int(row[0]), int(row[1])) != (k, l):
                problems.append(f"row ({row[0]}, {row[1]}) where ({k}, {l}) belongs")
                continue
            mean, stderr = _float(row[2]), _float(row[3])
        except ValueError as error:
            problems.append(f"({k}, {l}): {error}")
            continue
        if not -ABS_TOL <= mean <= entropy_cap(l, n_sites) + ABS_TOL:
            problems.append(f"({k}, {l}): mean {mean} outside [0, {entropy_cap(l, n_sites)}]")
        if stderr < 0.0:
            problems.append(f"({k}, {l}): negative stderr {stderr}")
        if k in (0, n_excited) and abs(mean) > ABS_TOL:
            problems.append(f"({k}, {l}): product state has entropy {mean}")
    return problems


def check_sweep(text: str, points: list[str], reference: dict) -> list[str]:
    """Scaling-sweep CSV: one row per point, maxima within SWEEP_Z errors of the reference."""
    rows, problems = _rows(text, ["n", "source", "depth", "s_max", "k_max", "l_max", "stderr"])
    if problems:
        return problems
    if len(rows) != len(points):
        return [f"{len(rows)} rows, expected {len(points)}"]
    for spec, row in zip(points, rows):
        n_text, source, depth = spec.split(":")
        n_sites = int(n_text)
        if row[:3] != [n_text, source, depth]:
            problems.append(f"row {row[:3]} where {spec} belongs")
            continue
        try:
            s_max, stderr = _float(row[3]), _float(row[6])
            k_max, l_max = int(row[4]), int(row[5])
        except ValueError as error:
            problems.append(f"{spec}: {error}")
            continue
        if not 0 <= k_max <= n_sites or not 1 <= l_max <= n_sites - 1:
            problems.append(f"{spec}: maximum at ({k_max}, {l_max}) is off the grid")
            continue
        if not 0.0 <= s_max <= entropy_cap(l_max, n_sites) + ABS_TOL or stderr < 0.0:
            problems.append(f"{spec}: s_max {s_max} (stderr {stderr}) out of range")
            continue
        ref = reference[spec]
        allowance = SWEEP_Z * math.hypot(stderr, ref["stderr"])
        if abs(s_max - ref["s_max"]) > allowance:
            problems.append(
                f"{spec}: s_max {s_max} differs from reference {ref['s_max']} by more than "
                f"{SWEEP_Z} combined stderr ({allowance})"
            )
    return problems


def expected_tvd(exact: list[float], n_samples: int) -> float:
    """Expected total-variation distance of an exact multinomial sample (normal approximation)."""
    return sum(math.sqrt(2.0 * p * (1.0 - p) / (math.pi * n_samples)) for p in exact) / 2.0


def check_distribution(text: str, stdout: str, n_sites: int, n_excited: int, n_samples: int) -> list[str]:
    """Distribution CSV: every outcome once, exact law sums to 1, tvd near its expected value."""
    rows, problems = _rows(text, ["outcome", "exact", "empirical", "stderr"])
    if problems:
        return problems
    n_outcomes = math.comb(n_sites + n_excited - 1, n_excited)
    if len(rows) != n_outcomes:
        return [f"{len(rows)} outcomes, expected {n_outcomes}"]
    exact, empirical, seen = [], [], set()
    for row in rows:
        try:
            counts = tuple(int(c) for c in row[0].split())
            p, q = _float(row[1]), _float(row[2])
        except ValueError as error:
            return [f"outcome {row[0]!r}: {error}"]
        if len(counts) != n_sites or sum(counts) != n_excited or min(counts) < 0:
            return [f"outcome {row[0]!r} is not {n_excited} clicks on {n_sites} detectors"]
        if counts in seen:
            return [f"outcome {row[0]!r} listed twice"]
        seen.add(counts)
        if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
            return [f"outcome {row[0]!r}: probability outside [0, 1]"]
        if abs(q * n_samples - round(q * n_samples)) > 1e-6:
            return [f"outcome {row[0]!r}: frequency {q} is not a count over {n_samples}"]
        exact.append(p)
        empirical.append(q)
    if abs(math.fsum(exact) - 1.0) > ABS_TOL:
        problems.append(f"exact probabilities sum to {math.fsum(exact)!r}")
    if abs(math.fsum(empirical) - 1.0) > 1e-6:
        problems.append(f"empirical frequencies sum to {math.fsum(empirical)!r}")
    tvd = 0.5 * math.fsum(abs(p - q) for p, q in zip(exact, empirical))
    match = _TVD_LINE.search(stdout)
    if match is None:
        problems.append("no tvd line on stdout")
    elif int(match.group(2)) != n_outcomes or abs(float(match.group(1)) - tvd) > 1e-6:
        problems.append(f"stdout reports {match.group(0)!r}, the table gives tvd={tvd!r}")
    limit = TVD_FACTOR * expected_tvd(exact, n_samples)
    if not tvd <= limit:
        problems.append(f"tvd {tvd} exceeds {TVD_FACTOR} x expected ({limit})")
    return problems


def check_dump(text: str, n_sites: int, n_excited: int, cut: int, n_samples: int) -> list[str]:
    """Trajectory JSONL: M clicks, M + 1 entropies ending at 0, non-negative waiting times."""
    lines = text.splitlines()
    if len(lines) != n_samples:
        return [f"{len(lines)} records, expected {n_samples}"]
    cap = entropy_cap(cut, n_sites) + ABS_TOL
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
            clicks = [int(c) for c in record["clicks"]]
            entropies = [_float(str(s)) for s in record["entropies"]]
            times = [_float(str(t)) for t in record["waiting_times"]]
        except (ValueError, KeyError, TypeError) as error:
            return [f"record {i}: {error!r}"]
        if len(clicks) != n_excited or not all(0 <= c < n_sites for c in clicks):
            return [f"record {i}: clicks {clicks} are not {n_excited} detector indices"]
        if len(entropies) != n_excited + 1 or not all(-ABS_TOL <= s <= cap for s in entropies):
            return [f"record {i}: entropies {entropies} malformed or outside [0, {cap}]"]
        if abs(entropies[-1]) > ABS_TOL:
            return [f"record {i}: final entropy {entropies[-1]} is not 0"]
        if len(times) != n_excited or min(times, default=0.0) < 0.0:
            return [f"record {i}: waiting times {times} malformed or negative"]
    return []
