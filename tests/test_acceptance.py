"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Statistical criteria run at fixed seeds with the
tolerances stated below; runtime budgets are asserted where given.
"""

import time
from collections import Counter
from contextlib import contextmanager
from math import factorial, log, prod

import numpy as np
import pytest

from lontraj.cli import execute, parse_config
from lontraj.experiments import (
    UnitarySource,
    averaged_entropy_grid,
    derive_rng,
    distribution_comparison,
    entropy_bound,
    expected_tvd,
    max_averaged_entropy,
    mixture_entropy_report,
    scaling_sweep,
)
from lontraj.oracle import (
    enumerate_outcomes,
    outcome_probability,
    permanent_ryser,
    sequence_probability,
)
from lontraj.state import _cut_blocks, entanglement_entropy, initial_state
from lontraj.trajectory import evolve_clicks
from lontraj.unitary import beamsplitter_unitary, haar_unitary
from permanent_reference import permanent_naive
from sector_reference import click_multiset_levels, conditional_click_probability, occupations

SEED = 20260811
INV_SQRT2 = 1.0 / np.sqrt(2.0)
LN2 = float(np.log(2.0))

_criterion7_elapsed: dict[str, float] = {}


@contextmanager
def criterion(number: str, name: str, budget: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
        print(f"ACCEPTANCE {number} PASS {name} ({elapsed:.2f}s < {budget:g}s)")
    else:
        print(f"ACCEPTANCE {number} PASS {name} ({elapsed:.2f}s)")


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)


def test_criterion_1_hong_ou_mandel():
    u = balanced_splitter()
    source = UnitarySource.fixed(u)
    distribution_comparison(2, 2, source, 10, 1)  # warm caches outside the timed region
    with criterion("1", "Hong-Ou-Mandel bunching", budget=1.0):
        assert abs(outcome_probability(u, (2, 0), 2) - 0.5) < 1e-12
        assert abs(outcome_probability(u, (0, 2), 2) - 0.5) < 1e-12
        assert outcome_probability(u, (1, 1), 2) <= 1e-12
        report = distribution_comparison(2, 2, source, 10_000, SEED, threads=1)
        frequency = dict(zip(map(tuple, report.outcomes.tolist()), report.empirical))
        assert abs(frequency[(2, 0)] - 0.5) <= 0.015
        assert abs(frequency[(0, 2)] - 0.5) <= 0.015
        assert frequency[(1, 1)] == 0.0


def test_criterion_2_boson_sampling_equivalence():
    with criterion("2", "click statistics match permanent probabilities", budget=30.0):
        u = haar_unitary(7, derive_rng(SEED, 0, 2))
        exact = np.array([outcome_probability(u, c, 4) for c in enumerate_outcomes(7, 4)])
        assert len(exact) == 210
        assert abs(exact.sum() - 1.0) < 1e-9
        threshold = 2.0 * expected_tvd(exact, 10_000)  # fixed before sampling
        report = distribution_comparison(7, 4, UnitarySource.fixed(u), 10_000, SEED, threads=2)
        assert report.tvd < threshold, f"tvd {report.tvd:.4f} >= threshold {threshold:.4f}"


def test_criterion_3_permanent_oracle():
    with criterion("3", "Ryser agrees with the permutation sum", budget=5.0):
        rng = np.random.default_rng(SEED + 9)
        for n in range(2, 9):
            for _ in range(100):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                naive = permanent_naive(a)
                assert abs(permanent_ryser(a) - naive) / abs(naive) < 1e-10


def test_criterion_4_single_click_entropy_law():
    with criterion("4", "one-click entropy equals the row-mass binary entropy", budget=5.0):
        rng = np.random.default_rng(SEED + 10)
        n = 8
        for _ in range(50):
            u = haar_unitary(n, rng)
            detector, state = next(evolve_clicks(initial_state(n, n), u, rng))
            for cut in range(1, n):
                p = float(np.sum(np.abs(u[detector, :cut]) ** 2))
                expected = -p * np.log(p) - (1 - p) * np.log(1 - p)
                assert abs(entanglement_entropy(state, cut) - expected) < 1e-10


def test_criterion_5_single_click_entropy_bound():
    with criterion("5", "averaged one-click entropy under the concavity cap", budget=60.0):
        n = 10
        grid = averaged_entropy_grid(n, n, UnitarySource.haar(), 2000, SEED + 1, threads=2)
        for cut in range(1, n):
            cap = entropy_bound(cut, n) + 3 * grid.stderr[1, cut - 1]
            assert grid.values[1, cut - 1] <= cap, f"cut {cut}: {grid.values[1, cut - 1]} > {cap}"
        half = grid.values[1, n // 2 - 1]
        assert half <= LN2 + 3 * grid.stderr[1, n // 2 - 1]


def test_criterion_6_unraveling_invariance():
    with criterion("6", "averaged occupations independent of the monitoring basis", budget=30.0):
        n, k, runs = 6, 3, 10_000
        acc = np.zeros(n)
        acc_sq = np.zeros(n)
        for i in range(runs):
            u = haar_unitary(n, derive_rng(SEED + 6, i, 0))
            rng = derive_rng(SEED + 6, i, 1)
            state = initial_state(n, n)
            for clicks, (_, state) in enumerate(evolve_clicks(state, u, rng), start=1):
                if clicks == k:
                    break
            values = occupations(n, state.n_excited, state.amplitudes)
            acc += values
            acc_sq += values**2
        mean = acc / runs
        stderr = np.sqrt(np.maximum(acc_sq / runs - mean**2, 0.0) / runs)
        analytic = (n - k) / n  # the identity-network (master equation) value
        assert np.all(np.abs(mean - analytic) <= 5 * stderr), f"{mean} vs {analytic}"


def test_criterion_7a_area_law_at_fixed_depth():
    with criterion("7a", "fixed-depth maxima stable in system size", budget=600.0):
        start = time.perf_counter()
        rows = scaling_sweep(
            [(n, UnitarySource.brickwall(2)) for n in (8, 12, 16)],
            2000,
            SEED + 2,
            threads=2,
        )
        _criterion7_elapsed["a"] = time.perf_counter() - start
        for i, row_i in enumerate(rows):
            for row_j in rows[i + 1 :]:
                gap = abs(row_i.s_max - row_j.s_max)
                allowance = 0.10 * max(row_i.s_max, row_j.s_max) + 3 * np.hypot(
                    row_i.stderr, row_j.stderr
                )
                assert gap <= allowance, f"N={row_i.n_sites} vs N={row_j.n_sites}: {gap} > {allowance}"


def test_criterion_7b_volume_law_at_proportional_depth():
    with criterion("7b", "half-size-depth maxima strictly increasing", budget=600.0):
        start = time.perf_counter()
        rows = scaling_sweep(
            [(n, UnitarySource.brickwall(n // 2)) for n in (6, 8, 10, 12)],
            2000,
            SEED + 3,
            threads=2,
        )
        _criterion7_elapsed["b"] = time.perf_counter() - start
        maxima = [row.s_max for row in rows]
        assert all(a < b for a, b in zip(maxima, maxima[1:])), maxima


def test_criterion_7c_depth_convergence_to_haar():
    with criterion("7c", "deepening networks approach the Haar maximum", budget=600.0):
        start = time.perf_counter()
        rows = scaling_sweep(
            [(10, UnitarySource.brickwall(depth)) for depth in (1, 2, 5, 10, 20)],
            2000,
            SEED + 4,
            threads=2,
        )
        haar_grid = averaged_entropy_grid(10, 10, UnitarySource.haar(), 2000, SEED + 5, threads=2)
        _criterion7_elapsed["c"] = time.perf_counter() - start
        maxima = [row.s_max for row in rows]
        assert all(a <= b for a, b in zip(maxima, maxima[1:])), maxima
        total = sum(_criterion7_elapsed.values())
        assert total < 600.0, f"criterion 7 total runtime {total:.0f}s exceeds 600s"
        s_haar, k_max, l_max = max_averaged_entropy(haar_grid)
        combined = np.hypot(rows[-1].stderr, haar_grid.stderr[k_max, l_max - 1])
        gap = abs(rows[-1].s_max - s_haar)
        assert gap <= 3 * combined, (
            f"depth-20 maximum {rows[-1].s_max:.4f} vs Haar {s_haar:.4f}: "
            f"gap {gap:.4f} > 3 s.e. = {3 * combined:.4f}"
        )


def test_criterion_8_mixture_entropy_sandwich():
    with criterion("8", "mean entropy <= averaged-state entropy <= mean + Shannon", budget=60.0):
        n, k, cut, samples = 6, 3, 3, 10_000
        sources = {
            "haar": UnitarySource.fixed(haar_unitary(n, derive_rng(SEED + 7, 0, 2))),
            "identity": UnitarySource.identity(n),
        }
        for label, source in sources.items():
            report = mixture_entropy_report(n, n, source, k, cut, samples, SEED + 7, threads=2)
            s_bar = report.mean_trajectory_entropy
            assert s_bar <= report.averaged_state_entropy + report.tolerance, label
            assert (
                report.averaged_state_entropy
                <= s_bar + report.shannon_mixture_entropy + report.tolerance
            ), label


def _von_neumann(blocks) -> float:
    eigenvalues = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    eigenvalues = eigenvalues[eigenvalues > 0.0]
    return float(-(eigenvalues * np.log(eigenvalues)).sum())


def exact_sandwich(n_sites: int, n_excited: int, u: np.ndarray, cut: int):
    """(k, S-bar, S(rho-bar), H) after every click count k, from the exact multiset law.

    Every ordering of a multiset S of k clicks has probability P(S) / multinomial(S)
    and leaves the same state, so the ordered-sequence entropy is
    H = -sum P(S) log(P(S) / multinomial(S)).
    """
    for k, level in enumerate(click_multiset_levels(n_sites, n_excited, u)):
        blocks = _cut_blocks(n_sites, n_excited - k, cut)
        rho_bar = [np.zeros((len(idx), len(idx)), dtype=complex) for idx in blocks]
        s_bar = shannon = total = 0.0
        for multiset, (p, amplitudes) in level.items():
            rho = [x @ x.conj().T for x in (amplitudes[idx] for idx in blocks)]
            s_bar += p * _von_neumann(rho)
            for mixed, block in zip(rho_bar, rho):
                mixed += p * block
            orderings = factorial(k) // prod(map(factorial, Counter(multiset).values()))
            shannon -= p * log(p / orderings)
            total += p
        assert abs(total - 1.0) < 1e-12
        yield k, s_bar, _von_neumann(rho_bar), shannon


SANDWICH_TOL = 1e-12  # rounding of the eigenvalues and of the sums over multisets


@pytest.mark.parametrize(
    "n_sites, n_excited, cut, u",
    [
        # Criterion 8's two unitaries.
        (6, 6, 3, haar_unitary(6, derive_rng(SEED + 7, 0, 2))),
        (6, 6, 3, np.eye(6, dtype=complex)),
        # The golden mixture-entropy runs' unitaries, each drawn from stream (0, 2).
        (6, 6, 3, UnitarySource.haar().draw(6, derive_rng(11, 0, 2))),
        (4, 3, 2, np.eye(4, dtype=complex)),
        (6, 5, 3, UnitarySource.brickwall(4).draw(6, derive_rng(2, 0, 2))),
    ],
    ids=["criterion-8-haar", "criterion-8-identity", "golden-haar", "golden-identity",
         "golden-brickwall-4"],
)
def test_the_mixture_sandwich_holds_exactly_at_every_click_count(n_sites, n_excited, cut, u):
    # S-bar <= S(rho-bar) <= S-bar + H with no sampling error at all.
    for k, s_bar, s_mixed, shannon in exact_sandwich(n_sites, n_excited, u, cut):
        assert s_bar <= s_mixed + SANDWICH_TOL, k
        assert s_mixed <= s_bar + shannon + SANDWICH_TOL, k


def test_criterion_9_conditional_chain_rule():
    with criterion("9", "conditional probabilities chain to the sequence law", budget=1.0):
        n, m = 5, 3
        rng = np.random.default_rng(SEED + 8)
        u = haar_unitary(n, rng)
        for _ in range(20):
            clicks = tuple(int(c) for c in rng.integers(0, n, size=m))
            product = 1.0
            for k in range(m):
                product *= conditional_click_probability(u, clicks[:k], clicks[k], m, n)
            assert abs(product - sequence_probability(u, clicks, m)) < 1e-9


def test_criterion_10_thread_count_determinism(tmp_path):
    with criterion("10", "outputs byte-identical across thread counts", budget=None):
        runs = {
            "distribution": ["--mode", "distribution", "--n", "4", "--m", "3",
                             "--unitary", "haar", "--samples", "1000"],
            "grid": ["--mode", "entropy-grid", "--n", "4", "--m", "2",
                     "--unitary", "brickwall:1", "--samples", "600"],
        }
        for label, base in runs.items():
            blobs = []
            for threads in (1, 2, 4):
                directory = tmp_path / f"{label}-t{threads}"
                directory.mkdir()
                out = directory / "out.dat"
                config = parse_config(
                    base + ["--seed", str(SEED), "--output", str(out), "--threads", str(threads)]
                )
                assert execute(config) == 0
                blobs.append(
                    out.read_bytes() + (directory / "out.dat.manifest.json").read_bytes()
                )
            assert blobs[0] == blobs[1] == blobs[2], label


def test_criterion_sequence_probabilities_for_hom():
    # Supplements criterion 1: the ordered-sequence oracle behind the outcome law.
    u = balanced_splitter()
    assert abs(sequence_probability(u, (0, 0), 2) - 0.5) < 1e-12
    assert sequence_probability(u, (0, 1), 2) == 0.0
    total = sum(sequence_probability(u, s, 2) for s in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert abs(total - 1.0) < 1e-12
    # Unordered probability = ordered probability times the number of orderings.
    u3 = haar_unitary(3, np.random.default_rng(SEED))
    ordered = sequence_probability(u3, (0, 1), 2)
    orderings = factorial(2)
    assert abs(outcome_probability(u3, (1, 1, 0), 2) - orderings * ordered) < 1e-12
