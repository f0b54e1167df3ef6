import json
import re
import tracemalloc

import numpy as np
import pytest

from brickwall_reference import brickwall_reference, haar_gate_reference, haar_unitary_reference
from lontraj import unitary
from lontraj.unitary import (
    _brickwall_stack,
    _haar_stack,
    beamsplitter_unitary,
    check_unitary,
    haar_brickwall,
    haar_unitary,
    load_unitary,
    unitary_from_json,
    unitary_to_json,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
GROUP_SIZES = (1, 2, 6, 7)  # lockstep groups drawn in one stacked call


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(INV_SQRT2, INV_SQRT2, np.pi)


def test_balanced_splitter_rows_are_symmetric_and_antisymmetric():
    u = balanced_splitter()
    np.testing.assert_allclose(u[0], [INV_SQRT2, INV_SQRT2], atol=1e-15)
    np.testing.assert_allclose(u[1], [INV_SQRT2, -INV_SQRT2], atol=1e-15)


def test_beamsplitter_identity_case():
    u = beamsplitter_unitary(1.0, 0.0, 0.0)
    np.testing.assert_array_equal(u, np.eye(2))


def test_beamsplitter_generic_is_unitary():
    u = beamsplitter_unitary(0.6, 0.8j, np.pi / 3)
    check_unitary(u)


def test_beamsplitter_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        beamsplitter_unitary(0.9, 0.8, 0.0)


def test_haar_1x1_is_a_phase():
    u = haar_unitary(1, np.random.default_rng(0))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_haar_seed_determinism():
    a = haar_unitary(4, np.random.default_rng(1234))
    b = haar_unitary(4, np.random.default_rng(1234))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_haar_outputs_are_unitary(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        check_unitary(haar_unitary(n, rng))


def test_haar_first_moment_single_entry():
    # E|U_00|^2 = 1/n with Var|U_00|^2 = (n-1) / (n^2 (n+1)).
    n, samples = 6, 100_000
    rng = np.random.default_rng(77)
    total = 0.0
    for _ in range(samples):
        total += abs(haar_unitary(n, rng)[0, 0]) ** 2
    stderr = np.sqrt((n - 1) / (n**2 * (n + 1)) / samples)
    assert abs(total / samples - 1 / n) < 3 * stderr


def test_haar_first_moment_all_entries():
    n, samples = 4, 10_000
    rng = np.random.default_rng(11)
    acc = np.zeros((n, n))
    for _ in range(samples):
        acc += np.abs(haar_unitary(n, rng)) ** 2
    stderr = np.sqrt((n - 1) / (n**2 * (n + 1)) / samples)
    assert np.all(np.abs(acc / samples - 1 / n) < 5 * stderr)


def _group(seed: int, size: int) -> list:
    return [np.random.default_rng([seed, b]) for b in range(size)]


def test_haar_matches_the_unstacked_reference():
    for n in range(1, 17):
        for seed in range(5):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            u = haar_unitary(n, rng)
            assert u.tobytes() == haar_unitary_reference(n, reference_rng).tobytes()
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        # A group's stacked draw gives each row the bytes its generator alone
        # gives, and reads each stream as far as the reference does.
        for size in GROUP_SIZES:
            rngs, reference_rngs = _group(n, size), _group(n, size)
            stack = _haar_stack(n, rngs)
            assert stack.shape == (size, n, n)
            for row, rng, reference_rng in zip(stack, rngs, reference_rngs):
                assert row.tobytes() == haar_unitary_reference(n, reference_rng).tobytes()
                assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_brickwall_staggering_rule():
    # Layer 0 pairs modes (0,1), (2,3) and leaves mode 4 alone.
    u = haar_brickwall(5, 1, np.random.default_rng(0))
    block = np.array([0, 0, 1, 1, 2])
    rows, cols = np.indices(u.shape)
    assert np.all(u[block[rows] != block[cols]] == 0.0)
    assert u[4, 4] == 1.0
    # Layer 1 pairs (1,2) only, so the edge rows keep layer 0's zeros.
    u = haar_brickwall(4, 2, np.random.default_rng(0))
    assert np.all(u[0, 2:] == 0.0) and np.all(u[3, :2] == 0.0)
    assert np.all(u[1:3] != 0.0)


def test_brickwall_gate_is_the_haar_draw():
    # A gate enters its layer as the per-gate closed form computes it, to the
    # byte, and lies within 1e-14 of haar_unitary(2, rng)'s QR of the same normals.
    for seed in range(200):
        rng, gate_rng, qr_rng = (np.random.default_rng(seed) for _ in range(3))
        gate = haar_brickwall(2, 1, rng)
        assert gate.tobytes() == haar_gate_reference(gate_rng).tobytes()
        assert rng.bit_generator.state == gate_rng.bit_generator.state
        assert np.abs(gate - haar_unitary(2, qr_rng)).max() <= 1e-14
        assert rng.bit_generator.state == qr_rng.bit_generator.state


def test_brickwall_gates_are_haar_distributed():
    # Under Haar on U(2), |U_00|^2 is uniform on [0, 1] and the phase of
    # det U is uniform; each moment lies within 4 standard errors.
    samples = 20_000
    gates = _brickwall_stack(2, 1, _group(29, samples))
    check_unitary(gates[0])
    weight = np.abs(gates[:, 0, 0]) ** 2
    phase = np.angle(np.linalg.det(gates))
    # (statistic, its mean and its standard deviation under the law)
    moments = [
        (weight, 1 / 2, np.sqrt(1 / 12)),
        (weight**2, 1 / 3, np.sqrt(1 / 5 - 1 / 9)),
        (np.cos(phase), 0.0, np.sqrt(1 / 2)),
        (np.sin(phase), 0.0, np.sqrt(1 / 2)),
        (np.cos(2 * phase), 0.0, np.sqrt(1 / 2)),
    ]
    for values, mean, sd in moments:
        assert abs(values.mean() - mean) < 4 * sd / np.sqrt(samples)
    assert np.abs(np.einsum("bij,bkj->bik", gates, gates.conj()) - np.eye(2)).max() < 1e-15


def test_brickwall_depth_zero_is_identity_network():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(haar_brickwall(8, 0, rng), np.eye(8))
    assert rng.bit_generator.state == state


def test_brickwall_rejects_single_mode_with_depth():
    with pytest.raises(ValueError, match="at least 2 modes"):
        haar_brickwall(1, 1, np.random.default_rng(0))


def test_brickwall_rejects_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        haar_brickwall(4, -1, np.random.default_rng(0))


def test_compose_depth1_band_zeros_are_exact():
    u = haar_brickwall(6, 1, np.random.default_rng(3))
    for i in range(6):
        for j in range(6):
            if abs(i - j) >= 2:
                assert u[i, j] == 0.0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_compose_band_zeros_scale_with_depth(depth):
    u = haar_brickwall(8, depth, np.random.default_rng(depth))
    check_unitary(u)
    rows, cols = np.indices(u.shape)
    assert np.all(u[np.abs(rows - cols) >= 2 * depth] == 0.0)


def test_compose_matches_explicit_layer_product():
    # Byte-identical to one gate draw and one dense layer at a time, signed
    # zeros included, and it leaves the generator where the reference does.
    for n_modes in range(1, 17):
        for depth in (0, 1, 2, 3, 5, 20, 40):
            if n_modes == 1 and depth > 0:
                continue
            for seed in (0, 1, 7):
                rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                u = haar_brickwall(n_modes, depth, rng)
                assert u.tobytes() == brickwall_reference(n_modes, depth, reference_rng).tobytes()
                assert rng.bit_generator.state == reference_rng.bit_generator.state
            for size in GROUP_SIZES:
                rngs, reference_rngs = _group(100 * n_modes + depth, size), _group(100 * n_modes + depth, size)
                stack = _brickwall_stack(n_modes, depth, rngs)
                assert stack.shape == (size, n_modes, n_modes)
                for row, rng, reference_rng in zip(stack, rngs, reference_rngs):
                    reference = brickwall_reference(n_modes, depth, reference_rng)
                    assert row.tobytes() == reference.tobytes()
                    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 3, 40, 999])
def test_brickwall_bytes_do_not_depend_on_the_block_split(monkeypatch, block):
    # Blocks of one layer, of a few layers and of several, with a group's
    # layer widths 5 and 4 (N = 10) or 3 and 3 (N = 7).
    cases = [(n_modes, depth, size) for n_modes in (7, 10) for depth in (1, 2, 9, 30)
             for size in GROUP_SIZES]
    whole = {case: _brickwall_stack(case[0], case[1], _group(case[1], case[2])) for case in cases}
    monkeypatch.setattr(unitary, "_BLOCK_GATES", block)
    for (n_modes, depth, size), stack in whole.items():
        rngs, reference_rngs = _group(depth, size), _group(depth, size)
        assert _brickwall_stack(n_modes, depth, rngs).tobytes() == stack.tobytes()
        for rng, reference_rng in zip(rngs, reference_rngs):
            brickwall_reference(n_modes, depth, reference_rng)
            assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_a_deep_brickwall_draw_holds_one_block_of_gates_at_a_time():
    # 8 streams at N = 10 and the deepest wall: 147,456 gates, whose normals
    # alone take 9.4 MB, drawn in blocks of at most _BLOCK_GATES at under
    # 128 bytes a gate.
    rngs = _group(4096, 8)
    tracemalloc.start()
    try:
        stack = _brickwall_stack(10, unitary.MAX_DEPTH, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_unitary(stack[7])
    assert peak < unitary._BLOCK_GATES * 128


def test_unitary_json_roundtrip_is_exact(tmp_path):
    u = haar_unitary(5, np.random.default_rng(21))
    path = tmp_path / "u.json"
    path.write_text(unitary_to_json(u))
    np.testing.assert_array_equal(load_unitary(path), u)
    obj = json.loads(unitary_to_json(u))
    assert obj["dim"] == 5
    assert len(obj["entries"]) == 25


def test_unitary_json_rejects_nonunitary():
    text = json.dumps({"dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]})
    with pytest.raises(ValueError, match="not unitary"):
        unitary_from_json(text)


@pytest.mark.parametrize("dim", ["2.7", "2.0", "true", '"2"', "null", "[2]"])
def test_unitary_json_takes_only_an_integer_dim(dim):
    # int() would truncate 2.7 and coerce true and "2"; the identity's four
    # entries fit every one of those read as 2 or 1.
    entries = json.dumps([[1, 0], [0, 0], [0, 0], [1, 0]])
    text = f'{{"dim": {dim}, "entries": {entries}}}'
    with pytest.raises(ValueError, match=f'^"dim" must be a JSON integer, got {re.escape(dim)}$'):
        unitary_from_json(text)
    assert unitary_from_json(text.replace(dim, "2", 1)).shape == (2, 2)


def test_unitary_json_names_malformed_entries():
    with pytest.raises(ValueError, match=r'^expected "entries" of \[re, im\] pairs$'):
        unitary_from_json(json.dumps({"dim": 1, "entries": [[1, 0, 0]]}))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_unitary_rejects_nan_and_inf(bad):
    u = np.eye(3, dtype=complex)
    u[1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
        check_unitary(u)
