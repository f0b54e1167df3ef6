import json

import numpy as np
import pytest

from lontraj.unitary import (
    BeamSplitterParams,
    BrickwallSpec,
    beamsplitter_unitary,
    check_unitary,
    compose_brickwall,
    haar_unitary,
    load_unitary,
    sample_haar_brickwall,
    unitary_from_json,
    unitary_to_json,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def balanced_splitter() -> np.ndarray:
    return beamsplitter_unitary(BeamSplitterParams(a=INV_SQRT2, b=INV_SQRT2, phi=np.pi))


def test_balanced_splitter_rows_are_symmetric_and_antisymmetric():
    u = balanced_splitter()
    np.testing.assert_allclose(u[0], [INV_SQRT2, INV_SQRT2], atol=1e-15)
    np.testing.assert_allclose(u[1], [INV_SQRT2, -INV_SQRT2], atol=1e-15)


def test_beamsplitter_identity_case():
    u = beamsplitter_unitary(BeamSplitterParams(a=1.0, b=0.0, phi=0.0))
    np.testing.assert_array_equal(u, np.eye(2))


def test_beamsplitter_generic_is_unitary():
    u = beamsplitter_unitary(BeamSplitterParams(a=0.6, b=0.8j, phi=np.pi / 3))
    check_unitary(u, tol=1e-12)


def test_beamsplitter_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        BeamSplitterParams(a=0.9, b=0.8, phi=0.0)


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
        check_unitary(haar_unitary(n, rng), tol=1e-12)


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


def test_brickwall_staggering_rule():
    spec = sample_haar_brickwall(4, 2, np.random.default_rng(0))
    positions = [(layer, top) for layer, top, _ in spec.gates]
    assert positions == [(0, 0), (0, 2), (1, 1)]


def test_brickwall_two_modes_single_gate():
    spec = sample_haar_brickwall(2, 1, np.random.default_rng(0))
    assert len(spec.gates) == 1


def test_brickwall_depth_zero_is_identity_network():
    spec = sample_haar_brickwall(8, 0, np.random.default_rng(0))
    assert spec.gates == ()
    np.testing.assert_array_equal(compose_brickwall(spec), np.eye(8))


def test_brickwall_rejects_single_mode_with_depth():
    with pytest.raises(ValueError, match="at least 2 modes"):
        sample_haar_brickwall(1, 1, np.random.default_rng(0))


def test_brickwall_spec_rejects_bad_parity():
    params = BeamSplitterParams(a=1.0, b=0.0, phi=0.0)
    with pytest.raises(ValueError, match="staggering"):
        BrickwallSpec(n_modes=4, depth=1, gates=((0, 1, params),))


def test_compose_depth1_band_zeros_are_exact():
    u = compose_brickwall(sample_haar_brickwall(6, 1, np.random.default_rng(3)))
    for i in range(6):
        for j in range(6):
            if abs(i - j) >= 2:
                assert u[i, j] == 0.0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_compose_band_zeros_scale_with_depth(depth):
    u = compose_brickwall(sample_haar_brickwall(8, depth, np.random.default_rng(depth)))
    check_unitary(u)
    rows, cols = np.indices(u.shape)
    assert np.all(u[np.abs(rows - cols) >= 2 * depth] == 0.0)


def test_compose_matches_explicit_layer_product():
    spec = sample_haar_brickwall(4, 2, np.random.default_rng(9))
    layers = [np.eye(4, dtype=complex) for _ in range(2)]
    for layer, top, params in spec.gates:
        layers[layer][top : top + 2, top : top + 2] = beamsplitter_unitary(params)
    np.testing.assert_allclose(compose_brickwall(spec), layers[1] @ layers[0], atol=1e-14)


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
