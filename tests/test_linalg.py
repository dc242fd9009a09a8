import numpy as np
import pytest

from entdetect import (
    NotHermitian,
    PAULIS,
    hermitian_eigenvalues,
    mat_equal,
    pauli_operator,
    svd,
    tensor_product_all,
)
from entdetect.states import haar_unitary


def test_tensor_product_identity():
    assert mat_equal(tensor_product_all([np.eye(2), np.eye(2)]), np.eye(4))


def test_tensor_product_zz_diagonal():
    zz = tensor_product_all([PAULIS["z"], PAULIS["z"]])
    assert mat_equal(zz, np.diag([1, -1, -1, 1]))


def test_tensor_product_xy_entry():
    # (sigma_x x sigma_y)[0, 3] = x[0,1] * y[0,1] = 1 * (-i)
    xy = tensor_product_all([PAULIS["x"], PAULIS["y"]])
    assert abs(xy[0, 3] - (-1j)) < 1e-12


def test_tensor_product_block_ordering():
    # first factor owns the block index
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    out = tensor_product_all([a, np.eye(2)])
    assert mat_equal(out[:2, :2], np.eye(2))
    assert mat_equal(out[:2, 2:], 2 * np.eye(2))


def test_tensor_product_mixed_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = tensor_product_all([a, b]) @ tensor_product_all([c, d])
        rhs = tensor_product_all([a @ c, b @ d])
        assert mat_equal(lhs, rhs, 1e-9)


def test_tensor_product_associative():
    rng = np.random.default_rng(12)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    left = tensor_product_all([tensor_product_all([a, b]), c])
    assert mat_equal(left, tensor_product_all([a, tensor_product_all([b, c])]), 1e-9)
    assert mat_equal(tensor_product_all([a, b, c]), np.kron(a, np.kron(b, c)), 1e-9)


def test_hermitian_eigenvalues_diag():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, -1.0])), [-1, 1])


def test_hermitian_eigenvalues_pauli_x():
    assert np.allclose(hermitian_eigenvalues(PAULIS["x"]), [-1, 1])


def test_hermitian_eigenvalues_partial_transpose_bell():
    # partial transpose of |phi+><phi+| has spectrum {-1/2, 1/2, 1/2, 1/2}
    phi = np.zeros((4, 4))
    phi[0, 0] = phi[3, 3] = phi[0, 3] = phi[3, 0] = 0.5
    pt = phi.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.allclose(hermitian_eigenvalues(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_hermitian_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-8


def test_hermitian_reconstruction_residual():
    rng = np.random.default_rng(6)
    for dim in (4, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        vals, vecs = np.linalg.eigh(h)
        assert np.allclose(np.sort(vals), hermitian_eigenvalues(h), atol=1e-10)
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h)) < 1e-8


def test_not_hermitian_raises():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_svd_identity():
    _, s, _ = svd(np.eye(2))
    assert np.allclose(s, [1, 1])


def test_svd_bell_amplitudes():
    m = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)
    _, s, _ = svd(m)
    assert np.allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_svd_diagonal_amplitudes():
    theta = np.pi / 8
    m = np.diag([np.cos(theta), np.sin(theta)]).astype(complex)
    _, s, _ = svd(m)
    assert np.allclose(s, [np.cos(theta), np.sin(theta)], atol=1e-12)


def test_svd_reconstruction_and_ordering():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, s, vh = svd(m)
        assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)
        assert np.max(np.abs(u @ np.diag(s) @ vh - m)) < 1e-8


def test_singular_values_unitary_invariant():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, s0, _ = svd(m)
    for seed in range(10):
        u = haar_unitary(4, np.random.default_rng(seed))
        v = haar_unitary(4, np.random.default_rng(seed + 100))
        _, s, _ = svd(u @ m @ v)
        assert np.max(np.abs(s - s0)) < 1e-8


def test_pauli_operator_three_qubits():
    op = pauli_operator(("z", "0", "x"))
    expect = tensor_product_all([PAULIS["z"], np.eye(2), PAULIS["x"]])
    assert mat_equal(op, expect)


def test_mat_equal_tolerance():
    assert mat_equal(np.eye(2), np.eye(2) + 1e-10)
    assert not mat_equal(np.eye(2), np.eye(2) + 1e-6)
    assert not mat_equal(np.eye(2), np.eye(3))
