import numpy as np

from entdetect import PAULIS, mat_equal, pauli_operator, tensor_product_all


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


def test_pauli_operator_three_qubits():
    op = pauli_operator(("z", "0", "x"))
    expect = tensor_product_all([PAULIS["z"], np.eye(2), PAULIS["x"]])
    assert mat_equal(op, expect)


def test_mat_equal_tolerance():
    assert mat_equal(np.eye(2), np.eye(2) + 1e-10)
    assert not mat_equal(np.eye(2), np.eye(2) + 1e-6)
    assert not mat_equal(np.eye(2), np.eye(3))
