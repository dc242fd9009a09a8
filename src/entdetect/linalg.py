"""Dense complex linear algebra for few-qubit problems.

Everything here targets matrices of dimension at most 16 (four qubits), so
dense storage is used throughout. This module owns the Pauli labels and
operators, the tensor-product ordering (the first factor owns the block
index) and tolerant matrix equality. Eigenvalue and singular-value work has
no wrapper: its callers (states.check_density, oracles.ppt_test,
schmidt.schmidt_oracle) call LAPACK through numpy directly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .config import TOL
from .errors import DomainError

PAULI_LABELS = ("0", "x", "y", "z")
AXES = ("x", "y", "z")

PAULIS = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(m).T


def mat_equal(a, b, atol: float = TOL.equality) -> bool:
    """Entrywise equality within an absolute tolerance (shape-aware)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= atol) if a.size else True


def tensor_product_all(factors: Iterable) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def pauli_operator(index) -> np.ndarray:
    """Tensor product of single-qubit Pauli operators, one label per party."""
    for label in index:
        if label not in PAULIS:
            raise DomainError(f"unknown Pauli label {label!r}")
    return tensor_product_all(PAULIS[label] for label in index)
