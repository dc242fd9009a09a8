"""Dense complex linear algebra for few-qubit problems.

Everything here targets matrices of dimension at most 16 (four qubits), so
dense storage is used throughout. Eigenvalue and singular-value work is
delegated to LAPACK through numpy; what this module owns are the contracts
the rest of the package relies on: Hermiticity guards, ordering conventions,
and reconstruction accuracy (held to a 1e-8 residual budget by the tests).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, DomainError, NotHermitian

PAULI_LABELS = ("0", "x", "y", "z")
AXES = ("x", "y", "z")

PAULIS = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(as_matrix(m)).T


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


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending; for a (..., d, d)
    stack, the spectrum of each matrix along the last axis.

    Raises NotHermitian when the asymmetry max|m - m^dagger| exceeds
    TOL.equality.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"matrix is not square: {a.shape}")
    asym = np.abs(a - np.conjugate(a).swapaxes(-2, -1)).max()
    if asym > TOL.equality:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance {TOL.equality:.1e}")
    return np.linalg.eigvalsh(a)


def svd(m):
    """Singular value decomposition m = u @ diag(s) @ vh.

    Returns (u, s, vh) with s non-negative and descending; u has orthonormal
    columns and vh orthonormal rows.
    """
    return np.linalg.svd(as_matrix(m), full_matrices=False)
