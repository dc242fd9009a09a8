"""Ground-truth oracles: PPT separability test and the full-tensor criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .correlations import criterion_met, full_tensor
from .errors import UnsupportedDimension
from .states import DensityMatrix


@dataclass(frozen=True)
class EntanglementVerdict:
    entangled: bool
    min_pt_eigenvalue: float


def partial_transpose_second(matrix: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit of a two-qubit matrix, or of
    each matrix of a (..., 4, 4) stack."""
    lead = matrix.shape[:-2]
    return matrix.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(lead + (4, 4))


def ppt_test(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peres-Horodecki test of each two-qubit matrix of a (..., 4, 4) stack:
    (entangled, minimum eigenvalue of the partial transpose).

    Eigenvalues within TOL.pt_negativity of zero count as non-negative, so
    boundary states are classified separable. The matrices are taken as
    validated density matrices (DensityMatrix, check_density).
    """
    min_eig = np.linalg.eigvalsh(partial_transpose_second(matrices))[..., 0]
    return min_eig < -TOL.pt_negativity, min_eig


def ppt_verdict(rho: DensityMatrix) -> EntanglementVerdict:
    """Peres-Horodecki test (ppt_test); necessary and sufficient at two qubits."""
    if rho.n_qubits != 2:
        raise UnsupportedDimension("PPT verdict implemented for 2 qubits only")
    entangled, min_eig = ppt_test(rho.matrix)
    return EntanglementVerdict(bool(entangled), float(min_eig))


def brute_force_criterion(rho: DensityMatrix) -> tuple[float, bool]:
    """Sum of squares over the complete full-correlation tensor."""
    total = full_tensor(rho).sum_squares()
    return total, criterion_met(total, 0.0, 0.0, rho.n_qubits)
