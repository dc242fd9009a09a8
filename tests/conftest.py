import math

import numpy as np

import entdetect as ed


def purify(rho: ed.DensityMatrix) -> ed.PureState:
    """Dominant eigenvector of a (near-)pure density matrix."""
    _, vecs = np.linalg.eigh(rho.matrix)
    return ed.PureState(rho.n_qubits, vecs[:, -1])


def protocol_target_theta(result: ed.DetectionResult, psi: ed.PureState, rho: ed.DensityMatrix) -> float:
    """Schmidt angle the protocol's sum identity refers to.

    When the run applied a filter, the identity holds for the filtered state;
    reconstruct it by applying the same filter to the input.
    """
    info = result.details.get("filter")
    if info:
        filtered, _ = ed.apply_filter(rho, ed.FilterOp(info["party"], info["eps"]))
        return ed.schmidt_oracle(purify(filtered))[0]
    return ed.schmidt_oracle(psi)[0]


NON_FINITE = ("nan-diagonal", "nan-off-diagonal", "inf-entry")


def non_finite_matrix(kind: str) -> np.ndarray:
    """The maximally mixed two-qubit state with one diagonal entry, or one
    Hermitian pair of entries, set to NaN or inf (kind is in NON_FINITE)."""
    m = np.eye(4, dtype=complex) / 4
    if kind == "nan-diagonal":
        m[1, 1] = math.nan
    elif kind == "nan-off-diagonal":
        m[0, 2] = m[2, 0] = math.nan
    else:
        m[1, 3] = m[3, 1] = math.inf
    return m


BAD_ERROR_MULTIPLIERS = (-1.0, math.nan, math.inf)


class Unmeasured:
    """A source that fails the test whenever it is asked to measure."""

    shots = None

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits

    def measure_index(self, index):
        raise AssertionError(f"measured {index} before the settings were checked")
