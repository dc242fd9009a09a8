"""Measurement sources: answer correlation queries exactly or with shot noise.

A source wraps a hidden density matrix and holds its Pauli tensor (see
correlations.pauli_tensor), computed at construction and again after every
filter. A Pauli-index query is a lookup in that tensor; a query along
arbitrary local directions contracts each party's axis with its unit vector
(or takes the identity entry for None). In shot mode the exact value then
goes through the one binomial model, correlations.sample. Detection
strategies only call the query methods.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .correlations import CorrelationRecord, Index, check_shots, lookup, pauli_tensor, sample
from .errors import DimensionMismatch, DomainError
from .linalg import AXES
from .states import DensityMatrix, FilterOp, apply_filter, as_density, rng_from_seed


def _unit(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise DimensionMismatch("measurement direction must have 3 components")
    norm = float(np.linalg.norm(d))
    if not 1e-12 <= norm < math.inf:  # NaN fails too
        raise DomainError(f"measurement direction norm {norm} is not in [1e-12, inf)")
    return d / norm


class MeasurementSource:
    """Exact or shot-noise access to the correlations of a hidden state
    (a PureState is held as its density matrix)."""

    def __init__(self, state: DensityMatrix, shots: Optional[int] = None, rng=None):
        self.shots = None if shots is None else check_shots(shots)
        self._state = as_density(state)
        self._tensor = pauli_tensor(self._state)
        # A seed is checked even where an exact source draws nothing from it.
        self._rng = None if shots is None and rng is None else rng_from_seed(rng)

    @property
    def n_qubits(self) -> int:
        return self._state.n_qubits

    def _observe(self, t: float) -> float:
        return t if self.shots is None else sample(t, self.shots, self._rng)

    def measure_index(self, index: Index) -> CorrelationRecord:
        """Correlation along Pauli-labelled axes."""
        index = tuple(index)
        return CorrelationRecord(index, self._observe(lookup(self._tensor, index)), self.shots)

    def measure_directions(self, directions: Sequence) -> float:
        """Correlation along arbitrary local directions (None = identity)."""
        if len(directions) != self.n_qubits:
            raise DimensionMismatch(
                f"got {len(directions)} directions for {self.n_qubits} qubits"
            )
        t = self._tensor
        for d in reversed(directions):
            t = t[..., 0] if d is None else t[..., 1:] @ _unit(d)
        return self._observe(float(np.clip(t, -1.0, 1.0)))

    def apply_filter(self, f: FilterOp) -> float:
        """Condition the hidden state on a successful local filter."""
        self._state, p_succ = apply_filter(self._state, f)
        self._tensor = pauli_tensor(self._state)
        return p_succ


def measure_bloch(source) -> tuple[list, np.ndarray, np.ndarray]:
    """Measure every party's local Bloch vector through source.measure_index.

    The queries run x, y, z for party 0, then for party 1, and so on.
    Returns the records in that order, and their values and standard errors
    as (n, 3) arrays with one row per party.
    """
    n = source.n_qubits
    records = [
        source.measure_index(tuple(axis if q == party else "0" for q in range(n)))
        for party in range(n)
        for axis in AXES
    ]
    values = np.array([r.value for r in records]).reshape(n, 3)
    errors = np.array([r.stderr for r in records]).reshape(n, 3)
    return records, values, errors
