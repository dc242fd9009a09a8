"""The correlation engine, Bloch vectors, and the sum-of-squares criterion.

A correlation index is a tuple of per-party Pauli labels from {"0", "x",
"y", "z"}; it is "full" when no party sits at the identity. pauli_tensor
turns a state into all 4^n values Tr[rho P] at once, as one product against
a cached stack of Pauli operators; every exact query (correlation,
bloch_vector, full_tensor, the measurement sources) is a lookup in or a
contraction of that tensor, and sample is the one binomial model of a
finite-statistics measurement, which sources.MeasurementSource applies to
every query in shot mode; pauli_tensors does the same for a whole stack
of states. A record's standard error is derived from its value and shot
count (standard_error). criterion_add folds a run's records into a
CriterionState in O(1) and detects once the sum of squared full
correlations exceeds 1 (minus a multiple of the propagated error in shot
mode), by the one rule criterion_met, which the batched sweep walker
applies to whole stacks; a DetectionResult reads its numbers back from
its records.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product
from typing import Iterable, Optional, Tuple

import numpy as np

from .config import MAX_QUBITS, TOL
from .errors import (
    DimensionMismatch,
    DomainError,
    DuplicateIndex,
    NonFullCorrelation,
    ParseError,
    UnsupportedDimension,
)
from .linalg import PAULI_LABELS, pauli_operator
from .states import DensityMatrix, as_density, check_int, check_qubits

Index = Tuple[str, ...]

# Per-party label order used when enumerating full indices.
_ITER_AXES = ("z", "y", "x")
_FULL_LABELS = frozenset(_ITER_AXES)
# Position of each label along an axis of a Pauli tensor.
_POSITION = {label: k for k, label in enumerate(PAULI_LABELS)}


def parse_index(text: str) -> Index:
    """Parse a concatenated label string like "zz" or "x0y"."""
    labels = tuple(text)
    for c in labels:
        if c not in PAULI_LABELS:
            raise ParseError(f"bad Pauli label {c!r} in index {text!r}")
    return labels


def format_index(index: Index) -> str:
    return "".join(index)


def is_full(index: Index) -> bool:
    """True when every party's label is x, y or z."""
    return _FULL_LABELS.issuperset(index)


def all_full_indices(n: int) -> list[Index]:
    """All 3^n full correlation indices, lexicographic in (z, y, x), for n
    from 1 to MAX_QUBITS."""
    return [idx for idx in product(_ITER_AXES, repeat=check_qubits(n))]


def full_positions(n: int) -> np.ndarray:
    """Where each index of all_full_indices(n) sits in a flattened Pauli
    tensor (a row of pauli_tensors)."""
    shape = (4,) * n
    return np.array(
        [np.ravel_multi_index([_POSITION[c] for c in idx], shape) for idx in all_full_indices(n)]
    )


@cache
def _pauli_rows(n: int) -> np.ndarray:
    """Row k holds the k-th n-qubit Pauli operator, transposed and flattened,
    so that rows @ rho.ravel() lists every Tr[rho P_k] (read-only, shared)."""
    rows = np.array([pauli_operator(idx).T.ravel() for idx in product(PAULI_LABELS, repeat=n)])
    rows.setflags(write=False)
    return rows


def pauli_tensors(matrices: np.ndarray) -> np.ndarray:
    """Every Tr[rho P_k] of each n-qubit matrix of a (..., 2^n, 2^n) stack,
    as a (..., 4^n) array clipped to [-1, 1], in the order of _pauli_rows.

    The product is one matrix-vector product per matrix, so a state's values
    do not depend on how many others share the stack.
    """
    d = matrices.shape[-1]
    t = (_pauli_rows(d.bit_length() - 1) @ matrices.reshape(*matrices.shape[:-2], d * d, 1)).real
    return t.clip(-1.0, 1.0)[..., 0]


def pauli_tensor(rho: DensityMatrix) -> np.ndarray:
    """All 4^n expectation values Tr[rho P] as a (4,)*n array.

    Axis q runs over the labels 0, x, y, z of party q; the all-identity
    entry is the trace, 1. A PureState is read through its density matrix.
    """
    rho = as_density(rho)
    return pauli_tensors(rho.matrix).reshape((4,) * rho.n_qubits)


def lookup(t: np.ndarray, index: Index) -> float:
    """The entry of a Pauli tensor for a per-party label index."""
    if len(index) != t.ndim:
        raise DimensionMismatch(f"index length {len(index)} does not match {t.ndim} qubits")
    try:
        return float(t[tuple(_POSITION[label] for label in index)])
    except KeyError as exc:
        raise DomainError(f"unknown Pauli label {exc.args[0]!r}") from None


def _sqrt(x):
    # math.sqrt on a float (Python's x ** 0.5 is not always correctly
    # rounded), np.sqrt on an array: the same bits either way.
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


# The most shots a measurement takes: Generator.binomial reads the count as a C long.
MAX_SHOTS = 2**63 - 1


def check_shots(shots, least: int = 1) -> None:
    """Raise DomainError unless shots is an integer from least to MAX_SHOTS
    (a bool is not a count)."""
    try:
        in_range = not isinstance(shots, bool) and least <= operator.index(shots) <= MAX_SHOTS
    except TypeError:
        in_range = False
    if not in_range:
        raise DomainError(f"shots must be an integer in [{least}, 2^63 - 1], got {shots!r}")


def sample(t, shots: int, rng: np.random.Generator):
    """Binomial finite-statistics model of a correlation with exact value t,
    or of each exact value of an array t, drawn in C order.

    n_plus ~ Binomial(shots, (1+t)/2); returns value = (n_plus - n_minus)/shots.
    """
    n_plus = rng.binomial(shots, (1.0 + t) / 2.0)
    return (2 * n_plus - shots) / shots


def standard_error(value, shots: Optional[int]):
    """Binomial standard error sqrt((1 - value^2)/shots) of a value estimated
    from shots outcomes, for floats or arrays; 0 for an exact value (shots
    None)."""
    return 0.0 if shots is None else _sqrt((1.0 - value * value) / shots)


def correlation(rho: DensityMatrix, index: Index) -> float:
    """Exact expectation value Tr[rho * (sigma_k x ... x sigma_l)]."""
    return lookup(pauli_tensor(rho), tuple(index))


@dataclass(frozen=True)
class CorrelationRecord:
    """A measured correlation: exact (shots None) or estimated from shots
    outcomes. Its stderr is standard_error(value, shots), set once here."""

    index: Index
    value: float
    shots: Optional[int] = None
    stderr: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(self.index))
        if not abs(self.value) <= 1.0:
            raise DomainError(f"correlation value {self.value} outside [-1, 1]")
        if self.shots is not None:
            check_shots(self.shots)
        object.__setattr__(self, "stderr", standard_error(self.value, self.shots))


def bloch_vector(rho: DensityMatrix, party: int) -> np.ndarray:
    """Local Bloch vector (T_x, T_y, T_z with identities elsewhere)."""
    n = rho.n_qubits
    party = check_int(party, 0, n - 1, "party")
    return pauli_tensor(rho)[(0,) * party + (slice(1, None),) + (0,) * (n - 1 - party)]


def propagated_error(records: Iterable[CorrelationRecord]) -> float:
    """Standard error of the sum of squared values.

    Uses the Gaussian variance of v^2, namely 4 v^2 sigma^2 + 2 sigma^4;
    the second-order term keeps the error finite when a sampled value lands
    at zero, where the first-order propagation would vanish.
    """
    total = 0.0
    for r in records:  # left to right, as CriterionState adds
        total += error_variance(r.value, r.stderr)
    return math.sqrt(total)


def error_variance(value, stderr):
    """Variance 4 v^2 sigma^2 + 2 sigma^4 of one squared value, for floats or
    arrays. It squares by multiplying, which is correctly rounded for both
    (Python's float ** 2 is not always), so the two forms agree bit for bit."""
    vs = value * stderr
    s2 = stderr * stderr
    return 4.0 * (vs * vs) + 2.0 * (s2 * s2)


_DETECTION_BOUNDS = tuple(1.0 + TOL.criterion(n) for n in range(MAX_QUBITS + 1))


def criterion_met(running_sum, variance, error_multiplier, n_qubits: int):
    """The detection rule: the running sum of squares, less error_multiplier
    times its standard error sqrt(variance), above 1 + TOL.criterion(n_qubits).
    Accepts floats or arrays; at variance 0 the margin is the sum, bit for bit."""
    return running_sum - error_multiplier * _sqrt(variance) > _DETECTION_BOUNDS[n_qubits]


def check_error_multiplier(error_multiplier) -> None:
    """Raise DomainError unless error_multiplier is finite and >= 0: a
    negative one adds to the sum, and an infinite one turns an exact run's
    0 * inf margin into NaN."""
    if not 0.0 <= error_multiplier < math.inf:
        raise DomainError(f"error multiplier must be finite and >= 0, got {error_multiplier}")


@dataclass
class CriterionState:
    """Per-run sum-of-squares accumulator that criterion_add updates in place.

    running_sum and variance add v^2 and the error variance record by record,
    as DetectionResult does; measured holds the indices added so far.
    """

    running_sum: float = 0.0
    variance: float = 0.0
    measured: set = field(default_factory=set)

    @property
    def error(self) -> float:
        return math.sqrt(self.variance)


def criterion_add(
    state: CriterionState, record: CorrelationRecord, error_multiplier: float = 1.0
) -> bool:
    """Add one full-correlation record to state in O(1); True when the
    running sum, after subtracting error_multiplier times the propagated
    error, passes criterion_met."""
    check_error_multiplier(error_multiplier)
    if not is_full(record.index):
        raise NonFullCorrelation(f"index {record.index!r} is not a full index")
    if record.index in state.measured:
        raise DuplicateIndex(f"index {format_index(record.index)} already measured")
    state.measured.add(record.index)
    state.running_sum += record.value * record.value
    state.variance += error_variance(record.value, record.stderr)
    return criterion_met(state.running_sum, state.variance, error_multiplier, len(record.index))


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Transcript and verdict of one detection run.

    records holds every measured correlation in order (local records appear
    for calibration stages); steps, sum_of_squares and propagated_error are
    read back from its full records. In shot mode the verdict compares the
    sum minus error_multiplier * propagated_error against 1.
    """

    records: Tuple[CorrelationRecord, ...]
    detected: bool
    strategy: str
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "detected" if self.detected else "not-detected"

    @property
    def full_records(self) -> Tuple[CorrelationRecord, ...]:
        # A list first: tuple() of a generator resizes the tuple, and CPython
        # keeps the resized tuples on its per-size free lists, which grows
        # the resident memory of a long run.
        return tuple([r for r in self.records if is_full(r.index)])

    @property
    def steps(self) -> int:
        return len(self.full_records)

    @property
    def sum_of_squares(self) -> float:
        # A left fold from 0.0, so that it equals CriterionState.running_sum.
        return reduce(lambda total, r: total + r.value * r.value, self.full_records, 0.0)

    @property
    def propagated_error(self) -> float:
        return propagated_error(self.full_records)


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """All 3^n full-correlation values of a state, read from its Pauli tensor."""

    n_qubits: int
    values: np.ndarray  # the (4,)*n Pauli tensor

    @property
    def full(self) -> np.ndarray:
        return self.values[(slice(1, None),) * self.n_qubits]

    def __getitem__(self, index) -> float:
        if isinstance(index, str):
            index = parse_index(index)
        return lookup(self.values, tuple(index))

    def items(self):
        return ((idx, self[idx]) for idx in all_full_indices(self.n_qubits))

    def sum_squares(self) -> float:
        return float(np.sum(self.full**2))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.full)))


def full_tensor(rho: DensityMatrix) -> CorrelationTensor:
    """Exact values for every full index (the brute-force oracle's view)."""
    if rho.n_qubits > MAX_QUBITS:
        raise UnsupportedDimension(f"full tensor limited to {MAX_QUBITS} qubits")
    return CorrelationTensor(rho.n_qubits, pauli_tensor(rho))
