"""State constructors, random ensembles, local frames, filters, and state file I/O.

Conventions: the computational basis is identified with linear polarization,
|0> = |H> and |1> = |V>, so |+45 deg> = (|0> + |1>)/sqrt(2). The singlet is
(|01> - |10>)/sqrt(2). Random mixed states are drawn from the
Hilbert-Schmidt (Ginibre) ensemble; the rank of the Ginibre factor is
configurable so purity ranges can be populated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .config import MAX_QUBITS, TOL
from .errors import (
    DimensionMismatch,
    DomainError,
    NotHermitian,
    ZeroProjection,
    ZeroSuccess,
)
from .linalg import dagger, mat_equal, tensor_product_all


def check_int(value, low: int, high: int, what: str) -> int:
    """value as an int; DomainError unless it is an integer (a bool is not)
    from low to high."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value <= high:
        raise DomainError(f"{what} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def check_qubits(n) -> int:
    return check_int(n, 1, MAX_QUBITS, "qubit count")


@dataclass(frozen=True, eq=False)
class PureState:
    """An n-qubit pure state as a normalized complex amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = check_qubits(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**n:
            raise DimensionMismatch(f"expected {2**n} amplitudes, got {amps.size}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= TOL.equality:  # a NaN norm fails too
            raise DomainError(f"state norm {norm} differs from 1 beyond tolerance")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, np.conjugate(self.amplitudes)))


def as_density(state) -> "DensityMatrix":
    """A PureState as its DensityMatrix; any other state unchanged."""
    return state.density() if isinstance(state, PureState) else state


def check_pure(state) -> PureState:
    """Raise DomainError unless state is a PureState."""
    if not isinstance(state, PureState):
        raise DomainError(f"a pure state is required, got a {type(state).__name__}")
    return state


def check_density(matrices: np.ndarray) -> None:
    """The density-matrix invariants, for one matrix or each matrix of a
    (..., d, d) stack: finite entries, Hermitian and unit trace within
    TOL.equality, no eigenvalue below -TOL.psd.

    The checks run in that order over the whole stack; the first one that
    some matrix breaks raises NotHermitian or DomainError, the last three
    quoting the value of the first such matrix. The eigenvalues are those of the Hermitian part
    H = (m + m^dagger) / 2, the part every correlation reads. H passes when
    H + TOL.psd I has a Cholesky factor, or, failing that, when no
    eigenvalue of H lies below -TOL.psd.
    """
    # One scalar test per check; the offending matrix is located only on failure.
    # A comparison with NaN is false, so non-finite entries are refused first.
    if not np.isfinite(matrices).all():
        raise DomainError("density matrix has a non-finite entry")
    adjoint = np.conjugate(matrices).swapaxes(-2, -1)
    asym = np.abs(matrices - adjoint)
    if asym.max() > TOL.equality:
        asym = asym.max(axis=(-2, -1))
        raise NotHermitian(f"asymmetry {_first(asym, asym > TOL.equality):.3e} exceeds tolerance")
    tr = matrices.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if off.max() > TOL.equality:
        raise DomainError(f"trace {complex(_first(tr, off > TOL.equality))} differs from 1 beyond tolerance")
    hermitian = (matrices + adjoint) / 2  # exactly Hermitian: Cholesky reads one triangle
    try:
        np.linalg.cholesky(hermitian + _psd_shift(matrices.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(hermitian)[..., 0]
        if min_eig.min() < -TOL.psd:
            raise DomainError(
                f"minimum eigenvalue {_first(min_eig, min_eig < -TOL.psd):.3e} below -{TOL.psd:.1e}"
            ) from None


@cache
def _psd_shift(d: int) -> np.ndarray:
    """TOL.psd times the d x d identity, built once per dimension (read-only)."""
    shift = TOL.psd * np.eye(d)
    shift.setflags(write=False)
    return shift


def _first(values: np.ndarray, bad: np.ndarray):
    """The first entry of values where bad holds, in C order."""
    return values[bad].flat[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dimension 2^n."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = check_qubits(self.n_qubits)
        m = np.asarray(self.matrix, dtype=complex).copy()
        d = 2**n
        if m.shape != (d, d):
            raise DimensionMismatch(f"expected shape {(d, d)}, got {m.shape}")
        check_density(m)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True, eq=False)
class LocalFrame:
    """One single-qubit unitary per party: a choice of local axes."""

    unitaries: tuple

    def __post_init__(self):
        us = tuple(np.asarray(u, dtype=complex).copy() for u in self.unitaries)
        check_qubits(len(us))
        for i, u in enumerate(us):
            if u.shape != (2, 2):
                raise DimensionMismatch(f"frame factor {i} has shape {u.shape}, expected (2, 2)")
            if not mat_equal(u @ dagger(u), np.eye(2), TOL.equality):
                raise DomainError(f"frame factor {i} is not unitary within tolerance")
        object.__setattr__(self, "unitaries", us)

    @property
    def n_qubits(self) -> int:
        return len(self.unitaries)


def ket(bits: str) -> PureState:
    """Computational basis state from a bit string, e.g. ket("01")."""
    n = check_qubits(len(bits))
    if not set(bits) <= {"0", "1"}:
        raise DomainError(f"a basis state is a string of 0s and 1s, got {bits!r}")
    amps = np.zeros(2**n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(n, amps)


def bell_phi_plus() -> PureState:
    return PureState(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def singlet() -> PureState:
    return PureState(2, np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2))


def _check_probability(p) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing probability must be in [0, 1], got {p}")
    return p


def make_werner(p) -> DensityMatrix:
    """Singlet mixed with white noise: p |psi-><psi-| + (1-p)/4 * identity."""
    p = _check_probability(p)
    proj = singlet().density().matrix
    return DensityMatrix(2, p * proj + (1.0 - p) * np.eye(4) / 4.0)


def make_colored(p) -> DensityMatrix:
    """Singlet mixed with colored noise: p |psi-><psi-| + (1-p) |01><01|."""
    p = _check_probability(p)
    proj = singlet().density().matrix
    noise = ket("01").density().matrix
    return DensityMatrix(2, p * proj + (1.0 - p) * noise)


def make_dicke(n, k) -> PureState:
    """Equal superposition of all n-bit strings of Hamming weight k."""
    n = check_qubits(n)
    k = check_int(k, 0, n, "excitation number")
    amps = np.zeros(2**n, dtype=complex)
    for ones in combinations(range(n), k):
        amps[sum(1 << (n - 1 - q) for q in ones)] = 1.0
    return PureState(n, amps / np.linalg.norm(amps))


def project_first_qubit(state: PureState, direction) -> PureState:
    """Project the first qubit onto the single-qubit state with the two
    amplitudes direction (normalized here) and renormalize.

    Returns the (n-1)-qubit post-measurement state; raises ZeroProjection if
    the outcome has numerically zero probability.
    """
    if check_pure(state).n_qubits < 2:
        raise DomainError("projection requires at least 2 qubits")
    d = np.asarray(direction, dtype=complex).reshape(-1)
    if d.size != 2:
        raise DimensionMismatch("projection direction must have 2 amplitudes")
    d = d / np.linalg.norm(d)
    rest = state.amplitudes.reshape(2, -1)
    reduced = np.conjugate(d) @ rest
    norm = float(np.linalg.norm(reduced))
    if norm < TOL.zero_projection:
        raise ZeroProjection("post-measurement norm below 1e-12")
    return PureState(state.n_qubits - 1, reduced / norm)


def make_w() -> PureState:
    """Three-qubit W state, prepared by projecting the first qubit of the
    four-qubit Dicke state (two excitations) onto |1>."""
    return project_first_qubit(make_dicke(4, 2), [0, 1])


def make_g() -> PureState:
    """Three-qubit G state: first qubit of the four-qubit Dicke state
    (two excitations) projected onto |+45 deg> = (|0> + |1>)/sqrt(2)."""
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    return project_first_qubit(make_dicke(4, 2), plus)


def rng_from_seed(seed) -> np.random.Generator:
    """np.random.default_rng(seed), raising DomainError for a seed numpy
    refuses (a negative or fractional number, say)."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad seed {seed!r}: {exc}") from None


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix; dim is
    at most 2^MAX_QUBITS."""
    check_int(dim, 1, 2**MAX_QUBITS, "dimension")
    rng = rng_from_seed(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(n, seed) -> PureState:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    n = check_qubits(n)
    rng = rng_from_seed(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(n, amps / np.linalg.norm(amps))


def random_mixed(n, seed, rank=None) -> DensityMatrix:
    """Hilbert-Schmidt (Ginibre) random density matrix.

    rank limits the number of Ginibre columns (rank=1 gives a pure state);
    the default is the full dimension 2^n.
    """
    n = check_qubits(n)
    d = 2**n
    if rank is None:
        rank = d
    check_int(rank, 1, d, "rank")
    return DensityMatrix(n, unit_trace(ginibre_product(d, rank, rng_from_seed(seed))))


def ginibre_product(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """g g^dagger for a complex Gaussian d x rank factor g: the matrix of
    random_mixed before unit_trace and validation."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


def unit_trace(matrices: np.ndarray) -> np.ndarray:
    """One matrix, or each matrix of a (..., d, d) stack, divided by its trace."""
    return matrices / np.trace(matrices, axis1=-2, axis2=-1)[..., None, None]


def random_frame(n, seed) -> LocalFrame:
    """Independent Haar-random single-qubit unitaries, one per party."""
    n = check_qubits(n)
    rng = rng_from_seed(seed)
    return LocalFrame(tuple(haar_unitary(2, rng) for _ in range(n)))


def apply_frame(state, frame: LocalFrame):
    """Rotate a state by a local frame: (U1 x ... x Un) acting on the state."""
    if frame.n_qubits != state.n_qubits:
        raise DimensionMismatch(
            f"frame has {frame.n_qubits} parties, state has {state.n_qubits}"
        )
    u = tensor_product_all(frame.unitaries)
    if isinstance(state, PureState):
        return PureState(state.n_qubits, u @ state.amplitudes)
    return DensityMatrix(state.n_qubits, u @ state.matrix @ dagger(u))


@dataclass(frozen=True)
class FilterOp:
    """Local non-unitary filter |0><0| + eps |1><1| on one party."""

    party: int
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "party", check_int(self.party, 0, MAX_QUBITS - 1, "party"))
        if not 0.0 < self.eps <= 1.0:
            raise DomainError(f"filter strength must be in (0, 1], got {self.eps}")

    def operator(self) -> np.ndarray:
        return np.diag([1.0, self.eps]).astype(complex)


def apply_filter(rho: DensityMatrix, f: FilterOp) -> tuple[DensityMatrix, float]:
    """Conditioned state after a successful filter, and the success probability."""
    rho = as_density(rho)
    if not 0 <= f.party < rho.n_qubits:
        raise DimensionMismatch(f"party {f.party} out of range for {rho.n_qubits} qubits")
    op = tensor_product_all(
        f.operator() if q == f.party else np.eye(2) for q in range(rho.n_qubits)
    )
    conditioned = op @ rho.matrix @ dagger(op)
    p_succ = float(np.trace(conditioned).real)
    if p_succ < TOL.zero_projection:
        raise ZeroSuccess(f"filter success probability {p_succ:.3e} below 1e-12")
    return DensityMatrix(rho.n_qubits, conditioned / p_succ), p_succ


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2; 1 for pure states, 1/2^n for maximally mixed."""
    return float(purities(as_density(rho).matrix))


def purities(matrices: np.ndarray) -> np.ndarray:
    """Tr m^2 of one matrix or of each matrix of a (..., d, d) stack."""
    return np.trace(matrices @ matrices, axis1=-2, axis2=-1).real


def _complex_to_pairs(a: np.ndarray):
    return [[float(x.real), float(x.imag)] for x in a]


def state_to_dict(state) -> dict:
    """JSON form: {"n_qubits": n, "matrix": [[[re, im], ...], ...]} row-major
    for density matrices, {"n_qubits": n, "amplitudes": [[re, im], ...]} for
    pure states."""
    if isinstance(state, PureState):
        return {"n_qubits": state.n_qubits, "amplitudes": _complex_to_pairs(state.amplitudes)}
    return {
        "n_qubits": state.n_qubits,
        "matrix": [_complex_to_pairs(row) for row in state.matrix],
    }


def state_from_dict(data: dict):
    if "amplitudes" in data:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return PureState(data["n_qubits"], amps)
    if "matrix" in data:
        m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        return DensityMatrix(data["n_qubits"], m)
    raise DomainError("state dict needs an 'amplitudes' or 'matrix' key")


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh)


def load_state(path):
    with open(path, encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))
