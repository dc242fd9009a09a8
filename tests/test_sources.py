import math

import numpy as np
import pytest

from entdetect import (
    DimensionMismatch,
    DomainError,
    FilterOp,
    MeasurementSource,
    PAULIS,
    all_full_indices,
    apply_filter,
    apply_frame,
    bell_phi_plus,
    correlation,
    ket,
    random_frame,
    random_mixed,
    tensor_product_all,
)


def direction_operator(direction) -> np.ndarray:
    """The single-qubit observable n . sigma along the unit vector of direction."""
    d = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    return d[0] * PAULIS["x"] + d[1] * PAULIS["y"] + d[2] * PAULIS["z"]


def _oracle(rho, directions):
    op = tensor_product_all(np.eye(2) if d is None else direction_operator(d) for d in directions)
    return float(np.einsum("ij,ji->", rho.matrix, op).real)


def test_measure_directions_matches_operator_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            rho = random_mixed(n, rng)
            source = MeasurementSource(rho)
            dirs = [rng.standard_normal(3) * rng.uniform(0.1, 3.0) for _ in range(n)]
            for q in range(n):
                if rng.random() < 0.3:
                    dirs[q] = None
            value = source.measure_directions(dirs)
            assert isinstance(value, float) and abs(value - _oracle(rho, dirs)) < 1e-12
            identity_only = [None] * n
            assert abs(source.measure_directions(identity_only) - 1.0) < 1e-12
            # Scaled axis directions read the Pauli entry, independently of direction_operator.
            labels = [("0", "x", "y", "z")[k] for k in rng.integers(0, 4, size=n)]
            axes = [None if a == "0" else np.eye(3)["xyz".index(a)] * rng.uniform(0.1, 3.0) for a in labels]
            assert abs(source.measure_directions(axes) - correlation(rho, labels)) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # a norm of 1e308 components
def test_measure_directions_validation():
    source = MeasurementSource(bell_phi_plus().density())
    with pytest.raises(DimensionMismatch):
        source.measure_directions([[0, 0, 1]])
    with pytest.raises(DimensionMismatch):
        source.measure_directions([[0, 1], None])
    with pytest.raises(DomainError):
        source.measure_directions([[0, 0, 0], None])
    # A non-finite norm is refused in either mode: exact mode returned NaN,
    # shot mode raised numpy's ValueError, and an overflowing norm read 0.0.
    for source in (MeasurementSource(bell_phi_plus()), MeasurementSource(bell_phi_plus(), 4500, rng=1)):
        for direction in ([math.nan, 0, 1], [math.inf, 0, 0], [1e308, 1e308, 0]):
            with pytest.raises(DomainError):
                source.measure_directions([direction, [0, 0, 1]])


def test_filter_refreshes_correlations():
    rho = apply_frame(random_mixed(2, 12), random_frame(2, 13))
    f = FilterOp(1, 0.3)
    filtered, p_expect = apply_filter(rho, f)
    source = MeasurementSource(rho)
    assert abs(source.apply_filter(f) - p_expect) < 1e-12
    for idx in all_full_indices(2) + [("z", "0"), ("0", "x")]:
        assert abs(source.measure_index(idx).value - correlation(filtered, idx)) < 1e-12
    dirs = [np.array([0.3, -0.4, 0.5]), np.array([1.0, 0.2, -0.7])]
    assert abs(source.measure_directions(dirs) - _oracle(filtered, dirs)) < 1e-12


def test_shot_counts_must_be_integers():
    # A fractional count would scale a binomial draw of its integer part.
    rho = bell_phi_plus().density()
    for shots in (4500.5, 4500.0, "4500", 0, 2**63, True):  # a bool is not a count
        with pytest.raises(DomainError):
            MeasurementSource(rho, shots=shots, rng=1)
    assert MeasurementSource(rho, shots=np.int64(4500)).shots == 4500
    assert type(MeasurementSource(rho, shots=np.int64(4500)).shots) is int


def test_a_pure_state_is_read_through_its_density_matrix():
    psi = apply_frame(ket("01"), random_frame(2, 5))
    source, oracle = MeasurementSource(psi), MeasurementSource(psi.density())
    for idx in all_full_indices(2) + [("z", "0"), ("0", "x")]:
        assert source.measure_index(idx).value == oracle.measure_index(idx).value
    f = FilterOp(0, 0.4)
    assert source.apply_filter(f) == oracle.apply_filter(f)


@pytest.mark.parametrize("rng", [-1, 1.5, True])
def test_a_bad_shot_seed_is_refused(rng):
    # An exact source draws nothing from its seed, but checks it all the same.
    for shots in (100, None):
        with pytest.raises(DomainError):
            MeasurementSource(bell_phi_plus(), shots=shots, rng=rng)
