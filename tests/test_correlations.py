import math

import numpy as np
import pytest

from entdetect import (
    CorrelationRecord,
    CriterionState,
    DensityMatrix,
    DetectionResult,
    DimensionMismatch,
    DuplicateIndex,
    MeasurementSource,
    NonFullCorrelation,
    all_full_indices,
    apply_frame,
    bell_phi_plus,
    bloch_vector,
    correlation,
    criterion_add,
    full_tensor,
    generate_tree,
    is_full,
    ket,
    make_dicke,
    make_werner,
    parse_index,
    propagated_error,
    random_frame,
    random_mixed,
    random_pure,
    run_tree,
    schmidt_oracle,
)
from entdetect.config import TOL
from entdetect.correlations import criterion_met, error_variance, full_positions, pauli_tensor
from entdetect.correlations import sample, standard_error
from entdetect.tree import anticommute


def test_bell_correlations():
    rho = bell_phi_plus().density()
    assert abs(correlation(rho, ("z", "z")) - 1) < 1e-12
    assert abs(correlation(rho, ("y", "y")) + 1) < 1e-12
    assert abs(correlation(rho, ("x", "x")) - 1) < 1e-12


def test_werner_correlation():
    assert abs(correlation(make_werner(0.7), ("x", "x")) + 0.7) < 1e-9


def test_w_state_zzz():
    rho = make_dicke(3, 1).density()
    assert abs(correlation(rho, ("z", "z", "z")) + 1) < 1e-12


def test_correlation_dimension_guard():
    with pytest.raises(DimensionMismatch):
        correlation(make_werner(0.5), ("z",))


def test_sampled_degenerate():
    rho = bell_phi_plus().density()
    rec = MeasurementSource(rho, 500, np.random.default_rng(0)).measure_index(("z", "z"))
    assert rec.value == 1.0 and rec.stderr == 0.0 and rec.shots == 500


def test_sampled_concentration():
    rho = make_werner(0.42)
    rec = MeasurementSource(rho, 10**6, np.random.default_rng(1)).measure_index(("z", "z"))
    assert abs(rec.value - (-0.42)) < 5 * rec.stderr


def test_sampled_error_scale():
    # stderr near T = 0 at 4500 shots matches the 0.015 scale
    rho = make_werner(0.0)
    rec = MeasurementSource(rho, 4500, np.random.default_rng(2)).measure_index(("z", "z"))
    assert abs(rec.stderr - math.sqrt(1 / 4500)) < 2e-3
    assert abs(rec.stderr - 0.0149) < 2e-3


def test_sampled_unbiased():
    rho = make_werner(0.6)
    exact = correlation(rho, ("z", "z"))
    rng = np.random.default_rng(3)
    shots = 500
    reps = 10**4
    source = MeasurementSource(rho, shots, rng)
    values = [source.measure_index(("z", "z")).value for _ in range(reps)]
    se_mean = math.sqrt((1 - exact**2) / shots / reps)
    assert abs(np.mean(values) - exact) < 4 * se_mean


def test_sample_of_a_stack_matches_scalar_draws_bit_for_bit():
    exact = np.random.default_rng(4).uniform(-1.0, 1.0, (40, 9))
    exact[0, :3] = [1.0, -1.0, 0.0]
    for shots in (100, 4500):
        values = sample(exact, shots, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        scalar = [sample(float(t), shots, rng) for t in exact.ravel()]
        assert values.ravel().tolist() == scalar
        stderrs = standard_error(values, shots)
        assert stderrs.ravel().tolist() == [standard_error(v, shots) for v in scalar]
        assert stderrs.ravel().tolist() == [math.sqrt((1 - v * v) / shots) for v in scalar]
    assert standard_error(0.3, None) == 0.0 and standard_error(exact, None) == 0.0


def test_scalar_and_array_squares_agree_bit_for_bit():
    # criterion_add and DetectionResult square floats, CompiledTree.walk
    # squares arrays; both multiply, so they agree in every bit.
    rng = np.random.default_rng(12)
    values, shots = rng.uniform(-1.0, 1.0, 20000), 100
    squares = (values * values).tolist()
    variances = error_variance(values, standard_error(values, shots)).tolist()
    records = [CorrelationRecord(("z", "z"), v, shots) for v in values.tolist()]
    assert [error_variance(r.value, r.stderr) for r in records] == variances
    folds = []
    for r in records:
        state = CriterionState()
        criterion_add(state, r)
        folds.append(state.running_sum)
    assert folds == squares
    assert DetectionResult(tuple(records), False, "tree").sum_of_squares == np.cumsum(squares)[-1]


def test_detection_bound_grows_with_the_qubit_count():
    bounds = [TOL.criterion(n) for n in range(1, 5)]
    assert np.allclose(bounds, [1.0e-8, 1.8e-8, 3.4e-8, 6.6e-8], rtol=1e-3)
    for n, bound in enumerate(bounds, start=1):
        assert criterion_met(1.0 + 1.01 * bound, 0.0, 1.0, n)
        assert not criterion_met(1.0 + 0.99 * bound, 0.0, 1.0, n)
    # the error allowance is error_multiplier standard errors of the sum
    assert not criterion_met(1.1, 0.01, 1.0, 2) and criterion_met(1.1, 0.01, 0.5, 2)


def test_bloch_vector_cases():
    assert np.allclose(bloch_vector(bell_phi_plus().density(), 0), [0, 0, 0], atol=1e-12)
    assert np.allclose(bloch_vector(ket("00").density(), 0), [0, 0, 1], atol=1e-12)
    assert np.allclose(bloch_vector(ket("01").density(), 1), [0, 0, -1], atol=1e-12)


def test_bloch_vector_filtered_state():
    # (|a>|0> + eps |a_perp>|1>)/sqrt(1+eps^2): party-1 Bloch is (0, 0, (1-eps^2)/(1+eps^2))
    from entdetect import PureState

    rng = np.random.default_rng(4)
    eps = 0.37
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    a_perp = np.array([-np.conjugate(a[1]), np.conjugate(a[0])])
    amps = (np.kron(a, [1, 0]) + eps * np.kron(a_perp, [0, 1])) / math.sqrt(1 + eps**2)
    rho = PureState(2, amps).density()
    expect = (1 - eps**2) / (1 + eps**2)
    assert np.allclose(bloch_vector(rho, 1), [0, 0, expect], atol=1e-9)
    assert abs(np.linalg.norm(bloch_vector(rho, 0)) - expect) < 1e-9


def test_criterion_accumulator():
    state = CriterionState()
    assert not criterion_add(state, CorrelationRecord(("z", "z"), 0.980))
    assert criterion_add(state, CorrelationRecord(("y", "y"), -0.949))
    # 0.980^2 + 0.949^2 computed directly
    assert abs(state.running_sum - 1.861001) < 1e-12


def test_criterion_small_value_undecided():
    state = CriterionState()
    assert not criterion_add(state, CorrelationRecord(("z", "z"), -0.056))
    assert abs(state.running_sum - 0.003136) < 1e-12


def test_criterion_empty():
    state = CriterionState()
    assert state.running_sum == 0.0 and state.measured == set()


def test_criterion_rejects_duplicates_and_locals():
    state = CriterionState()
    criterion_add(state, CorrelationRecord(("z", "z"), 0.5))
    with pytest.raises(DuplicateIndex):
        criterion_add(state, CorrelationRecord(("z", "z"), 0.1))
    with pytest.raises(NonFullCorrelation):
        criterion_add(state, CorrelationRecord(("z", "0"), 0.1))
    # a rejected record leaves the accumulator as it was
    assert state.running_sum == 0.25 and state.measured == {("z", "z")}


def test_criterion_shot_mode_error_subtraction():
    # sum slightly above 1 but within one propagated error: undecided
    rec1 = CorrelationRecord(("z", "z"), 0.9, shots=4500)
    rec2 = CorrelationRecord(("y", "y"), 0.45, shots=4500)
    state = CriterionState()
    criterion_add(state, rec1)
    assert not criterion_add(state, rec2, error_multiplier=1.0)
    assert state.running_sum > 1.0
    state = CriterionState()
    criterion_add(state, rec1, 0.0)
    assert criterion_add(state, rec2, error_multiplier=0.0)


def test_record_invariant():
    from entdetect import DomainError

    # A record checks its shot count as MeasurementSource does (check_shots).
    for value, shots in ((1.2, None), (1.05, 4500), (-1.0000001, 100), (math.nan, None), (0.5, 0),
                         (0.5, 4500.5), (0.5, True), (0.5, 2**63)):
        with pytest.raises(DomainError):
            CorrelationRecord(("z", "z"), value, shots)
    # the error is derived from the value and the shot count, never given
    assert CorrelationRecord(("z", "z"), -1.0, 1).stderr == 0.0
    assert CorrelationRecord(("z", "z"), 0.6, 100).stderr == math.sqrt(0.64 / 100)
    assert CorrelationRecord(("z", "z"), 0.6).stderr == 0.0
    with pytest.raises(TypeError):
        CorrelationRecord(("z", "z"), 0.6, 100, 0.01)


def test_full_tensor_product_state_boundary():
    # random product pure states sit exactly at sum = 1
    rng = np.random.default_rng(5)
    from entdetect import PureState

    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        total = full_tensor(PureState(2, amps).density()).sum_squares()
        assert abs(total - 1.0) < 1e-9


def test_full_tensor_bell_entries():
    ft = full_tensor(bell_phi_plus().density())
    assert abs(ft["xx"] - 1) < 1e-12
    assert abs(ft["yy"] + 1) < 1e-12
    assert abs(ft["zz"] - 1) < 1e-12
    for idx, value in ft.items():
        if idx not in {("x", "x"), ("y", "y"), ("z", "z")}:
            assert abs(value) < 1e-12


def test_full_tensor_werner_sum():
    for p in (0.2, 0.6, 1.0):
        assert abs(full_tensor(make_werner(p)).sum_squares() - 3 * p * p) < 1e-9


def test_full_tensor_pure_state_identity():
    # for pure 2-qubit states the complete sum is 1 + 2 sin^2(2 theta),
    # consistent with Tr rho^2 = (1 + |a|^2 + |b|^2 + sum T^2)/4
    rng = np.random.default_rng(6)
    for _ in range(50):
        psi = random_pure(2, rng)
        theta = schmidt_oracle(psi)[0]
        total = full_tensor(psi.density()).sum_squares()
        assert abs(total - (1 + 2 * math.sin(2 * theta) ** 2)) < 1e-8


def test_sum_squares_frame_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_mixed(2, rng)
        total = full_tensor(rho).sum_squares()
        rotated = apply_frame(rho, random_frame(2, rng))
        assert abs(full_tensor(rotated).sum_squares() - total) < 1e-8


def _random_anticommuting_set(indices, rng):
    order = list(indices)
    rng.shuffle(order)
    chosen = []
    for idx in order:
        if all(anticommute(idx, c) for c in chosen):
            chosen.append(idx)
    return chosen


def test_correlation_complementarity():
    # sum of squares over mutually anti-commuting full correlations <= 1
    indices = all_full_indices(2)
    rng = np.random.default_rng(8)
    sets = [_random_anticommuting_set(indices, rng) for _ in range(50)]
    for _ in range(1000):
        ft = full_tensor(random_mixed(2, rng))
        for group in sets:
            assert sum(ft[idx] ** 2 for idx in group) <= 1 + 1e-9


def test_propagated_error_formula():
    recs = (CorrelationRecord(("z", "z"), 0.8, shots=3600), CorrelationRecord(("y", "y"), 0.0, shots=4500))
    s1, s2 = math.sqrt(0.36 / 3600), math.sqrt(1 / 4500)  # 0.01 and 0.0149
    expect = math.sqrt(4 * (0.8 * s1) ** 2 + 2 * s1**4 + 2 * s2**4)
    assert abs(propagated_error(recs) - expect) < 1e-15
    assert propagated_error(recs) > 0.0


def test_running_error_matches_propagated_error():
    # An undetected 4-qubit shot-mode run measures all 81 full indices.
    rho = DensityMatrix(4, np.eye(16) / 16)
    source = MeasurementSource(rho, shots=4500, rng=np.random.default_rng(0))
    result = run_tree(source, generate_tree(4, ("z",) * 4))
    assert not result.detected and result.steps == 81
    state = CriterionState()
    for k, rec in enumerate(result.records, 1):
        criterion_add(state, rec)
        assert state.error == propagated_error(result.records[:k])
    assert result.propagated_error == propagated_error(result.records)
    # the numbers the result reads from its records equal the running fold
    assert (result.sum_of_squares, result.propagated_error) == (state.running_sum, state.error)


def test_index_helpers():
    assert parse_index("zz") == ("z", "z")
    assert is_full(("x", "y", "z")) and not is_full(("x", "0"))
    assert len(all_full_indices(3)) == 27
    assert all_full_indices(2)[0] == ("z", "z")


def test_pauli_tensor_matches_operator_oracle():
    from itertools import product

    from entdetect.correlations import pauli_tensor
    from entdetect.linalg import PAULI_LABELS, pauli_operator

    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            rho = random_mixed(n, rng, rank=int(rng.integers(1, 2**n + 1)))
            t = pauli_tensor(rho)
            assert t.shape == (4,) * n
            for idx in product(PAULI_LABELS, repeat=n):
                pos = tuple(PAULI_LABELS.index(label) for label in idx)
                expect = np.einsum("ij,ji->", rho.matrix, pauli_operator(idx)).real
                assert abs(t[pos] - expect) < 1e-12


def test_full_positions_index_the_flattened_tensor():
    for n in (1, 2, 3):
        rho = random_mixed(n, n)
        flat = pauli_tensor(rho).ravel()
        assert [flat[k] for k in full_positions(n)] == [
            correlation(rho, idx) for idx in all_full_indices(n)
        ]
