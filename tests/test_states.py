import math

import numpy as np
import pytest

from conftest import NON_FINITE, non_finite_matrix
from entdetect import (
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    FilterOp,
    LocalFrame,
    PureState,
    ZeroProjection,
    apply_filter,
    apply_frame,
    bell_phi_plus,
    full_tensor,
    ket,
    make_colored,
    make_dicke,
    make_g,
    make_w,
    make_werner,
    mat_equal,
    ppt_verdict,
    project_first_qubit,
    purity,
    random_frame,
    random_mixed,
    random_pure,
    schmidt_oracle,
    singlet,
    state_from_dict,
    state_to_dict,
)
from entdetect.config import TOL
from entdetect.states import check_density, haar_unitary, load_state, save_state


def test_werner_extremes():
    assert mat_equal(make_werner(1.0).matrix, singlet().density().matrix)
    assert mat_equal(make_werner(0.0).matrix, np.eye(4) / 4)


def test_werner_correlation_tensor():
    ft = full_tensor(make_werner(0.7))
    assert abs(ft["zz"] + 0.7) < 1e-9
    for p in np.linspace(0.0, 1.0, 20):
        ft = full_tensor(make_werner(p))
        for idx, value in ft.items():
            target = -p if idx[0] == idx[1] else 0.0
            assert abs(value - target) < 1e-9


def test_werner_domain():
    with pytest.raises(DomainError):
        make_werner(1.2)
    with pytest.raises(DomainError):
        make_werner(-0.1)


def test_colored_extremes_and_tensor():
    assert mat_equal(make_colored(0.0).matrix, ket("01").density().matrix)
    assert mat_equal(make_colored(1.0).matrix, singlet().density().matrix)
    ft = full_tensor(make_colored(0.3))
    assert abs(ft["xx"] + 0.3) < 1e-9
    assert abs(ft["yy"] + 0.3) < 1e-9
    assert abs(ft["zz"] + 1.0) < 1e-9
    assert abs(full_tensor(make_colored(0.0))["zz"] + 1.0) < 1e-9


def test_dicke_states():
    w = make_dicke(3, 1)
    expect = np.zeros(8)
    expect[[1, 2, 4]] = 1 / math.sqrt(3)
    assert np.allclose(w.amplitudes, expect)
    d21 = make_dicke(2, 1)
    assert np.allclose(d21.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
    d42 = make_dicke(4, 2)
    nonzero = np.flatnonzero(np.abs(d42.amplitudes) > 1e-12)
    assert len(nonzero) == 6
    assert np.allclose(d42.amplitudes[nonzero], 1 / math.sqrt(6))


def test_dicke_domain():
    with pytest.raises(DomainError):
        make_dicke(3, 4)
    with pytest.raises(DomainError):
        make_dicke(5, 1)


def test_projection_gives_w_and_g():
    d42 = make_dicke(4, 2)
    w = project_first_qubit(d42, [0, 1])
    assert mat_equal(w.amplitudes.reshape(-1, 1), make_dicke(3, 1).amplitudes.reshape(-1, 1))
    assert abs(np.linalg.norm(w.amplitudes) - 1) < 1e-9
    g = project_first_qubit(d42, np.array([1, 1]) / math.sqrt(2))
    # equal weight on every string of weight 1 or 2
    weights = [bin(i).count("1") for i in range(8)]
    for i, a in enumerate(g.amplitudes):
        assert abs(abs(a) - (1 / math.sqrt(6) if weights[i] in (1, 2) else 0.0)) < 1e-9
    assert mat_equal(make_w().amplitudes.reshape(-1, 1), w.amplitudes.reshape(-1, 1))
    assert mat_equal(make_g().amplitudes.reshape(-1, 1), g.amplitudes.reshape(-1, 1))


def test_projection_bell_on_zero():
    out = project_first_qubit(bell_phi_plus(), [1, 0])
    assert np.allclose(out.amplitudes, [1, 0])


def test_projection_zero_norm():
    with pytest.raises(ZeroProjection):
        project_first_qubit(ket("00"), [0, 1])


def test_random_pure_normalized_and_deterministic():
    for seed in range(5):
        psi = random_pure(2, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-9
    a = random_pure(3, 42).amplitudes
    b = random_pure(3, 42).amplitudes
    assert np.array_equal(a, b)


def test_random_mixed_valid_and_deterministic():
    for seed in range(5):
        rho = random_mixed(2, seed)
        assert abs(np.trace(rho.matrix) - 1) < 1e-9
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-9
    assert np.array_equal(random_mixed(2, 7).matrix, random_mixed(2, 7).matrix)
    assert abs(purity(random_mixed(2, 3, rank=1)) - 1) < 1e-9


def test_random_frame_deterministic_and_unitary():
    f = random_frame(2, 9)
    g = random_frame(2, 9)
    for u, v in zip(f.unitaries, g.unitaries):
        assert np.array_equal(u, v)
        assert mat_equal(u @ u.conj().T, np.eye(2))


def test_apply_frame_identity():
    rho = make_werner(0.6)
    frame = LocalFrame((np.eye(2), np.eye(2)))
    assert mat_equal(apply_frame(rho, frame).matrix, rho.matrix)


def test_apply_frame_preserves_purity_and_sum():
    rng = np.random.default_rng(13)
    for seed in range(10):
        rho = random_mixed(2, rng)
        frame = random_frame(2, rng)
        rotated = apply_frame(rho, frame)
        assert abs(purity(rotated) - purity(rho)) < 1e-9
        assert abs(full_tensor(rotated).sum_squares() - full_tensor(rho).sum_squares()) < 1e-8


def test_apply_frame_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_frame(make_werner(0.5), random_frame(3, 0))


def test_purity_values():
    assert abs(purity(bell_phi_plus().density()) - 1) < 1e-9
    assert abs(purity(DensityMatrix(2, np.eye(4) / 4)) - 0.25) < 1e-12
    # direct matrix computation for Werner p = 0.5 gives (1 + 3 p^2)/4
    rho = make_werner(0.5)
    direct = float(np.trace(rho.matrix @ rho.matrix).real)
    assert abs(direct - 0.4375) < 1e-12
    assert abs(purity(rho) - direct) < 1e-12


def test_density_matrix_invariants_enforced():
    with pytest.raises(DomainError):
        DensityMatrix(1, np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(DomainError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(DomainError):
        PureState(1, np.array([1.0, 1.0]))  # norm sqrt(2)


def test_positivity_is_checked_on_the_hermitian_part():
    # Only the upper triangle carries the (tolerated) asymmetry: the lower
    # triangle alone describes diag(1, 0, ..., 0), while the Hermitian part,
    # which every correlation reads, has an eigenvalue of -6 * 0.45e-9.
    m = np.diag([1.0] + [0.0] * 7).astype(complex)
    m[1:, 1:] += np.triu(np.full((7, 7), -0.9e-9), k=1)
    with pytest.raises(DomainError, match="minimum eigenvalue -2.700e-09"):
        DensityMatrix(3, m)


@pytest.mark.parametrize("kind", NON_FINITE)
def test_non_finite_matrices_are_rejected(kind):
    m = non_finite_matrix(kind)
    with pytest.raises(DomainError, match="non-finite"):
        DensityMatrix(2, m)
    with pytest.raises(DomainError, match="non-finite"):
        check_density(np.array([np.eye(4) / 4, m, np.eye(4) / 4]))


def test_non_finite_amplitudes_are_rejected():
    with pytest.raises(DomainError):
        PureState(1, np.array([math.nan, 0.0]))


def _eigvalsh_rule(m) -> bool:
    """The positivity rule check_density applied before it took a Cholesky
    factor: accept when no eigenvalue of the Hermitian part lies below -psd."""
    return np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2)[..., 0].min() >= -TOL.psd


def _passes(m) -> bool:
    try:
        check_density(m)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "lowest", [-TOL.psd * (1 + 1e-3), -TOL.psd * (1 - 1e-3), 0.0, -0.9e-9], ids=str
)
def test_cholesky_rule_agrees_with_the_eigenvalue_rule(n, lowest):
    d = 2**n
    rng = np.random.default_rng([n, int(-lowest * 1e12)])
    stack = []
    for _ in range(12):
        spectrum = rng.random(d - 1)
        spectrum = np.concatenate([[lowest], spectrum * (1 - lowest) / spectrum.sum()])
        u = haar_unitary(d, rng)
        m = (u * spectrum) @ u.conj().T
        assert _passes(m) == _eigvalsh_rule(m)
        stack.append(m)
    stack = np.array(stack)
    assert _passes(stack) == _eigvalsh_rule(stack) == (lowest >= -TOL.psd)
    # One planted matrix among valid ones: the stack fails exactly when it does.
    mixed = np.array([np.eye(d) / d, stack[5], np.eye(d) / d])
    assert _passes(mixed) == _eigvalsh_rule(stack[5])


def test_a_failed_cholesky_factor_falls_back_to_the_eigenvalues(monkeypatch):
    def fail(matrices):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    check_density(np.array([np.eye(4) / 4, make_werner(0.3).matrix]))
    with pytest.raises(DomainError, match="minimum eigenvalue -5.000e-01"):
        DensityMatrix(1, np.diag([1.5, -0.5]))


def test_state_json_roundtrip(tmp_path):
    rho = make_werner(0.37)
    d = state_to_dict(rho)
    back = state_from_dict(d)
    assert mat_equal(back.matrix, rho.matrix, 1e-15)
    psi = random_pure(3, 5)
    path = tmp_path / "state.json"
    save_state(psi, path)
    loaded = load_state(path)
    assert isinstance(loaded, PureState)
    assert np.allclose(loaded.amplitudes, psi.amplitudes, atol=1e-15)


# Each seeded constructor, read as an array.
SEEDED = {
    "random_pure": lambda seed: random_pure(2, seed).amplitudes,
    "random_mixed": lambda seed: random_mixed(2, seed).matrix,
    "random_frame": lambda seed: np.stack(random_frame(2, seed).unitaries),
    "haar_unitary": lambda seed: haar_unitary(2, seed),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
@pytest.mark.parametrize("seed", [-1, 1.5, math.nan])
def test_a_bad_seed_is_refused(name, seed):
    with pytest.raises(DomainError):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_a_generator_is_a_seed(name):
    assert np.array_equal(SEEDED[name](4), SEEDED[name](np.random.default_rng(4)))


@pytest.mark.parametrize("call", [
    lambda: ket("0q"),
    lambda: ket("012"),
    lambda: random_mixed(2, 1, rank=1.5),
    lambda: random_mixed(2, 1, rank=True),
    lambda: haar_unitary(4500.5, 1),
    lambda: haar_unitary(2**63, 1),
    lambda: make_dicke(4, 2.0),
    lambda: state_from_dict({"n_qubits": math.nan, "amplitudes": [[1, 0]] * 4}),
    lambda: state_from_dict({"n_qubits": 2.5, "amplitudes": [[1, 0]] * 4}),
    lambda: schmidt_oracle(bell_phi_plus().density()),
    lambda: project_first_qubit(make_w().density(), [1, 0]),
], ids=["ket-letter", "ket-digit", "rank-fraction", "rank-bool", "dim-fraction", "dim-huge",
        "dicke-float", "dict-nan-count", "dict-fractional-count", "oracle-mixed", "project-mixed"])
def test_a_value_outside_the_domain_is_refused(call):
    with pytest.raises(DomainError):
        call()


def test_a_pure_state_stands_for_its_density_matrix():
    psi = apply_frame(bell_phi_plus(), random_frame(2, 8))
    rho = psi.density()
    assert purity(psi) == purity(rho)
    assert ppt_verdict(psi) == ppt_verdict(rho)
    filtered, p = apply_filter(psi, FilterOp(1, 0.5))
    expected, q = apply_filter(rho, FilterOp(1, 0.5))
    assert p == q and np.array_equal(filtered.matrix, expected.matrix)


@pytest.mark.parametrize("party", [1.5, True, -1, 4])
def test_a_filter_party_must_be_a_qubit_position(party):
    # A fractional party would filter no party, and True would filter party 1.
    with pytest.raises(DomainError):
        FilterOp(party, 0.3)


def test_a_numpy_integer_is_a_filter_party():
    f = FilterOp(np.int64(1), 0.3)
    assert f == FilterOp(1, 0.3) and type(f.party) is int
    filtered, p = apply_filter(make_werner(0.8), f)
    expected, q = apply_filter(make_werner(0.8), FilterOp(1, 0.3))
    assert p == q < 1.0 and np.array_equal(filtered.matrix, expected.matrix)


@pytest.mark.parametrize("call, error", [
    (lambda: DensityMatrix(2, np.eye(2)), DimensionMismatch),
    (lambda: LocalFrame((np.eye(3), np.eye(2))), DimensionMismatch),
    (lambda: LocalFrame((2 * np.eye(2), np.eye(2))), DomainError),
    (lambda: project_first_qubit(ket("0"), [1, 0]), DomainError),
    (lambda: project_first_qubit(ket("00"), [1, 0, 0]), DimensionMismatch),
    (lambda: state_from_dict({"n_qubits": 2}), DomainError),
], ids=["matrix-shape", "frame-shape", "frame-not-unitary", "project-one-qubit", "project-direction",
        "dict-without-state"])
def test_a_state_input_of_the_wrong_shape_is_refused(call, error):
    with pytest.raises(error):
        call()
