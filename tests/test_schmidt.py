import cmath
import hashlib
import math

import numpy as np
import pytest

from conftest import BAD_ERROR_MULTIPLIERS, Unmeasured, protocol_target_theta
from entdetect import (
    DegenerateDenominator,
    DegenerateDirection,
    DimensionMismatch,
    DomainError,
    FilterOp,
    PAULIS,
    MeasurementSource,
    PureState,
    ZeroSuccess,
    apply_filter,
    apply_frame,
    bell_phi_plus,
    bloch_to_basis,
    bloch_vector,
    ket,
    make_werner,
    purity,
    random_frame,
    random_pure,
    relative_phase,
    run_protocol,
    schmidt,
    schmidt_frame,
    schmidt_oracle,
)


def diag_state(theta, phase=0.0):
    return PureState(
        2, np.array([math.cos(theta), 0, 0, math.sin(theta) * np.exp(1j * phase)])
    )


def test_schmidt_oracle_product():
    theta, _, _ = schmidt_oracle(ket("00"))
    assert theta < 1e-9


def test_schmidt_oracle_bell():
    theta, _, _ = schmidt_oracle(bell_phi_plus())
    assert abs(theta - math.pi / 4) < 1e-9


def test_schmidt_oracle_diagonal():
    theta, (a, a_perp), (b, b_perp) = schmidt_oracle(diag_state(math.pi / 8))
    assert abs(theta - math.pi / 8) < 1e-9
    assert abs(abs(a[0]) - 1) < 1e-9 and abs(abs(b[0]) - 1) < 1e-9


def test_schmidt_oracle_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = random_pure(2, rng)
        theta, (a, a_perp), (b, b_perp) = schmidt_oracle(psi)
        rebuilt = math.cos(theta) * np.kron(a, b) + math.sin(theta) * np.kron(a_perp, b_perp)
        assert np.max(np.abs(rebuilt - psi.amplitudes)) < 1e-8
        assert abs(np.vdot(a, a_perp)) < 1e-9
        assert abs(np.vdot(b, b_perp)) < 1e-9


def test_bloch_to_basis_conventions():
    assert np.allclose(bloch_to_basis([0, 0, 1]), (0.0, 0.0))
    xi, phi = bloch_to_basis([1, 0, 0])
    assert abs(xi - math.pi / 4) < 1e-12 and abs(phi) < 1e-12
    xi, phi = bloch_to_basis([0, 1, 0])
    assert abs(xi - math.pi / 4) < 1e-12 and abs(phi - math.pi / 2) < 1e-12


def test_bloch_to_basis_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        xi, phi = bloch_to_basis(v)
        back = np.array(
            [
                math.sin(2 * xi) * math.cos(phi),
                math.sin(2 * xi) * math.sin(phi),
                math.cos(2 * xi),
            ]
        )
        assert np.max(np.abs(back - v)) < 1e-9
        assert 0 <= xi <= math.pi / 2 and 0 <= phi < 2 * math.pi


def test_bloch_to_basis_pole_phase_is_zero():
    # at a pole the transverse components are rounding noise, not a phase
    for v in ([1e-17, -1e-17, 1], [-1e-17, 1e-17, 1], [0, 0, -1]):
        _, phi = bloch_to_basis(v)
        assert phi == 0


def test_bloch_to_basis_degenerate():
    with pytest.raises(DegenerateDirection):
        bloch_to_basis([0, 0, 0])


# The frame's oracle: build the basis pair, then the z/y/x-like operators
# from it, and read each operator's Bloch direction off the Paulis.


def basis_from_angles(xi: float, phi: float, perp_phase: float = 0.0):
    """The basis pair (|a>, |a_perp>) for given angles; perp_phase multiplies
    the perpendicular vector (a pure convention choice)."""
    a = np.array([math.cos(xi), cmath.exp(1j * phi) * math.sin(xi)])
    a_perp = cmath.exp(1j * perp_phase) * np.array(
        [math.sin(xi), -cmath.exp(1j * phi) * math.cos(xi)]
    )
    return a, a_perp


def operator_direction(op: np.ndarray) -> np.ndarray:
    """Bloch direction of a traceless single-qubit involution."""
    return np.array([float(np.trace(PAULIS[ax] @ op).real) / 2.0 for ax in ("x", "y", "z")])


def pair_directions(v0: np.ndarray, v1: np.ndarray) -> dict:
    """Directions of the z/y/x-like operators built from a basis pair."""
    z_op = np.outer(v0, np.conjugate(v0)) - np.outer(v1, np.conjugate(v1))
    y_op = 1j * np.outer(v1, np.conjugate(v0)) - 1j * np.outer(v0, np.conjugate(v1))
    x_op = np.outer(v0, np.conjugate(v1)) + np.outer(v1, np.conjugate(v0))
    return {"z": operator_direction(z_op), "y": operator_direction(y_op), "x": operator_direction(x_op)}


def oracle_frame(xi: float, phi: float) -> np.ndarray:
    dirs = pair_directions(*basis_from_angles(xi, phi, schmidt.PERP_PHASE))
    return np.array([dirs[axis] for axis in schmidt.FRAME_ROWS])


@pytest.mark.parametrize("chi", [0.0, 0.7, math.pi / 2])
def test_schmidt_frame_matches_oracle(monkeypatch, chi):
    monkeypatch.setattr(schmidt, "PERP_PHASE", chi)
    rng = np.random.default_rng(3)
    directions = [v / np.linalg.norm(v) for v in rng.standard_normal((300, 3))]
    directions += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]  # the poles
    for v in directions:
        xi, phi = bloch_to_basis(v)
        a, a_perp = basis_from_angles(xi, phi, chi)
        assert abs(np.vdot(a, a) - 1) < 1e-12 and abs(np.vdot(a_perp, a_perp) - 1) < 1e-12
        assert abs(np.vdot(a, a_perp)) < 1e-12
        frame = schmidt_frame(xi, phi)
        assert np.max(np.abs(frame - oracle_frame(xi, phi))) < 1e-15
        assert np.max(np.abs(frame[0] - v)) < 1e-9
        assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-15
        assert abs(np.linalg.det(frame[::-1]) - 1) < 1e-15  # (x', y', z') is right-handed


def test_filter_identity_strength():
    rho = bell_phi_plus().density()
    out, p = apply_filter(rho, FilterOp(1, 1.0))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12
    assert abs(p - 1.0) < 1e-12


def test_filter_small_eps_limit():
    rho = apply_frame(bell_phi_plus(), random_frame(2, 3)).density()
    out, p = apply_filter(rho, FilterOp(1, 1e-4))
    # Alice marginal approaches a pure state
    assert abs(np.linalg.norm(bloch_vector(out, 0)) - 1) < 1e-6
    assert abs(purity(out) - 1) < 1e-9


def test_filter_bloch_norm_formula():
    for eps in (0.25, 0.5, 0.9):
        rho = apply_frame(bell_phi_plus(), random_frame(2, 4)).density()
        out, p = apply_filter(rho, FilterOp(1, eps))
        expect = (1 - eps**2) / (1 + eps**2)
        assert abs(np.linalg.norm(bloch_vector(out, 0)) - expect) < 1e-9
        assert abs(p - (1 + eps**2) / 2) < 1e-9
        assert 0 < p <= 1


def test_filter_validation():
    with pytest.raises(DomainError):
        FilterOp(1, 0.0)
    with pytest.raises(DomainError):
        FilterOp(1, 1.5)
    with pytest.raises(ZeroSuccess):
        apply_filter(ket("01").density(), FilterOp(1, 1e-7))
    # The protocol checks its filter's strength before it runs, even when no
    # filter fires (this state's Bloch vectors are long enough).
    source = MeasurementSource(diag_state(0.5).density())
    for eps in (5, math.nan, 0.0):
        with pytest.raises(DomainError):
            run_protocol(source, filter_eps=eps)
    assert "filter" not in run_protocol(source).details


def test_relative_phase_cases():
    assert relative_phase(0.0, [0.3, 0.1, 0.2]) == 0.0
    # diagonal state with phase 0: T_y'y'' = -sin(2 theta), denominator sin(2 theta)
    theta = math.pi / 8
    psi = diag_state(theta)
    rho = psi.density()
    t_yy = float(
        np.einsum(
            "ij,ji->",
            rho.matrix,
            np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]),
        ).real
    )
    bloch = bloch_vector(rho, 0)
    assert abs(abs(relative_phase(t_yy, bloch)) - 1.0) < 1e-9
    with pytest.raises(DegenerateDenominator):
        relative_phase(0.1, [0, 0, 1 - 1e-8])


def test_protocol_known_theta():
    psi = diag_state(math.pi / 6)
    for seed in range(5):
        framed = apply_frame(psi, random_frame(2, seed))
        result = run_protocol(MeasurementSource(framed.density()))
        assert result.detected
        assert abs(result.sum_of_squares - 1.75) < 1e-6


def test_protocol_maximally_entangled_filters():
    framed = apply_frame(bell_phi_plus(), random_frame(2, 17))
    result = run_protocol(MeasurementSource(framed.density()))
    assert result.details.get("filter") is not None
    assert result.detected
    # filtered state has theta = arctan(eps): sum = 1 + (2 eps/(1+eps^2))^2
    assert abs(result.sum_of_squares - 1.64) < 1e-9


def test_protocol_product_not_detected():
    prod = PureState(2, np.kron([1, 0], [0, 1]).astype(complex))
    framed = apply_frame(prod, random_frame(2, 23))
    result = run_protocol(MeasurementSource(framed.density()))
    assert not result.detected
    assert result.sum_of_squares <= 1 + 1e-9


def test_protocol_detects_entangled_pure_states():
    # 1000 seeded entangled states in random frames: 100% detection and the
    # sum matches 1 + sin^2(2 theta) to 1e-6
    rng = np.random.default_rng(20260808)
    count = 0
    while count < 1000:
        psi = random_pure(2, rng)
        theta = schmidt_oracle(psi)[0]
        if theta < 0.05:
            continue
        count += 1
        framed = apply_frame(psi, random_frame(2, rng))
        rho = framed.density()
        result = run_protocol(MeasurementSource(rho))
        assert result.detected
        target_theta = protocol_target_theta(result, psi, rho)
        assert abs(result.sum_of_squares - (1 + math.sin(2 * target_theta) ** 2)) < 1e-6


def test_protocol_convention_independent(monkeypatch):
    rng = np.random.default_rng(9)
    for seed in range(10):
        psi = random_pure(2, rng)
        framed = apply_frame(psi, random_frame(2, rng))
        rho = framed.density()
        sums, x_rows = [], []
        for perp_phase in (0.0, math.pi, 1.3):
            monkeypatch.setattr(schmidt, "PERP_PHASE", perp_phase)
            sums.append(run_protocol(MeasurementSource(rho)).sum_of_squares)
            x_rows.append(schmidt_frame(0.3, 1.1)[2])
        assert max(sums) - min(sums) < 1e-9
        # the patch reaches the frame, so the sums agree for a reason
        assert min(np.linalg.norm(x_rows[i] - x_rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))) > 0.5


def test_protocol_transcript_structure():
    framed = apply_frame(diag_state(0.5), random_frame(2, 31))
    result = run_protocol(MeasurementSource(framed.density()))
    local = [r for r in result.records if "0" in r.index]
    assert len(local) == 6  # one Bloch stage, no filter
    assert [r.index for r in result.full_records][:2] == [("z", "z"), ("y", "y")]
    assert result.steps == len(result.full_records)


def test_protocol_phase_gated_mode():
    # phase near pi/2 makes T_y'y'' vanish; the gated variant needs the extra pair
    psi = diag_state(0.5, phase=math.pi / 2)
    result = run_protocol(MeasurementSource(psi.density()), always_extra=False)
    assert result.detected
    assert ("x", "y") in [r.index for r in result.full_records]
    # with a plain phase the gated variant stops after two measurements
    result2 = run_protocol(MeasurementSource(diag_state(0.5).density()), always_extra=False)
    assert result2.detected and result2.steps == 2


def test_protocol_mixed_state_graceful():
    # one-sided Bloch degeneracy cannot be calibrated; run reports not-detected
    rho = make_werner(0.2)
    result = run_protocol(MeasurementSource(rho))
    assert not result.detected


@pytest.mark.parametrize("shots", [None, 4500])
def test_protocol_oracle_frame_equivalence(monkeypatch, shots):
    # The whole protocol, once with the closed-form frame and once with the
    # oracle's, on unfiltered, filtered and product inputs in both modes.
    rng = np.random.default_rng(11)
    psis = [random_pure(2, rng) for _ in range(8)] + [bell_phi_plus(), ket("01"), diag_state(0.5, math.pi / 2)]
    for k, psi in enumerate(psis):
        rho = apply_frame(psi, random_frame(2, rng)).density()
        for always_extra in (True, False):
            results = []
            for frame in (schmidt_frame, oracle_frame):
                monkeypatch.setattr(schmidt, "schmidt_frame", frame)
                source = MeasurementSource(rho, shots, np.random.default_rng(k))
                results.append(run_protocol(source, always_extra=always_extra))
            closed, oracle = results
            assert (closed.verdict, closed.steps, closed.strategy) == (oracle.verdict, oracle.steps, oracle.strategy)
            assert list(closed.details) == list(oracle.details)
            assert [r.index for r in closed.records] == [r.index for r in oracle.records]
            assert max(abs(a.value - b.value) for a, b in zip(closed.records, oracle.records)) < 1e-15


SHOT_TRANSCRIPT_DIGEST = "e6f0405e49c0d71cde355d1d6548c08b46a474e9e1497623d1a6acfbf25dd46e"


def test_protocol_shot_mode_transcripts_pinned():
    # One digest over every record, verdict and details key of 200 runs at
    # 4500 shots (100 Haar-random, 50 Bell, always filtered, and 50 product
    # states, each framed): how the frame is computed must not move a bit.
    rng = np.random.default_rng(20261019)
    psis = [random_pure(2, rng) for _ in range(100)] + [bell_phi_plus()] * 50 + [ket("01")] * 50
    h = hashlib.sha256()
    for k, psi in enumerate(psis):
        rho = apply_frame(psi, random_frame(2, rng)).density()
        result = run_protocol(MeasurementSource(rho, 4500, np.random.default_rng(k)))
        for r in result.records:
            h.update(f"{r.index}|{r.value.hex()}|{r.stderr.hex()};".encode())
        h.update(f"{result.verdict}|{sorted(result.details)}".encode())
        h.update(result.details["identity_error"].hex().encode() if "identity_error" in result.details else b"-")
    assert h.hexdigest() == SHOT_TRANSCRIPT_DIGEST


@pytest.mark.parametrize("multiplier", BAD_ERROR_MULTIPLIERS)
def test_protocol_refuses_a_bad_error_multiplier_before_measuring(multiplier):
    with pytest.raises(DomainError):
        run_protocol(Unmeasured(2), error_multiplier=multiplier)


def test_bloch_to_basis_needs_three_components():
    with pytest.raises(DimensionMismatch):
        bloch_to_basis([1, 0])
