"""Schmidt-basis calibration and verification for two-qubit states.

The procedure has two stages. Calibration measures both local Bloch
vectors (6 local measurements); when either norm is too small to define a
basis, a local filter F = |b0><b0| + eps |b1><b1| is applied on one side
and the Bloch stage is repeated on the conditioned state (for pure states
the two norms coincide, so this is the maximally-entangled case). The
Bloch directions determine the local measurement bases

    |a>       = cos(xi) |0> + e^{i phi} sin(xi) |1>
    |a_perp>  = sin(xi) |0> - e^{i phi} cos(xi) |1>

(the perpendicular vector carries the extra phase chi = PERP_PHASE, a pure
convention choice that the tests vary to assert convention independence).
The rotated frame z', y', x' of |a><a| - |a_perp><a_perp|, i|a_perp><a| -
i|a><a_perp| and |a><a_perp| + |a_perp><a| has the closed form (schmidt_frame)
    z' = (sin 2xi cos phi, sin 2xi sin phi, cos 2xi)
    x' = (-cos chi cos 2xi cos phi + sin chi sin phi,
          -cos chi cos 2xi sin phi - sin chi cos phi, cos chi sin 2xi)
    y' = z' x x'

Verification then measures the correlations along the rotated frames:
T_z'z'' and T_y'y'' always; by default also T_x'y'', which makes the
accumulated sum exactly 1 + sin^2(2 theta) for pure states regardless of
the unknown relative phase, at the price of one extra measurement. The
phase-gated mode instead estimates cos(phase) from T_y'y'' and only
measures the extra pair when it is small.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TOL
from .correlations import (
    CorrelationRecord,
    CriterionState,
    DetectionResult,
    check_error_multiplier,
    criterion_add,
)
from .errors import DegenerateDenominator, DegenerateDirection, DimensionMismatch
from .sources import measure_bloch
from .states import FilterOp, PureState

# The protocol's fixed settings (see run_protocol and bloch_to_basis).
FILTER_PARTY = 1
VANISHING_THRESHOLD = 0.1
SHOT_VANISHING_FLOOR = 0.2
PHASE_THRESHOLD = 0.3
MIN_BLOCH_NORM = 1e-9
PERP_PHASE = 0.0
FRAME_ROWS = "zyx"  # primed axes of schmidt_frame's rows


def schmidt_oracle(psi: PureState):
    """Exact Schmidt decomposition of a two-qubit pure state via SVD.

    Returns (theta, (a, a_perp), (b, b_perp)) with cos(theta) the largest
    singular value, theta in [0, pi/4], and
    psi = cos(theta) a x b + sin(theta) a_perp x b_perp exactly.
    """
    if psi.n_qubits != 2:
        raise DimensionMismatch("Schmidt decomposition defined for 2 qubits here")
    m = psi.amplitudes.reshape(2, 2)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    theta = math.acos(min(1.0, max(0.0, float(s[0]))))
    return theta, (u[:, 0], u[:, 1]), (vh[0, :], vh[1, :])


def bloch_to_basis(alpha) -> tuple[float, float]:
    """Basis angles (xi, phi) whose |a> points along the Bloch direction alpha.

    alpha = (sin 2xi cos phi, sin 2xi sin phi, cos 2xi) after normalization;
    xi lies in [0, pi/2] and phi in [0, 2 pi); phi is 0 at the poles.
    """
    a = np.asarray(alpha, dtype=float)
    if a.shape != (3,):
        raise DimensionMismatch("Bloch direction must have 3 components")
    norm = float(np.linalg.norm(a))
    if norm < MIN_BLOCH_NORM:
        raise DegenerateDirection(f"Bloch norm {norm:.3e} below {MIN_BLOCH_NORM:.1e}")
    a = a / norm
    xi = 0.5 * math.acos(min(1.0, max(-1.0, a[2])))
    # At a pole the transverse part is rounding noise and phi is arbitrary.
    if math.hypot(a[0], a[1]) < TOL.equality:
        return xi, 0.0
    phi = math.atan2(a[1], a[0]) % (2.0 * math.pi)
    return xi, phi


def schmidt_frame(xi: float, phi: float) -> np.ndarray:
    """Rows z', y', x' of the frame set by the basis angles (see the module
    docstring), read in closed form; PERP_PHASE is looked up per call."""
    chi = PERP_PHASE
    s2, c2 = math.sin(2.0 * xi), math.cos(2.0 * xi)
    sp, cp = math.sin(phi), math.cos(phi)
    sc, cc = math.sin(chi), math.cos(chi)
    z = (s2 * cp, s2 * sp, c2)
    x = (-cc * c2 * cp + sc * sp, -cc * c2 * sp - sc * cp, cc * s2)
    # y' = z' x x', component-wise: np.cross costs more than the rest here.
    y = (z[1] * x[2] - z[2] * x[1], z[2] * x[0] - z[0] * x[2], z[0] * x[1] - z[1] * x[0])
    return np.array((z, y, x))


def relative_phase(t_yy: float, bloch_a) -> float:
    """cos(phase) = T_y'y'' / sqrt(1 - |bloch|^2), clamped to [-1, 1].

    The denominator is sqrt(1 - T_x0^2 - T_y0^2 - T_z0^2); it vanishes for
    near-product marginals, where the phase is undefined.
    """
    b = np.asarray(bloch_a, dtype=float)
    denom_sq = 1.0 - float(b @ b)
    if denom_sq < TOL.phase_denominator:
        raise DegenerateDenominator(
            f"1 - |bloch|^2 = {denom_sq:.3e} below {TOL.phase_denominator:.1e}"
        )
    return float(np.clip(t_yy / math.sqrt(denom_sq), -1.0, 1.0))


def run_protocol(
    source, *, filter_eps: float = 0.5, always_extra: bool = True, error_multiplier: float = 1.0
) -> DetectionResult:
    """Full calibration-plus-verification run against a measurement source.

    The filter (strength filter_eps, on party FILTER_PARTY) applies when a
    Bloch norm is below VANISHING_THRESHOLD in exact mode, or below
    max(SHOT_VANISHING_FLOOR, 3 * propagated Bloch error) in shot mode --
    the floor keeps badly-resolved Bloch directions (which would corrupt the
    verification bases) on the filtering path. always_extra=True measures
    T_x'y'' unconditionally; False gives the phase-gated minimal variant
    (extra pair only when |cos(phase)| < PHASE_THRESHOLD).

    The transcript lists, in order, the 6 local Bloch measurements, the
    repeated Bloch stage when filtering was applied, and the verification
    correlations in the rotated frames (labelled by their primed axes).
    Detection means the accumulated sum of squared full correlations exceeds
    1 (after subtracting error_multiplier propagated errors in shot mode).
    """
    if source.n_qubits != 2:
        raise DimensionMismatch("the protocol runs on two-qubit sources")
    filter_op = FilterOp(FILTER_PARTY, filter_eps)
    check_error_multiplier(error_multiplier)
    details = {"mode": "always-extra" if always_extra else "phase-gated"}

    transcript, (bloch_a, bloch_b), (err_a, err_b) = measure_bloch(source)
    if source.shots is None:
        thr_a = thr_b = VANISHING_THRESHOLD
    else:
        thr_a = max(SHOT_VANISHING_FLOOR, 3.0 * float(np.linalg.norm(err_a)))
        thr_b = max(SHOT_VANISHING_FLOOR, 3.0 * float(np.linalg.norm(err_b)))
    details["vanishing_thresholds"] = [thr_a, thr_b]

    norm_a, norm_b = float(np.linalg.norm(bloch_a)), float(np.linalg.norm(bloch_b))
    if norm_a < thr_a or norm_b < thr_b:
        p_succ = source.apply_filter(filter_op)
        details["filter"] = {"party": FILTER_PARTY, "eps": filter_eps, "success_probability": p_succ}
        records, (bloch_a, bloch_b), (err_a, err_b) = measure_bloch(source)
        transcript += records
        norm_a, norm_b = float(np.linalg.norm(bloch_a)), float(np.linalg.norm(bloch_b))
        if norm_a < thr_a or norm_b < thr_b:
            details["abort"] = "bloch-degenerate"
            return DetectionResult(tuple(transcript), False, "schmidt", details)

    xi_a, phi_a = bloch_to_basis(bloch_a)
    xi_b, phi_b = bloch_to_basis(bloch_b)
    frame_a = schmidt_frame(xi_a, phi_a)
    frame_b = schmidt_frame(xi_b, phi_b)
    details["frame"] = {
        "xi_a": xi_a, "phi_a": phi_a, "xi_b": xi_b, "phi_b": phi_b,
        "theta_estimate": 0.5 * math.acos(min(1.0, norm_a)),
    }

    crit = CriterionState()

    def verify(axis_a, axis_b) -> bool:
        rows = [frame_a[FRAME_ROWS.index(axis_a)], frame_b[FRAME_ROWS.index(axis_b)]]
        value = source.measure_directions(rows)
        transcript.append(CorrelationRecord((axis_a, axis_b), value, source.shots))
        return criterion_add(crit, transcript[-1], error_multiplier)

    verify("z", "z")
    detected = verify("y", "y")

    try:
        cos_phase = relative_phase(transcript[-1].value, bloch_a)  # T_y'y''
    except DegenerateDenominator:
        cos_phase = None
    details["cos_phase"] = cos_phase
    details["frame"]["relative_phase"] = None if cos_phase is None else math.acos(cos_phase)

    small_phase = cos_phase is not None and abs(cos_phase) < PHASE_THRESHOLD
    if always_extra or (not detected and small_phase):
        detected = verify("x", "y") or verify("y", "x")

    # Error of the accumulated sum as an estimator of the pure-state identity
    # 1 + sin^2(2 theta): besides the verification-shot term this includes the
    # calibration noise propagated through the basis choice, whose leading
    # effect is a quadratic tilt loss of order (bloch error / bloch norm)^2.
    sdir_sq = float(err_a @ err_a) / float(bloch_a @ bloch_a) + float(err_b @ err_b) / float(
        bloch_b @ bloch_b
    )
    basis_term = 2.0 * sdir_sq * max(1.0, crit.running_sum)
    details["identity_error"] = math.sqrt(crit.error**2 + basis_term**2)
    return DetectionResult(tuple(transcript), detected, "schmidt", details)
