"""The checker rejects one corrupted output per check.

    python3 -m pytest -q bench/test_checker.py

Each valid output below is built from the checker's own reference values or
from a known closed form; each test corrupts one field and expects the
matching check to fire.
"""

import math

import numpy as np
import pytest

import checker

GHZ3 = np.zeros(8, dtype=complex)
GHZ3[[0, 7]] = 1 / math.sqrt(2)
GHZ3_RHO = np.outer(GHZ3, GHZ3.conj())


def bloch_output(rho=GHZ3_RHO, n=3):
    """A valid exact-mode run that measured every full index."""
    ref = checker.full_correlations(rho)
    records = sorted(ref.items())
    total = sum(v * v for _, v in records)
    return dict(full_records=records, sum_of_squares=total, detected=total > 1.0, n_qubits=n, reference=ref)


def test_reference_values():
    ref = checker.full_correlations(GHZ3_RHO)
    assert ref["zzz"] == pytest.approx(0.0)
    assert ref["xxx"] == pytest.approx(1.0)
    assert sum(v * v for v in ref.values()) == pytest.approx(4.0)
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    assert checker.sin2_2theta(bell) == pytest.approx(1.0)
    assert checker.sin2_2theta(bell, 1, 0.5) == pytest.approx(0.64)
    assert checker.sin2_2theta(np.array([1, 0, 0, 0])) == pytest.approx(0.0)
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    pt = checker.partial_transpose(np.outer(singlet, singlet))
    assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5)


def test_bloch_valid_output_passes():
    assert checker.check_bloch_start(**bloch_output()) == []


def test_bloch_rejects_wrong_value():
    out = bloch_output()
    idx, value = out["full_records"][0]
    out["full_records"][0] = (idx, value + 1e-6)
    out["sum_of_squares"] = sum(v * v for _, v in out["full_records"])
    assert any("reference" in p for p in checker.check_bloch_start(**out))


def test_bloch_rejects_non_full_index():
    out = bloch_output()
    out["full_records"][0] = ("x0z", 0.0)
    assert any("not a full" in p for p in checker.check_bloch_start(**out))


def test_bloch_rejects_repeated_index():
    out = bloch_output()
    out["full_records"][1] = out["full_records"][0]
    out["sum_of_squares"] = sum(v * v for _, v in out["full_records"])
    assert any("twice" in p for p in checker.check_bloch_start(**out))


def test_bloch_rejects_wrong_sum():
    out = bloch_output()
    out["sum_of_squares"] += 1e-6
    assert any("sum_of_squares" in p for p in checker.check_bloch_start(**out))


def test_bloch_rejects_wrong_verdict():
    out = bloch_output()
    out["detected"] = not out["detected"]
    assert any("detected" in p for p in checker.check_bloch_start(**out))
    mixed = np.eye(8) / 8
    out = bloch_output(mixed)
    assert out["detected"] is False
    out["detected"] = True
    assert any("detected" in p for p in checker.check_bloch_start(**out))


THETA = 0.3
SCHMIDT_AMPS = np.array([math.cos(THETA), 0, 0, math.sin(THETA)])


def schmidt_output(**changes):
    out = dict(
        sum_of_squares=1.0 + math.sin(2 * THETA) ** 2,
        identity_error=0.01,
        detected=True,
        filter_party=None,
        filter_eps=None,
        amps=SCHMIDT_AMPS,
        product_input=False,
    )
    out.update(changes)
    return out


def test_schmidt_valid_output_passes():
    assert checker.check_schmidt(**schmidt_output()) == []
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    filtered = schmidt_output(amps=bell, filter_party=1, filter_eps=0.5, sum_of_squares=1.64)
    assert checker.check_schmidt(**filtered) == []
    product = schmidt_output(amps=np.array([1, 0, 0, 0]), sum_of_squares=1.0, detected=False, product_input=True)
    assert checker.check_schmidt(**product) == []


def test_schmidt_rejects_sum_off_identity():
    out = schmidt_output(sum_of_squares=1.0 + math.sin(2 * THETA) ** 2 + 0.06)
    assert any("sin^2" in p for p in checker.check_schmidt(**out))


def test_schmidt_rejects_unfiltered_theta_on_filtered_run():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    out = schmidt_output(amps=bell, filter_party=1, filter_eps=0.5, sum_of_squares=2.0)
    assert any("sin^2" in p for p in checker.check_schmidt(**out))


def test_schmidt_rejects_bad_identity_error():
    assert checker.check_schmidt(**schmidt_output(identity_error=None))
    assert checker.check_schmidt(**schmidt_output(identity_error=float("nan")))
    assert checker.check_schmidt(**schmidt_output(identity_error=-0.01))


def test_schmidt_rejects_detected_product():
    out = schmidt_output(amps=np.array([1, 0, 0, 0]), sum_of_squares=1.0, detected=True, product_input=True)
    assert checker.check_schmidt(**out) == [checker.KNOWN_FAULT]


def sweep_rows():
    """Ten purity bins whose counts add up to the expected entangled count."""
    counts = [0, 3, 20, 45, 70, 90, 110, 130, 154, 300]
    rows = []
    for b, c in enumerate(counts):
        if c == 0:
            continue
        fraction = min(1.0, 0.1 * b) if b < 9 else 1.0
        rows.append(dict(parameter=0.25 + 0.075 * (b + 0.5), fraction=fraction,
                         mean_steps=None if fraction == 0 else 5.0, n_samples=c, seed=0))
    return rows


def test_sweep_valid_output_passes():
    rows = sweep_rows()
    assert sum(r["n_samples"] for r in rows) == 922
    assert checker.check_purity_sweep(rows, 1000) == []


def test_sweep_rejects_fraction_out_of_range():
    rows = sweep_rows()
    rows[2]["fraction"] = 1.2
    assert any("fraction" in p for p in checker.check_purity_sweep(rows, 1000))


def test_sweep_rejects_mean_steps_out_of_range():
    rows = sweep_rows()
    rows[3]["mean_steps"] = 1.5
    assert any("mean_steps" in p for p in checker.check_purity_sweep(rows, 1000))
    rows = sweep_rows()
    rows[3]["mean_steps"] = 9.5
    assert any("mean_steps" in p for p in checker.check_purity_sweep(rows, 1000))
    rows = sweep_rows()
    rows[3]["mean_steps"] = None
    assert any("mean_steps" in p for p in checker.check_purity_sweep(rows, 1000))


def test_sweep_rejects_low_top_bin():
    rows = sweep_rows()
    rows[-1]["fraction"] = 0.9
    assert any("top purity bin" in p for p in checker.check_purity_sweep(rows, 1000))


def test_sweep_rejects_entangled_count():
    rows = sweep_rows()
    rows[-1]["n_samples"] += 60
    assert any("entangled count" in p for p in checker.check_purity_sweep(rows, 1000))
    assert checker.check_purity_sweep([], 1000)
