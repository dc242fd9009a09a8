"""Independent output checks for the entdetect benchmark.

Every reference value here is computed with numpy alone: the checker has
its own Pauli matrices, Kronecker products, partial transpose and SVD, and
never imports entdetect. Each check takes plain data (numbers, strings and
lists taken from the program's output) and returns a list of problems; an
empty list means the output passed.

Regenerate the entangled-share constant with

    python3 bench/checker.py --draws 400000 --seed 20111115
"""

from __future__ import annotations

import argparse
import math
from functools import reduce
from itertools import product

import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Share of PPT-entangled states among two-qubit Ginibre states whose rank is
# drawn uniformly from 1..4 (the purity-sweep ensemble), from 400000 draws of
# entangled_share() with seed 20111115. Its own standard error is 4e-4.
ENTANGLED_SHARE = 0.92211

VALUE_TOL = 1e-9
SUM_TOL = 1e-9
IDENTITY_SIGMAS = 5.0
COUNT_SIGMAS = 5.0
TOP_BIN_MIN_FRACTION = 0.95

# The one failure the benchmark expects today: the shot-mode verdict of the
# Schmidt protocol reports some product inputs as entangled.
KNOWN_FAULT = "product state reported as detected"


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats, np.eye(1, dtype=complex))


def full_correlations(rho) -> dict:
    """Tr[rho sigma_k x ... x sigma_l] for every full index, keyed "xyz..."."""
    rho = np.asarray(rho, dtype=complex)
    n = int(round(math.log2(rho.shape[0])))
    return {
        "".join(idx): float(np.einsum("ij,ji->", rho, kron_all(PAULI[a] for a in idx)).real)
        for idx in product("xyz", repeat=n)
    }


def partial_transpose(rho) -> np.ndarray:
    """Transpose over the second qubit; works on a stack of 4x4 matrices."""
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    t = rho.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1)
    return t.reshape(lead + (4, 4))


def sin2_2theta(amps, filter_party=None, filter_eps=None) -> float:
    """sin^2(2 theta) of a two-qubit pure state, optionally after the local
    filter |0><0| + eps |1><1| on one party, from the state's own SVD."""
    m = np.asarray(amps, dtype=complex).reshape(2, 2)
    if filter_party is not None:
        f = np.diag([1.0, filter_eps])
        m = f @ m if filter_party == 0 else m @ f.T
    s = np.linalg.svd(m, compute_uv=False)
    s = s / np.linalg.norm(s)
    return float(4.0 * (s[0] * s[1]) ** 2)


def check_bloch_start(full_records, sum_of_squares, detected, n_qubits, reference) -> list:
    """Exact-mode Bloch-start run against the reference full tensor.

    full_records is a list of (index string, value) pairs for the
    full-correlation measurements in run order; reference maps every full
    index to its exact value.
    """
    problems = []
    indices = [idx for idx, _ in full_records]
    for idx in indices:
        if len(idx) != n_qubits or any(c not in PAULI for c in idx):
            problems.append(f"index {idx!r} is not a full {n_qubits}-qubit index")
    if len(set(indices)) != len(indices):
        problems.append("an index was measured twice")
    for idx, value in full_records:
        if idx in reference and abs(value - reference[idx]) > VALUE_TOL:
            problems.append(f"T_{idx} = {value!r}, reference {reference[idx]!r}")
    total = sum(v * v for _, v in full_records)
    if abs(sum_of_squares - total) > SUM_TOL:
        problems.append(f"sum_of_squares {sum_of_squares!r} differs from sum of values^2 {total!r}")
    ref_total = sum(v * v for v in reference.values())
    if bool(detected) != (ref_total > 1.0):
        problems.append(f"detected={detected} but the full-tensor sum is {ref_total!r}")
    return problems


def check_schmidt(sum_of_squares, identity_error, detected, filter_party, filter_eps, amps, product_input) -> list:
    """Shot-mode Schmidt protocol: the accumulated sum must match
    1 + sin^2(2 theta) within IDENTITY_SIGMAS reported errors, theta taken
    from the (filtered, when a filter was applied) input state; a product
    input must never be reported as detected."""
    problems = []
    if product_input and detected:
        problems.append(KNOWN_FAULT)
    if identity_error is None or not identity_error >= 0.0:
        problems.append(f"identity_error {identity_error!r} is not a non-negative number")
        return problems
    expected = 1.0 + sin2_2theta(amps, filter_party, filter_eps)
    if not abs(sum_of_squares - expected) <= IDENTITY_SIGMAS * identity_error:
        problems.append(
            f"sum {sum_of_squares!r} vs 1 + sin^2(2 theta) = {expected!r}, "
            f"allowed {IDENTITY_SIGMAS} x {identity_error!r}"
        )
    return problems


def check_purity_sweep(rows, samples) -> list:
    """Exact-mode purity sweep: per-row ranges, the near-pure bin, and the
    entangled count against the ensemble's entangled share."""
    problems = []
    if not rows:
        return ["sweep has no rows"]
    for r in rows:
        if not 0.0 <= r["fraction"] <= 1.0:
            problems.append(f"fraction {r['fraction']!r} outside [0, 1]")
        steps = r["mean_steps"]
        if steps is None:
            if r["fraction"] != 0.0:
                problems.append(f"bin {r['parameter']!r} detected samples but has no mean_steps")
        elif not 2.0 <= steps <= 9.0:
            problems.append(f"mean_steps {steps!r} outside [2, 9]")
        if not (isinstance(r["n_samples"], int) and r["n_samples"] > 0):
            problems.append(f"n_samples {r['n_samples']!r} is not a positive count")
    top = max(rows, key=lambda r: r["parameter"])
    if top["parameter"] < 0.9 or top["fraction"] < TOP_BIN_MIN_FRACTION:
        problems.append(
            f"top purity bin {top['parameter']!r} has fraction {top['fraction']!r} < {TOP_BIN_MIN_FRACTION}"
        )
    count = sum(r["n_samples"] for r in rows)
    mean = samples * ENTANGLED_SHARE
    sigma = math.sqrt(samples * ENTANGLED_SHARE * (1.0 - ENTANGLED_SHARE))
    if abs(count - mean) > COUNT_SIGMAS * sigma:
        problems.append(f"entangled count {count} is more than {COUNT_SIGMAS} sigma from {mean:.1f}")
    return problems


def entangled_share(draws: int, seed: int, batch: int = 50000) -> tuple:
    """Monte Carlo share of PPT-entangled states in the purity-sweep ensemble."""
    rng = np.random.default_rng(seed)
    entangled = 0
    done = 0
    while done < draws:
        k = min(batch, draws - done)
        ranks = rng.integers(1, 5, size=k)
        g = rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))
        g *= (np.arange(4)[None, None, :] < ranks[:, None, None])
        m = g @ np.conjugate(g).swapaxes(-1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        entangled += int(np.count_nonzero(np.linalg.eigvalsh(partial_transpose(m))[:, 0] < -1e-10))
        done += k
    share = entangled / draws
    return share, math.sqrt(share * (1.0 - share) / draws)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Estimate the purity-sweep entangled share")
    parser.add_argument("--draws", type=int, default=400000)
    parser.add_argument("--seed", type=int, default=20111115)
    args = parser.parse_args(argv)
    share, err = entangled_share(args.draws, args.seed)
    print(f"ENTANGLED_SHARE = {share:.5f}  # standard error {err:.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
