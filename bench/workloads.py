"""The three benchmark workloads: inputs, operations and their checks.

A workload builds its inputs from the benchmark seed through entdetect's own
constructors and hands out rounds of operations. An operation is a callable
that drives entdetect's public API once, the number of input states it
brings to a result, and a check that compares its output with the
independent checker. Entry points are looked up on their modules at call
time (``tree.run_with_bloch_start``, ``schmidt.run_protocol``, ``cli.main``)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checker
from entdetect import cli, schmidt, sources, states, tree

SWEEP_SAMPLES = 1000
SHOTS = 4500
# The product inputs of schmidt-shots do not depend on the benchmark seed:
# the protocol's false positives on them are a known fault, and a fixed set
# makes their count repeat exactly in every run.
PRODUCT_SEED = 20111115


@dataclass
class Op:
    run: Callable
    check: Callable
    states: int = 1


@dataclass
class Workload:
    round: Callable  # round number -> list of Op
    pool_states: int  # input states built at set-up
    trace_rounds: int  # rounds the traced pass runs, whatever the speed


def _framed(state, rng):
    return states.apply_frame(state, states.random_frame(state.n_qubits, rng))


def _white_noise(rho, p):
    d = rho.dim
    return states.DensityMatrix(rho.n_qubits, p * rho.matrix + (1.0 - p) * np.eye(d) / d)


# --- purity-sweep ---------------------------------------------------------


def _sweep_op(seed: int) -> Op:
    argv = ["sweep-purity", "--samples", str(SWEEP_SAMPLES), "--seed", str(seed), "--format", "json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return [f"sweep-purity exited with code {code}"]
        return checker.check_purity_sweep(json.loads(text), SWEEP_SAMPLES)

    return Op(run, check, SWEEP_SAMPLES)


def purity_sweep(seed: int) -> Workload:
    """One exact-mode sweep-purity command per round, each with its own
    seed; the traced pass runs three."""
    return Workload(lambda k: [_sweep_op(seed * 1000 + k)], 0, 3)


# --- bloch-start-3q4q -----------------------------------------------------


def _bloch_op(rho) -> Op:
    n = rho.n_qubits
    reference = {}

    def run():
        return tree.run_with_bloch_start(sources.MeasurementSource(rho))

    def check(result):
        if not reference:
            reference.update(checker.full_correlations(rho.matrix))
        full = [("".join(r.index), r.value) for r in result.full_records]
        return checker.check_bloch_start(full, result.sum_of_squares, result.detected, n, reference)

    return Op(run, check)


def bloch_start(seed: int) -> Workload:
    """48 framed states per round, a quarter of them on four qubits.

    Three qubits: W, G, 16 Haar-random pure states and 18 white-noise
    mixtures of these; four qubits: Dicke 4:1 and 4:2, 5 Haar-random pure
    states and 5 mixtures. Mixing weights are uniform in [0.4, 1).
    """
    rng = np.random.default_rng([seed, 2])
    three = [states.make_w(), states.make_g()] + [states.random_pure(3, rng) for _ in range(16)]
    four = [states.make_dicke(4, 1), states.make_dicke(4, 2)] + [states.random_pure(4, rng) for _ in range(5)]
    sized = []
    for pures, n_mixed in ((three, 18), (four, 5)):
        rhos = [_framed(p.density(), rng) for p in pures]
        picks = rng.integers(0, len(pures), size=n_mixed)
        weights = rng.uniform(0.4, 1.0, size=n_mixed)
        rhos += [_framed(_white_noise(pures[i].density(), w), rng) for i, w in zip(picks, weights)]
        sized.append(rhos)
    # Three 3-qubit states, then one 4-qubit state, repeated.
    pool = []
    for i, rho4 in enumerate(sized[1]):
        pool += sized[0][3 * i : 3 * i + 3] + [rho4]
    ops = [_bloch_op(rho) for rho in pool]
    return Workload(lambda k: ops, len(pool), 1)


# --- schmidt-shots --------------------------------------------------------


def _schmidt_op(psi, shot_seed: int, product_input: bool) -> Op:
    rho = psi.density()
    amps = psi.amplitudes.copy()

    def run():
        source = sources.MeasurementSource(rho, shots=SHOTS, rng=np.random.default_rng(shot_seed))
        return schmidt.run_protocol(source)

    def check(result):
        filt = result.details.get("filter")
        if "abort" in result.details:
            return [f"protocol aborted: {result.details['abort']}"]
        return checker.check_schmidt(
            result.sum_of_squares,
            result.details.get("identity_error"),
            result.detected,
            filt["party"] if filt else None,
            filt["eps"] if filt else None,
            amps,
            product_input,
        )

    return Op(run, check)


def _haar_off_filter(rng, min_bloch: float = 0.35):
    """Haar-random pure state whose local Bloch norm is at least min_bloch,
    so that the protocol never filters it and the filtered share is fixed."""
    while True:
        psi = states.random_pure(2, rng)
        s = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
        if s[0] ** 2 - s[1] ** 2 >= min_bloch:
            return psi


def schmidt_shots(seed: int) -> Workload:
    """400 framed pure states per round at 4500 shots: 200 Haar-random (never
    filtered), 100 Bell states (always filtered) and 100 product states, the
    last with inputs and shot seeds independent of the benchmark seed."""
    rng = np.random.default_rng([seed, 3])
    shot_seeds = np.random.SeedSequence([seed, 3]).generate_state(300)
    fixed = np.random.default_rng(PRODUCT_SEED)
    product_seeds = np.random.SeedSequence(PRODUCT_SEED).generate_state(100)
    haar = [_framed(_haar_off_filter(rng), rng) for _ in range(200)]
    bell = [_framed(states.bell_phi_plus(), rng) for _ in range(100)]
    prod = [_framed(states.ket("00"), fixed) for _ in range(100)]
    ops = [_schmidt_op(p, int(s), False) for p, s in zip(haar + bell, shot_seeds)]
    ops += [_schmidt_op(p, int(s), True) for p, s in zip(prod, product_seeds)]
    # Spread the kinds evenly through the round: H H B P, repeated.
    order = []
    for i in range(100):
        order += [i, 100 + i, 200 + i, 300 + i]
    ops = [ops[i] for i in order]
    return Workload(lambda k: ops, 400, 3)


WORKLOADS = {
    "purity-sweep": purity_sweep,
    "bloch-start-3q4q": bloch_start,
    "schmidt-shots": schmidt_shots,
}
