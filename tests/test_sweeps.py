"""The exact purity sweep runs in batches; these tests hold it to the per-state functions."""

import hashlib

import numpy as np
import pytest

from entdetect import (
    DensityMatrix,
    DomainError,
    MeasurementSource,
    NotHermitian,
    all_full_indices,
    apply_frame,
    default_tree_2q,
    ket,
    make_colored,
    make_werner,
    ppt_verdict,
    purity,
    random_frame,
    random_mixed,
    run_tree,
)
from entdetect.cli import main
from entdetect.correlations import pauli_tensor, pauli_tensors
from entdetect.oracles import ppt_test
from entdetect.states import check_density, purities
from entdetect.sweeps import CompiledTree

# SHA-256 of the CLI's standard output, as produced by the per-state
# purity-sweep loop that the batched sweep replaced.
PINNED = {
    ("sweep-purity", "--samples", "1000", "--seed", "1000", "--format", "json"):
        "6b4125cff21665caac83b8d440da372277794f5c48c1e95271ff42d83ce92590",
    ("sweep-werner", "--format", "json"):
        "03897220f871d0ae285801087be5c31a089f0c1735e6ab56a60834594c2d658c",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_sweep_output_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED[argv]


def _ginibre(rank, count=60):
    rng = np.random.default_rng(rank)
    return [random_mixed(2, rng, rank=rank) for _ in range(count)]


STATE_SETS = {
    **{f"ginibre-rank-{r}": lambda r=r: _ginibre(r) for r in range(1, 5)},
    "werner-grid": lambda: [make_werner(round(0.005 * i, 10)) for i in range(201)],
    "colored": lambda: [make_colored(p) for p in np.linspace(0.0, 1.0, 41)],
    "framed-products": lambda: [
        apply_frame(ket("00").density(), random_frame(2, 10000 + i)) for i in range(60)
    ],
}


def _assert_walk_matches_run_tree(states, tree) -> list:
    walk = CompiledTree(tree).walk(pauli_tensors(np.array([rho.matrix for rho in states])))
    fulls = all_full_indices(tree.n_qubits)
    runs = [run_tree(MeasurementSource(rho), tree) for rho in states]
    for k, run in enumerate(runs):
        walked = [fulls[j] for j in walk.sequence[k] if j >= 0]
        assert walked == [r.index for r in run.records], f"state {k}"
        assert (walk.detected[k], walk.steps[k]) == (run.detected, run.steps), f"state {k}"
    return runs


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("name", sorted(STATE_SETS))
def test_walk_matches_run_tree(name, threshold):
    _assert_walk_matches_run_tree(STATE_SETS[name](), default_tree_2q(threshold))


def test_walk_matches_run_tree_in_the_priority_stage():
    rng = np.random.default_rng(7)
    states = [random_mixed(2, rng, rank=int(rng.integers(1, 5))) for _ in range(400)]
    runs = _assert_walk_matches_run_tree(states, default_tree_2q())
    reached = [run for run in runs if run.strategy == "tree+priority"]
    assert len(reached) >= 40
    assert any(run.detected for run in reached)


def test_stack_helpers_match_per_state_functions():
    rng = np.random.default_rng(11)
    states = [random_mixed(2, rng, rank=int(rng.integers(1, 5))) for _ in range(200)]
    stack = np.array([rho.matrix for rho in states])
    check_density(stack)
    entangled, min_eig = ppt_test(stack)
    tensors = pauli_tensors(stack)
    for k, rho in enumerate(states):
        verdict = ppt_verdict(rho)
        assert (entangled[k], min_eig[k]) == (verdict.entangled, verdict.min_pt_eigenvalue)
        assert np.array_equal(tensors[k], pauli_tensor(rho).ravel())
    assert purities(stack).tolist() == [purity(rho) for rho in states]


def test_check_density_runs_each_check_over_the_stack():
    good = np.eye(4) / 4
    negative = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
    skew = good.astype(complex)
    skew[0, 1] = 1e-3
    with pytest.raises(NotHermitian):
        check_density(np.array([good, negative, skew]))
    more_negative = np.diag([0.75, 0.5, 0.5, -0.75]).astype(complex)
    with pytest.raises(DomainError, match="minimum eigenvalue -5.000e-01"):
        check_density(np.array([good, negative, more_negative]))
    with pytest.raises(DomainError, match="minimum eigenvalue"):
        DensityMatrix(2, negative)
