"""The sweeps run in batches; these tests hold them to the per-state functions."""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import BAD_ERROR_MULTIPLIERS
from entdetect import (
    CorrelationRecord,
    DecisionTree,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    MeasurementSource,
    NotHermitian,
    all_full_indices,
    apply_frame,
    default_tree_2q,
    generate_tree,
    ket,
    make_colored,
    make_g,
    make_w,
    make_werner,
    ppt_verdict,
    brute_force_criterion,
    purity,
    random_frame,
    random_mixed,
    run_tree,
    TreeNode,
)
from entdetect import sweeps
from entdetect.cli import main
from entdetect.correlations import full_positions, pauli_tensor, pauli_tensors, sample
from entdetect.oracles import ppt_test
from entdetect.states import check_density, ginibre_product, purities, unit_trace
from entdetect.tree import CompiledTree

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
    walk = CompiledTree(tree).walk(
        pauli_tensors(np.array([rho.matrix for rho in states]))[:, full_positions(tree.n_qubits)],
        tree.threshold,
    )
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


def test_walk_matches_run_tree_on_a_three_qubit_plan():
    rng = np.random.default_rng(3)
    states = [make_w().density(), make_g().density(), DensityMatrix(3, np.eye(8) / 8)]
    states += [random_mixed(3, rng, rank=int(rng.integers(1, 9))) for _ in range(60)]
    runs = _assert_walk_matches_run_tree(states, generate_tree(3, ("x", "x", "x")))
    assert {run.strategy for run in runs} == {"tree", "tree+priority"}
    assert any(run.detected for run in runs) and not all(run.detected for run in runs)


def test_a_repeated_index_is_not_walked_to_a_detection():
    # Walked, zz twice would sum T_zz^2 = 1 twice on the product state |00>.
    tree = DecisionTree(TreeNode(("z", "z"), big=TreeNode(("z", "z"))))
    values = pauli_tensors(ket("00").density().matrix[None])[:, full_positions(2)]
    with pytest.raises(DomainError, match="repeats along a path"):
        CompiledTree(tree).walk(values, tree.threshold)


@pytest.mark.parametrize("shape", [(1, 4), (1, 27), (9,), (1, 9, 1)])
def test_walk_refuses_a_stack_of_the_wrong_shape(shape):
    with pytest.raises(DimensionMismatch):
        CompiledTree(default_tree_2q()).walk(np.zeros(shape), 0.5)


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


class ReplaySource:
    """A two-qubit source that answers run_tree's queries with values drawn
    beforehand, one value per full index, each from shots outcomes."""

    n_qubits = 2

    def __init__(self, values, shots):
        self.shots = shots
        self._draws = dict(zip(all_full_indices(2), values.tolist()))

    def measure_index(self, index):
        return CorrelationRecord(index, self._draws[tuple(index)], self.shots)


@pytest.mark.parametrize("shots", [100, 500, 4500])
def test_shot_walk_matches_run_tree_on_replayed_draws(shots):
    states = [s for name in sorted(STATE_SETS) for s in STATE_SETS[name]()[::3]]
    exact = pauli_tensors(np.array([rho.matrix for rho in states]))[:, full_positions(2)]
    values = sample(exact, shots, np.random.default_rng(shots))
    fulls = all_full_indices(2)
    seen = set()
    for threshold in (0.3, 0.5, 0.8):
        tree = default_tree_2q(threshold)
        for multiplier in (0.0, 1.0, 2.0):
            walk = CompiledTree(tree).walk(values, threshold, shots, multiplier)
            for k in range(len(states)):
                source = ReplaySource(values[k], shots)
                run = run_tree(source, tree, error_multiplier=multiplier)
                walked = [fulls[j] for j in walk.sequence[k] if j >= 0]
                assert walked == [r.index for r in run.records], (threshold, multiplier, k)
                assert (walk.detected[k], walk.steps[k]) == (run.detected, run.steps)
                seen.add((run.strategy, run.detected))
    assert seen == {(strategy, d) for strategy in ("tree", "tree+priority") for d in (False, True)}


def test_every_engine_detects_werner_just_past_the_separable_bound():
    # Sum of squares 1 + 1e-7: above the two-qubit bound 1 + 1.8e-8.
    rho = make_werner(math.sqrt((1 + 1e-7) / 3))
    total, detected = brute_force_criterion(rho)
    assert abs(total - (1 + 1e-7)) < 1e-12 and detected
    assert run_tree(MeasurementSource(rho), default_tree_2q()).detected
    walk = CompiledTree(default_tree_2q()).walk(pauli_tensors(rho.matrix)[None, full_positions(2)], 0.5)
    assert walk.detected.tolist() == [True]


def _stdout(argv, capsys) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_shot_purity_sweep_is_seeded_and_samples_the_exact_sweeps_states(capsys):
    argv = ["sweep-purity", "--samples", "1000", "--seed", "5", "--format", "json"]
    shots = _stdout(argv + ["--mode", "shots"], capsys)
    assert _stdout(argv + ["--mode", "shots"], capsys) == shots
    assert _stdout(argv + ["--mode", "shots", "--seed", "6"], capsys) != shots
    exact = json.loads(_stdout(argv, capsys))
    key = [(r["parameter"], r["n_samples"]) for r in exact]
    assert [(r["parameter"], r["n_samples"]) for r in json.loads(shots)] == key


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep-purity", "--samples", "1000", "--seed", "3", "--mode", "shots=500"),
        ("sweep-purity", "--samples", "1000", "--seed", "1000", "--format", "json"),
        ("sweep-werner", "--p-min", "0.5", "--p-max", "0.7", "--step", "0.01",
         "--mode", "shots", "--repeats", "20", "--seed", "3"),
        ("sweep-werner", "--format", "json"),
    ],
)
def test_sweep_output_does_not_depend_on_the_chunk_size(argv, capsys, monkeypatch):
    whole = _stdout(argv, capsys)
    walked = []
    walk = CompiledTree.walk

    def counted(plan, values, *rest):
        walked.append(len(values))
        return walk(plan, values, *rest)

    monkeypatch.setattr(CompiledTree, "walk", counted)
    monkeypatch.setattr(sweeps, "CHUNK", 7)
    assert _stdout(argv, capsys) == whole
    # Each stack is walked as it is drawn: one walk per chunk of at most 7.
    assert len(walked) > 1 and all(rows <= 7 for rows in walked)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**200 + 12345])
def test_spawned_words_equal_numpys_seed_sequence(seed):
    root = np.random.SeedSequence(seed)
    children = root.spawn(300) + root.spawn(50)  # spawn continues the child count
    expect = np.array([child.generate_state(4, np.uint64) for child in children])
    got = np.concatenate([sweeps._spawned_words(seed, 0, 300), sweeps._spawned_words(seed, 300, 50)])
    assert got.dtype == np.uint64 and np.array_equal(got, expect)


@pytest.mark.parametrize("seed", [0, 5, 20260808])
def test_purity_sweep_draws_the_per_sample_states_bit_for_bit(seed, monkeypatch):
    # The pinned digests see only rounded fractions; this compares every bit
    # of the density stacks with one default_rng per spawned child.
    seen = []

    def check(chunk):
        seen.append(chunk.copy())
        check_density(chunk)

    monkeypatch.setattr(sweeps, "check_density", check)
    sweeps.sweep_purity(1000, sweeps.ExperimentConfig(seed=seed))
    oracle = []
    for child in np.random.SeedSequence(seed).spawn(1000):
        rng = np.random.default_rng(child)
        oracle.append(unit_trace(ginibre_product(4, int(rng.integers(1, 5)), rng)))
    assert np.concatenate(seen).tobytes() == np.array(oracle).tobytes()


def test_sweeps_share_one_plan_and_set_only_the_threshold():
    sweeps.sweep_werner(np.linspace(0.0, 1.0, 11), sweeps.ExperimentConfig(threshold=0.8))
    cached = sweeps._default_plan_2q()
    assert not hasattr(cached, "threshold")  # each sweep hands its threshold to walk
    fresh = CompiledTree(default_tree_2q(0.8))
    for name in ("full_id", "big", "small", "anti"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name


@pytest.mark.parametrize("multiplier", BAD_ERROR_MULTIPLIERS)
def test_walk_refuses_a_bad_error_multiplier(multiplier):
    values = pauli_tensors(make_werner(0.2).matrix)[None, full_positions(2)]
    with pytest.raises(DomainError):
        CompiledTree(default_tree_2q()).walk(values, 0.5, 4500, multiplier)


def test_sweep_shot_counts_must_be_integers():
    for shots in (150.5, 150.0, 99, 2**63):
        with pytest.raises(DomainError):
            sweeps.ExperimentConfig(shots=shots)
    assert sweeps.ExperimentConfig(shots=np.int64(150)).shots == 150
    # Seeds follow the same rule: a bool, a fraction or None is refused.
    for seed in (1.5, True, None):
        with pytest.raises(DomainError):
            sweeps.ExperimentConfig(seed=seed)
    # A numpy integer is stored as the int it stands for.
    cfg = sweeps.ExperimentConfig(shots=np.int64(150), seed=np.int64(5))
    assert (type(cfg.shots), type(cfg.seed)) == (int, int)
    same = sweeps.ExperimentConfig(shots=150, seed=5)
    assert sweeps.sweep_purity(1000, cfg).to_json() == sweeps.sweep_purity(1000, same).to_json()
    assert sweeps.sweep_werner([0.5], cfg, 2).to_json() == sweeps.sweep_werner([0.5], same, 2).to_json()
    # So do the sweeps' own counts.
    for call in (
        lambda: sweeps.sweep_purity(1000.5, same),
        lambda: sweeps.sweep_purity(True, same),
        lambda: sweeps.sweep_purity(1000, same, bins=2.5),
        lambda: sweeps.sweep_purity(1000, same, bins=True),
        lambda: sweeps.sweep_werner([0.5], same, repeats=2.5),
        lambda: sweeps.sweep_werner([0.5], same, repeats=True),
    ):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("threshold, shots", [
    (math.nan, None), (0.0, None), (1.0, None), (0.5, 4500.5), (0.5, True), (0.5, 0),
])
def test_walk_refuses_a_bad_threshold_or_shot_count(threshold, shots):
    # A NaN threshold sent every row down the small branch.
    values = pauli_tensors(make_werner(0.2).matrix)[None, full_positions(2)]
    with pytest.raises(DomainError):
        CompiledTree(default_tree_2q()).walk(values, threshold, shots)
