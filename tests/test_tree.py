import hashlib
import json
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BAD_ERROR_MULTIPLIERS, Unmeasured
from entdetect import tree as tree_module
from entdetect.correlations import _pauli_rows
from entdetect.states import _psd_shift
from entdetect.tree import _default_plan_2q
from entdetect import (
    CorrelationRecord,
    DecisionTree,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    DuplicateIndex,
    NonFullCorrelation,
    ParseError,
    MeasurementSource,
    all_full_indices,
    anticommute,
    apply_frame,
    bell_phi_plus,
    bloch_vector,
    brute_force_criterion,
    default_tree_2q,
    full_tensor,
    generate_tree,
    iter_paths,
    ket,
    make_colored,
    make_dicke,
    make_g,
    make_w,
    make_werner,
    pauli_operator,
    ppt_verdict,
    priority_order,
    random_frame,
    random_mixed,
    random_pure,
    run_tree,
    run_with_bloch_start,
    schmidt_oracle,
    starting_index_from_bloch,
    TreeNode,
    tree_from_dict,
    tree_to_dict,
    validate_tree,
)


class ScriptedSource:
    """Answers correlation queries from a fixed table (exact mode)."""

    def __init__(self, n_qubits, table):
        self.n_qubits = n_qubits
        self.shots = None
        self.table = {tuple(k): v for k, v in table.items()}

    def measure_index(self, index):
        return CorrelationRecord(tuple(index), self.table[tuple(index)])


def test_anticommute_label_rule():
    assert anticommute(("z", "z"), ("z", "x"))
    assert not anticommute(("z", "z"), ("y", "y"))
    assert not anticommute(("z", "z"), ("z", "z"))
    assert not anticommute(("z", "0"), ("z", "z"))
    assert anticommute(("z", "0"), ("x", "z"))
    with pytest.raises(DimensionMismatch):
        anticommute(("z",), ("z", "z"))
    # A label outside 0xyz is refused, not read as a digit or a mask.
    with pytest.raises(DomainError):
        anticommute(("z", "q"), ("z", "z"))


def test_anticommute_matches_matrix_oracle():
    indices = all_full_indices(2)
    for a in indices:
        for b in indices:
            pa, pb = pauli_operator(a), pauli_operator(b)
            anti = np.max(np.abs(pa @ pb + pb @ pa)) < 1e-12
            assert anticommute(a, b) == anti


def test_anticommutation_table_matches_anticommute():
    for n in (2, 3):
        indices = all_full_indices(n)
        table = tree_module.index_tables(n).anti
        assert table.tolist() == [[anticommute(a, b) for b in indices] for a in indices]


# The (x, z) bitmask algebra (Aaronson & Gottesman, PRA 70, 052328 (2004)),
# the oracle of the tree module's base-3 digit algebra: bit q of x (of z) is
# set when the label of party q has an X (a Z) part; y has both. Two indices
# anti-commute when popcount((x1 & z2) ^ (z1 & x2)) is odd, and their
# product, up to phase, is the XOR of the masks.
_XZ_BITS = {"0": (0, 0), "x": (1, 0), "y": (1, 1), "z": (0, 1)}
# The cyclic distance's digits, z -> y -> x.
_AXIS_POS = {"z": 0, "y": 1, "x": 2}
_LABEL_OF_BITS = {bits: label for label, bits in _XZ_BITS.items()}


def _masks(index):
    x = z = 0
    for q, label in enumerate(index):
        bx, bz = _XZ_BITS[label]
        x |= bx << q
        z |= bz << q
    return x, z


def _mask_anti(a, b):
    return bool(((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() & 1)


def _xor_product(a, b):
    (xa, za), (xb, zb) = _masks(a), _masks(b)
    x, z = xa ^ xb, za ^ zb
    return tuple(_LABEL_OF_BITS[(x >> q & 1, z >> q & 1)] for q in range(len(a)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_tables_match_their_definitions(n):
    t = tree_module.index_tables(n)
    indices = all_full_indices(n)
    assert list(t.fulls) == indices
    assert all(t.position[idx] == k for k, idx in enumerate(indices))
    assert sorted(indices) == indices[::-1]  # priority ties break on descending place
    assert t.anti.dtype == bool and t.product.dtype == t.distance.dtype == np.intp
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            anti = _mask_anti(_masks(a), _masks(b))
            assert t.anti[i, j] == anti
            product = _xor_product(a, b)
            full = not anti and "0" not in product
            assert t.product[i, j] == (indices.index(product) if full else -1)
            distance = [(_AXIS_POS[c] - _AXIS_POS[p]) % 3 for c, p in zip(b, a)]
            assert t.distance[i, j] == int("".join(map(str, distance)), 3)
    if n % 2:  # a commuting pair differs at an even number of parties, never at all n
        assert (t.product == -1).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shared_tables_are_read_only(n):
    t = tree_module.index_tables(n)
    plan = _default_plan_2q()  # the sweeps' cached plan
    shared = (t.anti, t.product, t.distance, _pauli_rows(n), _psd_shift(2**n))
    for table in shared + (plan.full_id, plan.big, plan.small):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = table[(0,) * table.ndim]


def _check_against_matrices(a, b):
    pa, pb = pauli_operator(a), pauli_operator(b)
    assert anticommute(a, b) == bool(np.max(np.abs(pa @ pb + pb @ pa)) < 1e-12)
    # pa pb equals the XOR product up to a phase in {1, -1, i, -i}
    prod = pauli_operator(_xor_product(a, b))
    phase = np.trace(prod.conj().T @ pa @ pb) / len(prod)
    assert abs(abs(phase) - 1) < 1e-12
    assert np.allclose(pa @ pb, phase * prod, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_index_algebra_matches_matrices_all_pairs(n):
    indices = list(product("0xyz", repeat=n))
    for a in indices:
        for b in indices:
            _check_against_matrices(a, b)


_INDEX_4Q = st.tuples(*[st.sampled_from("0xyz")] * 4)


@settings(deadline=None)
@given(_INDEX_4Q, _INDEX_4Q)
def test_index_algebra_matches_matrices_4q(a, b):
    _check_against_matrices(a, b)


def test_default_tree_structure():
    tree = default_tree_2q()
    assert tree.root.index == ("z", "z")
    assert tree.root.big.index == ("y", "y")
    assert tree.root.small.index == ("y", "y")
    assert tree.root.big.small.index == ("y", "x")
    assert tree.root.small.big.index == ("x", "z")
    assert tree.threshold == 0.5
    # an exact run that never detects stops after 3^2 steps
    assert run_tree(MeasurementSource(make_werner(0.5)), tree).steps == 9


def test_run_tree_rejects_a_repeated_index():
    # A hand-built tree that was never validated measures zz twice on a Bell
    # state (|T_zz| = 1 takes the big branch); the criterion refuses the repeat.
    tree = DecisionTree(TreeNode(("z", "z"), big=TreeNode(("z", "z"))), 0.5)
    with pytest.raises(DuplicateIndex):
        run_tree(MeasurementSource(bell_phi_plus().density()), tree)


def test_worked_trace_two_steps():
    source = ScriptedSource(2, {("z", "z"): 0.980, ("y", "y"): -0.949})
    result = run_tree(source, default_tree_2q())
    assert result.detected and result.steps == 2
    assert [r.index for r in result.records] == [("z", "z"), ("y", "y")]


def test_worked_trace_small_root():
    table = {("z", "z"): -0.056, ("y", "y"): 0.978, ("x", "z"): -0.959}
    result = run_tree(ScriptedSource(2, table), default_tree_2q())
    assert result.detected and result.steps == 3
    assert [r.index for r in result.records] == [("z", "z"), ("y", "y"), ("x", "z")]


def test_worked_trace_small_second():
    table = {("z", "z"): 0.768, ("y", "y"): 0.018, ("y", "x"): -0.922}
    result = run_tree(ScriptedSource(2, table), default_tree_2q())
    assert result.detected and result.steps == 3
    assert [r.index for r in result.records] == [("z", "z"), ("y", "y"), ("y", "x")]


def test_generate_tree_big_children():
    assert generate_tree(2, ("z", "z")).root.big.index == ("y", "y")
    assert generate_tree(3, ("x", "x", "x")).root.big.index == ("x", "z", "z")
    assert generate_tree(3, ("z", "z", "z")).root.big.index == ("z", "y", "y")


# SHA-256 of json.dumps(tree_to_dict(generate_tree(n, root))), pinned from
# the eager generator: lazy expansion must serialise byte-identical plans.
_TREE_DIGESTS = {
    (2, "zz"): "aedd3ca7593f5e64031a88e93ccbeb1de4b7dfdf7803cd31dd2188a27793638a",
    (2, "xy"): "168cc84712d4bad8d96447ea5b279fbe6de0a306ae87286ee9c028aa44451192",
    (3, "xxx"): "8988259e55eb415bb43e44ae3b4c415abafa37e21509f1588b9101a621eb71ae",
    (3, "zzz"): "39c574481d981befcf8da386789214e2dc076ecadf1277a74eb0271eda7258b0",
    (4, "zzzz"): "a6251440debaba32784cde1b835ca0c0a344b30a43e4132cc463530a8de572c7",
    (4, "xyzx"): "296e98a6a46d1d586498a3705b445b96b617332d57ded4ef9fc66558ec56cdb4",
}


@pytest.mark.parametrize("n, root", list(_TREE_DIGESTS))
def test_generated_tree_json_pinned(n, root):
    text = json.dumps(tree_to_dict(generate_tree(n, tuple(root))))
    assert hashlib.sha256(text.encode()).hexdigest() == _TREE_DIGESTS[(n, root)]


# Reference implementations of the child rule and the priority queue, one
# candidate at a time on (x, z) bitmasks, as the generator ran before its
# index tables.


def _count_anti(mask, masks):
    return sum(_mask_anti(mask, m) for m in masks)


def _distance_from(parent):
    distance = {}
    for candidate in all_full_indices(len(parent)):
        d = 0
        for c, p in zip(candidate, parent):
            d = 3 * d + (_AXIS_POS[c] - _AXIS_POS[p]) % 3
        distance[candidate] = d
    return distance


def _oracle_child(path, remaining):
    big_masks = [_masks(idx) for idx, big in path if big]
    small_masks = [_masks(idx) for idx, big in path if not big]
    allowed = [c for c in remaining if not _count_anti(_masks(c), big_masks)]
    if not allowed:
        return None
    forced_small = Counter(
        (a[0] ^ b[0], a[1] ^ b[1]) for a in big_masks for b in small_masks if not _mask_anti(a, b)
    )
    distance = _distance_from(path[-1][0])
    return min(
        allowed,
        key=lambda c: (forced_small[_masks(c)], _count_anti(_masks(c), small_masks), distance[c]),
    )


def _oracle_priority_order(measured, remaining):
    measured = [(_masks(r.index), r.value * r.value) for r in measured]

    def spent(idx):
        total = 0.0
        for m, v2 in measured:
            if _mask_anti(m, _masks(idx)):
                total += v2
        return total

    return sorted(remaining, key=lambda idx: (spent(idx), idx))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_child_rule_matches_oracle(data):
    # One path per example, its outcome bits drawn: to the default depth, which
    # is the full 3^n at two qubits.
    n = data.draw(st.integers(2, 4), label="n")
    root = data.draw(st.tuples(*[st.sampled_from("zyx")] * n), label="root")
    depth = 3**n if n <= 2 else 8
    node, path = generate_tree(n, root).root, []
    remaining = frozenset(all_full_indices(n)) - {root}
    while node is not None:
        path = path + [(node.index, data.draw(st.booleans()))]
        child = node.big if path[-1][1] else node.small
        expected = _oracle_child(path, remaining) if len(path) < depth else None
        assert (child and child.index) == expected, path
        remaining -= {expected}
        node = child


_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 0.1]) | st.floats(-1.0, 1.0)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_priority_order_matches_oracle(data):
    # Full records with tied values; the remaining indices are a shuffled
    # share of the full ones.
    n = data.draw(st.integers(1, 4), label="n")
    labels = st.sampled_from("xyz")
    records = st.lists(st.tuples(st.tuples(*[labels] * n), _VALUES), max_size=12, unique_by=lambda r: r[0])
    measured = [CorrelationRecord(idx, value) for idx, value in data.draw(records, label="measured")]
    fulls = data.draw(st.permutations(all_full_indices(n)))
    remaining = fulls[: data.draw(st.integers(0, len(fulls)), label="count")]
    assert priority_order(measured, remaining) == _oracle_priority_order(measured, remaining)


def test_bloch_start_computes_only_the_walked_path(monkeypatch):
    calls = []
    best_child = tree_module._best_child

    def counting(path):
        calls.append(len(path))
        return best_child(path)

    monkeypatch.setattr(tree_module, "_best_child", counting)
    # Dicke 4:2 is detected within the tree; the maximally mixed state walks
    # a whole path to a leaf and then the priority queue
    for rho in (make_dicke(4, 2).density(), DensityMatrix(4, np.eye(16) / 16)):
        calls.clear()
        result = run_with_bloch_start(MeasurementSource(rho))
        assert 0 < len(calls) <= 8  # the default max_depth at four qubits
        # the same measurements as a walk over the fully expanded plan
        full = generate_tree(4, tuple(result.details["root"]))
        tree_to_dict(full)  # expands every node
        expected = run_tree(MeasurementSource(rho), full)
        assert [r.index for r in result.full_records] == [r.index for r in expected.records]
        assert result.detected == expected.detected


def test_generated_trees_satisfy_path_invariants():
    for n, root in ((2, ("z", "z")), (2, ("x", "y")), (3, ("x", "x", "x")), (4, ("z",) * 4)):
        tree = generate_tree(n, root)
        validate_tree(tree)
        for path in iter_paths(tree):
            indices = [idx for idx, _ in path]
            assert len(set(indices)) == len(indices)


def test_run_covers_every_index_once():
    # tree walk plus priority queue measure each full index exactly once
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = random_mixed(2, rng)
        result = run_tree(MeasurementSource(rho), default_tree_2q())
        if not result.detected:
            assert sorted(r.index for r in result.records) == sorted(all_full_indices(2))


def test_priority_worked_example():
    measured = [
        CorrelationRecord(("z", "z"), 0.7),
        CorrelationRecord(("x", "x"), 0.1),
        CorrelationRecord(("y", "y"), 0.4),
    ]
    remaining = [i for i in all_full_indices(2) if i not in {r.index for r in measured}]
    order = priority_order(measured, remaining)
    assert order == [
        ("x", "y"), ("y", "x"), ("x", "z"), ("z", "x"), ("y", "z"), ("z", "y"),
    ]

    def spent(idx):
        return sum(r.value**2 for r in measured if anticommute(r.index, idx))

    assert abs(spent(("x", "y")) - 0.17) < 1e-12
    assert abs(spent(("y", "x")) - 0.17) < 1e-12
    assert abs(spent(("x", "z")) - 0.5) < 1e-12
    assert abs(spent(("z", "x")) - 0.5) < 1e-12
    assert abs(spent(("y", "z")) - 0.65) < 1e-12
    assert abs(spent(("z", "y")) - 0.65) < 1e-12


def test_priority_no_measurements_alphabetical():
    order = priority_order([], all_full_indices(2))
    assert order[0] == ("x", "x")
    assert order == sorted(all_full_indices(2))


def test_run_tree_werner():
    result = run_tree(MeasurementSource(make_werner(0.8)), default_tree_2q())
    assert result.detected and result.steps == 2
    assert abs(result.sum_of_squares - 1.28) < 1e-9

    result = run_tree(MeasurementSource(make_werner(0.5)), default_tree_2q())
    assert not result.detected and result.steps == 9
    assert abs(result.sum_of_squares - 0.75) < 1e-9


def test_run_tree_colored():
    for p in (0.1, 0.3, 0.7):
        result = run_tree(MeasurementSource(make_colored(p)), default_tree_2q())
        assert result.detected and result.steps == 2
        assert abs(result.sum_of_squares - (1 + p * p)) < 1e-9


def test_run_tree_soundness_spot():
    rng = np.random.default_rng(1)
    for _ in range(300):
        rho = random_mixed(2, rng)
        result = run_tree(MeasurementSource(rho), default_tree_2q())
        if result.detected:
            assert result.sum_of_squares > 1
            assert brute_force_criterion(rho)[1]
            assert ppt_verdict(rho).entangled


def test_framed_product_states_never_detected():
    # Rounding lifts the sum of a framed product state just above 1; the
    # criterion's tolerance keeps these exact-mode runs sound.
    for i in range(150):
        rho = apply_frame(ket("00").density(), random_frame(2, 10000 + i))
        assert not run_tree(MeasurementSource(rho), default_tree_2q()).detected
        assert not brute_force_criterion(rho)[1]
    for n, count in ((3, 40), (4, 15)):
        for i in range(count):
            rho = apply_frame(ket("0" * n).density(), random_frame(n, 10000 + i))
            assert not run_with_bloch_start(MeasurementSource(rho)).detected
    # Matrices next to a product state that validation accepts (trace within
    # 1e-9 of 1, eigenvalues above -1e-9), whose sums exceed 1 by up to 3e-8.
    e = 0.9e-9
    for spectrum in (
        [1 + e, -e, 0, 0],  # (1 + e)|a,b> - e|a,-b>: correlations (1 + 2e) a_i b_j
        [1 + 0.5e-9 + 3 * e] + [-e] * 3,  # every other product-basis state at -e
        [1 + 0.5e-9 + 15 * e] + [-e] * 15,
    ):
        n = len(spectrum).bit_length() - 1
        for i in range(5):
            m = np.diag(spectrum).astype(complex)
            rho = apply_frame(DensityMatrix(n, m), random_frame(n, 20000 + i))
            total, detected = brute_force_criterion(rho)
            assert total > 1 + 3e-9 and not detected
            assert not run_with_bloch_start(MeasurementSource(rho)).detected
            if n == 2:
                assert not run_tree(MeasurementSource(rho), default_tree_2q()).detected


def test_run_tree_never_detects_below_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = random_mixed(2, rng)
        result = run_tree(MeasurementSource(rho), default_tree_2q())
        assert result.detected == (result.sum_of_squares > 1)


def test_pure_state_completeness_spot():
    rng = np.random.default_rng(3)
    count = 0
    while count < 500:
        psi = random_pure(2, rng)
        if schmidt_oracle(psi)[0] <= 0.01:
            continue
        count += 1
        framed = apply_frame(psi, random_frame(2, rng))
        result = run_tree(MeasurementSource(framed.density()), default_tree_2q())
        assert result.detected and result.steps <= 9


def test_starting_index_examples():
    g_blochs = [np.array([0.64, 0.0, 0.0])] * 3
    root, renamings = starting_index_from_bloch(g_blochs)
    assert root == ("x", "x", "x")
    assert renamings[0] == {"x": "x", "y": "y", "z": "z"}

    w_blochs = [np.array([0.0, 0.0, 0.32])] * 3
    root, renamings = starting_index_from_bloch(w_blochs)
    assert root == ("z", "z", "z")
    assert renamings[0] == {"x": "z", "z": "y", "y": "x"}

    zero = [np.zeros(3)] * 3
    root, _ = starting_index_from_bloch(zero)
    assert root == ("z", "z", "z")


def test_renamed_tree_matches_manual_renaming():
    # cyclic renaming commutes with tree generation
    base = generate_tree(3, ("x", "x", "x"))
    renamed = generate_tree(3, ("z", "z", "z"))
    rename = {"x": "z", "z": "y", "y": "x"}

    def walk(a, b):
        if a is None or b is None:
            assert a is None and b is None
            return
        assert tuple(rename[c] for c in a.index) == b.index
        walk(a.big, b.big)
        walk(a.small, b.small)

    walk(base.root, renamed.root)


def test_three_qubit_demos():
    g = make_g().density()
    result = run_with_bloch_start(MeasurementSource(g))
    assert result.detected and result.steps == 2
    assert [r.index for r in result.full_records] == [("x",) * 3, ("x", "z", "z")]
    ft = full_tensor(g)
    expected = ft[("x",) * 3] ** 2 + ft[("x", "z", "z")] ** 2
    assert abs(result.sum_of_squares - expected) < 1e-9
    assert result.sum_of_squares > 1

    w = make_w().density()
    result = run_with_bloch_start(MeasurementSource(w))
    assert result.detected and result.steps == 2
    assert [r.index for r in result.full_records] == [("z",) * 3, ("z", "y", "y")]


def test_bloch_heuristic_spot():
    # suggested-direction correlation close to the best axis-aligned one
    rng = np.random.default_rng(4)
    ok = 0
    n = 200
    for _ in range(n):
        psi = random_pure(3, rng)
        rho = psi.density()
        ft = full_tensor(rho)
        dirs = []
        for party in range(3):
            b = bloch_vector(rho, party)
            dirs.append(b / np.linalg.norm(b))
        t_bloch = MeasurementSource(rho).measure_directions(dirs)
        if abs(t_bloch) >= 0.85 * ft.max_abs():
            ok += 1
    assert ok / n >= 0.75


def test_tree_serialization_round_trip():
    tree = generate_tree(2, ("z", "z"))
    data = tree_to_dict(tree)
    assert data["root"]["index"] == "zz"
    assert data["root"]["big"]["index"] == "yy"
    back = tree_from_dict(data)
    assert back.threshold == tree.threshold
    assert tree_to_dict(back) == data


def test_shot_mode_run_deterministic():
    rho = make_werner(0.9)
    r1 = run_tree(MeasurementSource(rho, 4500, np.random.default_rng(5)), default_tree_2q())
    r2 = run_tree(MeasurementSource(rho, 4500, np.random.default_rng(5)), default_tree_2q())
    assert [rec.value for rec in r1.records] == [rec.value for rec in r2.records]
    assert r1.detected == r2.detected


def test_shot_mode_verdict_subtracts_error():
    # a state whose exact sum sits just above 1 stays undecided under noise
    rho = make_werner(0.59)  # 3 p^2 = 1.0443
    result = run_tree(MeasurementSource(rho, 4500, np.random.default_rng(6)), default_tree_2q())
    assert result.detected == (
        result.sum_of_squares - result.propagated_error > 1.0
    )


@pytest.mark.parametrize("multiplier", BAD_ERROR_MULTIPLIERS)
def test_run_tree_refuses_a_bad_error_multiplier_before_measuring(multiplier):
    # A negative multiplier lifts a product state's margin above 1, and an
    # infinite one times an exact run's zero error gives a NaN margin.
    with pytest.raises(DomainError):
        run_tree(Unmeasured(2), default_tree_2q(), error_multiplier=multiplier)


@pytest.mark.parametrize("multiplier", BAD_ERROR_MULTIPLIERS)
def test_bloch_start_refuses_a_bad_error_multiplier_before_measuring(multiplier):
    with pytest.raises(DomainError):
        run_with_bloch_start(Unmeasured(3), error_multiplier=multiplier)


def test_generate_tree_parses_its_root():
    # A bad label used to build a tree that failed at its first child read.
    with pytest.raises(ParseError):
        generate_tree(2, ("z", "q"))
    assert generate_tree(2, "xy").root.index == ("x", "y")
    with pytest.raises(NonFullCorrelation):
        generate_tree(2, "z0")


@pytest.mark.parametrize("n, max_depth", [
    (True, None), (2.0, None), (2, True), (2, 2.5), (2, math.inf), (2, 2.0),
])
def test_generate_tree_takes_integer_counts(n, max_depth):
    root = ("z",) * int(n)
    with pytest.raises(DomainError):
        generate_tree(n, root, max_depth=max_depth)


@pytest.mark.parametrize("measured, remaining", [
    ([CorrelationRecord(("z", "0"), 1.0)], [("x", "x")]),
    ([CorrelationRecord(("x", "x", "x"), 0.5)], [("x", "x")]),
    ([], [("z", "z"), ("z", "0")]),
    ([], [("z", "z"), ("z", "q")]),
])
def test_priority_order_refuses_a_non_full_index(measured, remaining):
    with pytest.raises(NonFullCorrelation):
        priority_order(measured, remaining)


@pytest.mark.parametrize("node", [TreeNode(("z", "q")), TreeNode(("z", "0")), TreeNode(("z",) * 3)])
def test_validate_tree_refuses_a_node_that_is_not_a_full_index(node):
    with pytest.raises(DomainError):
        validate_tree(DecisionTree(TreeNode(("z", "z"), big=node)))
