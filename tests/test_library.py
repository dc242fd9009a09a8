"""The library's error contract: every public call returns or raises an
EntDetectError, whatever values its parameters take, and it refuses the
values the contract names (REFUSED): a bool or a fraction for any count,
seed, shot count or depth, a threshold outside (0, 1), a direction whose
norm is not finite, a Bloch vector with a non-finite component, a stack
whose width is not its plan's, and a plan that breaks a path invariant.

The public calls are the names of entdetect, the sweeps, the query methods
of a fresh source and the walk of a compiled plan. Each parameter draws
from the pool of its own kind (qubit counts, seeds, shot counts, floats,
labels, states, ...), valid values beside edge values. Values of the wrong
type (a string for a state, a float for a dict), dicts of the wrong
structure and stacks that are not numeric arrays are outside the contract,
and no pool holds them.
"""

import inspect
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entdetect as ed
from conftest import non_finite_matrix
from entdetect import sweeps
from entdetect.correlations import full_positions, pauli_tensors
from entdetect.tree import CompiledTree

EDGE_FLOATS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 2.0**63, 4500.5, True)
WRONG_QUBITS = (0, 5, -1)
BAD_LABELS = (("z", "q"), ("z", "0"), ("q",), (), ("z",) * 5, "zq", "z0y")


def _source(state, shots=None):
    return lambda: ed.MeasurementSource(state, shots, rng=1)


def _tree(root, *nodes):
    """A hand-built two-level tree: root with the given big and small child indices."""
    return lambda: ed.DecisionTree(ed.TreeNode(root, *(n and ed.TreeNode(n) for n in nodes)))


BELL = ed.bell_phi_plus()
STATES = (BELL, BELL.density(), ed.make_werner(0.8), ed.make_w(), ed.make_w().density(),
          ed.ket("0"), ed.make_dicke(4, 2).density())
WERNER_ROWS = pauli_tensors(np.array([ed.make_werner(p).matrix for p in (0.2, 0.5, 0.9)]))[:, full_positions(2)]
# A pool entry that is a function is called for each draw, so that no call
# sees a source another call has filtered or a tree it has expanded.
POOLS = {
    "qubits": (1, 2, 3, 4, *WRONG_QUBITS, *EDGE_FLOATS),
    "count": (1, 2, 3, *WRONG_QUBITS, *EDGE_FLOATS),
    "seed": (0, 7, 2**63, None, -1, 1.5, math.nan, True, lambda: np.random.default_rng(1)),
    "shots": (1, 4500, 2**63 - 1, 2**63, 0, -1, 4500.5, math.nan, True, None),
    "depth": (None, 1, 2, 9, 0, -1, 2.0, 2.5, math.inf, math.nan, True),
    "samples": (1000, 1001, 999, 0, 2**32, 1000.5, math.nan, True),
    "bins": (1, 10, 0, -1, 100_001, 2.5, True),
    "repeats": (1, 3, 0, -1, 2.5, True),
    "float": (0.5, 0.3, 1.0, *EDGE_FLOATS),
    "threshold": (0.5, 0.3, 0.9, *EDGE_FLOATS),
    "bool": (True, False),
    "index": (("z", "z"), ("x", "y", "z"), ("x",) * 4, ("z", "0"), *BAD_LABELS),
    "text": ("zz", "xyz", "zq", "", "z0y", "zzzzz"),
    "bits": ("01", "0", "0000", "", "00000", "0q", "012", "1 "),
    "state": STATES,
    "source": tuple(_source(s) for s in STATES) + (_source(ed.make_werner(0.9), 4500),),
    "tree": (ed.default_tree_2q, lambda: ed.generate_tree(3, ("x", "x", "x")),
             _tree(("z", "q"), ("z", "z")), _tree(("z", "z"), ("z", "z")),
             _tree(("z", "z"), ("z", "x")), _tree(("z", "z", "z"), ("x", "x"))),
    "plan": (ed.default_tree_2q, lambda: ed.generate_tree(3, ("x", "x", "x")),
             _tree(("z", "z"), ("y", "y"), ("x", "z")), _tree(("z", "z"), ("z", "z")),
             _tree(("z", "z"), None, ("z", "z")), _tree(("z", "z"), ("z", "q")),
             _tree(("z", "z"), ("z", "z", "z")), _tree(("z", "z"), ("x", "z"))),
    "node": (None, ed.TreeNode(("z", "z")), ed.TreeNode(("z", "q"))),
    "frame": (ed.random_frame(2, 1), ed.random_frame(3, 1)),
    "filter": (ed.FilterOp(0, 0.5), ed.FilterOp(1, 1.0), ed.FilterOp(3, 0.5)),
    "record": (ed.CorrelationRecord(("z", "z"), 0.5), ed.CorrelationRecord(("z", "z"), 0.5, 4500),
               ed.CorrelationRecord(("z", "0"), 1.0), ed.CorrelationRecord(("x", "x", "x"), -0.2),
               ed.CorrelationRecord(("z", "q"), 0.1)),
    "vector": (np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.0]), np.zeros(3),
               np.array([math.nan, 0.0, 0.0]), np.array([math.inf, 1.0, 0.0]), np.array([1e308, 1e308, 0.0]),
               np.array([1.0, 2.0])),
    "directions": ([[0, 0, 1], [1, 0, 0]], [None, [0, 1, 0]], [None, None], [[0, 0, 1]], [[1, 1, 1]] * 3,
                   [[0, 0, 0], None], [[0, 1], [0, 0, 1]], [[math.nan, 0, 1], [0, 0, 1]],
                   [[math.inf, 0, 0], None], [[1e308, 1e308, 0], [0, 0, 1]]),
    "direction": (np.array([1.0, 0.0]), np.array([1.0, 1j]), np.zeros(2),
                  np.array([math.nan, 1.0]), np.array([1.0, 0.0, 0.0])),
    "amplitudes": (np.array([1.0, 0.0, 0.0, 0.0]), np.ones(4) / 2, np.ones(2), np.ones(4),
                   np.array([math.nan, 1.0, 0.0, 0.0])),
    "matrix": (np.eye(4) / 4, np.eye(2) / 2, np.diag([1.0, -0.5, 0.5, 0.0]),
               non_finite_matrix("nan-diagonal"), non_finite_matrix("inf-entry"),
               np.array([[0.5, 1.0], [0.0, 0.5]])),
    "unitary_list": ((np.eye(2),) * 2, (ed.PAULIS["x"], ed.PAULIS["y"], ed.PAULIS["z"]), (),
                     (np.eye(2),) * 5, (np.full((2, 2), math.nan),), (2 * np.eye(2),)),
    "pauli_tensor": (ed.correlations.pauli_tensor(BELL.density()), np.zeros((4, 4, 4)), np.full((4, 4), math.nan)),
    "state_dict": (ed.state_to_dict(BELL), ed.state_to_dict(ed.make_werner(0.5)),
                   {"n_qubits": 5, "amplitudes": [[1, 0]] * 32}, {"n_qubits": math.nan, "amplitudes": [[1, 0]] * 4},
                   {"n_qubits": 2.5, "amplitudes": [[1, 0]] * 4}, {"n_qubits": 2, "amplitudes": [[math.nan, 0]] * 4},
                   {"n_qubits": 1, "matrix": [[[math.inf, 0], [0, 0]], [[0, 0], [0, 0]]]}),
    "tree_dict": (ed.tree_to_dict(ed.default_tree_2q()),
                  {"threshold": math.nan, "root": {"index": "zz"}},
                  {"threshold": 2.0, "root": {"index": "zz"}},
                  {"threshold": 0.5, "root": {"index": "zq"}},
                  {"threshold": 0.5, "root": {"index": "zz", "big": {"index": "zzz"}}},
                  {"threshold": 0.5, "root": {"index": "zzzzzzz"}},
                  {"threshold": 0.5, "root": {"index": "z0"}}),
    "blochs": ([np.array([0.64, 0.0, 0.0])] * 3, [np.zeros(3)] * 2, [np.array([math.nan, 0.0, 0.0])],
               [np.array([math.inf, 0.0, 0.0])] * 2, [np.zeros(2)], []),
    "measured_set": (set(), {("z", "z")}),
    "records": ((), (ed.CorrelationRecord(("z", "z"), 0.5),), (ed.CorrelationRecord(("z", "0"), 1.0),),
                (ed.CorrelationRecord(("x", "x", "x"), 0.3),), (ed.CorrelationRecord(("z", "q"), 0.3),),
                (ed.CorrelationRecord(("z", "z"), 0.9, 4500), ed.CorrelationRecord(("y", "y"), -0.9, 4500))),
    "indices": ((), ed.all_full_indices(2), ed.all_full_indices(3)[:4], [("z", "0")], [("z", "q")],
                [("z", "z"), ("x", "x", "x")], [("z",) * 5], [()]),
    "factors": ((), (ed.PAULIS["x"], ed.PAULIS["z"]), (np.full((2, 2), math.nan),)),
    "state_path": ("@state",), "tree_path": ("@tree",), "out_path": ("@out",),
    "str": ("tree", ""),
    "dict": ({}, {"root": "zz"}),
    "criterion": (lambda: ed.CriterionState(), lambda: ed.CriterionState(0.99, 0.0, {("y", "y")})),
    "config": (sweeps.ExperimentConfig(), sweeps.ExperimentConfig(shots=150, seed=3),
               sweeps.ExperimentConfig(threshold=0.8, error_multiplier=0.0)),
    "grid": ([0.5], np.linspace(0.0, 1.0, 11), [], [math.nan], [1.5]),
    "compiled": (CompiledTree(ed.default_tree_2q()),),
    "stack": (WERNER_ROWS, WERNER_ROWS[:1], np.zeros((0, 9)), np.full((1, 9), math.nan),
              np.zeros((1, 4)), np.zeros((1, 27)), np.zeros(9)),
}


def _not_an_integer(value):
    return isinstance(value, (bool, float))


def _non_finite_norm(direction):
    return not np.isfinite(np.linalg.norm(np.asarray(direction, dtype=float)))


def _breaks_a_path_invariant(tree):
    """A node that is not a full index of the tree's width, repeats on its
    path or anti-commutes with a big-outcome ancestor."""
    fulls = set(ed.all_full_indices(tree.n_qubits))
    for path in ed.iter_paths(tree):
        for k, (index, _) in enumerate(path):
            if index not in fulls:
                return True
            if any(a == index or big and ed.anticommute(a, index) for a, big in path[:k]):
                return True
    return False


# The values a call must refuse, by kind.
REFUSED = {kind: _not_an_integer for kind in ("qubits", "count", "seed", "shots", "depth", "samples", "bins", "repeats")}
REFUSED.update(
    threshold=lambda t: not 0 < t < 1,
    vector=_non_finite_norm,
    directions=lambda ds: any(d is not None and _non_finite_norm(d) for d in ds),
    blochs=lambda bs: any(not np.isfinite(b).all() for b in bs),
    stack=lambda values: np.shape(values)[1:] != (9,),  # every compiled plan in the pool has 2 qubits
    plan=_breaks_a_path_invariant,
)
# The kind of every parameter, by name; KIND_OF_CALL overrides it for one callable.
KIND = {
    "n": "qubits", "n_qubits": "qubits", "k": "count", "rank": "count", "party": "count",
    "dim": "count", "max_depth": "depth", "seed": "seed", "rng": "seed", "shots": "shots",
    "n_samples": "samples", "bins": "bins", "repeats": "repeats", "cfg": "config", "p_values": "grid",
    "p": "float", "eps": "float", "threshold": "threshold", "error_multiplier": "float",
    "filter_eps": "float", "value": "float", "xi": "float", "phi": "float", "t_yy": "float",
    "running_sum": "float", "variance": "float", "min_pt_eigenvalue": "float", "atol": "float",
    "equality": "float", "psd": "float", "pt_negativity": "float", "zero_projection": "float",
    "phase_denominator": "float", "always_extra": "bool", "detected": "bool", "entangled": "bool",
    "index": "index", "root": "index", "text": "text", "bits": "bits",
    "state": "state", "rho": "state", "psi": "state", "source": "source", "tree": "tree",
    "big": "node", "small": "node", "frame": "frame", "f": "filter", "record": "record",
    "alpha": "vector", "bloch_a": "vector", "direction": "direction", "amplitudes": "amplitudes",
    "matrix": "matrix", "unitaries": "unitary_list", "values": "pauli_tensor", "blochs": "blochs",
    "records": "records", "measured": "records", "remaining": "indices", "factors": "factors",
    "strategy": "str", "details": "dict", "a": "index", "b": "index", "directions": "directions",
    "self": "source",
}
KIND_OF_CALL = {
    ("DecisionTree", "root"): "node", ("CriterionState", "measured"): "measured_set",
    ("criterion_add", "state"): "criterion", ("state_from_dict", "data"): "state_dict",
    ("tree_from_dict", "data"): "tree_dict", ("mat_equal", "a"): "matrix", ("mat_equal", "b"): "matrix",
    ("load_state", "path"): "state_path", ("load_tree", "path"): "tree_path",
    ("save_state", "path"): "out_path", ("save_tree", "path"): "out_path",
    ("CompiledTree.walk", "self"): "compiled", ("CompiledTree.walk", "values"): "stack",
    ("CompiledTree", "tree"): "plan", ("validate_tree", "tree"): "plan",
}


def _public_callables():
    for name in sorted(dir(ed)):
        obj = getattr(ed, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        yield name, obj
    for name in ("ExperimentConfig", "sweep_werner", "sweep_purity"):
        yield f"sweeps.{name}", getattr(sweeps, name)
    # Methods take their instance as the parameter self.
    for name in ("measure_index", "measure_directions", "apply_filter"):
        yield f"MeasurementSource.{name}", getattr(ed.MeasurementSource, name)
    yield "CompiledTree", CompiledTree
    yield "CompiledTree.walk", CompiledTree.walk


CALLABLES = dict(_public_callables())
PARAMETERS = {name: inspect.signature(obj).parameters for name, obj in CALLABLES.items()}


def _kind(name, parameter):
    return KIND_OF_CALL.get((name, parameter), KIND.get(parameter))


def test_every_parameter_has_a_pool():
    missing = [(name, p) for name, params in PARAMETERS.items() for p in params if _kind(name, p) not in POOLS]
    assert not missing


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(CALLABLES)))
    return name, {p: draw(st.sampled_from(POOLS[_kind(name, p)])) for p in PARAMETERS[name]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("library-files")
    ed.save_state(BELL, root / "state.json")
    ed.save_tree(ed.default_tree_2q(), root / "tree.json")
    return root


# NaN and infinite inputs make numpy warn on the way to a refusal.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(call=calls())
# Inputs that once raised a Python exception other than an EntDetectError.
@example(call=("generate_tree", {"n": 2, "root": ("z", "q")}))
@example(call=("priority_order", {"measured": [ed.CorrelationRecord(("z", "0"), 1.0)],
                                  "remaining": [("x", "x")]}))
@example(call=("priority_order", {"measured": [], "remaining": [("z", "z"), ("z", "0")]}))
@example(call=("MeasurementSource", {"state": ed.ket("00")}))
@example(call=("anticommute", {"a": ("z", "q"), "b": ("z", "z")}))
@example(call=("random_pure", {"n": 2, "seed": -1}))
@example(call=("random_pure", {"n": 2, "seed": 1.5}))
@example(call=("random_mixed", {"n": 2, "seed": -1}))
@example(call=("random_frame", {"n": 2, "seed": -1}))
@example(call=("haar_unitary", {"dim": 2, "rng": -1}))
@example(call=("CorrelationRecord", {"index": ("z", "z"), "value": 0.5, "shots": 4500.5}))
@example(call=("MeasurementSource", {"state": BELL, "shots": True, "rng": 1}))
@example(call=("MeasurementSource", {"state": BELL, "shots": 4500, "rng": -1}))
@example(call=("ket", {"bits": "0q"}))
@example(call=("random_mixed", {"n": 2, "seed": 1, "rank": 1.5}))
@example(call=("haar_unitary", {"dim": 4500.5, "rng": 1}))
@example(call=("schmidt_oracle", {"psi": BELL.density()}))
@example(call=("project_first_qubit", {"state": BELL.density(), "direction": np.array([1.0, 0.0])}))
@example(call=("ppt_verdict", {"rho": BELL}))
@example(call=("purity", {"rho": BELL}))
@example(call=("apply_filter", {"rho": BELL, "f": ed.FilterOp(0, 0.5)}))
@example(call=("all_full_indices", {"n": -1}))
@example(call=("state_from_dict", {"data": {"n_qubits": math.nan, "amplitudes": [[1, 0]] * 4}}))
# Inputs that were accepted, or raised another exception, where the contract refuses them.
@example(call=("sweeps.ExperimentConfig", {"seed": 1.5}))
@example(call=("sweeps.ExperimentConfig", {"seed": True}))
@example(call=("sweeps.ExperimentConfig", {"seed": None}))
@example(call=("sweeps.sweep_purity", {"n_samples": 1000, "cfg": sweeps.ExperimentConfig(seed=np.int64(5))}))
@example(call=("sweeps.sweep_purity", {"n_samples": 1000.5, "cfg": sweeps.ExperimentConfig()}))
@example(call=("sweeps.sweep_purity", {"n_samples": 1000, "cfg": sweeps.ExperimentConfig(), "bins": 2.5}))
@example(call=("sweeps.sweep_werner", {"p_values": [0.5], "cfg": sweeps.ExperimentConfig(shots=150), "repeats": 2.5}))
@example(call=("generate_tree", {"n": True, "root": "z"}))
@example(call=("generate_tree", {"n": 2.0, "root": "zz"}))
@example(call=("generate_tree", {"n": 2, "root": "zz", "max_depth": 2.5}))
@example(call=("MeasurementSource.measure_directions",
               {"self": _source(BELL), "directions": [[math.nan, 0, 1], [0, 0, 1]]}))
@example(call=("MeasurementSource.measure_directions",
               {"self": _source(BELL, 4500), "directions": [[math.nan, 0, 1], [0, 0, 1]]}))
@example(call=("MeasurementSource.measure_directions",
               {"self": _source(BELL), "directions": [[1e308, 1e308, 0], [0, 0, 1]]}))
@example(call=("bloch_to_basis", {"alpha": np.array([math.nan, 0.0, 0.0])}))
@example(call=("CompiledTree.walk", {"self": POOLS["compiled"][0], "values": WERNER_ROWS, "threshold": math.nan}))
@example(call=("CompiledTree", {"tree": _tree(("z", "z"), ("z", "z"))}))
@example(call=("CompiledTree.walk", {"self": POOLS["compiled"][0], "values": np.zeros((1, 4)), "threshold": 0.5}))
@example(call=("starting_index_from_bloch", {"blochs": [np.array([math.nan, 0.0, 0.0])]}))
def test_every_public_call_returns_or_raises_an_entdetect_error(files, call):
    name, kwargs = call
    kwargs = {p: v() if callable(v) else v for p, v in kwargs.items()}
    kwargs = {p: files / f"{v[1:]}.json" if isinstance(v, str) and v.startswith("@") else v
              for p, v in kwargs.items()}
    refused = [p for p, v in kwargs.items() if REFUSED.get(_kind(name, p), lambda v: False)(v)]
    try:
        out = CALLABLES[name](**kwargs)
        if isinstance(out, types.GeneratorType):
            list(out)
    except ed.EntDetectError:
        return
    assert not refused, f"{name} accepted {', '.join(f'{p}={kwargs[p]!r}' for p in refused)}"
