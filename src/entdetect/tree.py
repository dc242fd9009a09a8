"""Adaptive decision-tree measurement plans and the walks that run them.

A tree node holds one full correlation index; after a "big" outcome
(|value| >= threshold) the walk continues along the big branch, otherwise
along the small branch. Every node commutes with all the big-outcome
ancestors on its path: once some |T_a| is large, trade-off relations force
every anti-commuting partner of a to be small, so only commuting candidates
remain worth measuring.

Child selection among the allowed candidates is deterministic:

1. skip candidates c for which a commuting (big, small) ancestor pair
   multiplies to c -- near a joint eigenstate those products force |T_c| to
   be small as well;
2. prefer candidates commuting with the small-outcome ancestors (fewer
   spent trade-off budgets);
3. break ties by the cyclic letter distance from the parent index,
   position by position, with the axis cycle z -> y -> x.

A child depends only on its path, so a generated tree computes each child
when it is first read: a run computes only the nodes it walks, a full
traversal expands the whole plan; a node keeps only its path, whose indices
are the candidates it rules out.

The labels z, y, x of a full index are the base-3 digits 0, 1, 2 of its place
in all_full_indices(n), and index_tables(n) builds every table from that one
digit array. Two full indices anti-commute when they differ at an odd number
of parties. Where two labels differ, their product is, up to phase, the
third axis (digit 3 - a - b); where they agree, it is the identity. So a
commuting pair's product is full only when the pair differs at every party,
and at odd n no product of a commuting pair is full. The cyclic distance is
the digit-wise difference mod 3, and a cyclic renaming z -> y -> x of one
party adds 1 mod 3 to its digit. The tests hold the tables to the (x, z)
bitmask algebra of Aaronson & Gottesman (PRA 70, 052328 (2004)). The tables
are read-only and built once per process, so that choosing a child is a few
array operations: mask the allowed candidates, take the argmin of the key.

On tree exhaustion the run continues with a priority-ordered queue over the
unmeasured indices (lowest spent trade-off budget first). run_tree walks
one run; CompiledTree.walk takes a stack of rows through the same rules.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .correlations import (
    CorrelationRecord,
    CriterionState,
    DetectionResult,
    Index,
    all_full_indices,
    check_error_multiplier,
    check_shots,
    criterion_add,
    criterion_met,
    error_variance,
    format_index,
    is_full,
    parse_index,
    standard_error,
)
from .errors import DimensionMismatch, DomainError, NonFullCorrelation
from .linalg import PAULI_LABELS
from .sources import measure_bloch
from .states import check_int, check_qubits

# A full index's labels are the base-3 digits of its place in all_full_indices.
_AXIS_POS = {"z": 0, "y": 1, "x": 2}


def anticommute(a: Index, b: Index) -> bool:
    """True when the product operators anti-commute: when an odd number of
    parties hold two different non-identity labels."""
    if len(a) != len(b):
        raise DimensionMismatch(f"index lengths differ: {len(a)} vs {len(b)}")
    if not set(a) | set(b) <= set(PAULI_LABELS):
        raise DomainError(f"bad Pauli label in {a!r} or {b!r}")
    return sum(p != q and "0" not in (p, q) for p, q in zip(a, b)) % 2 == 1


IndexTables = namedtuple("IndexTables", "fulls position anti product distance")


@cache
def index_tables(n: int) -> IndexTables:
    """Read-only tables over the 3^n full indices, built once: fulls (in
    all_full_indices order), position (index -> place), and by place anti
    (pairs that anti-commute), product (place of a commuting pair's product,
    -1 if it is not full) and distance[p, c] (cyclic, of c from p, as one
    base-3 number). Lexicographic (x < y < z) order is descending place."""
    fulls = tuple(all_full_indices(n))
    digits = np.array([[_AXIS_POS[c] for c in idx] for idx in fulls])
    # Party by party, for the pair (p, c): the digits of p and of c.
    p, c = digits[:, None], digits[None, :]
    weights = 3 ** np.arange(n - 1, -1, -1)
    differ = p != c
    anti = differ.sum(axis=2) % 2 == 1
    # Where two labels differ, their product is the third axis, 3 - p - c;
    # where they agree, it is the identity. So a product is full only when
    # the labels differ at every party, and at odd n no such pair commutes.
    product = np.where(~anti & differ.all(axis=2), (3 - p - c) @ weights, -1)
    distance = ((c - p) % 3) @ weights
    for table in (anti, product, distance):
        table.setflags(write=False)
    return IndexTables(fulls, {idx: k for k, idx in enumerate(fulls)}, anti, product, distance)


@dataclass
class TreeNode:
    """A node with explicit children, as read from a tree file."""

    index: Index
    big: Optional["TreeNode"] = None
    small: Optional["TreeNode"] = None


class _PlannedNode(TreeNode):
    """A node of a generated tree: each child is the best candidate after
    the node's path, computed the first time it is read and then kept."""

    def __init__(self, index: Index, ancestors: list, depth_left: int):
        self.index = index
        self._ancestors = ancestors  # (index, outcome_big) pairs above this node
        self._depth_left = depth_left

    def _child(self, outcome_big: bool) -> Optional[TreeNode]:
        if self._depth_left <= 0:
            return None
        path = self._ancestors + [(self.index, outcome_big)]
        choice = _best_child(path)
        if choice is None:
            return None
        return _PlannedNode(index_tables(len(self.index)).fulls[choice], path, self._depth_left - 1)

    @cached_property
    def big(self) -> Optional[TreeNode]:
        return self._child(True)

    @cached_property
    def small(self) -> Optional[TreeNode]:
        return self._child(False)


def check_threshold(threshold) -> None:
    """Raise DomainError unless the branching threshold is in (0, 1)."""
    if not 0.0 < threshold < 1.0:  # NaN fails too
        raise DomainError(f"threshold must be in (0, 1), got {threshold}")


@dataclass
class DecisionTree:
    root: TreeNode
    threshold: float = 0.5

    def __post_init__(self):
        check_threshold(self.threshold)

    @property
    def n_qubits(self) -> int:
        return len(self.root.index)


def _best_child(path) -> Optional[int]:
    """Position of the best candidate after path, among the indices not on it."""
    t = index_tables(len(path[0][0]))
    big = [t.position[idx] for idx, outcome_big in path if outcome_big]
    small = [t.position[idx] for idx, outcome_big in path if not outcome_big]
    allowed = ~t.anti[big].any(axis=0)
    allowed[big + small] = False
    if not allowed.any():
        return None
    # How often each index is the product of a commuting (big, small) pair.
    forced = np.bincount(t.product[big][:, small].ravel() + 1, minlength=allowed.size + 1)[1:]
    # The allowed candidate of least (forced, small anti count, distance).
    distance = t.distance[t.position[path[-1][0]]]
    return int(np.lexsort((distance, t.anti[small].sum(axis=0), forced, ~allowed))[0])


def _plan(n: int, root: Index, threshold: float, max_depth: Optional[int]) -> DecisionTree:
    n = check_qubits(n)
    if max_depth is None:
        max_depth = 3**n if n <= 2 else 8
    max_depth = check_int(max_depth, 1, math.inf, "max_depth")
    root = parse_index(root)
    if len(root) != n:
        raise DimensionMismatch(f"root index length {len(root)} does not match n={n}")
    if not is_full(root):
        raise NonFullCorrelation("tree root must be a full correlation")
    return DecisionTree(_PlannedNode(root, [], max_depth - 1), threshold)


def generate_tree(
    n: int, root: Index, *, threshold: float = 0.5, max_depth: Optional[int] = None
) -> DecisionTree:
    """The measurement plan rooted at a given full index.

    n runs from 1 to MAX_QUBITS. max_depth (at least 1) bounds the path
    length; the default is the full 3^n for one or two qubits and 8 for
    more (the run continues with the priority queue past the leaves, so a
    capped tree loses no coverage). Children are computed when first read.
    """
    return _plan(n, root, threshold, max_depth)


def default_tree_2q(threshold: float = 0.5) -> DecisionTree:
    """The two-qubit plan rooted at zz (big branch continues with yy)."""
    return generate_tree(2, ("z", "z"), threshold=threshold)


def _places(t: IndexTables, indices: Sequence[Index]) -> list[int]:
    """The place of each index in t; NonFullCorrelation for one that is not
    a full index of t's qubit count."""
    try:
        return [t.position[tuple(idx)] for idx in indices]
    except KeyError as exc:
        raise NonFullCorrelation(f"{exc.args[0]} is not a full {len(t.fulls[0])}-qubit index") from None


def priority_order(
    measured: Iterable[CorrelationRecord], remaining: Sequence[Index]
) -> list[Index]:
    """Order unmeasured indices by the spent trade-off budget.

    The priority of an index is the sum of squared measured values over the
    measured correlations that anti-commute with it (at two qubits these are
    exactly the row and column partners). Lower priority values are measured
    first; ties break lexicographically (x < y < z). Every index, measured
    or remaining, must be a full index of as many qubits as the first
    remaining one (NonFullCorrelation otherwise).
    """
    remaining = list(remaining)
    if not remaining:
        return []
    t = index_tables(len(remaining[0]))
    measured = list(measured)
    anti = t.anti[_places(t, [r.index for r in measured])]
    squares = np.array([r.value * r.value for r in measured])[:, None]
    # Down axis 0, numpy adds left to right in record order, as
    # CompiledTree.walk does (sum() compensates its rounding from Python 3.12 on).
    spent = (anti * squares).sum(axis=0)
    place = _places(t, remaining)
    return [remaining[k] for k in np.lexsort((np.negative(place), spent[place]))]


def run_tree(source, tree: DecisionTree, *, error_multiplier: float = 1.0) -> DetectionResult:
    """Walk the tree, then the priority queue, until detection or exhaustion.

    Branching uses the central value against the threshold; in shot mode the
    detection verdict additionally subtracts the propagated error. The
    priority stage reads the CriterionState's measured set; a repeated index
    (possible in a hand-built tree) raises DuplicateIndex, so a run ends
    within 3^n steps.
    """
    if source.n_qubits != tree.n_qubits:
        raise DimensionMismatch(
            f"source has {source.n_qubits} qubits, tree expects {tree.n_qubits}"
        )
    check_error_multiplier(error_multiplier)
    crit, records = CriterionState(), []

    def detects(index: Index) -> bool:
        records.append(source.measure_index(index))
        return criterion_add(crit, records[-1], error_multiplier)

    node = tree.root
    while node is not None:
        if detects(node.index):
            return DetectionResult(tuple(records), True, "tree")
        node = node.big if abs(records[-1].value) >= tree.threshold else node.small
    queue = priority_order(records, [i for i in all_full_indices(tree.n_qubits) if i not in crit.measured])
    detected = any(detects(index) for index in queue)  # stops at the first detection
    return DetectionResult(tuple(records), detected, "tree+priority" if queue else "tree")


class Walk(NamedTuple):
    """Outcome of CompiledTree.walk for each row: the verdict, the number of
    criterion steps, and the measured full indices in order, as positions in
    all_full_indices(n) padded with -1."""

    detected: np.ndarray
    steps: np.ndarray
    sequence: np.ndarray


class CompiledTree:
    """A decision tree expanded once into arrays, to walk a stack of rows
    through it (walk). Node k measures the full index full_id[k] and
    continues with node big[k] or small[k] (-1: none); the root is node 0."""

    def __init__(self, tree: DecisionTree):
        self.n_qubits = tree.n_qubits
        tables = index_tables(tree.n_qubits)
        ids, self.anti = tables.position, tables.anti
        nodes = [tree.root]
        full_id, children = [], []
        for node in nodes:  # breadth first; nodes grows as children are found
            full_id.append(ids[tuple(node.index)])
            pair = []
            for child in (node.big, node.small):
                pair.append(-1 if child is None else len(nodes))
                if child is not None:
                    nodes.append(child)
            children.append(pair)
        self.full_id = np.array(full_id)
        self.big, self.small = np.array(children).T
        for table in (self.full_id, self.big, self.small):  # read-only, like the shared tables
            table.setflags(write=False)

    def walk(
        self, values: np.ndarray, threshold: float, shots=None, error_multiplier: float = 1.0
    ) -> Walk:
        """run_tree for a stack of rows at once, branching at threshold.

        values is a (N, 3^n) stack of the values each row's source would
        return for all_full_indices(n), each estimated from shots outcomes
        (None in exact mode). Each row takes the path run_tree would take,
        adding v^2 and its error variance in the same order and stopping at
        detection by criterion_met; a row that leaves the tree undetected
        continues through priority_order's queue: unmeasured indices by their
        spent budget, summed record by record in record order, ties broken
        by the index. threshold, shots and error_multiplier are checked
        before any row is walked.
        """
        check_threshold(threshold)
        if shots is not None:
            check_shots(shots)
        check_error_multiplier(error_multiplier)
        squares = values * values
        terms = error_variance(values, standard_error(values, shots))
        count, n_full = values.shape
        total = np.zeros(count)
        variance = np.zeros(count)
        steps = np.zeros(count, dtype=int)
        detected = np.zeros(count, dtype=bool)
        sequence = np.full((count, n_full), -1)
        rows = np.arange(count)

        def measure(live, full):
            total[live] += squares[live, full]
            variance[live] += terms[live, full]
            sequence[live, steps[live]] = full
            steps[live] += 1
            hit = criterion_met(total[live], variance[live], error_multiplier, self.n_qubits)
            detected[live[hit]] = True
            return hit

        live, node = rows, np.zeros(count, dtype=int)
        while live.size:
            full = self.full_id[node]
            hit = measure(live, full)
            big = np.abs(values[live, full]) >= threshold
            node = np.where(big, self.big[node], self.small[node])
            keep = ~hit & (node >= 0) & (steps[live] < n_full)
            live, node = live[keep], node[keep]

        live = rows[~detected & (steps < n_full)]
        spent = np.zeros((live.size, n_full))
        for k in range(n_full):
            full = sequence[live, k]
            anti = self.anti[full] & (full >= 0)[:, None]
            spent += np.where(anti, squares[live, full][:, None], 0.0)
        # The padding -1 marks the spare last column.
        measured = np.zeros((live.size, n_full + 1), dtype=bool)
        measured[np.arange(live.size)[:, None], sequence[live]] = True
        spent[measured[:, :n_full]] = np.inf
        queue = np.lexsort((np.broadcast_to(-np.arange(n_full), spent.shape), spent))
        unmeasured = n_full - steps[live]
        for j in range(n_full):
            go = (j < unmeasured) & ~detected[live]
            measure(live[go], queue[go, j])
        return Walk(detected, steps, sequence)


@cache
def _default_plan_2q() -> CompiledTree:
    """default_tree_2q compiled once per process. Its nodes do not depend
    on the threshold, which each sweep hands to walk."""
    return CompiledTree(default_tree_2q())


# A party's largest Bloch component must reach this to pick its root label.
DOMINANCE_THRESHOLD = 0.2


def starting_index_from_bloch(blochs: Sequence[np.ndarray]) -> tuple[Index, tuple[dict, ...]]:
    """Root index suggested by the local Bloch vectors.

    Each party contributes its dominant axis (largest |component| when it
    reaches DOMINANCE_THRESHOLD, else the default z). Also returns, per
    party, the cyclic axis renaming that carries a canonical x-rooted plan
    onto the suggested one.
    """
    dominant = []
    for b in blochs:
        b = np.asarray(b, dtype=float)
        if b.shape != (3,):
            raise DimensionMismatch("each Bloch vector must have 3 components")
        k = int(np.argmax(np.abs(b)))
        dominant.append("xyz"[k] if abs(b[k]) >= DOMINANCE_THRESHOLD else "z")
    # Renaming x to axis adds the same shift to every digit of the party.
    shift = {axis: _AXIS_POS[axis] - _AXIS_POS["x"] for axis in "xyz"}
    renamings = ({a: "zyx"[(_AXIS_POS[a] + shift[axis]) % 3] for a in "xyz"} for axis in dominant)
    return tuple(dominant), tuple(renamings)


def run_with_bloch_start(
    source, *, threshold: float = 0.5, error_multiplier: float = 1.0
) -> DetectionResult:
    """Measure the local Bloch vectors, root a tree of the default depth at
    the suggested index, and run it. The 3n local measurements appear in the
    transcript but do not count as criterion steps."""
    check_error_multiplier(error_multiplier)
    local_records, blochs, _ = measure_bloch(source)
    root, renamings = starting_index_from_bloch(blochs)
    # Not generate_tree, whose span hook in bench/spans.py expands the whole lazy plan.
    tree = _plan(source.n_qubits, root, threshold, None)
    result = run_tree(source, tree, error_multiplier=error_multiplier)
    details = {
        **result.details,
        "bloch_vectors": blochs.tolist(),
        "root": format_index(root),
        "axis_renamings": list(renamings),
    }
    return replace(
        result,
        records=tuple(local_records) + result.records,
        strategy="bloch+" + result.strategy,
        details=details,
    )


def iter_paths(tree: DecisionTree):
    """Yield every root-to-leaf path as a list of (index, outcome_big) pairs."""

    def walk(node, path):
        leaf = True
        for outcome_big, child in ((True, node.big), (False, node.small)):
            if child is not None:
                leaf = False
                yield from walk(child, path + [(node.index, outcome_big)])
        if leaf:
            yield path + [(node.index, None)]

    yield from walk(tree.root, [])


def validate_tree(tree: DecisionTree) -> None:
    """Check the path invariants: no repeats, and every node commutes with
    all big-outcome ancestors on its path. Raises DomainError on violation.
    Each node is checked once, by place, against the big-outcome ancestors
    carried down to it, in its row of the anti table."""
    t = index_tables(tree.n_qubits)
    anti = t.anti.tolist()

    def check(node, seen: frozenset, big_anc: tuple):
        index = node.index
        place = t.position.get(index)
        if place is None:
            raise DomainError(f"node {format_index(index)} is not a full index")
        if place in seen:
            raise DomainError(f"index {format_index(index)} repeats along a path")
        if any(anti[place][a] for a in big_anc):
            raise DomainError(
                f"node {format_index(index)} anti-commutes with a big-outcome ancestor"
            )
        seen = seen | {place}
        for outcome_big, child in ((True, node.big), (False, node.small)):
            if child is not None:
                check(child, seen, big_anc + (place,) if outcome_big else big_anc)

    check(tree.root, frozenset(), ())


def _node_to_dict(node: Optional[TreeNode]):
    if node is None:
        return None
    return {
        "index": format_index(node.index),
        "big": _node_to_dict(node.big),
        "small": _node_to_dict(node.small),
    }


def tree_to_dict(tree: DecisionTree) -> dict:
    return {"threshold": tree.threshold, "root": _node_to_dict(tree.root)}


def _node_from_dict(data) -> Optional[TreeNode]:
    if data is None:
        return None
    return TreeNode(
        parse_index(data["index"]),
        _node_from_dict(data.get("big")),
        _node_from_dict(data.get("small")),
    )


def tree_from_dict(data: dict) -> DecisionTree:
    root = _node_from_dict(data["root"])
    if root is None:
        raise DomainError("tree has no root")
    tree = DecisionTree(root, float(data.get("threshold", 0.5)))
    validate_tree(tree)
    return tree


def save_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh)


def load_tree(path) -> DecisionTree:
    with open(path, encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))
