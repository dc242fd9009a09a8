"""Parameter sweeps: detection across the Werner family, and across the
Ginibre ensemble binned by purity.

The exact purity sweep runs in batches. It draws each sample from its own
spawned generator, as a single run would, into a stack of up to CHUNK
matrices; the density-matrix checks, the PPT oracle, the purities and the
Pauli tensors then each run once on the whole stack, through the same
helpers the per-state functions call. CompiledTree.walk takes every state
of the stack through the decision tree and then the priority queue at once,
with the tree expanded into arrays. The Werner sweep (201 states on the
CLI's default grid) and the shot-mode sweeps keep the per-state run_tree
loop; in shot mode each sample's shot stream continues its own generator,
which a batch would reorder.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .correlations import all_full_indices, criterion_met, full_positions, pauli_tensors
from .errors import DomainError
from .oracles import ppt_test
from .sources import MeasurementSource
from .states import (
    DensityMatrix,
    check_density,
    ginibre_product,
    make_werner,
    purities,
    unit_trace,
)
from .tree import DecisionTree, anticommutation_table, default_tree_2q, run_tree

MIN_SHOTS = 100
# Samples drawn and walked together: large enough to amortize the per-batch
# numpy calls, small enough that memory does not grow with the sample count.
CHUNK = 256


@dataclass
class ExperimentConfig:
    """Validated run settings shared by the commands."""

    shots: Optional[int] = None  # None = exact mode
    seed: int = 0
    threshold: float = 0.5
    error_multiplier: float = 1.0

    def __post_init__(self):
        if self.shots is not None and self.shots < MIN_SHOTS:
            raise DomainError(f"shot mode needs at least {MIN_SHOTS} shots, got {self.shots}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.threshold < 1.0:
            raise DomainError(f"threshold must be in (0, 1), got {self.threshold}")
        if not 0.0 <= self.error_multiplier < math.inf:
            raise DomainError(f"error multiplier must be finite and >= 0, got {self.error_multiplier}")


@dataclass
class SweepRow:
    parameter: float
    fraction: float
    mean_steps: Optional[float]
    n_samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise DomainError(f"fraction {self.fraction} outside [0, 1]")
        if self.n_samples <= 0:
            raise DomainError("each sweep row needs at least one sample")


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["parameter,fraction,mean_steps,n_samples,seed"]
        for r in self.rows:
            steps = "" if r.mean_steps is None else f"{r.mean_steps:.10g}"
            lines.append(
                f"{r.parameter:.10g},{r.fraction:.10g},{steps},{r.n_samples},{r.seed}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.rows])


class Walk(NamedTuple):
    """Outcome of CompiledTree.walk for each state: the verdict, the number of
    criterion steps, and the measured full indices in order, as positions in
    all_full_indices(n) padded with -1."""

    detected: np.ndarray
    steps: np.ndarray
    sequence: np.ndarray


class CompiledTree:
    """A decision tree expanded once into arrays, to walk a stack of states
    through it in exact mode (walk). Node k measures the full index
    full_id[k] and continues with node big[k] or small[k] (-1: none); the
    root is node 0."""

    def __init__(self, tree: DecisionTree):
        n = tree.n_qubits
        fulls = all_full_indices(n)
        ids = {idx: k for k, idx in enumerate(fulls)}
        self.position = full_positions(n)
        self.anti = anticommutation_table(fulls)
        self.lex_rank = np.argsort(np.argsort(np.array(["".join(idx) for idx in fulls])))
        self.threshold = tree.threshold
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

    def walk(self, tensors: np.ndarray) -> Walk:
        """run_tree in exact mode for a stack of states at once.

        tensors is a (N, 4^n) stack of flattened Pauli tensors
        (pauli_tensors). Each state takes the path run_tree would take,
        adding v^2 to its running sum in the same order and stopping at
        detection by criterion_met; a state that leaves the tree undetected
        continues through priority_order's queue: unmeasured indices by their
        spent budget, summed record by record in record order, ties broken
        by the index.
        """
        values = tensors[:, self.position]
        squares = values * values
        count, n_full = values.shape
        total = np.zeros(count)
        steps = np.zeros(count, dtype=int)
        detected = np.zeros(count, dtype=bool)
        sequence = np.full((count, n_full), -1)
        rows = np.arange(count)

        def measure(live, full):
            total[live] += squares[live, full]
            sequence[live, steps[live]] = full
            steps[live] += 1
            hit = criterion_met(total[live])
            detected[live[hit]] = True
            return hit

        live, node = rows, np.zeros(count, dtype=int)
        while live.size:
            full = self.full_id[node]
            hit = measure(live, full)
            big = np.abs(values[live, full]) >= self.threshold
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
        queue = np.lexsort((np.broadcast_to(self.lex_rank, spent.shape), spent))
        unmeasured = n_full - steps[live]
        for j in range(n_full):
            go = (j < unmeasured) & ~detected[live]
            measure(live[go], queue[go, j])
        return Walk(detected, steps, sequence)


def sweep_werner(
    p_values, cfg: ExperimentConfig, repeats: int = 20
) -> SweepResult:
    """Detection across the Werner family, one row per mixing probability."""
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
    result = SweepResult()
    tree = default_tree_2q(cfg.threshold)
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(p_values))
    for p, seq in zip(p_values, seeds):
        state = make_werner(p)
        n_runs = 1 if cfg.shots is None else repeats
        rng = np.random.default_rng(seq)
        detected, steps = 0, []
        for _ in range(n_runs):
            source = MeasurementSource(state, cfg.shots, rng)
            run = run_tree(source, tree, error_multiplier=cfg.error_multiplier)
            if run.detected:
                detected += 1
                steps.append(run.steps)
        result.rows.append(
            SweepRow(
                parameter=float(p),
                fraction=detected / n_runs,
                mean_steps=(sum(steps) / len(steps)) if steps else None,
                n_samples=n_runs,
                seed=cfg.seed,
            )
        )
    return result


def sweep_purity(
    n_samples: int, cfg: ExperimentConfig, bins: int = 10
) -> SweepResult:
    """Detection fraction among PPT-entangled Ginibre states, binned by purity.

    Samples draw a uniformly random Ginibre rank from 1..4 so every purity
    bin between 0.25 and 1 is populated; rank-1 draws are pure states.
    Bins that contain no entangled sample are dropped (every emitted row has
    a positive sample count).
    """
    if n_samples < 1000:
        raise DomainError(f"purity sweep needs at least 1000 samples, got {n_samples}")
    if bins < 1:
        raise DomainError(f"purity sweep needs at least one bin, got {bins}")
    tree = default_tree_2q(cfg.threshold)
    edges = np.linspace(0.25, 1.0, bins + 1)
    entangled_count = np.zeros(bins, dtype=int)
    detected_count = np.zeros(bins, dtype=int)
    step_sums = np.zeros(bins)
    root = np.random.SeedSequence(cfg.seed)
    plan = CompiledTree(tree) if cfg.shots is None else None
    stack = np.empty((CHUNK, 4, 4), dtype=complex)
    for start in range(0, n_samples, CHUNK):
        batch = root.spawn(min(CHUNK, n_samples - start))  # continues the child count
        chunk = stack[: len(batch)]
        rngs = []  # kept in shot mode, where the runs continue each stream
        for i, seq in enumerate(batch):
            rng = np.random.default_rng(seq)
            chunk[i] = ginibre_product(4, int(rng.integers(1, 5)), rng)
            if plan is None:
                rngs.append(rng)
        chunk = unit_trace(chunk)
        check_density(chunk)
        entangled = np.flatnonzero(ppt_test(chunk)[0])
        rhos = chunk[entangled]
        b = np.minimum(((purities(rhos) - 0.25) / (0.75 / bins)).astype(int), bins - 1)
        np.add.at(entangled_count, b, 1)
        if plan is not None:
            walk = plan.walk(pauli_tensors(rhos))
            detected, steps = walk.detected, walk.steps
        else:
            runs = [
                run_tree(
                    MeasurementSource(DensityMatrix(2, rho), cfg.shots, rngs[i]),
                    tree,
                    error_multiplier=cfg.error_multiplier,
                )
                for rho, i in zip(rhos, entangled)
            ]
            detected = np.array([run.detected for run in runs], dtype=bool)
            steps = np.array([run.steps for run in runs], dtype=int)
        np.add.at(detected_count, b[detected], 1)
        np.add.at(step_sums, b[detected], steps[detected])
    result = SweepResult()
    for b in range(bins):
        if entangled_count[b] == 0:
            continue
        result.rows.append(
            SweepRow(
                parameter=float((edges[b] + edges[b + 1]) / 2),
                fraction=detected_count[b] / entangled_count[b],
                mean_steps=(step_sums[b] / detected_count[b]) if detected_count[b] else None,
                n_samples=int(entangled_count[b]),
                seed=cfg.seed,
            )
        )
    return result
