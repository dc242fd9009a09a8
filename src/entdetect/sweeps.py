"""Parameter sweeps: detection across the Werner family, and across the
Ginibre ensemble binned by purity. This module draws, checks and tallies;
the walk is tree.CompiledTree's.

Both sweeps work on stacks of at most CHUNK states: each stack is drawn
and checked, its exact full correlations are taken from its Pauli
tensors, and its rows are walked as soon as it is ready. In shot mode a
stack first draws every value of every row at once through the one
binomial model, correlations.sample. A run measures each index at most
once, and each draw is an independent binomial given the state, so
drawing all 3^n values up front gives every run the distribution of
run_tree's lazy draws. Every stack is walked through the default
two-qubit tree, compiled once per process (tree._default_plan_2q), at the
sweep's threshold and shot count.

Seeding: the purity sweep draws sample i from the i-th generator spawned
from SeedSequence(seed), so both modes draw the same states. The seed
words of a chunk's children are computed in one pass (_spawned_words)
rather than through one SeedSequence and one default_rng per sample, and
the rank is read from the first raw word; the streams and draws are the
same. The shot noise of either sweep comes from one generator seeded with
SeedSequence([seed, 1]), drawn row by row in sample order, so it does not
depend on CHUNK.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .correlations import check_error_multiplier, check_shots, full_positions, pauli_tensors, sample
from .errors import DomainError
from .oracles import ppt_test
from .states import check_density, make_werner, purities, unit_trace
from .tree import _default_plan_2q

MIN_SHOTS = 100
# Rows drawn, validated and walked together: large enough to amortize the
# per-stack numpy calls, small enough that memory does not grow with the
# sample count. A walk holds 9 values per row.
CHUNK = 1024
_FULL_2Q = full_positions(2)  # where the two-qubit full values sit in a Pauli tensor
# Constants of numpy's SeedSequence, whose output NEP 19 keeps stable.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass
class ExperimentConfig:
    """Validated run settings shared by the commands."""

    shots: Optional[int] = None  # None = exact mode
    seed: int = 0
    threshold: float = 0.5
    error_multiplier: float = 1.0

    def __post_init__(self):
        if self.shots is not None:
            check_shots(self.shots, MIN_SHOTS)
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.threshold < 1.0:
            raise DomainError(f"threshold must be in (0, 1), got {self.threshold}")
        check_error_multiplier(self.error_multiplier)


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


def _sweep(chunks, parameters, cfg: ExperimentConfig) -> SweepResult:
    """Walk every run of the chunks through the default tree and tally the
    runs by group, one row per group that ran at least once.

    chunks yields (group, exact) pairs: a row of exact holds one run's values
    for all_full_indices(2), and group the index of the parameter it counts
    toward. Each pair is walked as it is yielded; in shot mode its values
    are first drawn from the sweep's noise generator, and each walk derives
    their standard errors from cfg.shots.
    """
    plan = _default_plan_2q()
    noise = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    runs, hits = np.zeros((2, len(parameters)), dtype=int)
    steps = np.zeros(len(parameters))
    for group, exact in chunks:
        values = exact if cfg.shots is None else sample(exact, cfg.shots, noise)
        walk = plan.walk(values, cfg.threshold, cfg.shots, cfg.error_multiplier)
        np.add.at(runs, group, 1)
        np.add.at(hits, group[walk.detected], 1)
        np.add.at(steps, group[walk.detected], walk.steps[walk.detected])
    result = SweepResult()
    for p, n, h, s in zip(parameters, runs, hits, steps):
        if n:
            result.rows.append(SweepRow(float(p), h / n, s / h if h else None, int(n), cfg.seed))
    return result


def sweep_werner(
    p_values, cfg: ExperimentConfig, repeats: int = 20
) -> SweepResult:
    """Detection across the Werner family, one row per mixing probability;
    each probability runs once in exact mode and repeats times in shot mode."""
    if repeats < 1:
        raise DomainError(f"repeats must be >= 1, got {repeats}")
    n_runs = 1 if cfg.shots is None else repeats
    total = len(p_values) * n_runs
    if total >= 2**32:
        raise DomainError(f"werner sweep takes fewer than 2^32 runs, got {total}")

    def chunks():
        for start in range(0, total, CHUNK):
            point = np.arange(start, min(start + CHUNK, total)) // n_runs
            werner = [make_werner(p).matrix for p in p_values[point[0] : point[-1] + 1]]
            yield point, pauli_tensors(np.array(werner))[point - point[0]][:, _FULL_2Q]

    return _sweep(chunks(), p_values, cfg)


def _spawned_words(seed: int, start: int, count: int) -> np.ndarray:
    """generate_state(4, np.uint64) of the children start .. start+count-1 of
    SeedSequence(seed).spawn, as a (count, 4) uint64 array.

    numpy's hashmix/mix pool of size 4 over the entropy words: the seed's
    32-bit words, padded with zeros to the pool size (as for any non-empty
    spawn key), then the child index, which must be below 2^32. Python ints
    carry the words that do not depend on the child; uint64 arrays masked
    to 32 bits carry the rest.
    """
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = words + [0] * (4 - len(words)) + [np.arange(start, start + count, dtype=np.uint64)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * _MULT_A & _MASK32) & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = np.empty((count, 8), dtype=np.uint64)
    const = _INIT_B
    for k in range(8):
        value = (pool[k % 4] ^ const) * (const := const * _MULT_B & _MASK32) & _MASK32
        state[:, k] = value ^ value >> 16
    return state[:, 0::2] | state[:, 1::2] << 32  # little-endian pairs


class _StateWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


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
    if n_samples >= 2**32:
        raise DomainError(f"purity sweep takes fewer than 2^32 samples, got {n_samples}")
    if bins < 1:
        raise DomainError(f"purity sweep needs at least one bin, got {bins}")
    edges = np.linspace(0.25, 1.0, bins + 1)

    def chunks():
        stack = np.empty((CHUNK, 4, 4), dtype=complex)
        gauss = np.empty((CHUNK, 32))  # a (2, 4, rank) block per row: real, imaginary parts
        ranks = np.empty(CHUNK, dtype=int)
        for start in range(0, n_samples, CHUNK):
            count = min(CHUNK, n_samples - start)
            for i, words in enumerate(_spawned_words(cfg.seed, start, count)):
                bits = np.random.PCG64(_StateWords(words))
                # Generator.integers(1, 5) exactly: numpy's buffered Lemire
                # method takes the low 32 bits of the first output, and for a
                # range of 4 its rejection threshold (2^32 - 4) % 4 is 0, so it
                # never draws again. standard_normal never reads the buffered
                # high half.
                rank = ranks[i] = 1 + ((bits.random_raw() & _MASK32) >> 30)
                np.random.Generator(bits).standard_normal(out=gauss[i, : 8 * rank])
            # ginibre_product's g g^dagger, one matmul per rank: padding the
            # factors to rank 4 would change the shapes BLAS sees.
            chunk = stack[:count]
            for rank in range(1, 5):
                pick = np.flatnonzero(ranks[:count] == rank)
                g = gauss[pick, : 8 * rank].reshape(-1, 2, 4, rank)
                g = g[:, 0] + 1j * g[:, 1]
                chunk[pick] = g @ g.conj().swapaxes(-1, -2)
            chunk = unit_trace(chunk)
            check_density(chunk)
            rhos = chunk[ppt_test(chunk)[0]]
            b = np.minimum(((purities(rhos) - 0.25) / (0.75 / bins)).astype(int), bins - 1)
            yield b, pauli_tensors(rhos)[:, _FULL_2Q]

    return _sweep(chunks(), (edges[:-1] + edges[1:]) / 2, cfg)
