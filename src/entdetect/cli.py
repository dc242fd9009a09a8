"""Command-line front end: argument parsing and output for detection runs,
named-state demos and parameter sweeps.

Subcommands: detect | schmidt | sweep-werner | sweep-purity | state-gen |
tree-gen. The sweeps themselves live in entdetect.sweeps; ExperimentConfig
holds the settings the commands share, and file paths stay on the parsed
arguments. Every command is deterministic under a fixed --seed, shot mode
included: a single run draws its shots from default_rng(seed); the purity
sweep draws sample i from the i-th SeedSequence(seed) child, and the shot
noise of either sweep comes from SeedSequence([seed, 1]) (entdetect.sweeps).
Exit codes: 0 = ran (the verdict is data in the output), 2 = input error,
3 = numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from typing import Optional

import numpy as np

from . import __version__
from .correlations import DetectionResult, format_index
from .errors import (
    DegenerateDirection,
    DomainError,
    EntDetectError,
    NotHermitian,
    ParseError,
    ZeroSuccess,
)
from .schmidt import run_protocol
from .sources import MeasurementSource
from .states import (
    DensityMatrix,
    apply_frame,
    as_density,
    bell_phi_plus,
    load_state,
    make_colored,
    make_dicke,
    make_g,
    make_w,
    make_werner,
    random_frame,
    save_state,
    singlet,
)
from .sweeps import MAX_GRID_POINTS, ExperimentConfig, sweep_purity, sweep_werner
from .tree import (
    DecisionTree,
    default_tree_2q,
    generate_tree,
    load_tree,
    run_tree,
    run_with_bloch_start,
    save_tree,
    tree_to_dict,
)

DEFAULT_SHOTS = 4500


def parse_mode(text: str) -> Optional[int]:
    """"exact" -> None; "shots" -> 4500; "shots=N" -> N."""
    if text == "exact":
        return None
    if text == "shots":
        return DEFAULT_SHOTS
    if text.startswith("shots="):
        try:
            return int(text.split("=", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad shot count in mode {text!r}") from exc
    raise ParseError(f"mode must be 'exact', 'shots' or 'shots=N', got {text!r}")


def parse_state_spec(spec: str) -> DensityMatrix:
    """Named constructor (werner:p, colored:p, bell, singlet, w, g,
    dicke:n:k) or a path to a state JSON file."""
    name, _, rest = spec.partition(":")
    try:
        if name == "werner":
            return make_werner(float(rest))
        if name == "colored":
            return make_colored(float(rest))
        if name == "bell":
            return bell_phi_plus().density()
        if name == "singlet":
            return singlet().density()
        if name == "w":
            return make_w().density()
        if name == "g":
            return make_g().density()
        if name == "dicke":
            n_text, _, k_text = rest.partition(":")
            return make_dicke(int(n_text), int(k_text)).density()
    except (ValueError, DomainError) as exc:
        raise ParseError(f"bad state spec {spec!r}: {exc}") from exc
    if spec.endswith(".json"):
        return as_density(_load_file(load_state, spec, "state"))
    raise ParseError(f"unknown state spec {spec!r}")


def _load_file(loader, path: str, kind: str):
    """Read a state or tree file: a malformed one is a ParseError, while a
    package error (a non-Hermitian matrix, say) or an OSError passes through."""
    try:
        return loader(path)
    except EntDetectError:
        raise
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ParseError(f"malformed {kind} file {path}: {exc}") from exc


def _prepare_state(args) -> DensityMatrix:
    state = parse_state_spec(args.state)
    if args.frame_seed is not None:
        state = apply_frame(state, random_frame(state.n_qubits, args.frame_seed))
    return state


def _result_payload(result: DetectionResult, cfg: ExperimentConfig) -> dict:
    return {
        "verdict": result.verdict,
        "detected": result.detected,
        "sum_of_squares": result.sum_of_squares,
        "propagated_error": result.propagated_error,
        "steps": result.steps,
        "strategy": result.strategy,
        "seed": cfg.seed,
        "mode": "exact" if cfg.shots is None else f"shots={cfg.shots}",
        "transcript": [
            {
                "index": format_index(r.index),
                "value": r.value,
                "stderr": r.stderr,
                "shots": r.shots,
            }
            for r in result.records
        ],
        "details": result.details,
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_summary(result: DetectionResult) -> None:
    print(f"verdict: {result.verdict}")
    print(f"sum of squares: {result.sum_of_squares:.6f}")
    print(f"steps: {result.steps}")
    for r in result.records:
        noise = "" if r.shots is None else f" +- {r.stderr:.4f} ({r.shots} shots)"
        print(f"  T_{format_index(r.index)} = {r.value:+.4f}{noise}")


def detect_once(
    state: DensityMatrix, cfg: ExperimentConfig, tree: Optional[DecisionTree] = None
) -> DetectionResult:
    """One decision-tree run; 2-qubit states use the canonical zz-rooted
    plan, larger ones start from the Bloch-vector heuristic."""
    source = MeasurementSource(state, cfg.shots, np.random.default_rng(cfg.seed))
    if tree is not None:
        return run_tree(source, tree, error_multiplier=cfg.error_multiplier)
    if state.n_qubits == 2:
        return run_tree(
            source, default_tree_2q(cfg.threshold), error_multiplier=cfg.error_multiplier
        )
    return run_with_bloch_start(
        source, threshold=cfg.threshold, error_multiplier=cfg.error_multiplier
    )


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        shots=parse_mode(args.mode),
        seed=args.seed,
        threshold=getattr(args, "threshold", ExperimentConfig.threshold),  # absent unless given; schmidt has none
        error_multiplier=args.error_multiplier,
    )


def cmd_detect(args) -> int:
    if args.tree and hasattr(args, "threshold"):
        raise ParseError("a tree file carries its own threshold; --threshold cannot go with --tree")
    cfg = _config_from_args(args)
    state = _prepare_state(args)
    tree = None
    if args.tree:
        tree = _load_file(load_tree, args.tree, "tree")
    elif args.root:
        tree = generate_tree(state.n_qubits, args.root, threshold=cfg.threshold)
    result = detect_once(state, cfg, tree)
    _print_summary(result)
    if args.out:
        _emit(json.dumps(_result_payload(result, cfg), indent=2) + "\n", args.out)
    return 0


def cmd_schmidt(args) -> int:
    cfg = _config_from_args(args)
    state = _prepare_state(args)
    source = MeasurementSource(state, cfg.shots, np.random.default_rng(cfg.seed))
    result = run_protocol(
        source,
        filter_eps=args.filter_eps,
        always_extra=not args.minimal,
        error_multiplier=cfg.error_multiplier,
    )
    _print_summary(result)
    if result.details.get("filter"):
        f = result.details["filter"]
        print(f"filter applied (eps={f['eps']}, success probability {f['success_probability']:.4f})")
    if args.out:
        _emit(json.dumps(_result_payload(result, cfg), indent=2) + "\n", args.out)
    return 0


def cmd_sweep_werner(args) -> int:
    cfg = _config_from_args(args)
    if not (0.0 <= args.p_min <= args.p_max <= 1.0 and 0.0 < args.step < math.inf):
        raise ParseError("werner sweep grid must satisfy 0 <= p-min <= p-max <= 1, 0 < step < inf")
    points = (args.p_max - args.p_min) / args.step + 1e-9
    if points >= MAX_GRID_POINTS:
        raise ParseError(f"werner sweep grid exceeds {MAX_GRID_POINTS} points")
    count = int(math.floor(points)) + 1
    grid = [round(args.p_min + i * args.step, 12) for i in range(count)]
    sweep = sweep_werner(grid, cfg, repeats=args.repeats)
    _emit(sweep.to_json() + "\n" if args.format == "json" else sweep.to_csv(), args.out)
    return 0


def cmd_sweep_purity(args) -> int:
    cfg = _config_from_args(args)
    sweep = sweep_purity(args.samples, cfg, bins=args.bins)
    _emit(sweep.to_json() + "\n" if args.format == "json" else sweep.to_csv(), args.out)
    return 0


def cmd_state_gen(args) -> int:
    state = parse_state_spec(args.state)
    save_state(state, args.out)
    print(f"wrote {args.state} ({state.n_qubits} qubits) to {args.out}")
    return 0


def cmd_tree_gen(args) -> int:
    tree = generate_tree(args.n, args.root, threshold=args.threshold, max_depth=args.max_depth)
    if args.out:
        save_tree(tree, args.out)
        print(f"wrote tree rooted at {args.root} to {args.out}")
    else:
        print(json.dumps(tree_to_dict(tree)))
    return 0


def _add_common(parser, *, frame=True, threshold=True):
    parser.add_argument("--mode", default="exact", help="exact | shots | shots=N (default exact)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    if threshold:
        parser.add_argument("--threshold", type=float, default=argparse.SUPPRESS,
                            help="big/small branching threshold (default 0.5)")
    parser.add_argument(
        "--error-multiplier", type=float, default=1.0,
        help="standard errors subtracted before the detection verdict in shot mode",
    )
    parser.add_argument("--out", default=None, help="output file path")
    if frame:
        parser.add_argument("--frame-seed", type=int, default=None,
                            help="apply a random local frame drawn from this seed")


@cache  # argparse keeps no state of a parse on the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdetect",
        description="Entanglement detection from correlation measurements",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the decision tree on a state")
    p.add_argument("state", help="state spec (werner:0.8, colored:0.3, bell, w, g, dicke:4:2, file.json)")
    _add_common(p)
    plan = p.add_mutually_exclusive_group()
    plan.add_argument("--tree", default=None, help="JSON file with a measurement plan and its threshold")
    plan.add_argument("--root", default=None, help="root a generated tree at this index (e.g. zz)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("schmidt", help="run the Schmidt-basis calibration protocol")
    p.add_argument("state", help="two-qubit state spec")
    _add_common(p, threshold=False)
    p.add_argument("--filter-eps", type=float, default=0.5, help="filter strength (default 0.5)")
    p.add_argument("--minimal", action="store_true",
                   help="phase-gated variant: skip the extra correlation unless the phase is small")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("sweep-werner", help="detection across the Werner family")
    _add_common(p, frame=False)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--repeats", type=int, default=20, help="shot-mode runs per grid point")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep_werner)

    p = sub.add_parser("sweep-purity", help="detection fraction vs purity for random mixed states")
    _add_common(p, frame=False)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep_purity)

    p = sub.add_parser("state-gen", help="write a named state to a JSON file")
    p.add_argument("state")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_state_gen)

    p = sub.add_parser("tree-gen", help="generate a measurement plan and write it as JSON")
    p.add_argument("n", type=int, help="number of qubits")
    p.add_argument("root", help="root index, e.g. zz or xxx")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tree_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (NotHermitian, ZeroSuccess, DegenerateDirection, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (EntDetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
