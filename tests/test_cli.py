import argparse
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NON_FINITE, non_finite_matrix
import entdetect as ed
from entdetect import bell_phi_plus, cli, load_tree, mat_equal
from entdetect.cli import main, parse_mode, parse_state_spec
from entdetect.errors import (
    DegenerateDirection,
    EntDetectError,
    NotHermitian,
    ParseError,
    ZeroSuccess,
)
from entdetect.states import load_state


def test_parse_mode():
    assert parse_mode("exact") is None
    assert parse_mode("shots") == 4500
    assert parse_mode("shots=2000") == 2000
    with pytest.raises(ParseError):
        parse_mode("fuzzy")


def test_parse_state_spec_named():
    assert parse_state_spec("werner:0.8").n_qubits == 2
    assert parse_state_spec("colored:0.3").n_qubits == 2
    assert parse_state_spec("bell").n_qubits == 2
    assert parse_state_spec("w").n_qubits == 3
    assert parse_state_spec("g").n_qubits == 3
    assert parse_state_spec("dicke:4:2").n_qubits == 4
    with pytest.raises(ParseError):
        parse_state_spec("werner:1.5")
    with pytest.raises(ParseError):
        parse_state_spec("nonsense")


def test_detect_werner(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["detect", "werner:0.8", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "detected"
    assert payload["steps"] == 2
    assert abs(payload["sum_of_squares"] - 1.28) < 1e-9
    assert [t["index"] for t in payload["transcript"]] == ["zz", "yy"]


def test_detect_g_state(tmp_path):
    out = tmp_path / "g.json"
    assert main(["detect", "g", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "detected"
    full = [t["index"] for t in payload["transcript"] if "0" not in t["index"]]
    assert full == ["xxx", "xzz"]
    assert payload["sum_of_squares"] > 1


def test_detect_bell_random_frame(tmp_path):
    out = tmp_path / "bell.json"
    assert main(["detect", "bell", "--frame-seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "detected"
    assert payload["steps"] <= 9


def test_schmidt_command(tmp_path):
    out = tmp_path / "schmidt.json"
    assert main(["schmidt", "bell", "--frame-seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "detected"
    assert payload["details"]["filter"] is not None
    assert abs(payload["sum_of_squares"] - 1.64) < 1e-9
    assert "relative_phase" in payload["details"]["frame"]
    assert "schmidt_frame" not in payload["details"]


def _framed(state, seed):
    return ed.apply_frame(state.density(), ed.random_frame(state.n_qubits, seed))


def _source(state, shots=None):
    return ed.MeasurementSource(state, shots, np.random.default_rng(7))


# Each strategy path of the runs whose details the payloads write out.
DETAIL_RUNS = {
    "tree-exact": lambda: ed.run_tree(_source(ed.make_werner(0.4)), ed.default_tree_2q()),
    "tree-shots": lambda: ed.run_tree(_source(ed.make_werner(0.9), 4500), ed.default_tree_2q()),
    "bloch-3q": lambda: ed.run_with_bloch_start(_source(_framed(ed.make_w(), 1))),
    "bloch-4q": lambda: ed.run_with_bloch_start(_source(_framed(ed.make_dicke(4, 2), 2), 4500)),
    "protocol-filtered": lambda: ed.run_protocol(_source(_framed(bell_phi_plus(), 3))),
    "protocol-unfiltered": lambda: ed.run_protocol(_source(_framed(ed.random_pure(2, 4), 5), 4500)),
    "protocol-phase-gated": lambda: ed.run_protocol(
        _source(_framed(ed.random_pure(2, 6), 7)), always_extra=False
    ),
    "protocol-aborted": lambda: ed.run_protocol(_source(ed.make_werner(0.0))),
}


@pytest.mark.parametrize("path", DETAIL_RUNS)
def test_details_serialize_as_json(path):
    details = DETAIL_RUNS[path]().details
    json.dumps(details)
    if path.startswith("bloch"):
        assert len(details["bloch_vectors"]) == int(path[-2])
    if path.startswith("protocol"):
        assert ("filter" in details) == (path in ("protocol-filtered", "protocol-aborted"))
        assert ("abort" in details) == (path == "protocol-aborted")
        assert details["mode"] == ("phase-gated" if path == "protocol-phase-gated" else "always-extra")


def _result_digest(result):
    text = json.dumps(
        [
            [(ed.format_index(r.index), r.value.hex(), r.stderr, r.shots) for r in result.records],
            result.steps,
            result.sum_of_squares.hex(),
            result.propagated_error.hex(),
            result.strategy,
            json.dumps(result.details),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of every record, the steps, sum, error, strategy and details of
# each DETAIL_RUNS path, pinned while the result still stored its numbers
# next to the records: deriving them from the records must change no bit.
# protocol-filtered and protocol-phase-gated were re-taken when the Schmidt
# frame went closed-form, which moves exact-mode records by rounding.
RESULT_DIGESTS = {
    "tree-exact": "59c08218fcd3473571c0f17e87c8c5792c64d5a0d12ea4d9cb27ac9d9195daa9",
    "tree-shots": "fc716b6f9159499ff4f3dc98f780854dc4f75275b84774144e451373c32a19d3",
    "bloch-3q": "c5928c27249c886be76b946fc7d979b81246597b176022578c5198599c595893",
    "bloch-4q": "cf699aadbbcd7d560d7afabb80dd4c7dfb4cabf53143aa173f5494eadc6543cf",
    "protocol-filtered": "24550b3c12b24af60b28b81ac158d93015887290f907e0bde04ed8a4e8c7b679",
    "protocol-unfiltered": "673f2e0baf84bdc45ece37ab72887a0e99be5ca29b0a747b6438e83a54a62717",
    "protocol-phase-gated": "7811529513e42d1b18484c515da64d8bebe968fb844031ec4730f1217624787e",
    "protocol-aborted": "e854de4058c2ae1648ffc77b2830e3e140b666ad7606643b6b15a0948284d3f4",
}


@pytest.mark.parametrize("path", DETAIL_RUNS)
def test_result_payload_pinned(path):
    assert _result_digest(DETAIL_RUNS[path]()) == RESULT_DIGESTS[path]


def test_schmidt_rejects_three_qubits():
    assert main(["schmidt", "w"]) == 2


def test_schmidt_on_state_file(tmp_path):
    # known Schmidt angle pi/6: the verification sum is 1 + sin^2(pi/3) = 1.75
    import math

    from entdetect import PureState
    from entdetect.states import save_state

    theta = math.pi / 6
    psi = PureState(2, np.array([math.cos(theta), 0, 0, math.sin(theta)]))
    state_path = tmp_path / "theta.json"
    save_state(psi, state_path)
    out = tmp_path / "r.json"
    assert main(["schmidt", str(state_path), "--frame-seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "detected"
    assert abs(payload["sum_of_squares"] - 1.75) < 1e-6


def test_detect_w_state(tmp_path):
    out = tmp_path / "w.json"
    assert main(["detect", "w", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    full = [t["index"] for t in payload["transcript"] if "0" not in t["index"]]
    assert full == ["zzz", "zyy"]
    assert payload["verdict"] == "detected"


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert main([
        "sweep-werner", "--p-min", "0.5", "--p-max", "0.6", "--step", "0.05",
        "--format", "json", "--out", str(out),
    ]) == 0
    rows = json.loads(out.read_text())
    assert [r["parameter"] for r in rows] == [0.5, 0.55, 0.6]
    assert rows[-1]["fraction"] == 1.0


def test_sweep_werner_exact(tmp_path):
    out = tmp_path / "werner.csv"
    code = main([
        "sweep-werner", "--p-min", "0.55", "--p-max", "0.6", "--step", "0.005",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,fraction,mean_steps,n_samples,seed"
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows[0.575] == 0.0
    assert rows[0.58] == 1.0


def test_sweep_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep-werner", "--p-min", "0.5", "--p-max", "0.7", "--step", "0.05",
            "--mode", "shots=500", "--repeats", "5", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_state_gen_round_trip(tmp_path):
    path = tmp_path / "bell.json"
    assert main(["state-gen", "bell", "--out", str(path)]) == 0
    loaded = load_state(path)
    assert mat_equal(loaded.matrix, bell_phi_plus().density().matrix, 1e-12)


def test_tree_gen(tmp_path):
    path = tmp_path / "tree2.json"
    assert main(["tree-gen", "2", "zz", "--out", str(path)]) == 0
    tree = load_tree(path)
    assert tree.root.index == ("z", "z")
    assert tree.root.big.index == ("y", "y")

    path3 = tmp_path / "tree3.json"
    assert main(["tree-gen", "3", "xxx", "--out", str(path3)]) == 0
    tree3 = load_tree(path3)
    assert tree3.root.big.index == ("x", "z", "z")


def test_tree_gen_without_out_prints_the_tree(capsys):
    assert main(["tree-gen", "2", "zz"]) == 0
    assert json.loads(capsys.readouterr().out) == ed.tree_to_dict(ed.generate_tree(2, "zz"))


def test_detect_singlet(capsys):
    assert main(["detect", "singlet"]) == 0
    assert capsys.readouterr().out.startswith("verdict: detected")


def test_detect_with_tree_file(tmp_path):
    tree_path = tmp_path / "t.json"
    assert main(["tree-gen", "2", "xx", "--out", str(tree_path)]) == 0
    out = tmp_path / "r.json"
    assert main(["detect", "werner:0.9", "--tree", str(tree_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["transcript"][0]["index"] == "xx"
    assert payload["verdict"] == "detected"


def test_detect_four_qubit_dicke(tmp_path):
    out = tmp_path / "d42.json"
    assert main(["detect", "dicke:4:2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "detected"
    full = [t["index"] for t in payload["transcript"] if "0" not in t["index"]]
    assert full == ["zzzz", "zzyy"]
    assert abs(payload["sum_of_squares"] - (1 + 4 / 9)) < 1e-9


def test_bad_inputs_exit_code(capsys):
    assert main(["detect", "no-such-state"]) == 2
    assert main(["detect", "werner:0.8", "--mode", "shots=5"]) == 2
    assert main(["detect", "werner:0.8", "--threshold", "1.5"]) == 2
    assert main(["detect", "missing-file.json"]) == 2
    assert main(["sweep-werner", "--p-min", "0.9", "--p-max", "0.5"]) == 2
    # Each of these is rejected before any work starts: the tiny step would
    # build a grid of about 1e299 points, a 5-qubit plan grows as 3^n, and
    # either sweep takes fewer than 2^32 runs.
    for argv in (
        ["detect", "bell", "--seed", "-1"],
        ["detect", "bell", "--frame-seed", "-1"],
        ["sweep-werner", "--seed", "-1"],
        ["sweep-werner", "--step", "nan"],
        ["sweep-werner", "--step", "inf"],
        ["sweep-werner", "--p-min", "0.5", "--p-max", "0.6", "--step", "1e-300"],
        ["tree-gen", "2", "zz", "--max-depth", "0"],
        ["tree-gen", "2", "zz", "--max-depth", "-3"],
        ["tree-gen", "5", "zzzzz"],
        ["sweep-purity", "--samples", "4294967296"],
        ["sweep-werner", "--mode", "shots", "--repeats", "100000000000"],
        # Generator.binomial takes the shot count as a C long.
        ["detect", "bell", "--mode", "shots=100000000000000000000"],
        ["schmidt", "bell", "--mode", "shots=100000000000000000000"],
        ["sweep-werner", "--mode", "shots=100000000000000000000"],
        ["sweep-purity", "--mode", "shots=100000000000000000000"],
        # The filter's strength is checked even when no filter fires.
        ["schmidt", "colored:0.3", "--filter-eps", "5"],
        ["schmidt", "colored:0.3", "--filter-eps", "nan"],
        ["schmidt", "colored:0.3", "--filter-eps", "0"],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_flags_no_run_reads_are_refused(tmp_path, capsys):
    # schmidt has no branching threshold, and a tree file carries its own
    # plan, so --root beside --tree would be dropped without a word.
    tree_path = tmp_path / "t.json"
    assert main(["tree-gen", "2", "xx", "--out", str(tree_path)]) == 0
    for argv in (
        ["schmidt", "bell", "--threshold", "0.9"],
        ["detect", "bell", "--tree", str(tree_path), "--root", "xx"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv


def test_detect_refuses_a_threshold_beside_a_tree_file(tmp_path, capsys):
    # A tree file carries its own threshold, which the run uses; a --threshold
    # beside it would be dropped without a word.
    tree_path = tmp_path / "t.json"
    assert main(["tree-gen", "2", "xx", "--out", str(tree_path)]) == 0
    for threshold in ("0.5", "0.99"):
        capsys.readouterr()
        assert main(["detect", "werner:0.7", "--tree", str(tree_path), "--threshold", threshold]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert main(["detect", "werner:0.7", "--tree", str(tree_path)]) == 0
    assert main(["detect", "werner:0.7", "--root", "xx", "--threshold", "0.99"]) == 0


def test_shot_mode_detect_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["detect", "werner:0.9", "--mode", "shots", "--seed", "21"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_werner_zero_repeats(capsys):
    assert main(["sweep-werner", "--mode", "shots", "--repeats", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_purity_needs_1000_samples(capsys):
    assert main(["sweep-purity", "--samples", "999"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_purity_zero_bins(capsys):
    assert main(["sweep-purity", "--bins", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_purity_rejects_too_many_bins(capsys):
    assert main(["sweep-purity", "--samples", "1000", "--bins", "100001"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        b'{"threshold": 0.5, "root": {"big": null, "small": null}}',
        b'{"threshold": 0.5, "root": {"index": "zz", "big": ["yy"], "small": null}}',
        b"not a tree {",
        b"\xff\xfe not utf-8",
        b'{"threshold": "x", "root": {"index": "zz", "big": null, "small": null}}',
        b'{"threshold": 0.5, "root": null}',
        b'{"threshold": 0.5, "root": ' + b'{"index": "zz", "small": null, "big": ' * 3000 + b"null" + b"}" * 3001,
    ],
    ids=["node-without-index", "node-not-object", "not-json", "not-utf8", "threshold-not-number", "root-null",
         "nested-3000-deep"],
)
def test_detect_malformed_tree_file(tmp_path, capsys, content):
    path = tmp_path / "bad-tree.json"
    path.write_bytes(content)
    assert main(["detect", "bell", "--tree", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_detect_state_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad-state.json"
    path.write_bytes(b"\xff\xfe not utf-8")
    assert main(["detect", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_detect_state_file_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "deep-state.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    assert main(["detect", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_detect_state_file_qubit_count_not_a_number(tmp_path, capsys):
    path = tmp_path / "bad-state.json"
    path.write_text(json.dumps({"n_qubits": "two", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    assert main(["detect", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_detect_state_file_without_a_state(tmp_path, capsys):
    path = tmp_path / "no-state.json"
    path.write_text(json.dumps({"n_qubits": 2}))
    assert main(["detect", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind", NON_FINITE)
def test_detect_rejects_a_non_finite_state_file(tmp_path, capsys, kind):
    path = tmp_path / "non-finite.json"
    pairs = [[[z.real, z.imag] for z in row] for row in non_finite_matrix(kind)]
    path.write_text(json.dumps({"n_qubits": 2, "matrix": pairs}))
    for command in ("detect", "schmidt"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


NUMERICAL_FAILURES = (NotHermitian, ZeroSuccess, DegenerateDirection, np.linalg.LinAlgError)
WORK_FUNCTIONS = [
    (["detect", "bell"], "detect_once"),
    (["schmidt", "bell"], "run_protocol"),
    (["sweep-werner"], "sweep_werner"),
    (["sweep-purity"], "sweep_purity"),
    (["state-gen", "bell", "--out", "unused.json"], "save_state"),
    (["tree-gen", "2", "zz"], "generate_tree"),
]


@pytest.mark.parametrize(
    "error",
    [EntDetectError, *EntDetectError.__subclasses__(), OSError, np.linalg.LinAlgError],
    ids=lambda error: error.__name__,
)
def test_exit_code_map(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("injected")

    code, prefix = (3, "numerical failure:") if error in NUMERICAL_FAILURES else (2, "error:")
    for argv, work in WORK_FUNCTIONS:
        monkeypatch.setattr(cli, work, fail)
        capsys.readouterr()
        assert main(argv) == code, argv
        assert capsys.readouterr().err == f"{prefix} injected\n", argv


def test_non_hermitian_state_file_is_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "non-hermitian.json"
    path.write_text(json.dumps({"n_qubits": 1, "matrix": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]}))
    assert main(["detect", str(path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_error_multiplier_validation(capsys):
    for value in ("nan", "-5", "inf", "-inf"):
        assert main(["detect", "bell", "--mode", "shots", f"--error-multiplier={value}"]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert main(["detect", "bell", "--mode", "shots", "--error-multiplier", "0"]) == 0


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import entdetect

    src = str(Path(entdetect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "entdetect.cli", "detect", "bell"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert "verdict:" in proc.stdout


# --- every command, drawn from the parser ---------------------------------

COMMANDS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
# "@name" stands for a file of the cli_files directory, "@" for the directory.
CLI_FILES = {
    "state-bell.json": json.dumps(ed.state_to_dict(bell_phi_plus())),
    "state-w.json": json.dumps(ed.state_to_dict(ed.make_w())),
    "state-not-utf8.json": b"\xff\xfe not utf-8",
    "state-nested.json": "[" * 10**5 + "]" * 10**5,
    "state-count-not-number.json": json.dumps({"n_qubits": "two", "amplitudes": [[1, 0]] * 4}),
    "state-matrix-string.json": json.dumps({"n_qubits": 2, "matrix": "abc"}),
    "state-list.json": "[1, 2]",
    "state-non-hermitian.json": json.dumps(
        {"n_qubits": 1, "matrix": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]}
    ),
    **{
        f"state-{kind}.json": json.dumps(
            {"n_qubits": 2, "matrix": [[[z.real, z.imag] for z in row] for row in non_finite_matrix(kind)]}
        )
        for kind in NON_FINITE
    },
    "tree-xx.json": json.dumps(ed.tree_to_dict(ed.generate_tree(2, ("x", "x")))),
    "tree-not-utf8.json": b"\xff\xfe not utf-8",
    "tree-not-json.json": "not a tree {",
    "tree-nested.json": '{"threshold": 0.5, "root": '
    + '{"index": "zz", "small": null, "big": ' * 3000 + "null" + "}" * 3001,
    "tree-node-without-index.json": '{"threshold": 0.5, "root": {"big": null, "small": null}}',
    "tree-node-list.json": '{"threshold": 0.5, "root": {"index": "zz", "big": ["yy"], "small": null}}',
    "tree-threshold-string.json": '{"threshold": "x", "root": {"index": "zz", "big": null, "small": null}}',
}
EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", str(2**63), str(2**64), "1e308", "", "zq", "z0y", "zzzzz")
# The valid values of each option, kept small where they size the work.
VALID_VALUES = {
    "state": ("bell", "g", "werner:0.9", "werner:nan", "colored:0.3", "dicke:4:2", "dicke:4:9",
              "@missing.json", *(f"@{name}" for name in CLI_FILES if name.startswith("state"))),
    "tree": ("@missing.json", *(f"@{name}" for name in CLI_FILES if name.startswith("tree"))),
    "mode": ("exact", "shots", "shots=100", "shots=1", "shots=x", f"shots={2**63 - 1}", f"shots={2**63}"),
    "seed": ("3",), "frame_seed": ("3",), "threshold": ("0.3",), "error_multiplier": ("2.5",),
    "root": ("zz", "xxx", "zzzz", "yx"), "filter_eps": ("0.5", "1", "5"),
    "p_min": ("0.5",), "p_max": ("0.6",), "step": ("0.05", "1e-300"),
    "repeats": ("2", "5"), "samples": ("1000", "2000"), "bins": ("3", "100001"),
    "format": ("csv", "json"), "n": ("1", "2", "3", "5"), "max_depth": ("1", "3"),
}
OUT_VALUES = ("@out.json", "@", "")  # never a name in the working directory
# Options every draw of a command carries, so that its default work size
# (10^4 purity samples, 20 shot-mode repeats) never runs.
ALWAYS = {"--samples", "--repeats"}


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            if action.option_strings[0] not in ALWAYS and not draw(st.booleans()):
                continue
            argv.append(action.option_strings[0])
            if action.nargs == 0:
                continue
        valid = OUT_VALUES if action.dest == "out" else VALID_VALUES.get(action.dest, ())
        # One value in four is an edge case; an option with no valid pool takes only those.
        edge = action.dest != "out" and (not valid or draw(st.integers(0, 3)) == 0)
        argv.append(draw(st.sampled_from(EDGE_VALUES if edge else valid)))
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-files")
    for name, content in CLI_FILES.items():
        (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return root


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(argv=command_lines())
# Inputs that once ended in a traceback, a hang or a silent exit 0.
@example(argv=["sweep-werner", "--mode", "shots", "--repeats", "0"])
@example(argv=["sweep-purity", "--bins", "0"])
@example(argv=["sweep-purity", "--samples", "1000", "--bins", "1000000000"])
@example(argv=["sweep-purity", "--samples", "4294967296"])
@example(argv=["sweep-werner", "--mode", "shots", "--repeats", "100000000000"])
@example(argv=["sweep-werner", "--step", "nan", "--repeats", "1"])
@example(argv=["sweep-werner", "--p-min", "0.5", "--p-max", "0.6", "--step", "1e-300", "--repeats", "1"])
@example(argv=["detect", "bell", "--mode", "shots", "--error-multiplier", "nan"])
@example(argv=["detect", "bell", "--mode", "shots", "--error-multiplier", "-5"])
@example(argv=["detect", "bell", "--mode", "shots=100000000000000000000"])
@example(argv=["detect", "bell", "--seed", "-1"])
@example(argv=["detect", "bell", "--frame-seed", "-1"])
@example(argv=["tree-gen", "5", "zzzzz"])
@example(argv=["tree-gen", "2", "zz", "--max-depth", "0"])
@example(argv=["detect", "bell", "--tree", "@tree-node-without-index.json"])
@example(argv=["detect", "bell", "--tree", "@tree-node-list.json"])
@example(argv=["detect", "bell", "--tree", "@tree-not-json.json"])
@example(argv=["detect", "bell", "--tree", "@tree-not-utf8.json"])
@example(argv=["detect", "bell", "--tree", "@tree-threshold-string.json"])
@example(argv=["detect", "bell", "--tree", "@tree-nested.json"])
@example(argv=["detect", "@state-not-utf8.json"])
@example(argv=["detect", "@state-nested.json"])
@example(argv=["detect", "@state-count-not-number.json"])
@example(argv=["detect", "@state-nan-diagonal.json"])
@example(argv=["schmidt", "@state-inf-entry.json"])
@example(argv=["schmidt", "colored:0.3", "--filter-eps", "5"])
@example(argv=["schmidt", "colored:0.3", "--filter-eps", "nan"])
@example(argv=["schmidt", "colored:0.3", "--filter-eps", "0"])
@example(argv=["schmidt", "bell", "--threshold", "0.9"])
@example(argv=["detect", "bell", "--tree", "@tree-xx.json", "--root", "xx"])
@example(argv=["detect", "bell", "--tree", "@tree-xx.json", "--threshold", "0.3"])
def test_every_command_exits_0_2_or_3(cli_files, argv):
    argv = [str(cli_files / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the line before any work
            assert exc.code == 2 and "error:" in err.getvalue(), argv
            return
    assert code in (0, 2, 3), argv
    if code:
        assert err.getvalue().startswith("error:" if code == 2 else "numerical failure:"), argv
