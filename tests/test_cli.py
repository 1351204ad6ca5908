import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fixtures import K4_TARGET1_PROBABILITY_MATRIX
from readers import parse_dot, parse_qasm
from walkcomplement import __version__, cli, linalg
from walkcomplement.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_json_stdout(capsys):
    code, out, err = run(capsys, "simulate", "--n", "2", "--target", "1")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["distribution"], [5 / 16, 1 / 16, 5 / 16, 5 / 16],
                               atol=1e-12)
    assert payload["suppressed_node"] == 1
    assert "ratio = 5" in err


def test_simulate_methods_agree(capsys):
    dists = {}
    for method in ("statevector", "dense", "closed-form"):
        code, out, _ = run(capsys, "simulate", "--n", "2", "--target", "2",
                           "--method", method)
        assert code == 0
        dists[method] = json.loads(out)["distribution"]
    for method in ("dense", "closed-form"):
        np.testing.assert_allclose(dists[method], dists["statevector"], atol=1e-12)


def test_simulate_writes_file_and_infers_csv(capsys, tmp_path):
    out_path = tmp_path / "dist.csv"
    code, _, _ = run(capsys, "simulate", "--n", "2", "--target", "1",
                     "--out", str(out_path))
    assert code == 0
    values = np.loadtxt(out_path)
    np.testing.assert_allclose(values, [5 / 16, 1 / 16, 5 / 16, 5 / 16], atol=1e-12)


def test_simulate_usage_error_on_bad_target(capsys):
    code, _, err = run(capsys, "simulate", "--n", "2", "--target", "7")
    assert code == 2
    assert "--target" in err


def test_simulate_dense_size_cap_is_runtime_error(capsys):
    code, _, err = run(capsys, "simulate", "--n", "7", "--target", "0",
                       "--method", "dense")
    assert code == 1
    assert "dense" in err


def test_simulate_statevector_size_cap_is_runtime_error(capsys):
    code, _, err = run(capsys, "simulate", "--n", "15", "--target", "0")
    assert code == 1
    assert "statevector" in err


def test_simulate_coin_init_moves_suppressed_node(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "2", "--target", "1",
                       "--coin-init", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["suppressed_node"] == 2


def test_simulate_deterministic_output(capsys):
    _, first, _ = run(capsys, "simulate", "--n", "3", "--target", "5")
    _, second, _ = run(capsys, "simulate", "--n", "3", "--target", "5")
    assert first == second


def test_probmatrix_matches_fixture(capsys, tmp_path):
    out_path = tmp_path / "mp.csv"
    code, _, _ = run(capsys, "probmatrix", "--n", "2", "--target", "1",
                     "--out", str(out_path))
    assert code == 0
    mp = np.loadtxt(out_path, delimiter=",")
    np.testing.assert_allclose(mp, K4_TARGET1_PROBABILITY_MATRIX, atol=1e-12)
    np.testing.assert_allclose(mp.sum(axis=0), np.ones(16), atol=1e-12)
    sidecar = json.loads((tmp_path / "mp.csv.json").read_text())
    assert len(sidecar["column_blocks"]) == 4


def test_probmatrix_target_zero_pattern(capsys):
    code, out, _ = run(capsys, "probmatrix", "--n", "2", "--target", "0")
    assert code == 0
    mp = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()])
    # coin-0 block suppresses the target row itself
    np.testing.assert_allclose(mp[0, :4], np.full(4, 1 / 16), atol=1e-12)
    # coin-i block suppresses row 0 XOR i
    for i in range(4):
        np.testing.assert_allclose(mp[i, 4 * i:4 * i + 4], np.full(4, 1 / 16), atol=1e-12)


def test_probmatrix_swap_model_runs(capsys):
    code, out, _ = run(capsys, "probmatrix", "--n", "1", "--target", "1",
                       "--model", "swap")
    assert code == 0
    mp = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()])
    np.testing.assert_allclose(mp.sum(axis=0), np.ones(4), atol=1e-12)


def test_probmatrix_dense_cap_is_runtime_error(capsys):
    code, _, err = run(capsys, "probmatrix", "--n", "7", "--target", "0")
    assert code == 1
    assert "dense" in err


def test_collapse_dot_output(capsys):
    code, out, _ = run(capsys, "collapse", "--n", "2", "--target", "1")
    assert code == 0
    graph = parse_dot(out)
    assert len(graph.arcs) == 64
    into_target = [a for a in graph.arcs if a[4] == 0 and a[1] == 1]
    assert len(into_target) == 4
    assert all(w == pytest.approx(1 / 16, abs=1e-9) for _, _, _, w, _ in into_target)


def test_collapse_json_format(capsys):
    code, out, _ = run(capsys, "collapse", "--n", "1", "--target", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_nodes"] == 2
    assert {(a["coin"], a["src"], a["dst"]) for a in payload["arcs"]} == {
        (c, s, d) for c in range(2) for s in range(2) for d in range(2)}


def test_qasm_decomposed_file(capsys, tmp_path):
    out_path = tmp_path / "circuit.qasm"
    code, _, _ = run(capsys, "qasm", "--n", "2", "--target", "3", "--decompose",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "cu3(1.0471975511965976,-0.9553166181245089,2.186276035465284)" in text
    prog = parse_qasm(text)
    assert len(prog.measurements) == 2


def test_qasm_target_zero_has_x_on_both_controls(capsys):
    code, out, _ = run(capsys, "qasm", "--n", "2", "--target", "0", "--decompose")
    assert code == 0
    prog = parse_qasm(out)
    x_targets = sorted(g[1] for g in prog.gates if g[0] == "x")
    assert x_targets == [0, 0, 1, 1]


def test_qasm_without_decompose_cannot_export(capsys):
    code, _, err = run(capsys, "qasm", "--n", "4", "--target", "5")
    assert code == 1
    assert "unlowered" in err


def test_qasm_decompose_rejected_for_large_n(capsys):
    code, _, err = run(capsys, "qasm", "--n", "3", "--target", "1", "--decompose")
    assert code == 1
    assert "n = 2" in err


def test_sample_deterministic(capsys):
    args = ("sample", "--n", "2", "--target", "1", "--shots", "8192", "--seed", "7")
    code, first, err = run(capsys, *args)
    assert code == 0
    assert "l1 distance" in err
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["shots"] == 8192 and payload["seed"] == 7
    assert sum(payload["counts"]) == 8192
    assert payload["l1_vs_theory"] < 0.05


def test_sample_shots_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "sample", "--n", "2", "--target", "1", "--shots", "0")
    assert code == 2
    assert "--shots" in err


def test_sample_csv_format(capsys):
    code, out, _ = run(capsys, "sample", "--n", "1", "--target", "0",
                       "--shots", "100", "--seed", "3", "--format", "csv")
    assert code == 0
    counts = [int(x) for x in out.split()]
    assert sum(counts) == 100


def test_format_rejected_when_unsupported(capsys):
    code, _, err = run(capsys, "qasm", "--n", "2", "--target", "1",
                       "--decompose", "--format", "dot")
    assert code == 2
    assert "not supported" in err


@pytest.mark.parametrize("argv, allowed", [
    (["simulate"], ["csv", "json"]),
    (["qasm", "--decompose"], ["qasm"]),
])
def test_out_extension_that_is_no_format_is_usage_error(capsys, tmp_path, argv, allowed):
    out_path = tmp_path / "x.txt"
    code, out, err = run(capsys, *argv, "--n", "2", "--target", "1", "--out", str(out_path))
    assert code == 2
    assert all(fmt in err for fmt in allowed) and "--format" in err
    assert not out_path.exists() and out == ""
    code, _, _ = run(capsys, *argv, "--n", "2", "--target", "1", "--out", str(out_path),
                     "--format", allowed[-1])
    assert code == 0 and out_path.exists()


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert "cross-validate" in out and "OK" in out


def test_verify_rejects_corrupted_operator(capsys, tmp_path):
    path = tmp_path / "op.csv"
    linalg.save_matrix_csv(np.ones((16, 16)) / 4.0, path)
    code, out, err = run(capsys, "verify", "--n-max", "1", "--operator", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_accepts_valid_operator(capsys, tmp_path):
    from walkcomplement import graphs

    path = tmp_path / "op.csv"
    linalg.save_matrix_csv(graphs.shift_operator(2, graphs.ShiftModel.CNOT).matrix, path)
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--operator", str(path))
    assert code == 0
    assert "OK (n=2)" in out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["simulate", "--n", "2"]) == 2


def test_sample_negative_seed_is_usage_error(capsys):
    code, _, err = run(capsys, "sample", "--n", "2", "--target", "1", "--seed", "-1")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("n_max", ["0", "7", "9"])
def test_verify_n_max_outside_dense_cap_is_usage_error(capsys, n_max):
    code, out, err = run(capsys, "verify", "--n-max", n_max)
    assert code == 2
    assert "--n-max" in err and "1..6" in err
    assert out == ""


@pytest.mark.parametrize("n", ["58", "60"])
def test_simulate_closed_form_too_large_reports_error(capsys, n):
    # 2^58 float64 entries (2 EiB) exceed any address space, so numpy raises
    # MemoryError before touching memory; at n=60 the byte count overflows
    # and numpy raises ValueError instead.  Both must end in exit 1.
    code, out, err = run(capsys, "simulate", "--n", n, "--target", "0",
                         "--method", "closed-form")
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_verify_rejects_unitary_that_is_not_a_permutation(capsys, tmp_path):
    sqrt_x = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = sqrt_x
    m[2:, 2:] = sqrt_x.conj().T
    assert linalg.is_unitary(m)
    path = tmp_path / "op.csv"
    linalg.save_matrix_csv(m, path)
    code, out, _ = run(capsys, "verify", "--n-max", "1", "--operator", str(path))
    assert code == 1
    assert "FAIL" in out and "Kraus" in out


def test_parser_is_built_once_and_keeps_no_values_between_calls(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, "simulate", "--n", "2", "--target", "1", "--coin-init", "2",
                       "--method", "dense", "--format", "csv")
    assert code == 0
    np.testing.assert_allclose(np.loadtxt(out.splitlines()), [5 / 16, 5 / 16, 5 / 16, 1 / 16],
                               atol=1e-12)
    # --format, --coin-init and --method fall back to their defaults
    out_path = tmp_path / "x.json"
    code, out, _ = run(capsys, "simulate", "--n", "2", "--target", "1", "--out", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert (payload["coin_init"], payload["method"], payload["suppressed_node"]) == \
        (0, "statevector", 1)
    code, out, _ = run(capsys, "--version")
    assert (code, out.strip()) == (0, __version__)
    code, out, _ = run(capsys, "sample", "--n", "2", "--target", "1", "--shots", "5")
    assert code == 0 and json.loads(out)["shots"] == 5


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12"])
def test_collapse_rejects_prune_epsilon_that_is_not_finite_and_nonnegative(capsys, value):
    code, out, err = run(capsys, "collapse", "--n", "1", "--target", "0",
                         f"--prune-epsilon={value}")
    assert code == 2
    assert out == ""
    assert "--prune-epsilon" in err


def test_collapse_accepts_zero_prune_epsilon(capsys):
    code, out, _ = run(capsys, "collapse", "--n", "1", "--target", "0",
                       "--prune-epsilon", "0")
    assert code == 0
    assert len(parse_dot(out).arcs) == 8


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    version = subprocess.run([sys.executable, "-m", "walkcomplement", "--version"],
                             env=env, capture_output=True, text=True, timeout=60)
    assert version.returncode == 0
    assert version.stdout.strip() == __version__
    usage = subprocess.run([sys.executable, "-m", "walkcomplement", "simulate", "--n", "0",
                            "--target", "0"], env=env, capture_output=True, text=True,
                           timeout=60)
    assert usage.returncode == 2


def test_verify_checks_shift_models_up_to_n_max(capsys, monkeypatch):
    from walkcomplement import complement

    # the routes are checked elsewhere; a stub keeps this to the shift checks
    monkeypatch.setattr(complement, "cross_validate", lambda n_max: complement.CrossValidationReport(
        n_max=n_max, cases=0, max_deviation=0.0))
    code, out, _ = run(capsys, "verify", "--n-max", "6")
    assert code == 0
    for model in ("swap", "cnot"):
        assert [line for line in out.splitlines() if line.startswith(f"shift {model}")] == \
            [f"shift {model} n={n}: Kraus+unitarity OK" for n in range(1, 7)]
