"""The benchmark's workloads: seeded inputs, timed jobs and untimed output checks.

Each workload puts most of the work in some modules and little or none in
others (README.md gives the reasons and the predicted shares):

* ``dense_n5``: the dense operator path at n = 5 (graphs, walk, linalg,
  probability); the complement module does nothing.
* ``statevector_n12``: the statevector route at n = 12, the only route that
  scales; complement does nearly everything, graphs, walk and circuit nothing.
* ``verify_sweep``: ``verify``, circuit round-trips, ``qasm`` and dozens of
  small jobs; complement runs thousands of tiny calls and the circuit module
  and per-call CLI overhead get weight the other workloads never give them.

A job's ``run`` is timed; its ``check`` is not.  A check raises
:class:`CheckFailed`; the caller counts it and goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from walkcomplement import circuit, cli, complement, graphs, linalg, probability, sampling

DIST_ATOL = 1e-12
UNITARY_ATOL = 1e-8


class CheckFailed(Exception):
    """An output of a job is wrong."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    outputs: tuple[str, ...] = field(default=())  # files the job writes


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def _cli(argv: list[str]) -> CliRun:
    """Run one CLI job in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _cli_job(name: str, argv: list[str], check: Callable[[CliRun], None],
             outputs: tuple[str, ...] = ()) -> Job:
    def checked(run: CliRun) -> None:
        if run.code != 0:
            raise CheckFailed(f"exit code {run.code}: {run.stderr.strip()[-300:]}")
        check(run)
    argv = [str(a) for a in argv]
    return Job(name=f"{name} {' '.join(argv)}", run=lambda: _cli(argv), check=checked,
               outputs=outputs)


def _expect_close(what: str, got, want, atol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    dev = float(np.abs(got - want).max())
    if not dev <= atol:
        raise CheckFailed(f"{what}: deviates by {dev:.3e} (> {atol:g})")


def _closed_form(n: int, target: int, coin: int = 0, pos: int = 0):
    spec = complement.ComplementSpec(n=n, target=target, coin_init=coin, pos_init=pos)
    return complement.closed_form_distribution(spec)


def _instances(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int, int]]:
    """Seeded (target, coin_init, pos_init) triples for n-qubit registers."""
    picks = rng.integers(0, 2**n, size=(count, 3))
    return [tuple(int(v) for v in row) for row in picks]


def _simulate_check(path: str, n: int, target: int, coin: int, pos: int):
    def check(_: CliRun) -> None:
        with open(path) as fh:
            payload = json.load(fh)
        want = _closed_form(n, target, coin, pos)
        _expect_close("distribution", payload["distribution"], want.distribution, DIST_ATOL)
        if payload["suppressed_node"] != want.suppressed_node:
            raise CheckFailed(f"suppressed node {payload['suppressed_node']}, "
                              f"expected {want.suppressed_node}")
    return check


def _sample_check(path: str, sim_path: str, shots: int, seed: int):
    """Counts add up to the shots, and the seed reproduces them from the distribution
    the simulate job of the same instance wrote (the closed form differs from the
    routes in the last bits, which is enough to move a multinomial draw)."""
    def check(_: CliRun) -> None:
        with open(path) as fh:
            counts = json.load(fh)["counts"]
        if sum(counts) != shots:
            raise CheckFailed(f"counts add up to {sum(counts)}, not {shots} shots")
        with open(sim_path) as fh:
            dist = json.load(fh)["distribution"]
        if tuple(counts) != sampling.sample(dist, shots, seed).counts:
            raise CheckFailed(f"seed {seed} did not reproduce the counts")
    return check


def _simulate_job(workdir: str, tag: str, n: int, inst, method: str = "statevector") -> Job:
    target, coin, pos = inst
    path = os.path.join(workdir, f"sim_{tag}.json")
    argv = ["simulate", "--n", n, "--target", target, "--coin-init", coin, "--pos-init", pos,
            "--method", method, "--out", path]
    return _cli_job("simulate", argv, _simulate_check(path, n, target, coin, pos), (path,))


def _sample_job(workdir: str, tag: str, n: int, inst, shots: int, seed: int) -> Job:
    """A sample job; it runs after :func:`_simulate_job` of the same tag, whose output
    its check reads."""
    target, coin, pos = inst
    path = os.path.join(workdir, f"sample_{tag}.json")
    sim_path = os.path.join(workdir, f"sim_{tag}.json")
    argv = ["sample", "--n", n, "--target", target, "--coin-init", coin, "--pos-init", pos,
            "--shots", shots, "--seed", seed, "--out", path]
    return _cli_job("sample", argv, _sample_check(path, sim_path, shots, seed),
                    (path,))


# --- dense_n5 -------------------------------------------------------------

DENSE_N = 5


def _closed_form_mp(n: int, target: int) -> np.ndarray:
    """M_P from the closed form: column coin*2^n + pos is the distribution from |coin>|pos>."""
    n_nodes = 2**n
    cols = [np.repeat(_closed_form(n, target, coin).distribution[:, None], n_nodes, axis=1)
            for coin in range(n_nodes)]
    return np.hstack(cols)


def dense_n5(seed: int, workdir: str) -> list[Job]:
    n = DENSE_N
    jobs = []
    arc_counts: dict[int, int] = {}

    def expected_arcs(target: int) -> int:
        # The multigraph of the same operator, built by the direct-fill route
        # rather than the shift/coin products the CLI job went through.
        if target not in arc_counts:
            op = complement.build_complement_operator(n, target)
            arc_counts[target] = len(probability.collapse_multigraph(op).arcs)
        return arc_counts[target]

    for k, (target, coin, pos) in enumerate(_instances(np.random.default_rng(seed), n, 3)):
        base = ["--n", n, "--target", target]
        cnot_csv = os.path.join(workdir, f"mp_cnot_{k}.csv")
        swap_json = os.path.join(workdir, f"mp_swap_{k}.json")
        dot = os.path.join(workdir, f"collapse_{k}.dot")

        def check_cnot(_, path=cnot_csv, target=target):
            mp = np.loadtxt(path, delimiter=",", ndmin=2)
            _expect_close("CNOT-model M_P", mp, _closed_form_mp(n, target), DIST_ATOL)

        def check_swap(_, path=swap_json):
            with open(path) as fh:
                mp = np.asarray(json.load(fh)["matrix"], dtype=float)
            if mp.shape != (2**n, 4**n):
                raise CheckFailed(f"SWAP-model M_P has shape {mp.shape}")
            _expect_close("SWAP-model M_P column sums", mp.sum(axis=0), np.ones(4**n), DIST_ATOL)

        def check_dot(_, path=dot, target=target):
            with open(path) as fh:
                arcs = sum(1 for line in fh if " -> " in line)
            if arcs != expected_arcs(target):
                raise CheckFailed(f"DOT has {arcs} arcs, the multigraph {expected_arcs(target)}")

        jobs += [
            _cli_job("probmatrix", ["probmatrix", *base, "--model", "cnot", "--out", cnot_csv],
                     check_cnot, (cnot_csv, cnot_csv + ".json")),
            _cli_job("probmatrix", ["probmatrix", *base, "--model", "swap", "--out", swap_json],
                     check_swap, (swap_json,)),
            _cli_job("collapse", ["collapse", *base, "--out", dot], check_dot, (dot,)),
            _simulate_job(workdir, f"dense_{k}", n, (target, coin, pos), method="dense"),
        ]
    return jobs


# --- statevector_n12 ------------------------------------------------------

STATEVECTOR_N = 12
STATEVECTOR_SHOTS = 10**6


def statevector_n12(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng(seed)
    inst = _instances(rng, STATEVECTOR_N, 1)[0]
    sample_seed = int(rng.integers(0, 2**31))
    return [_simulate_job(workdir, "n12", STATEVECTOR_N, inst),
            _sample_job(workdir, "n12", STATEVECTOR_N, inst, STATEVECTOR_SHOTS, sample_seed)]


# --- verify_sweep ---------------------------------------------------------

VERIFY_N_MAX = 5
ROUND_TRIP_NS = (3, 4, 5)
SMALL_NS = range(1, 7)
SMALL_PER_N = 4
SMALL_SHOTS = 8192

_QASM_GATE = re.compile(r"^(h|x) q\[(\d+)\];$")
_QASM_CX = re.compile(r"^cx q\[(\d+)\],q\[(\d+)\];$")
_QASM_CU3 = re.compile(r"^cu3\(([^,]+),([^,]+),([^)]+)\) q\[(\d+)\],q\[(\d+)\];$")


def _qasm_circuit(text: str, n_qubits: int) -> circuit.Circuit:
    """Gate list of the exported OpenQASM subset; raises CheckFailed on anything else."""
    gates = []
    body = [line for line in text.splitlines() if line and not line.startswith("//")]
    if body[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        raise CheckFailed("QASM header missing")
    for line in body[2:]:
        if line.startswith(("qreg", "creg", "measure")):
            continue
        if m := _QASM_GATE.match(line):
            kind = circuit.HGate if m[1] == "h" else circuit.XGate
            gates.append(kind(int(m[2])))
        elif m := _QASM_CX.match(line):
            gates.append(circuit.CnotGate(int(m[1]), int(m[2])))
        elif m := _QASM_CU3.match(line):
            gates.append(circuit.ControlledUGate(int(m[4]), int(m[5]), float(m[1]),
                                                 float(m[2]), float(m[3])))
        else:
            raise CheckFailed(f"unexpected QASM line {line!r}")
    return circuit.Circuit(n_qubits=n_qubits, gates=tuple(gates))


def _expect_unitary_match(what: str, u: np.ndarray, n: int, target: int) -> None:
    want = complement.build_complement_operator(n, target).matrix
    dev = circuit.deviation_up_to_global_phase(u, want)
    if not dev <= UNITARY_ATOL:
        raise CheckFailed(f"{what}: unitary deviates by {dev:.3e} up to global phase")


def _round_trip_job(n: int, target: int) -> Job:
    def run():
        return circuit.circuit_to_unitary(circuit.synthesize_complement_circuit(n, target))

    return Job(name=f"round-trip n={n} target={target}", run=run,
               check=lambda u: _expect_unitary_match(f"round-trip n={n}", u, n, target))


def verify_sweep(seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng(seed)
    model = graphs.ShiftModel.CNOT if rng.integers(2) == 0 else graphs.ShiftModel.SWAP
    operator_csv = os.path.join(workdir, "shift_n5.csv")
    linalg.save_matrix_csv(graphs.shift_operator(VERIFY_N_MAX, model).matrix, operator_csv)

    def check_verify(run: CliRun) -> None:
        lines = run.stdout.splitlines()
        if any("FAIL" in line for line in lines):
            raise CheckFailed(f"verify reported a failure: {run.stdout[-300:]}")
        if not lines or not lines[0].startswith(f"cross-validate n<=1..{VERIFY_N_MAX}: OK"):
            raise CheckFailed("verify did not report the cross-validation")
        if not lines[-1].startswith(f"operator {operator_csv}: OK (n={VERIFY_N_MAX})"):
            raise CheckFailed("verify did not accept the operator file")

    jobs = [_cli_job("verify", ["verify", "--n-max", VERIFY_N_MAX, "--operator", operator_csv],
                     check_verify)]
    jobs += [_round_trip_job(n, int(rng.integers(0, 2**n))) for n in ROUND_TRIP_NS]

    qasm_target = int(rng.integers(0, 4))
    qasm_path = os.path.join(workdir, "complement_n2.qasm")

    def check_qasm(_: CliRun) -> None:
        with open(qasm_path) as fh:
            circ = _qasm_circuit(fh.read(), 4)
        _expect_unitary_match("qasm --decompose", circuit.circuit_to_unitary(circ), 2, qasm_target)

    jobs.append(_cli_job("qasm", ["qasm", "--n", 2, "--target", qasm_target, "--decompose",
                                  "--out", qasm_path], check_qasm, (qasm_path,)))
    for n in SMALL_NS:
        for k, inst in enumerate(_instances(rng, n, SMALL_PER_N)):
            jobs += [_simulate_job(workdir, f"n{n}_{k}", n, inst),
                     _sample_job(workdir, f"n{n}_{k}", n, inst, SMALL_SHOTS,
                                 int(rng.integers(0, 2**31)))]
    return jobs


WORKLOADS = {"dense_n5": dense_n5, "statevector_n12": statevector_n12,
             "verify_sweep": verify_sweep}
