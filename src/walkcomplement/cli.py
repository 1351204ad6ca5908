"""Command-line interface wiring the library together.

Subcommands: ``simulate``, ``probmatrix``, ``collapse``, ``qasm``, ``sample``
and ``verify``.  Exit codes are a stable contract: 0 on success, 1 on
computational or validation failure, 2 on usage errors.  Set the ``WALK_LOG``
environment variable to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, complement, graphs, linalg, probability, sampling, walk
from .circuit import export_qasm, synthesize_complement_circuit
from .complement import ComplementSpec, CrossValidationError, Method
from .graphs import ShiftModel

log = logging.getLogger("walkcomplement")


class UsageError(Exception):
    """Bad flag values; reported with exit code 2."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="walkcomplement",
        description="Coined quantum walks on complete graphs and the search complement.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, target=True):
        p.add_argument("--n", type=int, required=True, help="qubits per register")
        if target:
            p.add_argument("--target", type=int, required=True, help="target node index")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv", "dot", "qasm"],
                       help="output format (default: inferred from --out, else the "
                            "subcommand's native format)")

    p = sub.add_parser("simulate", help="run the search complement and emit the distribution")
    add_common(p)
    p.add_argument("--coin-init", type=int, default=0)
    p.add_argument("--pos-init", type=int, default=0)
    p.add_argument("--method", choices=[m.value for m in Method],
                   default=Method.STATEVECTOR.value)

    p = sub.add_parser("probmatrix", help="emit the probability matrix of the complement operator")
    add_common(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--model", choices=[m.value for m in ShiftModel], default="cnot")

    p = sub.add_parser("collapse", help="emit the collapsed multigraph as Graphviz DOT")
    add_common(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--model", choices=[m.value for m in ShiftModel], default="cnot")
    p.add_argument("--prune-epsilon", type=float, default=probability.PRUNE_EPSILON)

    p = sub.add_parser("qasm", help="synthesize the complement circuit and export OpenQASM 2.0")
    add_common(p)
    p.add_argument("--decompose", action="store_true",
                   help="lower the oracle to two-qubit gates (n = 2 only)")

    p = sub.add_parser("sample", help="simulate, then draw measurement shots")
    add_common(p)
    p.add_argument("--coin-init", type=int, default=0)
    p.add_argument("--pos-init", type=int, default=0)
    p.add_argument("--method", choices=[m.value for m in Method],
                   default=Method.STATEVECTOR.value)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="cross-validate all computation routes and shift operators")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--operator", help="also validate a shift operator loaded from a CSV file")

    return parser


def _check_node_index(args, name: str) -> None:
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None and not 0 <= value < 2**args.n:
        raise UsageError(f"--{name} must be in 0..{2**args.n - 1} for --n {args.n}")


def _validate(args) -> None:
    if args.command == "verify":
        if not 1 <= args.n_max <= complement.MAX_DENSE_QUBITS:
            raise UsageError(f"--n-max must be in 1..{complement.MAX_DENSE_QUBITS}, "
                             f"the dense-path cap")
        return
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    for name in ("target", "coin-init", "pos-init"):
        _check_node_index(args, name)
    if getattr(args, "steps", 1) < 1:
        raise UsageError("--steps must be >= 1")
    if getattr(args, "shots", 1) < 1:
        raise UsageError("--shots must be >= 1")
    if getattr(args, "seed", 0) < 0:
        raise UsageError("--seed must be >= 0")
    eps = getattr(args, "prune_epsilon", 0.0)
    if not (math.isfinite(eps) and eps >= 0):
        raise UsageError("--prune-epsilon must be a finite number >= 0")


_NATIVE_FORMAT = {"simulate": "json", "probmatrix": "csv", "collapse": "dot",
                  "qasm": "qasm", "sample": "json"}
_ALLOWED_FORMATS = {"simulate": {"json", "csv"}, "probmatrix": {"csv", "json"},
                    "collapse": {"dot", "json"}, "qasm": {"qasm"},
                    "sample": {"json", "csv"}}


def _pick_format(args) -> str:
    allowed = _ALLOWED_FORMATS[args.command]
    fmt = args.format or (os.path.splitext(args.out)[1].lstrip(".").lower() if args.out
                          else _NATIVE_FORMAT[args.command])
    if fmt not in allowed:
        raise UsageError(f"format {fmt!r} is not supported by {args.command!r}: use one of "
                         f"{', '.join(sorted(allowed))}, as the --out extension or with --format")
    return fmt


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)


def _complement_result(args):
    spec = ComplementSpec(n=args.n, target=args.target,
                          coin_init=args.coin_init, pos_init=args.pos_init)
    result = complement.run(spec, Method(args.method))
    return spec, result


def _print_summary(result) -> None:
    dist = result.distribution
    k = result.suppressed_node
    p_low = float(dist[k])
    others = np.delete(dist, k)
    p_other = float(others.max()) if others.size else 0.0
    ratio = p_other / p_low if p_low > 0 else float("inf")
    print(f"p(node {k}) = {p_low:.6g}, p(other) = {p_other:.6g}, "
          f"ratio = {ratio:.6g}", file=sys.stderr)


def cmd_simulate(args) -> int:
    fmt = _pick_format(args)
    spec, result = _complement_result(args)
    _print_summary(result)
    if fmt == "json":
        text = json.dumps(complement.result_to_json(spec, result), indent=2) + "\n"
    else:
        text = "".join(f"{p:.17g}\n" for p in result.distribution)
    _write(args, text)
    return 0


def _walk_operator(args) -> walk.EvolutionOperator:
    shift = graphs.shift_operator(args.n, ShiftModel(args.model))
    coin = walk.PerturbedCoin(original=walk.hadamard_coin(args.n),
                              perturbation=np.eye(2**args.n), target=args.target)
    return walk.evolution_operator(shift, coin, with_init_layer=True)


def cmd_probmatrix(args) -> int:
    fmt = _pick_format(args)
    if args.n > complement.MAX_DENSE_QUBITS:
        raise ValueError(f"probability matrices need the dense path, capped at "
                         f"n = {complement.MAX_DENSE_QUBITS}")
    mp = probability.probability_matrix(_walk_operator(args), args.steps)
    if fmt == "csv":
        if args.out:
            probability.save_probability_matrix(mp, args.out)
            log.info("wrote %s and %s.json", args.out, args.out)
        else:
            sys.stdout.write(linalg.csv_text(mp))
    else:
        n_nodes = 2**args.n
        payload = {
            "n": args.n,
            "target": args.target,
            "steps": args.steps,
            "model": args.model,
            "matrix": None,
            "column_blocks": [{"coin": i, "columns": [i * n_nodes, (i + 1) * n_nodes - 1]}
                              for i in range(n_nodes)],
        }
        matrix = linalg.json_list(linalg.format_values(mp, json.dumps), depth=1)
        _write(args, linalg.json_with(payload, matrix=matrix))
    return 0


def cmd_collapse(args) -> int:
    fmt = _pick_format(args)
    if args.n > complement.MAX_DENSE_QUBITS:
        raise ValueError(f"multigraph collapse needs the dense path, capped at "
                         f"n = {complement.MAX_DENSE_QUBITS}")
    g = probability.collapse_multigraph(_walk_operator(args), args.steps,
                                        prune_epsilon=args.prune_epsilon)
    _write(args, probability.multigraph_to_dot(g) if fmt == "dot"
           else probability.multigraph_to_json(g))
    return 0


def cmd_qasm(args) -> int:
    _pick_format(args)
    circ = synthesize_complement_circuit(args.n, args.target, decompose=args.decompose)
    _write(args, export_qasm(circ))
    return 0


def cmd_sample(args) -> int:
    fmt = _pick_format(args)
    spec, result = _complement_result(args)
    counts = sampling.sample(result.distribution, args.shots, args.seed)
    payload = sampling.counts_to_json(counts, theory=result.distribution)
    print(f"l1 distance to theory: {payload['l1_vs_theory']:.6g}", file=sys.stderr)
    if fmt == "json":
        _write(args, json.dumps(payload, indent=2) + "\n")
    else:
        _write(args, "".join(f"{k}\n" for k in counts.counts))
    return 0


def cmd_verify(args) -> int:
    failures = []
    try:
        report = complement.cross_validate(args.n_max)
        print(f"cross-validate n<=1..{args.n_max}: OK, {report.cases} cases, "
              f"max deviation {report.max_deviation:.3e}")
    except CrossValidationError as exc:
        print(f"cross-validate: FAIL: {exc}")
        failures.append(str(exc))
    for model in ShiftModel:
        for n in range(1, args.n_max + 1):
            try:
                graphs.shift_operator(n, model)
                status = "OK"
            except ValueError:
                status = "FAIL"
                failures.append(f"shift {model.value} n={n}")
            print(f"shift {model.value} n={n}: Kraus+unitarity {status}")
    if args.operator:
        try:
            op = graphs.load_shift_operator(args.operator)
            print(f"operator {args.operator}: OK (n={op.n})")
        except (ValueError, OSError) as exc:
            print(f"operator {args.operator}: FAIL: {exc}")
            failures.append(str(exc))
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "probmatrix": cmd_probmatrix,
    "collapse": cmd_collapse,
    "qasm": cmd_qasm,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    level = os.environ.get("WALK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
