"""CLI outputs of the dense path, byte for byte, against committed golden files.

The files under ``data/golden/`` were written by these same commands with the
per-element writers (``np.savetxt``, ``json.dumps`` of nested lists and an
f-string per DOT arc) that the distinct-value formatter replaced.  Any change
of a digit, a sign of zero, an indent or a line ending fails here.
"""

import contextlib
import io
from pathlib import Path

import pytest

from walkcomplement import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

INSTANCES = ((2, 1), (3, 5))

# golden name -> subcommand arguments after --n/--target; "{out}" marks a file
# output (written under the golden name), otherwise stdout is compared
CASES = {
    "probmatrix_cnot.csv": ["probmatrix", "--out", "{out}"],
    "probmatrix_swap_steps2.csv": ["probmatrix", "--model", "swap", "--steps", "2"],
    "probmatrix_cnot.json": ["probmatrix", "--format", "json"],
    "probmatrix_swap.json": ["probmatrix", "--model", "swap", "--out", "{out}"],
    "probmatrix_cnot_steps2.json": ["probmatrix", "--steps", "2", "--format", "json"],
    "collapse.dot": ["collapse"],
    "collapse_swap_steps2.dot": ["collapse", "--model", "swap", "--steps", "2"],
    "collapse.json": ["collapse", "--format", "json"],
    "collapse_eps.json": ["collapse", "--format", "json", "--prune-epsilon", "0.05"],
    "collapse_empty.json": ["collapse", "--format", "json", "--prune-epsilon", "2"],
}


def produce(n: int, target: int, name: str, argv: list, workdir: Path) -> dict:
    """Golden file name -> bytes the CLI writes for one case."""
    out = workdir / name
    argv = [a.replace("{out}", str(out)) for a in argv]
    argv[1:1] = ["--n", str(n), "--target", str(target)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert cli.main(argv) == 0, stderr.getvalue()
    key = f"n{n}_{name}"
    if "{out}" not in " ".join(CASES[name]):
        return {key: stdout.getvalue().encode()}
    files = {key: out.read_bytes()}
    if name.endswith(".csv"):
        files[key + ".json"] = Path(f"{out}.json").read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("n,target", INSTANCES)
def test_cli_output_matches_golden_bytes(n, target, name, tmp_path):
    for key, data in produce(n, target, name, CASES[name], tmp_path).items():
        assert data == (GOLDEN / key).read_bytes(), key
