"""Dense complex linear algebra kernel and the in-place gate engine.

Everything in this package runs on plain ``numpy`` arrays of ``complex128``.
Operators are dense and row-major; the largest operator handled densely is
4096 x 4096 (two six-qubit registers), which fits comfortably in memory.
The functions here add the shape checking and the tolerance conventions the
rest of the package relies on.  :func:`apply_gate` applies every gate.

The text writers (CSV here, DOT and JSON in the modules that own those
outputs) format each distinct value once with :func:`format_values` and join
the results, instead of formatting entry by entry.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

# All operators built by this package are exact +-1/sqrt(2^k) combinations,
# so this tolerance is loose.
DEFAULT_ATOL = 1e-10

_H1 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

# Amplitudes per half-block of a gate update: halves and scratch (2 MiB) stay in cache.
_BLOCK = 1 << 15

# Entries per slice of rows that save_csv formats and writes at once.
_CSV_CHUNK = 1 << 16


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def as_complex_vector(v) -> np.ndarray:
    """Coerce input to a 1-D complex128 array."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got array of ndim {v.ndim}")
    return v


def kron(a, b) -> np.ndarray:
    """Kronecker (tensor) product of two matrices.

    Entry ``(i*b.rows + k, j*b.cols + l)`` of the result is ``a[i,j]*b[k,l]``.
    """
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def hadamard_product(a, b) -> np.ndarray:
    """Entrywise (Hadamard) product of two same-shaped matrices."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def apply(m, v) -> np.ndarray:
    """Matrix-vector product ``m @ v``."""
    m = as_complex_matrix(m)
    v = as_complex_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {m.shape} @ {v.shape}")
    return m @ v


def apply_gate(state: np.ndarray, n_qubits: int, matrix, target: int,
               controls=()) -> None:
    """Apply a 2x2 matrix in place to qubit ``target`` of every column of ``state``.

    ``state`` is a C-contiguous complex128 array of 2^n_qubits rows; bit q of
    the row index is qubit q.  Only rows whose qubits carry the ``(qubit, bit)``
    pairs in ``controls`` change; no control-space matrix is formed.  A bit
    flip is a swap.  Work runs in blocks, so the scratch is two blocks.  When
    the state spans more than one block, a block whose two halves are all zero
    is left untouched, which is exact because M @ 0 = 0 for finite M (NaN
    counts as non-zero); a state of one block pays no check.
    """
    if state.dtype != np.complex128 or not state.flags.c_contiguous \
            or state.shape[0] != 2**n_qubits:
        raise ValueError(f"the state must be a C-contiguous complex128 array of "
                         f"2^{n_qubits} rows")
    # qubit q is axis n_qubits - 1 - q of the (2,)*n_qubits + (cols,) view
    free = slice(None)
    idx = [free] * (n_qubits + 1)
    axis = n_qubits - 1 - target
    for qubit, bit in controls:
        if not 0 <= qubit < n_qubits or qubit == target or bit not in (0, 1) \
                or idx[n_qubits - 1 - qubit] is not free:
            raise ValueError(f"bad target {target} or controls {controls} for {n_qubits} qubits")
        idx[n_qubits - 1 - qubit] = bit
    if not 0 <= target < n_qubits:
        raise ValueError(f"bad target {target} or controls {controls} for {n_qubits} qubits")
    view = state.reshape((2,) * n_qubits + (-1,))
    idx[axis] = 0
    half0 = view[tuple(idx)]
    idx[axis] = 1
    half1 = view[tuple(idx)]
    # loop over leading axes (all of length 2) until a block fits _BLOCK
    lead = 0
    while half0.size >> lead > _BLOCK and lead < half0.ndim - 1:
        lead += 1
    (m00, m01), (m10, m11) = np.asarray(matrix, dtype=np.complex128).tolist()
    flip = (m00, m01, m10, m11) == (0, 1, 1, 0)
    s0 = np.empty(half0.shape[lead:], dtype=np.complex128)
    s1 = None if flip else np.empty_like(s0)
    for block in itertools.product((0, 1), repeat=lead):
        a0, a1 = half0[block], half1[block]
        # the columns of a0's first row settle most non-zero blocks without a scan
        if lead and not (a0[(0,) * (a0.ndim - 1)].any() or a0.any() or a1.any()):
            continue
        if flip:
            s0[...] = a0
            a0[...] = a1
            a1[...] = s0
        else:
            np.multiply(a0, m10, out=s0)
            np.multiply(a1, m01, out=s1)
            np.multiply(a0, m00, out=a0)
            np.add(a0, s1, out=a0)
            np.multiply(a1, m11, out=a1)
            np.add(a1, s0, out=a1)


def apply_hadamard(state: np.ndarray, n_qubits: int, targets=None, controls=()) -> None:
    """H in place on each target qubit (default: all) of ``state``, under ``controls``."""
    for target in range(n_qubits) if targets is None else targets:
        apply_gate(state, n_qubits, _H1, target, controls)


def is_unitary(m, tol: float = DEFAULT_ATOL) -> bool:
    """True iff ``m`` is square and the max-abs entry of ``m^dag m - I`` is below tol."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"unitarity is only defined for square matrices, got {m.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    delta = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.abs(delta).max()) < tol


def format_values(values, fmt) -> np.ndarray:
    """``fmt(v)`` for every entry v of ``values`` (as a Python float or int), as an
    object array of strings of the same shape, calling ``fmt`` once per distinct value.

    Every operator here is an exact +-1/sqrt(2^k) combination, so its entries
    take a handful of values.  Values are told apart by their bits, so -0.0
    and 0.0, or two NaN payloads, are formatted separately.
    """
    values = np.ascontiguousarray(values)
    bits = values.view(f"u{values.itemsize}")
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    texts = np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[np.searchsorted(distinct, bits)]


def join_columns(*columns) -> str:
    """Concatenate, row after row, the pieces of equally long 1-D columns; a
    column is an object array of strings or one string repeated in every row."""
    rows = max((len(c) for c in columns if not isinstance(c, str)), default=0)
    cells = np.empty((rows, len(columns)), dtype=object)
    for k, column in enumerate(columns):
        cells[:, k] = column
    return "".join(cells.ravel().tolist())


def json_list(cells: np.ndarray, depth: int) -> str:
    """JSON text of a nested list whose leaves are the pre-formatted strings in
    ``cells``, laid out as ``json.dumps(..., indent=2)`` lays out a list nested
    ``depth`` levels deep."""
    if len(cells) == 0:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    items = cells.tolist() if cells.ndim == 1 else [json_list(c, depth + 1) for c in cells]
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def json_with(payload: dict, **texts: str) -> str:
    """``json.dumps(payload, indent=2)`` and a newline, with the ``None`` value of
    each key named in ``texts`` replaced by the given pre-rendered JSON text."""
    text = json.dumps(payload, indent=2)
    for key, value in texts.items():
        text = text.replace(f'"{key}": null', f'"{key}": {value}', 1)
    return text + "\n"


def csv_text(table) -> str:
    """CSV text of a 2-D float array, ``"%.17g"`` per entry: byte for byte what
    ``np.savetxt(fmt="%.17g", delimiter=",")`` writes."""
    cells = format_values(np.asarray(table, dtype=np.float64), "%.17g".__mod__)
    return "".join(",".join(row) + "\n" for row in cells.tolist())


def save_csv(table, path) -> None:
    """Write :func:`csv_text` of ``table`` to ``path``, a slice of rows at a
    time, so the formatted text held at once stays near ``_CSV_CHUNK`` entries."""
    table = np.asarray(table, dtype=np.float64)
    rows = max(1, _CSV_CHUNK // max(1, table.shape[1]))
    with open(path, "w") as fh:
        for start in range(0, table.shape[0], rows):
            fh.write(csv_text(table[start:start + rows]))


def save_matrix_csv(m, path) -> None:
    """Write a matrix as CSV, one matrix row per line.

    Each entry is stored as a ``re,im`` pair, so a row with c columns becomes
    2c comma-separated floats.
    """
    save_csv(np.ascontiguousarray(as_complex_matrix(m)).view(np.float64), path)


def load_matrix_csv(path) -> np.ndarray:
    """Inverse of :func:`save_matrix_csv`."""
    flat = np.loadtxt(path, delimiter=",", ndmin=2)
    if flat.shape[1] % 2 != 0:
        raise ValueError(f"{path}: odd number of columns, not re,im pairs")
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def save_vector_csv(v, path) -> None:
    """Write a vector as CSV, one ``re,im`` line per entry."""
    v = as_complex_vector(v)
    save_csv(np.ascontiguousarray(v).view(np.float64).reshape(-1, 2), path)


def load_vector_csv(path) -> np.ndarray:
    """Inverse of :func:`save_vector_csv`."""
    flat = np.loadtxt(path, delimiter=",", ndmin=2)
    if flat.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (re,im)")
    return flat[:, 0] + 1j * flat[:, 1]
