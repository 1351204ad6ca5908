"""The distinct-value text writers against per-element formatting.

``linalg.format_values`` formats each distinct bit pattern once; every writer
built on it must give exactly the text that formatting entry by entry gives,
including for -0.0, NaNs with different payloads, infinities and subnormals.
"""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkcomplement import linalg


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SPECIAL = [0.0, -0.0, 0.25, 1 / 16, 0.5**0.5, float("inf"), float("-inf"), float("nan"),
           _from_bits(0x7FF8000000000001), _from_bits(0xFFF8000000000000),
           5e-324, -2.2e-310, 2.2250738585072014e-308]

# repeats come from the small pool, the rest from hypothesis' own float draws
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def tables(draw, shape=None):
    """A float64 array of up to 5 x 6 entries, or of the given shape."""
    rows, cols = shape or (draw(st.integers(0, 5)), draw(st.integers(1, 6)))
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


@st.composite
def complex_tables(draw):
    re = draw(tables())
    m = np.empty(re.shape, dtype=np.complex128)
    m.real, m.imag = re, draw(tables(re.shape))  # keeps -0.0 and NaN payloads in both parts
    return m


def _bits_hex(v: float) -> str:
    return struct.pack("<d", v).hex()


@settings(max_examples=150, deadline=None)
@given(tables())
def test_format_values_equals_per_element_formatting(a):
    for fmt in ("%.17g".__mod__, "{:.6g}".format, json.dumps, _bits_hex):
        got = linalg.format_values(a, fmt)
        assert got.shape == a.shape
        assert got.tolist() == [[fmt(v) for v in row] for row in a.tolist()]


@settings(max_examples=100, deadline=None)
@given(tables())
def test_csv_text_equals_savetxt(a):
    want = io.BytesIO()
    np.savetxt(want, a, delimiter=",", fmt="%.17g")
    assert linalg.csv_text(a).encode() == want.getvalue()


@settings(max_examples=100, deadline=None)
@given(m=complex_tables())
def test_save_matrix_csv_equals_savetxt_of_re_im_pairs(m, tmp_path_factory):
    flat = np.empty((m.shape[0], 2 * m.shape[1]))
    flat[:, 0::2], flat[:, 1::2] = m.real, m.imag
    want = io.BytesIO()
    np.savetxt(want, flat, delimiter=",", fmt="%.17g")
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    linalg.save_matrix_csv(m, path)
    assert path.read_bytes() == want.getvalue()


@settings(max_examples=100, deadline=None)
@given(tables())
def test_json_writers_equal_json_dumps(a):
    cells = linalg.format_values(a, json.dumps)
    assert linalg.json_list(cells, 0) == json.dumps(a.tolist(), indent=2)
    assert linalg.json_list(cells.ravel(), 0) == json.dumps(a.ravel().tolist(), indent=2)
    payload = {"n": 3, "matrix": None, "after": [1, 2]}
    assert linalg.json_with(payload, matrix=linalg.json_list(cells, 1)) == \
        json.dumps({"n": 3, "matrix": a.tolist(), "after": [1, 2]}, indent=2) + "\n"


def test_format_values_calls_fmt_once_per_distinct_bit_pattern():
    a = np.array([0.0, -0.0, 0.0, float("nan"), _from_bits(0x7FF8000000000001),
                  float("nan"), 1.0, 1.0, -0.0])
    calls = []

    def fmt(v):
        calls.append(_bits_hex(v))
        return "%.17g" % v

    assert linalg.format_values(a, fmt).tolist() == ["0", "-0", "0", "nan", "nan", "nan",
                                                     "1", "1", "-0"]
    assert sorted(calls) == sorted({_bits_hex(v) for v in a.tolist()})
    assert len(calls) == 5


def test_format_values_of_integers_and_empty_arrays():
    ints = np.array([[3, -1, 3], [0, 7, -1]])
    assert linalg.format_values(ints, str).tolist() == [["3", "-1", "3"], ["0", "7", "-1"]]
    assert linalg.format_values(np.zeros((0, 4)), str).shape == (0, 4)


def test_join_columns_repeats_strings_and_keeps_row_order():
    a = np.array(["a", "b", "c"], dtype=object)
    b = np.array(["1", "2", "3"], dtype=object)
    assert linalg.join_columns(a, "=", b, ";") == "a=1;b=2;c=3;"
    assert linalg.join_columns(a[:0], ";") == ""


def test_vector_csv_equals_savetxt(tmp_path):
    v = np.array([0.5 - 0.0j, complex(-0.0, 1.0), complex(float("nan"), float("-inf"))])
    path = tmp_path / "v.csv"
    linalg.save_vector_csv(v, path)
    want = io.BytesIO()
    np.savetxt(want, np.column_stack([v.real, v.imag]), delimiter=",", fmt="%.17g")
    assert path.read_bytes() == want.getvalue()


@pytest.mark.parametrize("chunk", [1, 4, 7, 10**6])
def test_save_csv_in_row_slices_equals_savetxt(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(linalg, "_CSV_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    a = rng.choice(np.array(SPECIAL), size=(9, 5))
    a[4] = rng.standard_normal(5)
    path = tmp_path / "a.csv"
    linalg.save_csv(a, path)
    want = io.BytesIO()
    np.savetxt(want, a, delimiter=",", fmt="%.17g")
    assert path.read_bytes() == want.getvalue()
