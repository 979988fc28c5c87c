"""The text readers against the line loops they replaced, and their memory.

``read_matrix``, ``read_pseudotime`` and ``read_edge_list`` parse a file's
body with numpy's C reader and fall back to a line loop for what it refuses.
The loops below are the readers as they were before that, kept as oracles:
on every input a reader must return the oracle's bits, or raise the same
exception class with the same message. Text that does not decode is the
one exception: the oracle's ``UnicodeDecodeError`` is the reader's
``DataError`` naming the file.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagranger.errors import DataError
from dagranger.graph import build_dag, read_edge_list
from dagranger.preprocess import ValueMatrix, read_matrix, read_pseudotime, write_matrix
from test_cli_fuzz import JUNK, NUMBER, edge_text, matrix_text, pseudotime_text


def line_loop_read_matrix(path) -> ValueMatrix:
    """The dense-text branch of ``read_matrix``, one ``float()`` per value: the oracle."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise DataError(f"{path}:1: empty header row")
        delim = "," if "," in header else None
        names = tuple(h.strip() for h in (header.split(delim)))
        seen: set[str] = set()
        for name in names:
            if not name or "\t" in name:
                raise DataError(f"{path}:1: variable name {name!r} is empty or holds a tab")
            if name in seen:
                raise DataError(f"{path}:1: duplicate variable name {name!r}")
            seen.add(name)
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delim)
            if len(parts) != len(names):
                raise DataError(
                    f"{path}:{lineno}: expected {len(names)} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric entry") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        return ValueMatrix(values=np.array(rows, dtype=np.float64), var_names=names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def line_loop_read_pseudotime(path) -> np.ndarray:
    """``read_pseudotime``, one ``float()`` per line: the oracle."""
    out: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric pseudotime") from exc
            if not np.isfinite(value):
                raise DataError(f"{path}:{lineno}: pseudotime is NaN or infinite")
            out.append(value)
    if not out:
        raise DataError(f"{path}: no pseudotime values")
    return np.array(out, dtype=np.float64)


def line_loop_read_edge_list(path, n_nodes=None):
    """``read_edge_list``, one ``int()`` per id: the oracle."""
    ids: list[int] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                ids += (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer node id") from exc
            linenos.append(lineno)
    try:
        edges = np.array(ids, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        i = next(i for i, x in enumerate(ids) if x.bit_length() > 63)
        raise DataError(f"{path}:{linenos[i // 2]}: node id {ids[i]} is out of range") from exc
    if n_nodes is None:
        n_nodes = int(edges.max(initial=-1)) + 1
    try:
        return build_dag(n_nodes, edges)
    except DataError as exc:
        i = getattr(exc, "edge_index", None)
        where = path if i is None else f"{path}:{linenos[i]}"
        raise DataError(f"{where}: {exc}") from exc


def outcome(read, path):
    """What ``read(path)`` gives, as comparable values: its arrays' bits, or its error."""
    try:
        result = read(path)
    except (DataError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    if isinstance(result, ValueMatrix):
        return result.var_names, result.values.shape, result.values.tobytes()
    if isinstance(result, np.ndarray):
        return result.shape, result.dtype, result.tobytes()
    return (result.n_nodes, result.edges.tobytes(), result.in_degree.tobytes(),
            result.level.tobytes())


READERS = {"matrix": (read_matrix, line_loop_read_matrix),
           "pseudotime": (read_pseudotime, line_loop_read_pseudotime),
           "edges": (read_edge_list, line_loop_read_edge_list),
           "edges of 5 nodes": (lambda p: read_edge_list(p, n_nodes=5),
                                lambda p: line_loop_read_edge_list(p, n_nodes=5))}


def assert_same_outcome(kind, path, data: bytes):
    path.write_bytes(data)
    reader, oracle = READERS[kind]
    assert outcome(reader, path) == outcome(oracle, path)


# inputs that float() or int() read and numpy's C reader does not, and what
# both refuse: comments after data, ids beyond int64, two values on a line
CASES = [
    ("matrix", "a,b\n1_000,2\n3,4\n"),
    ("matrix", "a b\n1_000 2\n"),
    ("matrix", "a,b\n1,2\n   \n3,4\n"),
    ("matrix", "a,b\n1,2\n\t\n"),
    ("matrix", "a b\n1 2\n   \n3 4\n"),
    ("matrix", "a,b\n1,2 # note\n"),
    ("matrix", "a,b\n# note\n1,2\n"),
    ("matrix", "a,b\r\n1,2\r\n3,4\r\n"),
    ("matrix", "a,b\n"),
    ("matrix", "a,b\n\n  \n"),
    ("matrix", "a,b\n1,nan\n"),
    ("matrix", "a,b\n1,2\n3\n"),
    ("matrix", "a,b\n1,2,\n"),
    ("matrix", "a\n1 2\n"),
    ("matrix", "a,b\n1,1e999\n"),
    ("matrix", "a,b\n١,2\n"),
    ("pseudotime", "1.0 2.0\n"),
    ("pseudotime", "1.0 2.0\n3.0 4.0\n"),
    ("pseudotime", "0.5\n1.0 2.0\n"),
    ("pseudotime", "1_000\n2\n"),
    ("pseudotime", "# header\n\n  # indented\n0.5\n0.25\n"),
    ("pseudotime", "0.5\n# middle\n0.25\n"),
    ("pseudotime", "0.5 # note\n"),
    ("pseudotime", "0.5\n   \n0.25\n"),
    ("pseudotime", "0.5\r\n0.25\r\n"),
    ("pseudotime", ""),
    ("pseudotime", "# only a comment\n\n"),
    ("pseudotime", "0.5\nnan\n0.25\ninf\n"),
    ("pseudotime", "0.5\n-inf\nx\n"),
    ("edges", "# src\tdst\n0\t1\n1\t2\n"),
    ("edges", "0\t1\n# middle\n1\t2\n"),
    ("edges", "0\t1 # note\n"),
    ("edges", "0\t1_000\n"),
    ("edges", "0\t9223372036854775808\n"),
    ("edges", "0\t1\n-9223372036854775809\t1\n"),
    ("edges", "0\t99999999999999999999\n1\tx\n"),
    ("edges", "0\t1\r\n1\t2\r\n"),
    ("edges", ""),
    ("edges", "# src\tdst\n"),
    ("edges", "0\t1\n\n   \n1\t1\n"),
    ("edges", "0\t1\n1\t2\n0\t1\n"),
    ("edges", "0\t1\n1\t2\n2\t0\n"),
    ("edges", "0\t1.0\n"),
    ("edges", "0 1 2\n"),
    ("edges of 5 nodes", "# c\n0\t1\n\n3\t7\n"),
    ("edges of 5 nodes", "9223372036854775807\t0\n-9223372036854775808\t1\n"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, text", CASES)
def test_reader_matches_the_line_loop_on_edge_cases(tmp_path, kind, text):
    assert_same_outcome(kind, tmp_path / "in.txt", text.encode("utf-8"))


@pytest.mark.parametrize("kind, text", [("matrix", b"a,b\n" + b"1,2\n" * 5000),
                                        ("pseudotime", b"0.5\n" * 5000),
                                        ("edges", b"0\t1\n" * 5000)])
def test_undecodable_bytes_raise_as_before(tmp_path, kind, text):
    # where the line loop meets text that does not decode, the reader raises
    # a DataError that names the file
    path = tmp_path / "in.txt"
    path.write_bytes(text + b"\xff\n")
    reader, oracle = READERS[kind]
    assert outcome(oracle, path)[0] is UnicodeDecodeError
    assert outcome(reader, path) == (DataError, f"{path}: not UTF-8 text (invalid start byte)")


# numbers of every magnitude and digit count, to compare bits
WIDE_NUMBER = st.one_of(
    NUMBER,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"[-+]?[0-9]{1,22}(\.[0-9]{0,22})?([eE][-+]?[0-9]{1,3})?", fullmatch=True),
)
# lines of the edge cases above, inserted into generated files
ODD_LINE = st.sampled_from(["", "   ", "\t", "# note", "  # note", "1_000", "0\t1_0",
                            "1.0 2.0", "0\t9223372036854775808", "1,2 # c", "0\t1 # c"])


@st.composite
def variant(draw, text):
    """``text`` with a few odd lines inserted, a comment appended to a line, and CRLF or LF ends."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_LINE))
    if lines and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += " # c"
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@st.composite
def numeric_matrix_text(draw):
    n_cols, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    delim = draw(st.sampled_from([",", " ", "\t"]))
    header = ("," if delim == "," else " ").join(f"v{j}" for j in range(n_cols))
    rows = [delim.join(draw(st.lists(WIDE_NUMBER, min_size=n_cols, max_size=n_cols)))
            for _ in range(n_rows)]
    return "\n".join([header] + rows) + "\n"


TEXTS = {
    "matrix": st.one_of(st.integers(0, 8).flatmap(matrix_text), numeric_matrix_text()),
    "pseudotime": st.one_of(st.integers(0, 8).flatmap(pseudotime_text),
                            st.lists(st.one_of(WIDE_NUMBER, JUNK), max_size=8).map("\n".join)),
    "edges": st.integers(0, 8).flatmap(edge_text),
    "edges of 5 nodes": st.integers(0, 8).flatmap(edge_text),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(TEXTS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_matches_the_line_loop(tmp_path, kind, data):
    text = data.draw(TEXTS[kind].flatmap(variant))
    assert_same_outcome(kind, tmp_path / "in.txt", text.encode("utf-8"))


def test_matrix_is_read_at_under_twice_its_array(tmp_path):
    values = np.random.default_rng(3).random((2000, 200))
    path = tmp_path / "x.csv"
    write_matrix(path, values, [f"v{j}" for j in range(200)])
    tracemalloc.start()
    try:
        loaded = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.values, values)
    assert peak < 2 * values.nbytes, peak / values.nbytes
