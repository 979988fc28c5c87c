"""Fuzzing the command line with small malformed input files.

Every generated input must end with a documented exit code (0 success,
2 configuration error, 3 data error, 4 internal error) and without a
traceback. The examples are few and small, and derandomized so that every
run of the suite sees the same inputs.
"""
import contextlib
import io
import json
import logging
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagranger.cli import main

EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

NAMES = ("a", "b", "c", "a b", "")

NUMBER = st.one_of(st.integers(-3, 3).map(str), st.floats(-5, 5, allow_nan=False).map(repr))
JUNK = st.sampled_from(["nan", "inf", "-inf", "", "x", "1e999", "0x1", "1,5", "#"])
# a cell of a text matrix or a pseudotime line: mostly a number, sometimes junk
CELL = st.one_of(NUMBER, NUMBER, NUMBER, JUNK)
ANY_TEXT = st.text(max_size=60)


@st.composite
def matrix_text(draw, n_rows):
    """A header of names and ``n_rows`` rows of cells.

    Three in four are well formed (unique plain names, numeric cells); the
    others may have odd names, junk cells and ragged rows.
    """
    delim = draw(st.sampled_from([",", " "]))
    clean = draw(st.integers(0, 3)) < 3
    n_cols = draw(st.integers(1 if clean else 0, 3))
    names = draw(st.lists(st.sampled_from(NAMES[:3] if clean else NAMES), min_size=n_cols,
                          max_size=n_cols, unique=clean))
    row = st.lists(NUMBER if clean else CELL, min_size=n_cols, max_size=n_cols)
    if not clean and draw(st.booleans()):
        row = st.lists(CELL, max_size=4)
    rows = [draw(row) for _ in range(n_rows)]
    return "\n".join([delim.join(names)] + [delim.join(r) for r in rows]) + "\n"


@st.composite
def edge_text(draw, n_rows):
    """Half the time edges between existing nodes, else odd ids and junk lines.

    The edges are acyclic, or have one line added that closes a cycle,
    makes a self-loop or repeats another line.
    """
    if draw(st.booleans()):
        odd = st.one_of(st.integers(-1, n_rows).map(str), st.sampled_from(["", "x", "1.5"]))
        junk = st.one_of(st.tuples(odd, odd).map("\t".join),
                         st.lists(odd, max_size=3).map(" ".join))
        return "\n".join(draw(st.lists(junk, max_size=6)))
    acyclic = st.integers(0, max(n_rows - 2, 0)).flatmap(
        lambda u: st.integers(u + 1, max(n_rows - 1, u + 1)).map(lambda v: f"{u}\t{v}"))
    lines = draw(st.lists(acyclic, max_size=12, unique=True))
    defect = draw(st.sampled_from(["none", "cycle", "self-loop", "repeat"]))
    if lines and defect != "none":
        u, v = draw(st.sampled_from(lines)).split("\t")
        extra = {"cycle": f"{v}\t{u}", "self-loop": f"{u}\t{u}", "repeat": f"{u}\t{v}"}[defect]
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines)


def pseudotime_text(n_rows):
    return st.one_of(st.lists(NUMBER, min_size=n_rows, max_size=n_rows),
                     st.lists(CELL, min_size=n_rows, max_size=n_rows),
                     st.lists(CELL, max_size=10)).map("\n".join)


PAIR = st.tuples(st.sampled_from(NAMES[:3]), st.sampled_from(NAMES[:3])).map("\t".join)
ODD_PAIR = st.lists(st.sampled_from(NAMES + ("zz",)), max_size=3).map("\t".join)
PAIRS = st.one_of(st.lists(PAIR, min_size=1, max_size=4, unique=True),
                  st.lists(ODD_PAIR, max_size=6)).map("\n".join)

RECORD = st.fixed_dictionaries(
    {"x_name": st.sampled_from(NAMES), "y_name": st.sampled_from(NAMES),
     "score": st.one_of(st.floats(-5, 5), st.floats(), st.text(max_size=3), st.none())},
    optional={"method": st.sampled_from(["pearson", "dagranger"])},
)
SCORES = st.one_of(
    st.lists(RECORD, max_size=6).map(lambda recs: "\n".join(json.dumps(r) for r in recs)),
    ANY_TEXT,
)
REFERENCE = st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES), CELL).map(
    "\t".join), max_size=6).map("\n".join)


class ErrorLines(logging.Handler):
    """The messages of the ERROR records logged while attached."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def run_cli(files: dict, argv_of) -> tuple[int, str, list[str]]:
    """Write ``files`` into a fresh directory and run ``main(argv_of(dir))``.

    Returns the exit code, the standard error and the logged error messages.
    """
    errors = ErrorLines()
    logging.getLogger("dagranger").addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in files.items():
                (root / name).write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main([str(a) for a in argv_of(root)])
                except SystemExit as exc:  # argparse rejects the options
                    code = exc.code
            return code, err.getvalue(), errors.lines
    finally:
        logging.getLogger("dagranger").removeHandler(errors)


def check(code, err, errors):
    assert code in EXIT_CODES, code
    assert "Traceback" not in err
    # a cycle, self-loop or repeated line in an edge file is a data error naming it
    for line in errors:
        if any(s in line for s in ("cycle through", "self-loop", "more than once")):
            assert code == 3 and line.startswith("data error: ") and "edges.tsv:" in line


@FUZZ
@given(data=st.data(), method=st.sampled_from(["all", "dagranger", "var-granger"]))
def test_run_never_tracebacks(data, method):
    n_rows = data.draw(st.integers(0, 12))
    files = {"x.csv": data.draw(matrix_text(n_rows)), "y.csv": data.draw(matrix_text(n_rows)),
             "pairs.tsv": data.draw(PAIRS),
             "edges.tsv": data.draw(st.one_of(edge_text(n_rows), ANY_TEXT)),
             "pt.txt": data.draw(pseudotime_text(n_rows))}
    check(*run_cli(files, lambda d: [
        "run", "--x-matrix", d / "x.csv", "--y-matrix", d / "y.csv", "--pairs", d / "pairs.tsv",
        "--edges", d / "edges.tsv", "--pseudotime", d / "pt.txt", "--method", method,
        "--n-layers", 1, "--max-epochs", 1, "--outdir", d / "out"]))


@FUZZ
@given(data=st.data())
def test_run_reports_edge_file_defects(data):
    """Clean matrices and pairs with rows enough to train, so the edge file is what is tested."""
    n_rows = data.draw(st.integers(6, 12))
    matrix = "a,b\n" + "".join(f"{i % 3},{i * i % 5}\n" for i in range(n_rows))
    files = {"x.csv": matrix, "y.csv": matrix, "pairs.tsv": "a\tb\nb\ta\n",
             "edges.tsv": data.draw(edge_text(n_rows))}
    check(*run_cli(files, lambda d: [
        "run", "--x-matrix", d / "x.csv", "--y-matrix", d / "y.csv", "--pairs", d / "pairs.tsv",
        "--edges", d / "edges.tsv", "--method", "dagranger", "--n-layers", 1,
        "--max-epochs", 1, "--outdir", d / "out"]))


@FUZZ
@given(data=st.data(), k=st.integers(-1, 4))
def test_build_dag_never_tracebacks(data, k):
    n_rows = data.draw(st.integers(0, 8))
    files = {"emb.csv": data.draw(matrix_text(n_rows)),
             "pt.txt": data.draw(st.one_of(pseudotime_text(n_rows), ANY_TEXT))}
    check(*run_cli(files, lambda d: [
        "build-dag", "--embedding", d / "emb.csv", "--pseudotime", d / "pt.txt", "--k", k,
        "--out-edges", d / "edges.tsv", "--out-stats", d / "stats.json"]))


@FUZZ
@given(scores=SCORES, reference=st.one_of(REFERENCE, ANY_TEXT))
def test_eval_never_tracebacks(scores, reference):
    files = {"scores.jsonl": scores, "ref.tsv": reference}
    check(*run_cli(files, lambda d: [
        "eval", "--scores", d / "scores.jsonl", "--reference", d / "ref.tsv",
        "--out", d / "metrics.json"]))
