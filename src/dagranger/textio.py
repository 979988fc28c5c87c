"""The one reading policy of every text input, and numeric tables read by numpy's C reader.

Every text file is UTF-8 and is opened with ``text_file``: text that does
not decode raises a ``DataError`` naming the file, wherever the reading
meets it. ``numbered_lines`` yields a file's lines stripped and numbered
from 1, without blank lines and, unless told otherwise, without ``#``
lines; a reader that rejects a line starts its message with
``path:line:``. ``cited`` puts a file's name in front of the message of a
``DataError`` raised while its contents are checked.

The matrix, pseudotime and edge readers parse a file's body with
``read_table`` first. ``np.loadtxt`` makes no Python object per value, so a
table is read at about 1.1 times the memory of its array, and it converts
with ``PyOS_string_to_double``, as ``float()`` does, so the values keep the
bits of ``float()`` and ``int()``. Where it refuses the text, each reader
reads the file again through ``numbered_lines``, which names the first bad
line or accepts what ``float()`` and ``int()`` accept beyond numpy
(``1_000``, whitespace-only lines in a comma-delimited file).
"""
from __future__ import annotations

import contextlib
import itertools

import numpy as np

from .errors import DataError

__all__ = ["text_file", "numbered_lines", "cited", "read_table"]


@contextlib.contextmanager
def text_file(path):
    """The UTF-8 file ``path`` open for reading; text that does not decode raises DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def numbered_lines(path, comments=True):
    """(line number, stripped line) for each line of the UTF-8 file ``path``.

    Blank lines are skipped, and so are lines whose first non-blank
    character is ``#`` unless ``comments`` is False.
    """
    with text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not (comments and line.startswith("#")):
                yield lineno, line


@contextlib.contextmanager
def cited(where):
    """Re-raises a ``DataError`` of the block with ``where: `` in front of its message."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def read_table(fh, dtype, delimiter=None, comment_lines=False) -> np.ndarray | None:
    """The rest of the open text file ``fh`` as a 2-D ``dtype`` array, or None where numpy refuses it.

    ``delimiter`` None splits on whitespace. Empty lines are skipped (and
    whitespace-only ones with the whitespace delimiter), and with
    ``comment_lines`` so are the blank and ``#`` lines before the first data
    line; any other ``#`` is data, which numpy refuses. Rows of unequal
    length, a field that does not convert or overflows, and a body with no
    data line give None. Text that does not decode raises, for
    ``text_file`` to name the file. The first data line is not blank, so
    numpy reads at least one row and never warns of an empty input.
    """
    line = fh.readline()
    while line and (not line.strip() or comment_lines and line.lstrip().startswith("#")):
        line = fh.readline()
    if not line:
        return None
    try:
        return np.loadtxt(itertools.chain([line], fh), dtype=dtype, delimiter=delimiter,
                          comments=None, ndmin=2)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
