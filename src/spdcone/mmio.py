"""Matrix Market reading and writing.

Sparse matrices travel as ``coordinate real symmetric`` files holding the
lower triangle; dense matrices as ``array real symmetric`` files holding
the lower triangle in column-major order. Values are printed with 17
significant digits so that write-then-read reproduces every float64 bit
for bit. The parser reports errors with 1-based line numbers.
"""

from __future__ import annotations

from array import array

import numpy as np
import scipy.sparse as sp

from .core import SpdMatrix
from .errors import ParseError, SpdConeError

_HEADER_PREFIX = "%%MatrixMarket"
_VALUE = "%.16e"  # 17 significant digits
_INDEX_MAX = np.iinfo(np.int64).max


def _fmt(x: float) -> str:
    return _VALUE % float(x)


def write_matrix(path, X: SpdMatrix) -> None:
    """Write an SPD matrix in Matrix Market format (symmetric, lower triangle)."""
    write_symmetric(path, X.raw())


def write_symmetric(path, A) -> None:
    """Write a symmetric matrix (ndarray or sparse) as its lower triangle.

    There is no SPD requirement: geodesic extrapolation outputs may leave
    the cone. Sparse entries are written column by column.
    """
    n = A.shape[0]
    if sp.issparse(A):
        lower = sp.tril(A, format="coo")
        order = np.lexsort((lower.row, lower.col))
        header = f"coordinate real symmetric\n{n} {n} {lower.nnz}"
        lines = map(f"%d %d {_VALUE}\n".__mod__, zip((lower.row[order] + 1).tolist(),
                                                     (lower.col[order] + 1).tolist(),
                                                     lower.data[order].tolist()))
    else:
        j, i = np.triu_indices(n)  # the lower triangle in column-major order
        header = f"array real symmetric\n{n} {n}"
        lines = map(f"{_VALUE}\n".__mod__, np.asarray(A, dtype=float)[i, j].tolist())
    with open(path, "w") as fh:
        fh.write(f"{_HEADER_PREFIX} matrix {header}\n")
        fh.writelines(lines)


def read_matrix(path):
    """Read a Matrix Market file.

    Returns an ndarray for array format or a COO matrix for coordinate
    format, with symmetric storage expanded to the full matrix (the COO
    may hold duplicates, which sum). Comment and blank lines may appear
    anywhere after the header. Raises :class:`ParseError` with the
    offending line number, also for a byte that is not UTF-8 text, for a
    non-finite value and for a skew-symmetric header, since such a matrix
    can never be positive definite.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"byte {data[exc.start]:#04x} is not UTF-8 text") from None
    header = lines[0].split() if lines else []
    if len(header) != 5 or header[0] != _HEADER_PREFIX:
        raise ParseError(path, 1, "malformed MatrixMarket header" if lines else "empty file")
    header = [t.lower() for t in header]
    for name, value, allowed in zip(("object", "format", "field", "symmetry"), header[1:],
                                    (("matrix",), ("coordinate", "array"), ("real", "integer"),
                                     ("general", "symmetric"))):  # skew-symmetric is never SPD
        if value not in allowed:
            raise ParseError(path, 1, f"unsupported {name} {value!r} (need {' or '.join(allowed)})")
    coordinate, symmetry = header[2] == "coordinate", header[4]

    # the index of every line after the header that is neither blank nor a
    # comment; arrays, not lists, so that no int or float object is kept per entry
    entries = array("q", (k for k, text in enumerate(lines)
                          if k and (text.lstrip() or "%")[0] != "%"))
    if not entries:
        raise ParseError(path, len(lines), "missing size line")
    size_no = entries.pop(0) + 1
    try:
        nrow, ncol, *nnz = map(int, lines[size_no - 1].split())
        if len(nnz) != coordinate:
            raise ValueError
    except ValueError:
        raise ParseError(path, size_no, f"size line needs {2 + coordinate} integers") from None
    if not all(0 <= v <= _INDEX_MAX for v in (nrow, ncol, *nnz)):
        raise ParseError(path, size_no, f"size entry outside [0, {_INDEX_MAX}]")
    if coordinate:
        expected = nnz[0]
    elif symmetry == "general":
        expected = nrow * ncol
    elif nrow != ncol:
        raise ParseError(path, size_no, "symmetric array must be square")
    else:
        expected = nrow * (nrow + 1) // 2
    if len(entries) != expected:
        no = entries[expected] + 1 if len(entries) > expected else len(lines)
        raise ParseError(path, no, f"expected {expected} entries, found {len(entries)}")

    rows, cols, values = array("q"), array("q"), array("d")
    for k in entries:
        text = lines[k]
        try:
            if coordinate:
                i, j, text = text.split()
                i, j = int(i), int(j)
                if not (0 < i <= nrow and 0 < j <= ncol):
                    raise ParseError(path, k + 1, f"index ({i}, {j}) out of range")
                rows.append(i - 1)
                cols.append(j - 1)
            values.append(float(text))
        except ValueError:
            raise ParseError(path, k + 1, f"malformed entry {lines[k].strip()!r}") from None
    values = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = entries[bad[0]]
        raise ParseError(path, k + 1, f"non-finite value in {lines[k].strip()!r}")
    del data, lines, entries  # the text outweighs the matrix; free it before the matrix is built

    if coordinate:
        rows, cols = np.asarray(rows), np.asarray(cols)
        if symmetry == "symmetric":  # append the mirror of the strict lower triangle
            lower = rows > cols
            rows, cols = np.r_[rows, cols[lower]], np.r_[cols, rows[lower]]
            values = np.r_[values, values[lower]]
        return sp.coo_matrix((values, (rows, cols)), shape=(nrow, ncol))
    if symmetry == "general":
        return values.reshape(ncol, nrow).T.copy()
    A = np.zeros((nrow, ncol))
    j, i = np.triu_indices(nrow)  # the lower triangle in column-major order
    A[i, j] = A[j, i] = values
    return A


def read_spd(path) -> SpdMatrix:
    """Read a Matrix Market file and certify it as SPD.

    An error of the certification is re-raised as it is, class, fields
    and detail, with the path put at the front of its message.
    """
    A = read_matrix(path)
    try:
        return SpdMatrix(A)
    except SpdConeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
