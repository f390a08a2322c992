"""Matrix Market reading and writing.

Sparse matrices travel as ``coordinate real symmetric`` files holding the
lower triangle; dense matrices as ``array real symmetric`` files holding
the lower triangle in column-major order. Values are printed with 17
significant digits so that write-then-read reproduces every float64 bit
for bit. The parser reports errors with 1-based line numbers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core import SpdMatrix
from .errors import ParseError

_HEADER_PREFIX = "%%MatrixMarket"
_VALUE = "%.16e"  # 17 significant digits


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
    format, with symmetric storage expanded to the full matrix. Raises
    :class:`ParseError` with the offending line number, also for a
    non-finite value and for a skew-symmetric header, since such a
    matrix can never be positive definite.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX:
        raise ParseError(path, 1, "malformed MatrixMarket header")
    _, obj, fmt, field, symmetry = (t.lower() for t in header)
    if obj != "matrix":
        raise ParseError(path, 1, f"unsupported object {obj!r}")
    if fmt not in ("coordinate", "array"):
        raise ParseError(path, 1, f"unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        raise ParseError(path, 1, f"unsupported field {field!r} (need real/integer)")
    if symmetry not in ("general", "symmetric"):  # skew-symmetric is never SPD
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    # first non-comment line after the header carries the sizes
    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise ParseError(path, len(lines), "missing size line")
    size_tokens = lines[idx].split()
    size_line = idx + 1
    # no more entries than lines can follow, whatever the size line claims
    room = len(lines) - size_line

    if fmt == "coordinate":
        if len(size_tokens) != 3:
            raise ParseError(path, size_line, "coordinate size line needs 'rows cols nnz'")
        try:
            nrow, ncol, nnz = (int(t) for t in size_tokens)
        except ValueError:
            raise ParseError(path, size_line, "non-integer size entry") from None
        if min(nrow, ncol, nnz) < 0:
            raise ParseError(path, size_line, "negative size entry")
        rows = np.empty(min(nnz, room), dtype=np.int64)
        cols = np.empty_like(rows)
        vals = np.empty(rows.size, dtype=float)
        count = 0
        for off, text in enumerate(lines[idx + 1:], start=size_line + 1):
            stripped = text.strip()
            if not stripped or stripped.startswith("%"):
                continue
            if count >= nnz:
                raise ParseError(path, off, f"more than the declared {nnz} entries")
            tokens = stripped.split()
            if len(tokens) != 3:
                raise ParseError(path, off, "entry needs 'row col value'")
            try:
                i, j = int(tokens[0]), int(tokens[1])
                v = float(tokens[2])
            except ValueError:
                raise ParseError(path, off, f"malformed entry {stripped!r}") from None
            if not (1 <= i <= nrow and 1 <= j <= ncol):
                raise ParseError(path, off, f"index ({i}, {j}) out of range")
            rows[count], cols[count], vals[count] = i - 1, j - 1, v
            count += 1
        if count != nnz:
            raise ParseError(path, len(lines), f"declared {nnz} entries, found {count}")
        _check_finite(path, lines, idx + 1, vals)
        A = sp.coo_matrix((vals, (rows, cols)), shape=(nrow, ncol))
        if symmetry == "symmetric":
            strict = sp.tril(A, k=-1, format="coo")
            A = (A + strict.T).tocoo()
        return A

    if len(size_tokens) != 2:
        raise ParseError(path, size_line, "array size line needs 'rows cols'")
    try:
        nrow, ncol = (int(t) for t in size_tokens)
    except ValueError:
        raise ParseError(path, size_line, "non-integer size entry") from None
    if min(nrow, ncol) < 0:
        raise ParseError(path, size_line, "negative size entry")
    if symmetry == "general":
        expected = nrow * ncol
    else:
        if nrow != ncol:
            raise ParseError(path, size_line, "symmetric array must be square")
        expected = nrow * (nrow + 1) // 2
    values = np.empty(min(expected, room), dtype=float)
    count = 0
    for off, text in enumerate(lines[idx + 1:], start=size_line + 1):
        stripped = text.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if count >= expected:
            raise ParseError(path, off, f"more than the expected {expected} values")
        try:
            values[count] = float(stripped)
        except ValueError:
            raise ParseError(path, off, f"malformed value {stripped!r}") from None
        count += 1
    if count != expected:
        raise ParseError(path, len(lines), f"expected {expected} values, found {count}")
    _check_finite(path, lines, idx + 1, values)
    if symmetry == "general":
        return values.reshape(ncol, nrow).T.copy()
    A = np.zeros((nrow, ncol))
    j, i = np.triu_indices(nrow)  # the lower triangle in column-major order
    A[i, j] = A[j, i] = values
    return A


def _check_finite(path, lines, first, values):
    """ParseError at the data line, from index ``first`` on, of the first nan or inf."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        data = [k for k in range(first, len(lines))
                if lines[k].strip() and not lines[k].lstrip().startswith("%")]
        k = data[bad[0]]
        raise ParseError(path, k + 1, f"non-finite value in {lines[k].strip()!r}")


def read_spd(path) -> SpdMatrix:
    """Read a Matrix Market file and certify it as SPD."""
    return SpdMatrix(read_matrix(path))
