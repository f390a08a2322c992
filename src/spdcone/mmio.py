r"""Matrix Market reading and writing.

Sparse matrices travel as ``coordinate real symmetric`` files holding the
lower triangle in row order; dense matrices as ``array real symmetric``
files holding the lower triangle in column-major order. scipy's C++
writer prints a ``%`` line after the header and every value as the
shortest decimal that reads back to the same float64, so write-then-read
reproduces every value bit for bit.

The reader is spdcone's own, stricter than scipy's, and takes one of two
routes, chosen from the file itself. Both parse the header and the size
line alike. The fast route takes a canonical body, such as scipy's writer
prints: each line is one value, ``-?D+(\.D+)?([eE][-+]?D+)?`` with D a
digit, or for a coordinate file two digit-only indices and that value,
separated by single spaces; every line ends in ``\n``; no comment or
blank line appears; and there are as many lines as the size line
declares. The body is proven so in blocks of whole lines, about 128 KiB
each, so that every pass over a block finds it in a core's cache: a
byte-pair check, then counts and pair tests on the block's marks, what is
left of it without its digits; the blocks' counts are summed. Then one
call of scipy's C++ reader (scipy >= 1.12) parses it as a coordinate
body's ``real general`` list of entries in file order, or as an array
body's ``real`` array of the declared shape and symmetry, which scipy
expands to the full matrix. scipy reads the file's own bytes when its
header and size line already say so in those words, as spdcone's and
scipy's dense files do (``array real``, then the shape alone). Any other
body is copied once behind such a header, written from the file's own as
parsed here; the body is never copied more than once. Within that
grammar scipy reads every value as Python's ``float`` does, bit for bit,
except that it drops the sign of ``-0.0`` in array bodies. That sign is
put back from the token, at both mirrored positions of a symmetric
array; only the blocks that hold a zero entry's line are searched for
it. Anything else, and any surprise of the fast route (an error from
scipy, an index out of range, a non-finite value), goes to the strict
route, which parses line by line with Python's ``int`` and ``float`` and
names the offending line. It alone reads foreign layouts: comment or
blank lines between entries, ``\r\n`` endings, tabs, ``+1`` or ``1_0``.
"""

from __future__ import annotations

import io
from array import array

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .core import SpdMatrix
from .errors import ParseError, SpdConeError

_HEADER_PREFIX = "%%MatrixMarket"
_INDEX_MAX = np.iinfo(np.int64).max


def write_matrix(path, X: SpdMatrix) -> None:
    """Write an SPD matrix in Matrix Market format (symmetric, lower triangle)."""
    write_symmetric(path, X.raw())


def write_symmetric(path, A) -> None:
    """Write a symmetric matrix (ndarray or sparse) as its lower triangle.

    There is no SPD requirement: geodesic extrapolation outputs may leave
    the cone. The field is ``real`` whatever the dtype, and sparse entries
    are written row by row. The file is opened here, so that a missing
    directory raises and the name is kept as given (scipy, given a path,
    appends ``.mtx`` to it).
    """
    if sp.issparse(A):
        A = A.tocsr()
    with open(path, "wb") as fh:
        mmwrite(fh, A, field="real", symmetry="symmetric")


def read_matrix(path):
    """Read a Matrix Market file.

    Returns an ndarray for array format or a COO matrix for coordinate
    format, with symmetric storage expanded to the full matrix (the COO
    may hold duplicates, which sum). Comment and blank lines may appear
    anywhere after the header. Raises :class:`ParseError` with the
    offending line number, also for a byte that is not UTF-8 text, for a
    non-finite value and for a skew-symmetric header, since such a matrix
    can never be positive definite.

    A canonical file (see the module docstring) is read holding the
    file's bytes, the matrix and about one 128 KiB block at a time, plus
    one copy of the body if its header is not one scipy reads as it
    stands. Any other file is decoded and split into lines first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    A = _read_canonical(path, data)
    return A if A is not None else _read_lines(path, data)


def _read_lines(path, data):
    """The strict route of :func:`read_matrix`: parse the bytes ``data``
    line by line."""
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"byte {data[exc.start]:#04x} is not UTF-8 text") from None
    coordinate, symmetry, nrow, ncol, expected, size_no = _parse_head(path, lines)
    # arrays, not lists, so that no int or float object is kept per entry;
    # the entries are the lines after the size line that are neither blank
    # nor a comment
    entries = array("q", (k for k in range(size_no, len(lines))
                          if (lines[k].lstrip() or "%")[0] != "%"))
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
    del lines, entries  # the text outweighs the matrix; free it before the matrix is built
    return _assemble(coordinate, symmetry, nrow, ncol, np.asarray(rows), np.asarray(cols), values)


def _parse_head(path, lines):
    """Parse the header and the size line among the text ``lines``.

    Returns whether the format is coordinate, the symmetry, the numbers
    of rows and columns, the number of entries the body must hold, and
    the 1-based number of the size line: the first line after the header
    that is neither blank nor a comment.
    """
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

    size_no = next((k for k, text in enumerate(lines)
                    if k and (text.lstrip() or "%")[0] != "%"), None)
    if size_no is None:
        raise ParseError(path, len(lines), "missing size line")
    size_no += 1
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
    return coordinate, symmetry, nrow, ncol, expected, size_no


# classes of the bytes a canonical body may hold; any other byte is _OTHER
_DIGIT, _MINUS, _PLUS, _POINT, _EXP, _SPACE, _NEWLINE, _OTHER = range(8)
_CLASSES = bytes(next((k for k, chars in enumerate((b"0123456789", b"-", b"+", b".", b"eE",
                                                    b" ", b"\n")) if byte in chars), _OTHER)
                 for byte in range(256))
# the classes that may follow each class: a sign, point or exponent sits
# between digits, a sign opens a value or an exponent, a line ends in a digit
_FOLLOWS = {_DIGIT: (_DIGIT, _POINT, _EXP, _SPACE, _NEWLINE), _MINUS: (_DIGIT,),
            _PLUS: (_DIGIT,), _POINT: (_DIGIT,), _EXP: (_DIGIT, _MINUS, _PLUS),
            _SPACE: (_DIGIT, _MINUS), _NEWLINE: (_DIGIT, _MINUS)}
_PAIRS = bytes(8 * a + b for a, successors in _FOLLOWS.items() for b in successors)
# the marks of a body are the body without its digits and without "+",
# which can only be an exponent's sign, with the exponent letter as "e";
# an array body's marks drop "-" too
_MARKS = bytes.maketrans(b"E", b"e")
# the class pairs an array body's marks may hold: all but "..", "e." and "ee"
_ARRAY_MARK_PAIRS = bytes(p for p in range(64)
                          if p not in (8 * _POINT + _POINT, 8 * _EXP + _POINT, 8 * _EXP + _EXP))
# the body is checked, and its "-0" tokens found, in blocks of whole lines
# of at least this many bytes: a block's class bytes, byte pairs and marks
# then stay in a core's L2 cache from one pass to the next, where passes
# over the whole body would each stream it through memory
_BLOCK = 1 << 17


def _blocks(text, start):
    """The blocks of the body of ``text`` that opens on the newline at
    offset ``start``, as offsets (s, e) of ``text[s:e]``. A block opens on
    a newline and closes on the first newline at least ``_BLOCK`` bytes
    after it, or at the end of ``text``; the next block opens on that
    newline, so that every byte pair and every line falls inside one
    block."""
    while True:
        e = text.find(b"\n", start + _BLOCK) + 1 or len(text)
        yield start, e
        if e == len(text):
            return
        start = e - 1


def _pairs_allowed(block, allowed):
    """Whether every byte pair of ``block``, read as classes ``8 a + b``,
    is one of the bytes ``allowed``."""
    c = np.frombuffer(block.translate(_CLASSES), np.uint8)
    pairs = c[:-1] << 3
    pairs += c[1:]
    return not pairs.tobytes().translate(None, allowed)


def _canonical(text, coordinate, expected, start=0):
    """Whether ``text`` from offset ``start``, the newline that ends the
    size line and the body after it, is a canonical body of ``expected``
    lines (see the module docstring). Each block is checked on its own,
    and the blocks' counts are summed."""
    if not text.endswith(b"\n"):
        return False
    lines = spaces = opens = 0
    for s, e in _blocks(text, start):
        block = text[s:e]
        if not _pairs_allowed(block, _PAIRS):  # a byte that may not follow the one before it
            return False
        # each byte now follows one it may follow: a "-" opens a value, or an
        # index (which the count of "\n  " rules out) or follows "e" as the
        # exponent's sign, and a value's marks are "-?\.?(e-?)?" once no line
        # holds two points, two exponents or a point after its exponent; a
        # coordinate line's marks start with its two spaces. An array body has
        # no spaces, so its marks drop "-", and "e-." and "e-e" read "e." and "ee"
        marks = block.translate(_MARKS, b"0123456789+" if coordinate else b"0123456789+-")
        lines += marks.count(b"\n") - 1  # the closing newline opens the next block
        spaces += marks.count(b" ")
        if coordinate:
            opens += marks.count(b"\n  ")
            if any(s in marks for s in (b"..", b"e.", b"e-.", b"ee", b"e-e")):
                return False
        elif not _pairs_allowed(marks, _ARRAY_MARK_PAIRS):
            return False
    return (lines == expected and spaces == 2 * coordinate * expected
            and opens == coordinate * expected)


def _read_canonical(path, data):
    """The fast route of :func:`read_matrix`: the matrix held in the bytes
    ``data``, or None if its body is not canonical or any check fails.
    Never raises."""
    # the header line, the comment lines after it, then the size line
    end = data.find(b"\n") + 1
    while end and data.startswith(b"%", end):
        end = data.find(b"\n", end) + 1
    size = end
    end = end and data.find(b"\n", end) + 1
    if not end:
        return None
    try:
        head = data[:end].decode()
        lines = head.splitlines()
        if len(lines) != head.count("\n"):  # a line break that is not "\n"
            return None
        coordinate, symmetry, nrow, ncol, expected, _ = _parse_head(path, lines)
    except (UnicodeDecodeError, ParseError):
        return None
    # an empty body has nothing to parse, and scipy's reader kills the
    # process (SIGFPE) on an array of no rows
    if not expected or not _canonical(data, coordinate, expected, end - 1):
        return None
    # the field is headed real, so that an integer body reads as float;
    # under a general header scipy keeps coordinate entries in file order,
    # duplicates too, and it expands a symmetric array itself. A file whose
    # header and size line already read so, as spdcone's and scipy's arrays
    # do, is parsed as it stands; any other body is copied once, behind them
    header = (b"%%MatrixMarket matrix coordinate real general\n" if coordinate
              else f"%%MatrixMarket matrix array real {symmetry}\n".encode())
    shape = (f"{nrow} {ncol} {expected}" if coordinate else f"{nrow} {ncol}").encode()
    if not (data.startswith(header) and data[size:end - 1] == shape):
        data = header + shape + memoryview(data)[end - 1:]
        end = len(header) + len(shape) + 1
    try:
        M = mmread(io.BytesIO(data))
    except (ValueError, OverflowError):  # an index out of range or beyond scipy's index type
        return None
    if coordinate:
        if not np.isfinite(M.data).all():
            return None
        return _assemble(coordinate, symmetry, nrow, ncol, M.row, M.col, M.data)
    # put back the sign of -0.0, which scipy drops in array bodies: the
    # token of entry (i, j) is j nrow + i, or for the lower triangle of a
    # symmetric array, read column by column, j n - j (j - 1) / 2 + (i - j).
    # Both orders list the zeros by token: the upper triangle row by row is
    # the lower one column by column
    if symmetry == "symmetric":
        j, i = np.nonzero(M == 0)
        upper = i >= j
        j, i = j[upper], i[upper]
        token = j * nrow - j * (j - 1) // 2 + (i - j)
    else:
        j, i = np.nonzero(M.T == 0)
        token = j * nrow + i
    if token.size:
        minus = _opens_with_minus(data, end - 1, token)
        i, j = i[minus], j[minus]
        M[i, j] = -0.0
        if symmetry == "symmetric":
            M[j, i] = -0.0
    return M if np.isfinite(M).all() else None


def _opens_with_minus(text, start, token):
    """Whether each of the lines ``token`` opens with "-": the lines of the
    canonical body that opens on the newline at offset ``start``, numbered
    from 0 and in ascending order. The blocks up to the last such line are
    scanned one at a time, and only those that hold one are indexed."""
    minus = np.empty(token.size, bool)
    first = lo = 0  # the number of the block's first line, and of its first token
    for s, e in _blocks(text, start):
        if lo == token.size:
            break
        b = np.frombuffer(text, np.uint8, e - s, s)
        newline = b == ord("\n")
        count = np.count_nonzero(newline) - 1  # the lines that open in the block
        hi = token.searchsorted(first + count)
        if lo < hi:
            opens = np.flatnonzero(newline)[token[lo:hi] - first] + 1
            minus[lo:hi] = b[opens] == ord("-")
        first, lo = first + count, hi
    return minus


def _assemble(coordinate, symmetry, nrow, ncol, rows, cols, values):
    """The matrix of the entries read in file order: a COO matrix of the
    0-based ``rows``, ``cols`` and ``values`` of a coordinate file, or an
    ndarray of the ``values`` of an array file."""
    if coordinate:
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
