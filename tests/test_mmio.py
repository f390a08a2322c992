"""Matrix Market round-trips and parse diagnostics."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spdcone import (
    SpdMatrix,
    mmio,
    random_sparse_spd,
    random_spd,
    read_matrix,
    read_spd,
    write_matrix,
    write_symmetric,
)
from spdcone.errors import AsymmetricInput, ParseError


class TestRoundTrip:
    def test_dense_bit_exact(self, rng, tmp_path):
        X = random_spd(9, rng, spread=2.0)
        p = tmp_path / "x.mtx"
        write_matrix(p, X)
        back = read_spd(p)
        assert np.array_equal(back.dense(), X.dense())

    def test_sparse_bit_exact(self, rng, tmp_path):
        X = random_sparse_spd(60, 0.07, rng)
        p = tmp_path / "x.mtx"
        write_matrix(p, X)
        back = read_spd(p)
        assert (back.raw() != X.raw()).nnz == 0
        r0, c0 = X.lower_pattern()
        r1, c1 = back.lower_pattern()
        assert np.array_equal(r0, r1) and np.array_equal(c0, c1)

    def test_write_read_write_stable(self, rng, tmp_path):
        X = random_sparse_spd(25, 0.15, rng)
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix(p1, X)
        write_matrix(p2, read_spd(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_headers(self, rng, tmp_path):
        Xs = random_sparse_spd(10, 0.2, rng)
        Xd = random_spd(4, rng)
        ps, pd = tmp_path / "s.mtx", tmp_path / "d.mtx"
        write_matrix(ps, Xs)
        write_matrix(pd, Xd)
        assert ps.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real symmetric"
        assert pd.read_text().splitlines()[0] == "%%MatrixMarket matrix array real symmetric"

    def test_write_symmetric_indefinite(self, tmp_path, rng):
        # raw symmetric output (e.g. residual fields, extrapolated points)
        # round-trips without any SPD requirement
        S = rng.standard_normal((5, 5))
        S = S + S.T
        p = tmp_path / "s.mtx"
        write_symmetric(p, S)
        assert np.array_equal(read_matrix(p), S)
        C = sp.coo_matrix(np.triu(S) * (np.abs(S) > 1.0))
        C = ((C + C.T) / 2.0).tocoo()
        write_symmetric(tmp_path / "c.mtx", C)
        back = read_matrix(tmp_path / "c.mtx")
        assert np.array_equal(back.toarray(), C.toarray())

    def test_only_lower_triangle_stored(self, tmp_path):
        X = SpdMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        p = tmp_path / "x.mtx"
        write_matrix(p, X)
        # symmetric array format: column-major lower triangle = 3 values
        # after the size line; comment lines may follow the header
        lines = [ln for ln in p.read_text().splitlines()[1:] if not ln.startswith("%")]
        body = [ln for ln in lines[1:] if ln.strip()]
        assert [float(v) for v in body] == [2.0, 1.0, 3.0]


_MAX = np.finfo(float).max
EDGES = [-0.0, 5e-324, _MAX, -_MAX, 1 / 3]


def _bits(a):
    """The float64 bits of ``a``, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestEdgeValues:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_spd_bit_exact(self, tmp_path, sparse):
        # the largest float on the diagonal, the smallest subnormal and 1/3
        # off it; -0.0 and -max cannot sit in a stored SPD matrix
        A = np.diag([_MAX, _MAX / 2, _MAX / 2, _MAX / 2])
        A[2, 0] = A[0, 2] = 5e-324
        A[3, 1] = A[1, 3] = 1 / 3
        A[3, 2] = A[2, 3] = -1 / 3
        X = SpdMatrix(sp.csr_matrix(A) if sparse else A)
        p = tmp_path / "x.mtx"
        write_matrix(p, X)
        back = read_spd(p)
        assert back.is_sparse == sparse
        if sparse:
            R, B = X.raw(), back.raw()
            assert np.array_equal(R.indptr, B.indptr) and np.array_equal(R.indices, B.indices)
            assert np.array_equal(_bits(R.data), _bits(B.data))
        else:
            assert np.array_equal(_bits(back.dense()), _bits(A))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_symmetric_bit_exact(self, tmp_path, sparse):
        # every edge value, -0.0 and -max too, through the raw writer
        i, j = np.tril_indices(4)
        values = np.resize(EDGES, i.size)
        S = np.zeros((4, 4))
        S[i, j] = S[j, i] = values
        p = tmp_path / "s.mtx"
        write_symmetric(p, sp.coo_matrix((values, (i, j)), shape=(4, 4)) if sparse else S)
        back = read_matrix(p)
        if sparse:
            # the stored entries come first, in row order; their mirrors follow
            assert np.array_equal(back.row[: i.size], i) and np.array_equal(back.col[: i.size], j)
            assert np.array_equal(_bits(back.data[: i.size]), _bits(values))
        else:
            assert np.array_equal(_bits(back), _bits(S))


class TestWriteTargets:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_matrix(tmp_path / "missing" / "x.mtx", SpdMatrix(np.eye(2)))

    @pytest.mark.parametrize("dtype", [int, bool])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_field_real_for_any_dtype(self, tmp_path, dtype, sparse):
        A = np.array([[2, 1], [1, 3]]).astype(dtype)
        p = tmp_path / "a.mtx"
        write_symmetric(p, sp.csr_matrix(A) if sparse else A)
        assert p.read_text().split("\n")[0].split()[3] == "real"
        back = read_matrix(p)
        assert np.array_equal(back.toarray() if sparse else back, A.astype(float))


class TestForeignFiles:
    def test_general_coordinate(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n"
            "2 2 4\n1 1 2.0\n2 2 2.0\n1 2 1.0\n2 1 1.0\n"
        )
        A = read_matrix(p)
        assert sp.issparse(A)
        np.testing.assert_array_equal(A.toarray(), [[2.0, 1.0], [1.0, 2.0]])

    def test_integer_field(self, tmp_path):
        p = tmp_path / "i.mtx"
        p.write_text("%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n1 1 4\n2 2 9\n")
        X = read_spd(p)
        np.testing.assert_array_equal(X.dense(), np.diag([4.0, 9.0]))

    def test_general_array(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n2.0\n1.0\n1.0\n2.0\n"
        )
        A = read_matrix(p)
        np.testing.assert_array_equal(A, [[2.0, 1.0], [1.0, 2.0]])

    def test_symmetric_coordinate_storage(self, tmp_path):
        p = tmp_path / "dup.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 6\n"
            "1 1 2.0\n2 1 0.5\n2 1 0.25\n2 2 3.0\n3 2 0.0\n3 3 4.0\n"
        )
        # the duplicate sums and the explicit zero is dropped, as before
        R = read_spd(p).raw()
        assert R.indptr.tolist() == [0, 2, 4, 5]
        assert R.indices.tolist() == [0, 1, 0, 1, 2]
        assert R.data.tolist() == [2.0, 0.75, 0.75, 3.0, 4.0]
        # an entry above the diagonal is not mirrored
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
                     "1 1 2.0\n1 2 1.0\n2 2 2.0\n")
        with pytest.raises(AsymmetricInput):
            read_spd(p)


class TestParseErrors:
    @pytest.mark.parametrize(
        "content, line_no",
        [
            ("not a header\n", 1),
            ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0\n", 1),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2\n", 2),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 oops 3.0\n", 3),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n", 3),
            ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\nbad\n1.0\n", 4),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 2 nan\n", 4),
            ("%%MatrixMarket matrix coordinate real general\n1 1 1\n% c\n1 1 -inf\n", 4),
            ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\nInfinity\n1.0\n", 4),
            ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", 1),
            ("%%MatrixMarket matrix array real skew-symmetric\n2 2\n1.0\n", 1),
            # a negative size, and sizes far beyond what the file holds
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 -1\n1 1 1.0\n", 2),
            ("%%MatrixMarket matrix array real symmetric\n-2 -2\n1.0\n", 2),
            ("%%MatrixMarket matrix coordinate real symmetric\n"
             "100000000000000000000 100000000000000000000 0\n", 2),
            ("%%MatrixMarket matrix coordinate real symmetric\n3 3 100000000000000\n1 1 1.0\n", 3),
            ("%%MatrixMarket matrix array real symmetric\n3000000 3000000\n1.0\n", 3),
            # comment and blank lines between entries, then a bad entry
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n% c\n\n"
             "2 x 1.0\n", 6),
            # an extra coordinate entry after a comment, an extra array value
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n% c\n"
             "2 2 1.0\n", 5),
            ("%%MatrixMarket matrix array real symmetric\n1 1\n1.0\n2.0\n", 4),
            # a coordinate entry with two fields, an array line with two values
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1\n", 3),
            ("%%MatrixMarket matrix array real symmetric\n1 1\n1.0 2.0\n", 3),
            # a hex float, which Python's float rejects; a fourth token on a
            # coordinate line
            ("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 0x1p3\n", 3),
            ("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 2.0 3.0\n", 3),
        ],
    )
    def test_line_numbers(self, tmp_path, content, line_no):
        p = tmp_path / "bad.mtx"
        p.write_text(content)
        with pytest.raises(ParseError) as exc:
            read_matrix(p)
        assert exc.value.line_no == line_no

    def test_truncated_entries(self, tmp_path):
        p = tmp_path / "short.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n")
        with pytest.raises(ParseError):
            read_matrix(p)

    @pytest.mark.parametrize("content, line_no", [
        (b"\x89PNG\r\n\x1a\n", 1),
        (b"%%MatrixMarket matrix array real symmetric\n% caf\xe9\n1 1\n1.0\n", 2),
    ])
    def test_bytes_not_utf8(self, tmp_path, content, line_no):
        p = tmp_path / "binary.mtx"
        p.write_bytes(content)
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            read_matrix(p)
        assert exc.value.line_no == line_no

    def test_empty(self, tmp_path):
        p = tmp_path / "empty.mtx"
        p.write_text("")
        with pytest.raises(ParseError) as exc:
            read_matrix(p)
        assert exc.value.line_no == 1


# tokens that are not one finite float: malformed, non-finite, or two on a
# line; scipy's reader takes 0x1p3, 1.0abc, 1,5, 1.2.3, 1e, 1e-5.3 and
# 1e-5e3 as numbers
_BAD_VALUES = ["bad", "0x1p3", "1.0abc", "1,5", "1.2.3", "1e", "1e-5.3", "1e-5e3", "--1",
               "1.0 2.0", "nan", "-inf", "1e400"]
# tokens that are not one index in range
_BAD_INDICES = ["0x1p3", "1.0abc", "1,5", "1.2.3", "1e", "-1", "0", "7"]


@st.composite
def corrupted_files(draw):
    r"""A symmetric array or coordinate file of order n <= 6 with one bad
    token: a value, an index or a fourth token on a coordinate line. Some
    files also hold what only the strict reader reads: comment and blank
    lines between entries, +1, 1_0, tabs and \r\n endings. Returns the
    text and the line number of the bad token."""
    n = draw(st.integers(1, 6))
    coordinate = draw(st.booleans())
    count = draw(st.integers(1, 8)) if coordinate else n * (n + 1) // 2
    values = [repr(v) for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=count, max_size=count))]
    # half the files are canonical apart from the bad token, so both
    # routes are drawn
    foreign = draw(st.booleans())
    if foreign:
        values = [draw(st.sampled_from([v, "+" + v.lstrip("-"), "1_0", f"\t{v}"]))
                  for v in values]
    entries = values
    if coordinate:
        sep = draw(st.sampled_from([" ", "\t"])) if foreign else " "
        i = draw(st.lists(st.integers(1, n), min_size=count, max_size=count))
        j = draw(st.lists(st.integers(1, n), min_size=count, max_size=count))
        entries = [[str(a), str(b), v] for a, b, v in zip(i, j, values)]
    bad = draw(st.integers(0, count - 1))
    if coordinate:
        where = draw(st.sampled_from(["index", "value", "fourth", "moved"]))
        if where == "index":
            entries[bad][draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_INDICES))
        elif where == "value":
            entries[bad][2] = draw(st.sampled_from(_BAD_VALUES))
        elif where == "fourth" or bad == count - 1:
            entries[bad].append(draw(st.sampled_from(["3.0", "1"])))
        else:  # the next line's value, so that the body keeps its number of spaces
            entries[bad].append(entries[bad + 1].pop())
        entries = [sep.join(e) for e in entries]
    else:
        entries[bad] = draw(st.sampled_from(_BAD_VALUES))
    gap = st.lists(st.sampled_from(["", "   ", "%", "% a comment"]), max_size=2 * foreign)
    kind = "coordinate" if coordinate else "array"
    size = f"{n} {n} {count}" if coordinate else f"{n} {n}"
    lines = [f"%%MatrixMarket matrix {kind} real symmetric", *draw(gap), size]
    for k, entry in enumerate(entries):
        lines += draw(gap)
        if k == bad:
            line_no = len(lines) + 1
        lines.append(entry)
    lines += draw(gap)
    end = draw(st.sampled_from(["\n", "\r\n"])) if foreign else "\n"
    return end.join(lines) + end, line_no


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_files())
def test_corrupted_value_line_number(tmp_path, case):
    # a canonical body but for its bad token goes to the fast route first,
    # which declines it; the strict loop names the line either way
    text, line_no = case
    p = tmp_path / "bad.mtx"
    p.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line_no == line_no


@pytest.fixture(params=["real", "short"])
def block(request, monkeypatch):
    """The fast route's block length: the real one, or 3 bytes, so that
    every body spans many blocks and most lines open one."""
    if request.param == "short":
        monkeypatch.setattr(mmio, "_BLOCK", 3)
    return mmio._BLOCK


def _digits(draw, lo, hi):
    return draw(st.text("0123456789", min_size=lo, max_size=hi))


@st.composite
def fast_tokens(draw):
    r"""A value token in the fast route's grammar
    -?D+(\.D+)?([eE][-+]?D+)?: edge values, the shortest repr of any
    finite float, or 1- to 20-digit mantissas with any exponent."""
    kind = draw(st.sampled_from(["edge", "repr", "digits"]))
    if kind == "edge":
        return draw(st.sampled_from(["-0.0", "-0", "0.0", "-0e5", "-1e-400", "5e-324",
                                     "-5e-324", "1.7976931348623157e+308",
                                     "-1.7976931348623157E308", repr(1 / 3), "1e-320",
                                     "2.2250738585072014E-308", "007", "00.50"]))
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    token = draw(st.sampled_from(["", "-"])) + _digits(draw, 1, 20)
    if draw(st.booleans()):
        token += "." + _digits(draw, 1, 20)
    if draw(st.booleans()):
        token += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"]))
        token += _digits(draw, 1, 3)
    return token


@st.composite
def canonical_files(draw):
    r"""A file whose body the fast route reads: array or coordinate, general
    or symmetric, with single spaces and \n endings; a coordinate body
    holds entries in any order, duplicates too."""
    coordinate = draw(st.booleans())
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    nrow = draw(st.integers(1, 5))
    ncol = nrow if symmetry == "symmetric" else draw(st.integers(1, 5))
    if coordinate:
        count = draw(st.integers(1, 12))
        rows = draw(st.lists(st.integers(1, nrow), min_size=count, max_size=count))
        cols = draw(st.lists(st.integers(1, ncol), min_size=count, max_size=count))
        body = [f"{i} {j} {draw(fast_tokens())}" for i, j in zip(rows, cols)]
        size = f"{nrow} {ncol} {count}"
    else:
        count = nrow * ncol if symmetry == "general" else nrow * (nrow + 1) // 2
        body = [draw(fast_tokens()) for _ in range(count)]
        size = f"{nrow} {ncol}"
    kind = "coordinate" if coordinate else "array"
    comments = draw(st.lists(st.sampled_from(["%", "% a comment"]), max_size=2))
    return "\n".join([f"%%MatrixMarket matrix {kind} real {symmetry}", *comments, size,
                      *body]) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(canonical_files())
def test_fast_route_matches_the_strict_loop(tmp_path, block, text):
    # the fast route reads what the strict loop reads, bit for bit, -0.0
    # too; it declines only a value that is not finite, which the strict
    # loop rejects
    p = tmp_path / "x.mtx"
    p.write_text(text)
    data = p.read_bytes()
    fast = mmio._read_canonical(p, data)
    try:
        strict = mmio._read_lines(p, data)
    except ParseError as exc:
        assert fast is None and "non-finite" in str(exc)
        return
    assert fast is not None
    if sp.issparse(strict):
        assert sp.issparse(fast) and fast.shape == strict.shape
        for a, b in ((fast.row, strict.row), (fast.col, strict.col)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(_bits(fast.data), _bits(strict.data))
    else:
        assert fast.shape == strict.shape
        assert np.array_equal(_bits(fast), _bits(strict))


class TestArrayLayout:
    """The fast route parses an array body in its own layout, and puts back
    the -0.0 that scipy drops, at both mirrored positions of a symmetric
    array."""

    @pytest.mark.parametrize("symmetry", ["symmetric", "general"])
    def test_negative_zero_matches_the_strict_loop(self, tmp_path, block, symmetry):
        if symmetry == "symmetric":  # the lower triangle, column by column
            size, tokens = "3 3", ["2.0", "-0.0", "-0", "3.0", "0.0", "-0e5"]
            expected = np.array([[2.0, -0.0, -0.0], [-0.0, 3.0, 0.0], [-0.0, 0.0, -0.0]])
        else:  # every entry, column by column
            size, tokens = "2 3", ["-0.0", "1.0", "0", "-1e-400", "-0", "2.5"]
            expected = np.array([[-0.0, 0.0, -0.0], [1.0, -0.0, 2.5]])
        p = tmp_path / "z.mtx"
        p.write_text("\n".join([f"%%MatrixMarket matrix array real {symmetry}", size,
                                 *tokens]) + "\n")
        data = p.read_bytes()
        fast = mmio._read_canonical(p, data)
        assert fast is not None and fast.flags.c_contiguous
        for A in (fast, mmio._read_lines(p, data), read_matrix(p)):
            assert A.shape == expected.shape and np.array_equal(_bits(A), _bits(expected))

    @pytest.mark.parametrize("symmetry", ["symmetric", "general"])
    def test_negative_zeros_in_many_blocks(self, tmp_path, symmetry):
        # a body of several real blocks: -0 and 0 tokens in each of them,
        # the first and last lines among them, and on both sides of a cut
        n = 180
        count = n * (n + 1) // 2 if symmetry == "symmetric" else n * n
        rng = np.random.default_rng(9)
        tokens = [repr(v) for v in rng.uniform(1.0, 2.0, count).tolist()]
        header = f"%%MatrixMarket matrix array real {symmetry}\n%\n{n} {n}"
        text = "\n".join([header, *tokens]) + "\n"
        offset = text.index(f"\n{n} {n}\n") + len(f"\n{n} {n}")
        cuts = [text.count("\n", offset, e - 1) for _, e in mmio._blocks(text.encode(), offset)]
        assert len(cuts) >= 3
        zeros = {0, count - 1, *cuts[:-1], *(k - 1 for k in cuts[:-1]), *range(5000, 5400, 97)}
        for k in sorted(zeros):
            tokens[k] = ["-0.0", "-0", "0.0", "-0e5", "0"][k % 5]
        p = tmp_path / "z.mtx"
        p.write_text("\n".join([header, *tokens]) + "\n")
        data = p.read_bytes()
        fast, strict = mmio._read_canonical(p, data), mmio._read_lines(p, data)
        assert fast is not None and np.array_equal(_bits(fast), _bits(strict))
        signs = np.signbit(strict[strict == 0])
        assert signs.any() and not signs.all()

    def test_integer_symmetric_array_reads_as_float(self, tmp_path):
        p = tmp_path / "i.mtx"
        p.write_text("%%MatrixMarket matrix array integer symmetric\n2 2\n3\n-0\n5\n")
        A = mmio._read_canonical(p, p.read_bytes())
        assert A is not None and A.dtype == np.float64
        assert np.array_equal(_bits(A), _bits(np.array([[3.0, -0.0], [-0.0, 5.0]])))
        # the certified matrix stores 0.0, as the mirror does
        assert np.array_equal(_bits(read_spd(p).dense()), _bits(np.diag([3.0, 5.0])))


# the documented grammar of a canonical body: the newline that ends the size
# line, then ``expected`` lines, each one value or, in a coordinate body, two
# digit-only indices and a value, separated by single spaces
_VALUE = rb"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?"


def _grammar(text, coordinate, expected):
    line = rb"[0-9]+ [0-9]+ " + _VALUE if coordinate else _VALUE
    return re.fullmatch(rb"\n(?:%b\n){%d}" % (line, expected), text) is not None


@st.composite
def mutated_bodies(draw):
    """A canonical array or coordinate body, then up to three edits: a
    byte inserted, replaced or deleted anywhere after the leading newline,
    or a "-" put in front of an index; the declared line count is off by
    one in some draws. Returns (body, coordinate, expected)."""
    coordinate = draw(st.booleans())
    count = draw(st.integers(1, 5))
    values = [draw(fast_tokens()) for _ in range(count)]
    lines = [f"{draw(st.integers(0, 99))} {draw(st.integers(0, 99))} {v}" if coordinate else v
             for v in values]
    text = bytearray(("\n" + "\n".join(lines) + "\n").encode())
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "replace", "delete", "index"]))
        if edit == "index":  # after a newline or a line's first space
            where = [k + 1 for k, b in enumerate(text[:-1]) if b == ord("\n")]
            where += [k + 1 for k in range(len(text)) if text[k] == ord(" ")
                      and text.rfind(b" ", 0, k) < text.rfind(b"\n", 0, k)]
            text.insert(draw(st.sampled_from(where)), ord("-"))
            continue
        byte = draw(st.sampled_from(b"0123456789-+.eE \n\tx%"))
        if edit == "insert":
            text.insert(draw(st.integers(1, len(text))), byte)
        elif len(text) > 1:
            k = draw(st.integers(1, len(text) - 1))
            if edit == "replace":
                text[k] = byte
            else:
                del text[k]
    expected = max(1, count + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return bytes(text), coordinate, expected


@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_bodies())
def test_canonical_is_the_documented_grammar(block, case):
    # an array body's marks drop "-"; a coordinate body keeps it, since
    # there the count of "\n  " keeps a "-" out of an index
    text, coordinate, expected = case
    assert mmio._canonical(text, coordinate, expected) == _grammar(text, coordinate, expected)


# a defect on the first line of a block, which opens on the newline that
# closes the block before it
_CUT_DEFECTS = {
    "empty line": lambda line: "",
    "opening point": lambda line: "." + line,
    "opening plus": lambda line: "+" + line,
    "second point": lambda line: line[:-1] + "." + line[-1],
}


class TestBlockCuts:
    """The fast route's check reads the body in blocks of whole lines; a
    defect just after a cut is caught as anywhere else."""

    @staticmethod
    def _body(coordinate):
        line = "1 1 2.25" if coordinate else "2.25"
        count = 2 * mmio._BLOCK // len(line) + 2
        return "\n" + "\n".join([line] * count) + "\n"

    @pytest.mark.parametrize("defect", list(_CUT_DEFECTS))
    @pytest.mark.parametrize("coordinate", [False, True])
    def test_defect_after_a_cut(self, block, coordinate, defect):
        text = self._body(coordinate)
        count = text.count("\n") - 1
        assert mmio._canonical(text.encode(), coordinate, count)
        _, e = next(mmio._blocks(text.encode(), 0))
        assert e < len(text)  # a cut: the next block opens on text[e - 1]
        close = text.index("\n", e)
        text = text[:e] + _CUT_DEFECTS[defect](text[e:close]) + text[close:]
        count = text.count("\n") - 1
        assert not _grammar(text.encode(), coordinate, count)
        assert not mmio._canonical(text.encode(), coordinate, count)

    @pytest.mark.parametrize("coordinate", [False, True])
    def test_last_line_without_its_newline(self, tmp_path, block, coordinate):
        text = self._body(coordinate)
        count = text.count("\n") - 1
        assert not mmio._canonical(text[:-1].encode(), coordinate, count)
        kind, size = ("coordinate", f"1 1 {count}") if coordinate else ("array", f"{count} 1")
        p = tmp_path / "x.mtx"
        p.write_text(f"%%MatrixMarket matrix {kind} real general\n{size}" + text[:-1])
        data = p.read_bytes()
        assert mmio._read_canonical(p, data) is None
        A = read_matrix(p)
        assert A.sum() == 2.25 * count


@pytest.mark.parametrize("minus", [False, True])
def test_dense_read_holds_one_copy_of_the_file(tmp_path, minus):
    # the fast route holds the file's bytes and the matrix, and besides them
    # a few blocks at a time: no copy of the body, whole or checked, and no
    # index over all its lines to find a -0 token
    rng = np.random.default_rng(4)
    S = rng.standard_normal((400, 400))
    S = S + S.T
    if minus:
        S[300, 17] = S[17, 300] = -0.0
    p = tmp_path / "d.mtx"
    write_symmetric(p, S)
    assert p.read_bytes().count(b"\n-0\n") == minus
    tracemalloc.start()
    try:
        A = read_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(A), _bits(S))
    assert peak <= p.stat().st_size + A.nbytes + 4 * mmio._BLOCK, peak

