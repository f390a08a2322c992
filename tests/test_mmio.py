"""Matrix Market round-trips and parse diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spdcone import (
    SpdMatrix,
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


# values that are not one finite float: malformed, non-finite, or two on a line
_BAD_VALUES = ["bad", "0x1p3", "1,5", "--1", "1.0 2.0", "nan", "-inf", "1e400"]


@st.composite
def corrupted_array_files(draw):
    """A symmetric array file of order n <= 6, maybe with comment and blank
    lines between its lines, and one value replaced by a bad token: the
    text and the line number of that value."""
    n = draw(st.integers(1, 6))
    count = n * (n + 1) // 2
    values = [repr(v) for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=count, max_size=count))]
    bad = draw(st.integers(0, count - 1))
    values[bad] = draw(st.sampled_from(_BAD_VALUES))
    # half the files hold nothing but values, so both read paths are drawn
    gap = st.lists(st.sampled_from(["", "   ", "%", "% a comment"]),
                   max_size=2 * draw(st.booleans()))
    lines = ["%%MatrixMarket matrix array real symmetric", *draw(gap), f"{n} {n}"]
    for k, value in enumerate(values):
        lines += draw(gap)
        if k == bad:
            line_no = len(lines) + 1
        lines.append(value)
    lines += draw(gap)
    return "\n".join(lines) + "\n", line_no


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_array_files())
def test_corrupted_value_line_number(tmp_path, case):
    # a body with nothing but values goes through the one-pass conversion,
    # one with comment or blank lines through the per-line loop; both name
    # the corrupted line
    text, line_no = case
    p = tmp_path / "bad.mtx"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line_no == line_no
