"""Matrix Market round-trips and parse diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sp

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
        body = [ln for ln in p.read_text().splitlines()[2:] if ln.strip()]
        assert [float(v) for v in body] == [2.0, 1.0, 3.0]


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
