"""Command-line surface: formats, manifests, determinism, exit codes."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings

from spdcone import (
    SpdMatrix,
    random_sparse_spd,
    random_spd,
    read_spd,
    write_matrix,
    write_symmetric,
)
from spdcone.cli import main
from spdcone.errors import SpdConeError

from test_certification import symmetric_inputs


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path, rng):
    paths = {}
    mats = {
        "i2": SpdMatrix(np.eye(2)),
        "i3": SpdMatrix(np.eye(3)),
        "d41": SpdMatrix(np.diag([4.0, 1.0])),
        "d941": SpdMatrix(np.diag([9.0, 4.0, 1.0])),
        "r6a": random_spd(6, rng),
        "r6b": random_spd(6, rng),
        "s20a": random_sparse_spd(20, 0.08, rng),
        "s20b": random_sparse_spd(20, 0.08, rng),
    }
    for name, M in mats.items():
        p = tmp_path / f"{name}.mtx"
        write_matrix(p, M)
        paths[name] = str(p)
    return paths


def invoke(runner, *args, env=None):
    result = runner.invoke(main, list(args), env=env, catch_exceptions=False)
    return result


def manifest_of(result):
    return json.loads(result.output)


def stable(manifest):
    m = dict(manifest)
    m.pop("wall_time_ms", None)
    return m


class TestDistanceCommand:
    def test_identity_zero(self, runner, files):
        r = invoke(runner, "distance", files["i2"], files["i2"])
        assert r.exit_code == 0
        assert float(r.output) <= 1e-10

    def test_thompson_log4(self, runner, files):
        r = invoke(runner, "distance", files["i2"], files["d41"], "--metric", "thompson")
        assert r.output.strip() == "1.3862943611198906e+00"

    def test_hilbert_log4(self, runner, files):
        r = invoke(runner, "distance", files["i2"], files["d41"], "--metric", "hilbert")
        assert float(r.output) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_phi_metric(self, runner, files):
        r = invoke(runner, "distance", files["i2"], files["d41"], "--metric", "phi-inf")
        assert float(r.output) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_manifest(self, runner, files):
        r = invoke(runner, "--json", "distance", files["r6a"], files["r6b"])
        m = manifest_of(r)
        assert m["command"] == "distance"
        assert m["outputs"]["distance"] > 0
        assert m["seed"] == 0 and "wall_time_ms" in m


class TestGeodesicCommand:
    def test_endpoints_byte_compatible(self, runner, files, tmp_path):
        out = tmp_path / "geo"
        r = invoke(runner, "geodesic", files["s20a"], files["s20b"],
                   "--family", "star", "--ts", "0,1", "--outdir", str(out))
        assert r.exit_code == 0
        canonical_x = tmp_path / "canon_x.mtx"
        write_matrix(canonical_x, read_spd(files["s20a"]))
        assert (out / "star_000.mtx").read_bytes() == canonical_x.read_bytes()
        canonical_y = tmp_path / "canon_y.mtx"
        write_matrix(canonical_y, read_spd(files["s20b"]))
        assert (out / "star_001.mtx").read_bytes() == canonical_y.read_bytes()

    def test_star_nnz_within_union(self, runner, files, tmp_path):
        out = tmp_path / "geo"
        r = invoke(runner, "--json", "geodesic", files["s20a"], files["s20b"],
                   "--family", "star", "--ts", "0.25,0.5,0.75", "--outdir", str(out))
        m = manifest_of(r)
        X = read_spd(files["s20a"])
        Y = read_spd(files["s20b"])
        union = ((X.raw() != 0) + (Y.raw() != 0)).nnz
        for sample in m["outputs"]["samples"]:
            assert sample["nnz"] <= union
            assert sample["certified"]

    def test_riemannian_fill_in(self, runner, files, tmp_path):
        out = tmp_path / "geo"
        r = invoke(runner, "--json", "geodesic", files["s20a"], files["s20b"],
                   "--family", "riemannian", "--ts", "0.5", "--outdir", str(out))
        m = manifest_of(r)
        sample = m["outputs"]["samples"][0]
        assert sample["nnz"] > 0.5 * 20 * 20  # dense fill-in
        assert m["outputs"]["nnz_inputs"]["x"] < 0.5 * 20 * 20

    def test_extrapolation_needs_flag(self, runner, files, tmp_path):
        r = runner.invoke(main, ["geodesic", files["r6a"], files["r6b"],
                                 "--ts", "1.5", "--outdir", str(tmp_path / "g")])
        assert r.exit_code == 2
        with pytest.warns(RuntimeWarning, match="outside"):
            r = runner.invoke(main, ["--allow-extrapolation", "geodesic", files["r6a"],
                                     files["r6b"], "--ts", "1.5", "--outdir", str(tmp_path / "g2")])
        assert r.exit_code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, t", [
        ("star", "800"), ("diamond", "800"), ("diamond", "-800"), ("diamond", "1e308"),
        ("riemannian", "800"),
    ])
    def test_unrepresentable_t_exit_2(self, runner, files, tmp_path, family, t):
        r = runner.invoke(main, ["--allow-extrapolation", "geodesic", files["i2"], files["d41"],
                                 "--family", family, "--ts", t, "--outdir", str(tmp_path / "g")])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert f"t = {float(t)}" in r.output and "Traceback" not in r.output

    def test_manifest_written(self, runner, files, tmp_path):
        out = tmp_path / "geo"
        invoke(runner, "geodesic", files["r6a"], files["r6b"], "--ts", "0.5",
               "--outdir", str(out))
        m = json.loads((out / "manifest.json").read_text())
        assert m["command"] == "geodesic" and len(m["outputs"]["samples"]) == 1

    @pytest.mark.parametrize("family", ["star", "diamond"])
    def test_one_solve_per_path(self, runner, files, tmp_path, extreme_pair_calls, family):
        from spdcone import diamond_geodesic, star_geodesic

        out = tmp_path / "geo"
        r = invoke(runner, "--json", "geodesic", files["s20a"], files["s20b"],
                   "--family", family, "--ts", "0,0.25,0.5,0.75,1", "--outdir", str(out))
        assert len(extreme_pair_calls) == 1
        assert manifest_of(r)["eigen_solves"] == 2
        X, Y = read_spd(files["s20a"]), read_spd(files["s20b"])
        geodesic = star_geodesic if family == "star" else diamond_geodesic
        for idx, t in enumerate([0, 0.25, 0.5, 0.75, 1]):
            reference = tmp_path / f"ref_{idx}.mtx"
            write_matrix(reference, geodesic(X, Y, t))
            assert (out / f"{family}_{idx:03d}.mtx").read_bytes() == reference.read_bytes()


class TestMeanCommand:
    def test_single_input_identity(self, runner, files, tmp_path):
        out = tmp_path / "m.mtx"
        r = invoke(runner, "mean", files["r6a"], "--out", str(out))
        assert r.exit_code == 0
        canonical = tmp_path / "canon.mtx"
        write_matrix(canonical, read_spd(files["r6a"]))
        assert out.read_bytes() == canonical.read_bytes()

    def test_two_files_matches_midpoint(self, runner, files, tmp_path):
        from spdcone import star_geodesic, thompson_distance

        out = tmp_path / "m.mtx"
        r = invoke(runner, "--json", "mean", files["r6a"], files["r6b"], "--out", str(out))
        m = manifest_of(r)
        assert m["outputs"]["certified"]
        X = read_spd(files["r6a"])
        Y = read_spd(files["r6b"])
        assert thompson_distance(read_spd(out), star_geodesic(X, Y, 0.5)) <= 1e-8

    def test_toeplitz_preserved(self, runner, tmp_path, rng):
        from scipy.linalg import toeplitz

        paths = []
        for idx in range(3):
            c = np.zeros(10)
            c[0] = 10.0
            c[1:] = rng.uniform(-0.7, 0.7, 9)
            p = tmp_path / f"t{idx}.mtx"
            write_matrix(p, SpdMatrix(toeplitz(c)))
            paths.append(str(p))
        out = tmp_path / "mean.mtx"
        invoke(runner, "mean", *paths, "--out", str(out))
        M = read_spd(out).dense()
        for off in range(1, 10):
            diag = np.diagonal(M, offset=off)
            assert np.max(np.abs(diag - diag[0])) <= 1e-9

    def test_no_convergence_exit_code(self, runner, files, tmp_path):
        # an unattainable certificate: F stalls after 200 rounds
        r = runner.invoke(main, ["--tol", "1e-30", "mean",
                                 files["r6a"], files["r6b"], "--out", str(tmp_path / "m.mtx")])
        assert r.exit_code == 3

    def test_certificate_at_solve_tolerance(self, runner, files, tmp_path):
        # --tol alone sets the certificate: a mean at 1e-6 certifies at 1e-6
        out = tmp_path / "m.mtx"
        r = runner.invoke(main, ["--json", "--tol", "1e-6", "mean", files["r6a"], files["r6b"],
                                 "--out", str(out)])
        assert r.exit_code == 0 and out.exists()
        outputs = json.loads(r.output)["outputs"]
        assert outputs["certified"] and outputs["residual"] <= 1e-6

    def test_large_sparse_never_densifies(self, runner, tmp_path, monkeypatch):
        # n = 2000 at 1% density must run entirely on the sparse path: any
        # attempt to materialize a dense n x n matrix trips the guard, and
        # the traced allocation peak stays below a few dense matrices
        import tracemalloc

        from spdcone.core import SpdMatrix

        rng = np.random.default_rng(2000)
        paths = []
        for idx in range(2):
            paths.append(str(tmp_path / f"p{idx}.mtx"))
            write_matrix(paths[-1], random_sparse_spd(2000, 0.01, rng))
        out = tmp_path / "mean.mtx"
        original = SpdMatrix.dense

        def guarded(self):
            if self.n >= 1024:
                raise AssertionError("dense materialization at large n")
            return original(self)

        monkeypatch.setattr(SpdMatrix, "dense", guarded)
        tracemalloc.start()
        r = invoke(runner, "--json", "mean", *paths, "--out", str(out))
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert manifest_of(r)["outputs"]["certified"]
        assert read_spd(out).nnz < 0.05 * 2000 * 2000
        dense_bytes = 2000 * 2000 * 8
        # a dense matrix would be one 32MB block; the sparse working set is
        # many small blocks whose total stays within a few factors
        assert max((t.size for t in snapshot.traces), default=0) < 0.5 * dense_bytes
        assert peak < 3 * dense_bytes

    def test_missing_out_directory_exit_2(self, runner, files, tmp_path):
        out = tmp_path / "missing" / "m.mtx"
        r = runner.invoke(main, ["mean", files["r6a"], files["r6b"], "--out", str(out)])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert str(out) in r.output

    def test_out_name_kept_as_given(self, runner, files, tmp_path):
        out = tmp_path / "m"
        r = invoke(runner, "mean", files["r6a"], files["r6b"], "--out", str(out))
        assert r.exit_code == 0
        assert out.is_file() and not (tmp_path / "m.mtx").exists()

    def test_manifest_file(self, runner, files, tmp_path):
        import pathlib

        out = tmp_path / "m.mtx"
        invoke(runner, "mean", files["r6a"], files["r6b"], "--out", str(out))
        # manifest written next to the output file
        m = json.loads(pathlib.Path(str(out) + ".manifest.json").read_text())
        assert m["outputs"]["residual"] <= 1e-8
        assert m["outputs"]["rounds"] >= 1


class TestSpectrumCommand:
    def test_extremes(self, runner, files):
        r = invoke(runner, "--json", "spectrum", files["i3"], files["d941"])
        m = manifest_of(r)
        assert m["outputs"]["alpha"] == pytest.approx(1.0, abs=1e-12)
        assert m["outputs"]["beta"] == pytest.approx(9.0, abs=1e-12)
        # dense extremes are exact, so proven
        assert m["outputs"]["proven"] == [True, True]

    def test_self_pencil(self, runner, files):
        r = invoke(runner, "--json", "spectrum", files["r6a"], files["r6a"])
        m = manifest_of(r)
        assert m["outputs"]["alpha"] == pytest.approx(1.0, abs=1e-10)
        assert m["outputs"]["beta"] == pytest.approx(1.0, abs=1e-10)

    def test_extremes_match_full(self, runner, files):
        ex = manifest_of(invoke(runner, "--json", "spectrum", files["r6a"], files["r6b"]))
        full = manifest_of(invoke(runner, "--json", "spectrum", files["r6a"], files["r6b"],
                                  "--mode", "full"))
        values = full["outputs"]["eigenvalues"]
        assert ex["outputs"]["alpha"] == pytest.approx(values[0], rel=1e-8)
        assert ex["outputs"]["beta"] == pytest.approx(values[-1], rel=1e-8)


class TestExitCodesAndEnv:
    def test_missing_file(self, runner, files):
        r = runner.invoke(main, ["distance", files["i2"], "/does/not/exist.mtx"])
        assert r.exit_code == 2

    def test_parse_error(self, runner, tmp_path, files):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\nnope\n3.0\n")
        r = runner.invoke(main, ["distance", files["i2"], str(bad)])
        assert r.exit_code == 2

    def test_not_positive_definite_names_file(self, runner, tmp_path, files):
        bad = tmp_path / "indefinite.mtx"
        bad.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n0.0\n-1.0\n")
        r = runner.invoke(main, ["distance", files["i2"], str(bad)])
        assert r.exit_code == 3
        assert "indefinite.mtx" in r.output or "indefinite.mtx" in (r.stderr or "")

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    @pytest.mark.parametrize("command", ["distance", "mean"])
    def test_bad_tolerance_exit_2(self, runner, files, tmp_path, flag, value, command):
        args = [files["r6a"], files["r6b"]]
        if command == "mean":
            args += ["--out", str(tmp_path / "m.mtx")]
        r = runner.invoke(main, [flag, value, command, *args])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert "input error" in r.output and "Traceback" not in r.output

    def test_second_certificate_flag_is_unknown(self, runner, files, tmp_path):
        # --tol is the mean's one certificate threshold; the flag of the
        # removed second one is split so that no name of it is left to find
        flag = "--residual" "-tol"
        r = runner.invoke(main, [flag, "1e-8", "mean", files["r6a"], files["r6b"],
                                 "--out", str(tmp_path / "m.mtx")])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert "No such option" in r.output and "Traceback" not in r.output

    def test_bad_seed_exit_2(self, runner, files):
        r = runner.invoke(main, ["--seed", "-1", "distance", files["r6a"], files["r6b"]])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert "seed" in r.output and "Traceback" not in r.output

    def test_bad_dense_ceiling_exit_2(self, runner, files):
        r = runner.invoke(main, ["--dense-ceiling", "-1", "distance", files["r6a"], files["r6b"]])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert "dense_ceiling" in r.output and "Traceback" not in r.output

    def test_huge_declared_size_exit_2(self, runner, tmp_path, files):
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 100000000000000\n1 1 1.0\n")
        r = runner.invoke(main, ["distance", files["i3"], str(huge)])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert "huge.mtx:3" in r.output and "Traceback" not in r.output

    def test_fewer_entries_than_rows_exit_3(self, runner, tmp_path, files):
        # 1e14 rows and no entry: rejected before anything of size n is built
        big = tmp_path / "big.mtx"
        big.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "100000000000000 100000000000000 0\n")
        tracemalloc.start()
        try:
            r = runner.invoke(main, ["distance", files["i2"], str(big)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert r.exit_code == 3 and isinstance(r.exception, SystemExit)
        assert "big.mtx" in r.output and "Traceback" not in r.output

    @pytest.mark.parametrize("name, content, code, detail", [
        ("asymmetric.mtx", "coordinate real general\n2 2 3\n1 1 2.0\n1 2 1.0\n2 2 2.0\n",
         2, "not symmetric"),
        ("nodiag.mtx", "coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 0.5\n3 3 1.0\n",
         3, "diagonal entry"),
    ])
    def test_certification_error_names_file(self, runner, tmp_path, files,
                                            name, content, code, detail):
        bad = tmp_path / name
        bad.write_text(f"%%MatrixMarket matrix {content}")
        r = runner.invoke(main, ["distance", files["i2"], str(bad)])
        assert r.exit_code == code and isinstance(r.exception, SystemExit)
        assert name in r.output and detail in r.output

    @pytest.mark.parametrize("args, message", [
        (["distance", "{x}", "{y}", "--metric", "bogus"], "unknown metric 'bogus'"),
        (["distance", "{x}", "{y}", "--metric", "phi"], "unknown metric 'phi'"),
        (["geodesic", "{x}", "{y}", "--ts", ",", "--outdir", "{out}"], "no interpolation"),
        (["distance", "{x}", "{y}", "--metric", "phi-abc"], "--metric: 'abc' is not a number"),
        (["geodesic", "{x}", "{y}", "--ts", "0.5,abc", "--outdir", "{out}"],
         "--ts: 'abc' is not a number"),
        (["distance", "{binary}", "{y}"], "{binary}:1:"),
    ])
    def test_bad_arguments_exit_2(self, runner, files, tmp_path, args, message):
        binary = tmp_path / "binary.mtx"
        binary.write_bytes(b"\x89PNG\r\n\x1a\n")
        names = {"x": files["r6a"], "y": files["r6b"], "out": str(tmp_path / "g"),
                 "binary": str(binary)}
        r = runner.invoke(main, [a.format(**names) for a in args])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        message = message.format(**names)
        assert f"input error: {message}" in r.output and "Traceback" not in r.output

    def test_programming_error_is_not_an_input_error(self, runner, files, monkeypatch):
        # only library errors and OS errors map to exit codes; a bare
        # ValueError is a bug and surfaces as one
        import spdcone.metrics

        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(spdcone.metrics, "thompson_distance", broken)
        r = runner.invoke(main, ["distance", files["r6a"], files["r6b"]])
        assert r.exit_code == 1 and isinstance(r.exception, ValueError)

    def test_env_var_seed(self, runner, files):
        r = invoke(runner, "--json", "distance", files["r6a"], files["r6b"],
                   env={"SPDCONE_SEED": "17"})
        assert manifest_of(r)["seed"] == 17

    def test_flag_beats_env(self, runner, files):
        r = invoke(runner, "--seed", "4", "--json", "distance", files["r6a"], files["r6b"],
                   env={"SPDCONE_SEED": "17"})
        assert manifest_of(r)["seed"] == 4


class TestManifestDeterminism:
    def test_identical_runs(self, runner, files):
        args = ["--json", "--seed", "9", "spectrum", files["s20a"], files["s20b"]]
        m1 = manifest_of(invoke(runner, *args))
        m2 = manifest_of(invoke(runner, *args))
        assert stable(m1) == stable(m2)

    def test_scalar_reproducibility(self, runner, files):
        args = ["distance", files["s20a"], files["s20b"], "--metric", "thompson"]
        out1 = invoke(runner, *args).output
        out2 = invoke(runner, *args).output
        assert out1 == out2


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(A=symmetric_inputs())
def test_adversarial_files_exit_2_or_3(runner, tmp_path, A):
    # a file that is not a certifiable SPD matrix is an input error (2) or
    # a numerical failure (3), never a traceback (1)
    p = tmp_path / "a.mtx"
    write_symmetric(p, A)
    try:
        read_spd(p)
        spd = True
    except SpdConeError:
        spd = False
    r = runner.invoke(main, ["spectrum", str(p), str(p)])
    assert r.exit_code in ((0,) if spd else (2, 3)), r.output
