"""Self-tests of the benchmark: hook coverage, determinism, oracles.

    python3 -m pytest perfbench/tests -q

The traced runs take about two minutes per workload on a 2-CPU machine.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import spdcone
import spdcone.cli
import spdcone.core
import spdcone.geodesics
import spdcone.mean
import spdcone.metrics
from perfbench import inputs, oracle, run, speed
from perfbench import workloads as wl
from perfbench.trace import HOOKS, Tracer

SEED = 7

# Which hooks each workload exists to exercise (the layer table in README.md).
EXERCISED = {
    "pencils-sparse": ["eigen.extreme_pair", "core.solve", "eigen.ritz",
                       "eigen.pencil_residual", "metrics.thompson_distance",
                       "metrics.hilbert_distance"],
    "mean-families": ["mean.inductive_mean", "core.combine", "core.SpdMatrix",
                      "core.CholeskyFactor", "eigen.extreme_pair", "eigen.dense_eigh"],
    "cli-files": ["cli.command", "mmio.read_matrix", "mmio.write_matrix",
                  "geodesics.star_geodesic", "core.combine", "core.SpdMatrix",
                  "eigen.dense_eigh", "metrics.thompson_distance",
                  "metrics.riemannian_distance"],
}
DETERMINISTIC = ["eigen.lanczos_steps", "core.solve.calls", "core.CholeskyFactor.calls",
                 "core.factor_nnz", "setup.core.factor_nnz", "mean.extreme_pair_per_mean",
                 "mean.combine_per_mean", "mean.certify_per_mean", "mean.steps_per_mean",
                 "mmio.write_matrix.bytes", "mmio.read_matrix.bytes", "cycle.failed"]


def hooked_attributes():
    found = []
    modules = [spdcone, spdcone.core, spdcone.cli, spdcone.geodesics, spdcone.mean,
               spdcone.metrics, spdcone.eigen, spdcone.mmio]
    owners = modules + [spdcone.core.SpdMatrix, spdcone.core.CholeskyFactor]
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, "perfbench_hook"):
                found.append((getattr(owner, "__name__", owner), attr))
    return found


def traced(name, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(name)
    results, wrong, metrics, _ = run.run_traced(name, SEED, tmp / "work", tmp / "out")
    assert wrong == 0
    return {k: v for k, (v, _) in metrics.items()}


@pytest.fixture(scope="module")
def first_runs(tmp_path_factory):
    return {name: traced(name, tmp_path_factory) for name in wl.WORKLOADS}


def test_hooks_patch_every_module_that_binds_the_name():
    with Tracer():
        for module in (spdcone.metrics, spdcone.geodesics, spdcone.mean, spdcone.cli):
            assert module.extreme_pair.perfbench_hook == "eigen.extreme_pair"
        for module in (spdcone.core, spdcone.geodesics, spdcone.mean):
            assert module.combine.perfbench_hook == "core.combine"
        assert spdcone.cli.write_matrix.perfbench_hook == "mmio.write_matrix"
        assert spdcone.mean.thompson_distance.perfbench_hook == "metrics.thompson_distance"
        # scipy's eigh is traced inside eigen only; core and geodesics keep their own
        assert spdcone.eigen.eigh.perfbench_hook == "eigen.dense_eigh"
        assert not hasattr(spdcone.core.eigh, "perfbench_hook")
    assert hooked_attributes() == []


def test_untraced_run_installs_no_hooks():
    seen = []
    workload, _ = wl.setup("mean-families", SEED, None)
    probe = wl.Op("probe", "probe", lambda: seen.extend(hooked_attributes()), lambda out: [])
    wl.run_cycle(workload.ops[:2] + [probe])
    assert seen == []


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_each_hook_fires_on_its_workload(first_runs, name):
    metrics = first_runs[name]
    for hook in EXERCISED[name]:
        assert metrics[f"{hook}.calls"] > 0, hook
        assert metrics[f"{hook}.ms"] > 0, hook
    assert all(v is not None for v in metrics.values())


def test_io_and_means_stay_off_the_pencil_workload(first_runs):
    metrics = first_runs["pencils-sparse"]
    for key in ("mmio.read_matrix.calls", "mmio.write_matrix.calls",
                "mean.inductive_mean.calls", "core.combine.calls", "cli.command.calls"):
        assert metrics[key] == 0, key


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_gives_identical_counts(first_runs, tmp_path_factory, name):
    again = traced(name, tmp_path_factory)
    first = first_runs[name]
    for key in DETERMINISTIC:
        assert again[key] == first[key], key


def test_different_seed_changes_inputs():
    def fingerprint(seed):
        w = wl.build_pencils(seed)
        return [float(abs(p.X).sum() + abs(p.Y).sum()) for p in w.pencils.values()]

    one, two = fingerprint(1), fingerprint(2)
    assert len(one) == len(two)
    assert all(a != b for a, b in zip(one, two))


def test_missing_hook_target_reports_null(monkeypatch):
    for module in (spdcone, spdcone.core, spdcone.geodesics, spdcone.mean):
        monkeypatch.delattr(module, "combine")
    tracer = Tracer()
    with tracer:
        pass
    counts, timings = tracer.summary(1.0, 1.0)
    assert counts["core.combine.calls"] is None
    assert timings["core.combine.ms"] is None
    assert counts["mean.combine_per_mean"] is None
    assert counts["eigen.extreme_pair.calls"] == 0


def test_factorization_is_timed_inside_certification():
    tracer = Tracer()
    with tracer:
        spdcone.SpdMatrix(inputs.banded(200, 3, np.random.default_rng(0)))
        spdcone.random_spd(20, np.random.default_rng(1))
    spans = tracer.span_records()
    factors = [s for s in spans if s["name"] == "core.CholeskyFactor"]
    assert len(factors) == 2
    assert all(spans[s["parent"]]["name"] == "core.SpdMatrix" for s in factors)
    counts, _ = tracer.summary(1.0, 1.0)
    assert counts["setup.core.factor_nnz"] > 20 * 21 // 2


def test_cli_exit_code_is_an_op_failure_not_a_wrong_output(tmp_path):
    missing = str(tmp_path / "missing.mtx")
    op = wl.Op("distance missing", "cli",
               lambda: wl._invoke_cli(["--json", "distance", missing, missing], wl._no_span),
               lambda output: [])
    results = wl.run_cycle([op])
    assert results[0].failed and "exit code" in results[0].error
    assert wl.verify(results, {}) == 0


def test_grid_oracle_matches_dense_eigh():
    rng = np.random.default_rng(3)
    for m in (4, 7):
        X, Y, a, b = inputs.grid_pencil(m, rng)
        alpha, beta = oracle.grid_extremes(m, a, b)
        ref_alpha, ref_beta = oracle.extremes(X, Y)
        assert oracle.close_rel(alpha, ref_alpha, 1e-12)
        assert oracle.close_rel(beta, ref_beta, 1e-12)


def test_sparse_oracle_matches_dense_eigh():
    rng = np.random.default_rng(4)
    X, Y = inputs.banded(300, 3, rng), inputs.banded(300, 3, rng)
    dense = oracle.extremes(X, Y)
    sparse_path = (1.0 / oracle._largest_generalized(X, Y), oracle._largest_generalized(Y, X))
    for got, ref in zip(sparse_path, dense):
        assert oracle.close_rel(got, ref, 1e-10)


def test_timed_loop_stops_at_the_cycle_boundary_nearest_the_time():
    workload = wl.Workload([wl.Op("sleep", "sleep", lambda: time.sleep(0.01), lambda out: [])
                            for _ in range(10)], {})
    assert len(wl.run_timed(workload, 0.33, 1)) == 30
    assert len(wl.run_timed(workload, 0.01, 25)) == 30


def test_failed_ops_count_as_infinite_latency():
    op = wl.Op("x", "x", None, None)
    ok = [wl.Result(op, 0.001 * (i + 1)) for i in range(95)]
    failed = [wl.Result(op, 0.0005, error="NoConvergence") for _ in range(5)]
    lat = wl.latency_metrics(ok + failed)
    assert lat["tail_percentile"] == 90
    assert math.isfinite(lat["op_tail_ms"]) and lat["op_tail_ms"] > 85
    assert lat["fail_ratio"] == 0.05
    assert lat["ops_per_s"] == pytest.approx(95 / sum(r.seconds for r in ok + failed))
    worse = wl.latency_metrics(ok[:85] + failed * 3)
    assert worse["op_tail_ms"] == math.inf


def test_op_times_are_scaled_by_the_probes_around_them():
    op = wl.Op("x", "x", None, None)
    # the machine runs at reference speed, then at half of it
    results = [wl.Result(op, 0.01 * (1 + (i >= 50)), probe=1.0 + (i >= 50)) for i in range(100)]
    speed.scale_results(results)
    assert results[0].scale == 1.0 and results[-1].scale == 0.5
    lat = wl.latency_metrics(results)
    assert lat["op_p50_ms"] == pytest.approx(10.0) and lat["op_tail_ms"] == pytest.approx(10.0)
    assert wl.latency_metrics(results, scaled=False)["op_tail_ms"] == pytest.approx(20.0)
    assert lat["ops_per_s"] == pytest.approx(100.0)


def test_toeplitz_and_grid_inputs_are_spd():
    rng = np.random.default_rng(5)
    for M in (*inputs.toeplitz_pair(50, rng), *inputs.grid_pencil(5, rng)[:2]):
        assert sp.issparse(M)
        assert np.linalg.eigvalsh(M.toarray()).min() > 0
