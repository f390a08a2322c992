"""The benchmark's three workloads, their per-op checks, and the timed loop.

Each workload is a closed loop with one client in one process: every
public spdcone call is synchronous, so the next op starts when the
previous one returns. A workload is one *cycle* of ops in a fixed order;
the loop repeats whole cycles, so every run measures the same mix.

``build_*`` functions do the set-up: generate inputs from the seed,
certify them, write input files, and warm up (the first op of each
kind). Ops call the library through module attributes at call time, so
a tracer's hooks (see ``trace.py``) see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import click
import numpy as np
import scipy.io
import scipy.sparse as sp

import spdcone
import spdcone.cli
import spdcone.mean
import spdcone.metrics
from spdcone.errors import SpdConeError

from . import inputs, oracle, speed

WORKLOADS = ("pencils-sparse", "mean-families", "cli-files")


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class OpFailed(Exception):
    """An op did not complete: the CLI exited with a non-zero code."""


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    # Validates what ``run`` returned; raises CheckFailed, or returns
    # claims (pencil key, quantity, value) to compare with the oracle.
    check: Callable[[object], list]


@dataclass
class Pencil:
    """Raw inputs of a pencil Y X^-1, as generated, for the oracle."""

    X: object
    Y: object
    exact: tuple | None = None  # closed-form (alpha, beta)
    _cache: dict = field(default_factory=dict)

    def value(self, quantity):
        if quantity not in self._cache:
            if quantity == "riemannian":
                self._cache[quantity] = oracle.riemannian(self.X, self.Y)
            else:
                if "extremes" not in self._cache:
                    self._cache["extremes"] = self.exact or oracle.extremes(self.X, self.Y)
                alpha, beta = self._cache["extremes"]
                self._cache[quantity] = {
                    "alpha": alpha, "beta": beta,
                    "thompson": oracle.thompson(alpha, beta),
                    "hilbert": oracle.hilbert(alpha, beta),
                }[quantity]
        return self._cache[quantity]

    def agrees(self, quantity, value):
        ref = self.value(quantity)
        if quantity in ("thompson", "hilbert"):
            return oracle.close_log(value, ref)
        return oracle.close_rel(value, ref)


@dataclass
class Workload:
    ops: list  # one cycle
    pencils: dict

    def warm_up(self):
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                with contextlib.suppress(SpdConeError, OpFailed):
                    op.run()


def _no_span(name):
    return contextlib.nullcontext()


# -- pencils-sparse ------------------------------------------------------------

def _distance_op(metric, key, X, Y, kind):
    def run():
        return getattr(spdcone.metrics, f"{metric}_distance")(X, Y)

    return Op(f"{metric} {key}", kind, run, lambda d: [(key, metric, d)])


def build_pencils(seed, workdir=None, span=_no_span):
    rng = np.random.default_rng(seed)
    pencils, hard = {}, []

    for m in (32, 48, 64):
        Xr, Yr, a, b = inputs.grid_pencil(m, rng)
        key = f"grid-{m}"
        pencils[key] = Pencil(Xr, Yr, oracle.grid_extremes(m, a, b))
        hard.append(_distance_op("thompson", key, spdcone.SpdMatrix(Xr),
                                 spdcone.SpdMatrix(Yr), "grid"))
    Xr, Yr = inputs.toeplitz_pair(1000, rng)
    pencils["toeplitz"] = Pencil(Xr, Yr)
    hard.insert(1, _distance_op("hilbert", "toeplitz", spdcone.SpdMatrix(Xr),
                                spdcone.SpdMatrix(Yr), "toeplitz"))

    # Every factorization happens in set-up. Eleven random matrices give
    # 22 distinct pairs (each with its next two neighbours), sixteen
    # banded ones sixteen pairs (with the next one). A cycle is four
    # blocks of one hard pencil, 22 random pairs and four banded ones:
    # each random pair runs four times and each banded pair once. Ops
    # sort as random pairs, banded pairs, then three of the hard pencils,
    # so the median falls among the random pairs and the p90 (11 of 108
    # ops above it) near the median of the banded ones. Banded pairs
    # differ in cost by up to a factor of three, so the p90 stays put
    # from seed to seed only in the middle of many of them.
    random = [spdcone.random_sparse_spd(4000, 3.0 / 4000, rng) for _ in range(11)]
    banded = [spdcone.SpdMatrix(inputs.banded(8000, 5, rng)) for _ in range(16)]
    pairs = {
        "random": [(f"random-{i}-{j % 11}", random[i], random[j % 11])
                   for i in range(11) for j in (i + 1, i + 2)],
        "banded": [(f"banded-{i}", banded[i], banded[(i + 1) % 16]) for i in range(16)],
    }
    cheap = {}
    for fam, fam_pairs in pairs.items():
        for key, X, Y in fam_pairs:
            pencils[key] = Pencil(X.raw(), Y.raw())
        cheap[fam] = [_distance_op(("thompson", "hilbert")[(rep + i) % 2], key, X, Y, fam)
                      for rep in range(4 if fam == "random" else 1)
                      for i, (key, X, Y) in enumerate(fam_pairs)]
    ops = []
    for j, op in enumerate(hard):
        ops += [op, *cheap["random"][22 * j:22 * j + 22], *cheap["banded"][4 * j:4 * j + 4]]
    return Workload(ops, pencils)


# -- mean-families -------------------------------------------------------------

def _union_pattern(points):
    n = points[0].n
    U = sp.csr_matrix((n, n), dtype=bool)
    for p in points:
        r, c = p.lower_pattern()
        U = U + sp.csr_matrix((np.ones(len(r), dtype=bool), (r, c)), shape=(n, n))
    return U


def _mean_op(name, kind, points):
    # built at the first check, so that it stays out of set-up
    union = functools.cache(lambda: _union_pattern(points))

    def run():
        return spdcone.mean.inductive_mean(spdcone.MeanProblem(list(points)))

    def check(result):
        if not result.certified:
            raise CheckFailed(f"{name}: mean not certified")
        r, c = result.mean.lower_pattern()
        if not np.all(np.asarray(union()[r, c]).ravel()):
            raise CheckFailed(f"{name}: mean pattern leaves the union of the inputs")
        return []

    return Op(name, kind, run, check)


def build_means(seed, workdir=None, span=_no_span):
    rng = np.random.default_rng(seed)
    sparse = []
    for i in range(3):
        sparse += [_mean_op(f"random-{6 * i + j}", "random",
                            [spdcone.random_sparse_spd(100, 0.03, rng) for _ in range(5)])
                   for j in range(6)]
        sparse.append(_mean_op(f"banded-{i}", "banded",
                               [spdcone.SpdMatrix(inputs.banded(100, 5, rng)) for _ in range(5)]))
    toeplitz = []
    for j in range(5):
        coeffs, margin = ((inputs.TOEPLITZ_X, 0.2), (inputs.TOEPLITZ_Y, 0.5))[j % 2]
        toeplitz.append(spdcone.SpdMatrix(inputs.toeplitz(300, coeffs, margin, rng)))
    dense = [_mean_op(f"dense-{i}", "dense", [spdcone.random_spd(48, rng) for _ in range(3)])
             for i in range(78)]
    # Three or four cheap dense means per sparse one (78 to 21): the
    # median falls among the dense means. Above the p90 (10 of 100 ops)
    # lie the Toeplitz family and nine of the eighteen random families,
    # which cost more than the banded ones, so the p90 falls in the middle
    # of the random families; eighteen distinct ones average out how much
    # F-map work one seed draws.
    ops = []
    for i, op in enumerate(sparse):
        ops += dense[78 * i // 21:78 * (i + 1) // 21] + [op]
    ops.insert(50, _mean_op("toeplitz", "toeplitz", toeplitz))
    return Workload(ops, {})


# -- cli-files -----------------------------------------------------------------

def _invoke_cli(args, span):
    out, err = io.StringIO(), io.StringIO()
    with span("cli.command"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # without standalone mode click returns the code of ctx.exit()
            code = spdcone.cli.main.main(list(args), standalone_mode=False) or 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _same_file_values(a, b):
    A, B = scipy.io.mmread(a), scipy.io.mmread(b)
    if sp.issparse(A) or sp.issparse(B):
        if not (sp.issparse(A) and sp.issparse(B)) or A.shape != B.shape:
            return False
        A, B = sp.csr_matrix(A), sp.csr_matrix(B)
        A.eliminate_zeros()
        B.eliminate_zeros()
        return (A != B).nnz == 0
    return A.shape == B.shape and np.array_equal(A, B)


def build_cli(seed, workdir, span=_no_span):
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pencils, files = {}, {}

    def write(name, M):
        path = workdir / f"{name}.mtx"
        spdcone.write_matrix(path, M)
        files[name] = str(path)
        return M

    for key, n in (("a", 256), ("b", 256), ("c", 256), ("d", 512)):
        X = write(f"x{key}", spdcone.random_spd(n, rng))
        Y = write(f"y{key}", spdcone.random_spd(n, rng))
        pencils[key] = Pencil(X.raw(), Y.raw())
    write("xs", spdcone.SpdMatrix(inputs.banded(4000, 5, rng)))
    write("ys", spdcone.SpdMatrix(inputs.banded(4000, 5, rng)))
    triples = []
    for t in range(3):
        triple = [write(f"m{t}{j}", spdcone.random_spd(32, rng)) for j in range(3)]
        triples.append(([files[f"m{t}{j}"] for j in range(3)],
                        functools.cache(lambda triple=triple: _union_pattern(triple))))

    def op(name, kind, args, check):
        return Op(name, kind, lambda: _invoke_cli(["--json", *args], span), check)

    def distance(key, metric):
        def check(output):
            return [(key, metric, json.loads(output)["outputs"]["distance"])]

        return op(f"distance-{metric} {key}", f"distance-{metric}",
                  ["distance", files[f"x{key}"], files[f"y{key}"], "--metric", metric], check)

    def spectrum(key):
        def check(output):
            out = json.loads(output)["outputs"]
            return [(key, "alpha", out["alpha"]), (key, "beta", out["beta"])]

        return op(f"spectrum {key}", "spectrum",
                  ["spectrum", files[f"x{key}"], files[f"y{key}"]], check)

    def geodesic(x, y):
        outdir = workdir / f"geodesic-{x}"
        name = f"geodesic {x} {y}"

        def check(output):
            json.loads(output)
            if not (_same_file_values(outdir / "star_000.mtx", files[x])
                    and _same_file_values(outdir / "star_004.mtx", files[y])):
                raise CheckFailed(f"{name}: endpoints differ from the inputs")
            return []

        return op(name, "geodesic",
                  ["geodesic", files[x], files[y], "--family", "star",
                   "--ts", "0,0.25,0.5,0.75,1", "--outdir", str(outdir)], check)

    def mean(t):
        paths, union = triples[t]
        out = workdir / f"mean{t}.mtx"
        name = f"mean triple-{t}"

        def check(output):
            if not json.loads(output)["outputs"]["certified"]:
                raise CheckFailed(f"{name}: mean not certified")
            r, c = np.nonzero(np.tril(np.asarray(sp.csr_matrix(scipy.io.mmread(out)).todense())))
            if not np.all(np.asarray(union()[r, c]).ravel()):
                raise CheckFailed(f"{name}: mean pattern leaves the union of the inputs")
            return []

        return op(name, "mean", ["mean", *paths, "--out", str(out)], check)

    # n = 256 pairs a, b, c make up the middle of the latency range, so
    # the median falls inside one class of ops
    ops = [
        distance("a", "thompson"), mean(0), distance("a", "riemannian"), spectrum("a"),
        geodesic("xa", "ya"), distance("b", "thompson"), distance("b", "riemannian"),
        mean(1), spectrum("b"), distance("d", "thompson"), geodesic("xs", "ys"),
        distance("c", "thompson"), distance("c", "riemannian"), mean(2), spectrum("c"),
        spectrum("d"),
    ]
    return Workload(ops, pencils)


BUILD = {
    "pencils-sparse": build_pencils,
    "mean-families": build_means,
    "cli-files": build_cli,
}


def setup(name, seed, workdir, span=_no_span):
    """Build the workload and warm it up; returns (workload, seconds)."""
    t0 = perf_counter()
    workload = BUILD[name](seed, workdir, span)
    workload.warm_up()
    return workload, perf_counter() - t0


# -- the timed loop -----------------------------------------------------------

@dataclass
class Result:
    op: Op
    seconds: float
    error: str | None = None  # SpdConeError raised, CLI exit, or failed check
    claims: list = field(default_factory=list)
    probe: float | None = None  # speed probe run after the op: its time / reference
    scale: float = 1.0  # wall time -> time at reference speed (speed.py)

    @property
    def failed(self):
        return self.error is not None


def run_cycle(ops, tracer=None, probe=None):
    """Run ``ops`` in order; with ``probe``, run it after each op, untimed."""
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        t0 = perf_counter()
        try:
            output = op.run()
        except (SpdConeError, OpFailed) as exc:
            res = Result(op, perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        else:
            res = Result(op, perf_counter() - t0)
            try:
                res.claims = op.check(output)
            except CheckFailed as exc:
                res.error = f"check: {exc}"
        if probe is not None:
            res.probe = probe()
        results.append(res)
    return results


def run_timed(workload, seconds, min_ops):
    """Whole cycles, at least ``min_ops`` ops, whose op time comes nearest ``seconds``.

    The loop stops once another cycle, as long as the last one, would
    overshoot ``seconds`` by more than stopping falls short of it. The
    speed probe runs after every op, and each result's ``scale`` is set
    from the probes around it.
    """
    results, busy = [], 0.0
    while True:
        cycle = run_cycle(workload.ops, probe=speed.probe)
        results += cycle
        last = sum(r.seconds for r in cycle)
        busy += last
        if len(results) >= min_ops and busy + last / 2.0 >= seconds:
            speed.scale_results(results)
            return results


def verify(results, pencils):
    """Compare deferred claims with the oracle; returns the number of wrong outputs."""
    wrong = 0
    for res in results:
        if res.error is None and res.claims:
            bad = [c for c in res.claims if not pencils[c[0]].agrees(c[1], c[2])]
            if bad:
                res.error = f"check: {bad[0][1]} of {bad[0][0]} is {bad[0][2]!r}, " \
                            f"oracle {pencils[bad[0][0]].value(bad[0][1])!r}"
        wrong += res.error is not None and res.error.startswith("check:")
    return wrong


TAIL_PERCENTILES = (90, 75, 50)


def latency_metrics(results, scaled=True):
    """Goodput, median and tail latency; a failed op counts as +inf latency.

    Times are at reference speed (each result's ``scale``) unless
    ``scaled`` is false.
    """
    seconds = [r.seconds * (r.scale if scaled else 1.0) for r in results]
    lat = np.sort([math.inf if r.failed else s * 1e3 for r, s in zip(results, seconds)])
    n = len(lat)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100.0 >= 10), 50)

    def percentile(p):
        # linear interpolation between order statistics, as numpy's default
        pos = (n - 1) * p / 100.0
        lo, hi = math.floor(pos), math.ceil(pos)
        if math.isinf(lat[hi]):
            return math.inf
        return float(lat[lo] + (lat[hi] - lat[lo]) * (pos - lo))

    ok = sum(not r.failed for r in results)
    return {
        "ops_per_s": ok / sum(seconds),
        "op_p50_ms": percentile(50),
        "op_tail_ms": percentile(pct),
        "tail_percentile": pct,
        "fail_ratio": (n - ok) / n,
    }
