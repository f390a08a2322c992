"""Per-layer tracing of spdcone, attached from outside the library.

A :class:`Tracer` wraps public functions of the ``spdcone`` modules (the
layers) and records one span per call: ``(name, start, end, parent,
op_id)``. Spans stay in memory until the run ends. The library itself is
not modified: :meth:`Tracer.install` replaces the module attributes and
:meth:`Tracer.uninstall` puts the originals back, so an untraced run
executes exactly the library's code.

A function bound by name in several modules (``extreme_pair`` is imported
by ``metrics``, ``geodesics``, ``mean`` and ``cli``) is replaced in every
``spdcone`` module that holds it, found by identity. A hook whose target
no longer exists is skipped and its metrics read ``None``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("core", "eigen", "geodesics", "metrics", "mean", "mmio", "cli")
SETUP = "setup"


@dataclass(frozen=True)
class Hook:
    """Span ``name`` around ``module.target``; ``target`` may be ``Class.method``.

    ``local`` restricts the patch to ``module``: used for third-party
    functions (scipy's ``eigh``) that other layers import under the same
    name for other purposes.
    """

    name: str
    module: str
    target: str
    local: bool = False
    observe: object = None  # (args, result, exc) -> dict of counts


def _factor_nnz(args, result, exc):
    if exc is not None:
        return {"nnz": 0, "bytes": 0}
    L = result.L
    n = L.shape[0]
    nnz = int(L.nnz) if hasattr(L, "nnz") else n * (n + 1) // 2
    # computed, not measured: CSC stores 8-byte values and 4-byte row indices
    return {"nnz": nnz, "bytes": 12 * nnz}


def _steps(args, result, exc):
    if exc is not None:
        # a failed call reports the steps of the solve that failed
        return {"steps": int(getattr(exc, "iterations", None) or 0), "certified": 0}
    return {"steps": int(sum(result.iterations)), "certified": 1}


def _cycles(args, result, exc):
    return {"cycles": 0 if exc is not None else int(result.cycles_used)}


def _file_bytes(args, result, exc):
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


HOOKS = (
    Hook("core.SpdMatrix", "spdcone.core", "SpdMatrix.__init__"),
    # the certifying factorizations SpdMatrix runs; each builds one CholeskyFactor
    Hook("core.CholeskyFactor", "spdcone.core", "_factor_dense", observe=_factor_nnz),
    Hook("core.CholeskyFactor", "spdcone.core", "_factor_sparse", observe=_factor_nnz),
    Hook("core.solve", "spdcone.core", "CholeskyFactor.solve_lower"),
    Hook("core.solve", "spdcone.core", "CholeskyFactor.solve_lower_t"),
    Hook("core.combine", "spdcone.core", "combine"),
    Hook("eigen.extreme_pair", "spdcone.eigen", "extreme_pair", observe=_steps),
    Hook("eigen.ritz", "spdcone.eigen", "eigh_tridiagonal", local=True),
    Hook("eigen.dense_eigh", "spdcone.eigen", "eigh", local=True),
    Hook("eigen.pencil_residual", "spdcone.eigen", "pencil_residual"),
    Hook("geodesics.star_geodesic", "spdcone.geodesics", "star_geodesic"),
    Hook("metrics.thompson_distance", "spdcone.metrics", "thompson_distance"),
    Hook("metrics.hilbert_distance", "spdcone.metrics", "hilbert_distance"),
    Hook("metrics.riemannian_distance", "spdcone.metrics", "riemannian_distance"),
    Hook("mean.inductive_mean", "spdcone.mean", "inductive_mean", observe=_cycles),
    Hook("mmio.read_matrix", "spdcone.mmio", "read_matrix", observe=_file_bytes),
    Hook("mmio.write_matrix", "spdcone.mmio", "write_matrix", observe=_file_bytes),
)
# Spans the benchmark opens itself, around calls it makes into a layer.
OWN_SPANS = ("cli.command",)

# span fields
NAME, START, END, PARENT, OP, CHILD, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = SETUP
        self.installed = {}  # hook index -> number of places patched
        self.active = False
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for i, hook in enumerate(HOOKS):
            self.installed[i] = self._install(hook)
        self.active = True
        return self

    def _install(self, hook):
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            return 0
        owner_name, _, attr = hook.target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                return 0
            self._patch(owner, attr, self._wrap(hook, vars(owner)[attr]))
            return 1
        original = getattr(module, attr, None)
        if original is None:
            return 0
        wrapper = self._wrap(hook, original)
        homes = [module] if hook.local else [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "spdcone" or name.startswith("spdcone."))
        ]
        count = 0
        for home in homes:
            for name, value in list(vars(home).items()):
                if value is original:
                    self._patch(home, name, wrapper)
                    count += 1
        return count

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _wrap(self, hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(hook.name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(index, hook.observe, args, None, exc)
                raise
            tracer._close(index, hook.observe, args, result, None)
            return result

        wrapper.perfbench_hook = hook.name
        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, 0.0, None])
        self._stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def _close(self, index, observe, args, result, exc):
        end = perf_counter()
        span = self.spans[index]
        span[END] = end
        self._stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += end - span[START]
        if observe is not None:
            span[INFO] = observe(args, result, exc)

    def span(self, name):
        """Context manager for a span the benchmark opens itself.

        Records nothing while the hooks are uninstalled, so the untraced
        cycles of a traced run stay untraced.
        """
        return _OwnSpan(self, name) if self.active else contextlib.nullcontext()

    # -- aggregation ----------------------------------------------------------

    def hooked_names(self):
        """Span names whose hooks found every target, plus the benchmark's own."""
        names = {h.name for h in HOOKS}
        missing = {HOOKS[i].name for i, n in self.installed.items() if n == 0}
        return (names - missing) | set(OWN_SPANS)

    def summary(self, op_wall_s, untraced_wall_s):
        """Per-layer counts and timings: (counts, timings) dicts of metrics.

        Op-scope metrics cover the spans of the traced cycle; ``setup.*``
        metrics cover the traced set-up. A metric whose hook did not
        install reads ``None``.
        """
        live = self.hooked_names()
        agg = {}  # (scope, name) -> {"calls", "ms", "self_ms", observed counts}
        mean_of = [None] * len(self.spans)  # enclosing inductive_mean span

        def add(scope, s, dur):
            a = agg.setdefault((scope, s[NAME]), {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            a["calls"] += 1
            a["ms"] += dur * 1e3
            a["self_ms"] += (dur - s[CHILD]) * 1e3
            for k, v in (s[INFO] or {}).items():
                a[k] = a.get(k, 0) + v

        for i, s in enumerate(self.spans):
            scope = SETUP if s[OP] == SETUP else "op"
            dur = s[END] - s[START]
            add(scope, s, dur)
            if s[NAME] == "mean.inductive_mean":
                mean_of[i] = i
            elif s[PARENT] is not None:
                mean_of[i] = mean_of[s[PARENT]]
                if scope == "op" and mean_of[i] is not None:
                    add("in_mean", s, dur)

        def get(name, field, scope="op"):
            if name not in live:
                return None
            return agg.get((scope, name), {}).get(field, 0)

        counts, timings = {}, {}
        for name in sorted({h.name for h in HOOKS} | set(OWN_SPANS)):
            counts[f"{name}.calls"] = get(name, "calls")
            timings[f"{name}.ms"] = get(name, "ms")
        for name in ("eigen.extreme_pair", "core.SpdMatrix", "geodesics.star_geodesic",
                     "mean.inductive_mean", "cli.command"):
            timings[f"{name}.self_ms"] = get(name, "self_ms")
        counts["mmio.read_matrix.bytes"] = get("mmio.read_matrix", "bytes")
        counts["mmio.write_matrix.bytes"] = get("mmio.write_matrix", "bytes")
        counts["core.factor_nnz"] = get("core.CholeskyFactor", "nnz")
        counts["core.factor_bytes"] = get("core.CholeskyFactor", "bytes")
        counts["eigen.lanczos_steps"] = get("eigen.extreme_pair", "steps")
        pairs = get("eigen.extreme_pair", "calls")
        certified = get("eigen.extreme_pair", "certified")
        counts["eigen.certified_ratio"] = (
            None if pairs is None else (certified / pairs if pairs else 1.0))

        means = get("mean.inductive_mean", "calls")
        counts["mean.cycles_used"] = get("mean.inductive_mean", "cycles")
        for metric, name, field in (
            ("mean.extreme_pair_per_mean", "eigen.extreme_pair", "calls"),
            ("mean.steps_per_mean", "eigen.extreme_pair", "steps"),
            ("mean.combine_per_mean", "core.combine", "calls"),
            ("mean.certify_per_mean", "core.CholeskyFactor", "calls"),
        ):
            total = get(name, field, "in_mean")
            counts[metric] = (None if means is None or total is None
                              else total / means if means else 0.0)

        counts["setup.core.SpdMatrix.calls"] = get("core.SpdMatrix", "calls", SETUP)
        counts["setup.core.factor_nnz"] = get("core.CholeskyFactor", "nnz", SETUP)
        counts["setup.core.factor_bytes"] = get("core.CholeskyFactor", "bytes", SETUP)
        timings["setup.core.SpdMatrix.ms"] = get("core.SpdMatrix", "ms", SETUP)

        # each layer's share of op wall time, by self time
        op_ms = op_wall_s * 1e3
        shares = dict.fromkeys(LAYERS, 0.0)
        for (scope, name), a in agg.items():
            layer = name.split(".")[0]
            if scope == "op" and layer in shares:
                shares[layer] += a["self_ms"]
        for layer in LAYERS:
            timings[f"share.{layer}"] = shares[layer] / op_ms if op_ms else 0.0
        timings["trace.overhead_ms"] = (op_wall_s - untraced_wall_s) * 1e3
        timings["trace.overhead_share"] = (
            (op_wall_s - untraced_wall_s) / untraced_wall_s if untraced_wall_s else 0.0)
        return counts, timings

    def span_records(self):
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "op_id": s[OP]}
            for s in self.spans
        ]


class _OwnSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, None, (), None, None)
