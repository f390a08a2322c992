"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pencils-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``, never from an installed copy. The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print every metric by name with its unit.

``--trace 0`` sets up the workload, runs whole cycles of ops for about
``--seconds`` of op time and at least 100 ops, sets up twice more
(``setup_s`` is the median of the three), and reports the end-to-end
metrics. Their times are at the reference machine speed (``speed.py``):
each is scaled by a fixed probe kernel timed around it, because shared
hosts change speed within a run; the wall-clock figures are printed too.
``--trace 1`` sets up once with the per-layer hooks installed, runs one
traced cycle between two untraced ones, reports the per-layer metrics
and the tracing overhead, and writes the spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: each workload is a single
# synchronous client, and a second thread only adds run-to-run noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# the CLI reads SPDCONE_* options from the environment
for _var in [v for v in os.environ if v.startswith("SPDCONE_")]:
    del os.environ[_var]

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SETUP_REPEATS = 3
MIN_OPS = 100


def _import_library():
    try:
        import spdcone
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spdcone from {ROOT / 'src'}: {exc}")
    if Path(spdcone.__file__).resolve().parent != ROOT / "src" / "spdcone":
        sys.exit(f"perfbench: spdcone imported from {spdcone.__file__}, not from the checkout")


def machine_facts():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(name, seed, seconds, workdir):
    from perfbench import speed
    from perfbench import workloads as wl
    import statistics

    def timed_setup(subdir):
        (workload, wall), scale = speed.between_probes(
            lambda: wl.setup(name, seed, workdir / subdir))
        return workload, wall, wall * scale

    workload, *first = timed_setup("run")
    results = wl.run_timed(workload, seconds, MIN_OPS)
    # read before the oracle and the repeated set-ups, which are not part
    # of what a user of the workload holds in memory
    rss = _peak_rss_mb()
    setups = [first] + [timed_setup(f"setup-{i}")[1:] for i in range(1, SETUP_REPEATS)]
    wrong = wl.verify(results, workload.pencils)
    lat = wl.latency_metrics(results)
    wall = wl.latency_metrics(results, scaled=False)
    metrics = {
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "op_tail_ms": (lat["op_tail_ms"], "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    speeds = [1.0 / r.probe for r in results]
    notes = [
        f"fail_ratio {lat['fail_ratio']!r} ratio",
        f"op_tail_ms is p{lat['tail_percentile']} of {len(results)} ops",
        f"wall time: ops_per_s {wall['ops_per_s']:.4f} 1/s, op_p50_ms {wall['op_p50_ms']:.3f} ms,"
        f" op_tail_ms {wall['op_tail_ms']:.3f} ms, setup_s {statistics.median(w for w, _ in setups):.3f} s",
        f"machine speed / reference, over the ops: min {min(speeds):.3f}"
        f" median {statistics.median(speeds):.3f} max {max(speeds):.3f}",
        f"setup_s runs (wall -> reference): "
        + ", ".join(f"{w:.3f} -> {s:.3f}" for w, s in setups),
    ]
    return results, wrong, metrics, notes


def run_traced(name, seed, workdir, outdir):
    from time import perf_counter

    from perfbench import workloads as wl
    from perfbench.trace import Tracer
    import json

    def timed_cycle(tracer=None):
        t0 = perf_counter()
        results = wl.run_cycle(workload.ops, tracer)
        return results, perf_counter() - t0

    # the traced cycle sits between two untraced ones, so that warming
    # up and drifting machine speed do not count as tracing overhead
    tracer = Tracer().install()
    try:
        workload, _ = wl.setup(name, seed, workdir, span=tracer.span)
        tracer.uninstall()
        before, before_wall = timed_cycle()
        tracer.install()
        traced, traced_wall = timed_cycle(tracer)
        tracer.uninstall()
        after, after_wall = timed_cycle()
    finally:
        tracer.uninstall()
    untraced_wall = (before_wall + after_wall) / 2.0
    untraced = before + after
    results = untraced + traced
    wrong = wl.verify(results, workload.pencils)
    counts, timings = tracer.summary(traced_wall, untraced_wall)
    counts["cycle.failed"] = sum(r.failed for r in traced)

    outdir.mkdir(parents=True, exist_ok=True)
    stem = outdir / f"{name}-seed{seed}"
    with open(f"{stem}.spans.jsonl", "w") as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")
    with open(f"{stem}.layers.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "counts": counts, "timings": timings},
                  fh, indent=1, sort_keys=True)

    units = {}
    for key in counts:
        units[key] = ("ratio" if key.endswith("_ratio")
                      else "B" if key.endswith("bytes") else "count")
    for key in timings:
        units[key] = "share" if "share" in key else "ms"
    metrics = {k: (v, units[k]) for k, v in {**counts, **timings}.items()}
    notes = [f"spans written to {stem}.spans.jsonl ({len(tracer.spans)} spans)"]
    return results, wrong, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pencils-sparse", "mean-families", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    import json
    import shutil

    facts = machine_facts()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            results, wrong, metrics, notes = run_traced(
                args.workload, args.seed, workdir / "run", ROOT / ".perfbench_out")
        else:
            results, wrong, metrics, notes = run_untraced(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = {}
    for res in results:
        if res.failed:
            failures.setdefault(res.op.name, []).append(res.error.splitlines()[0][:160])
    for op_name, errors in failures.items():
        print(f"failed {len(errors)}x: {op_name}: {errors[0]}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    for note in notes:
        print(note)
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
