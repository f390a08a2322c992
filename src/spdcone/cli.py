"""Command-line interface.

Matrices travel as Matrix Market files; every structured output is JSON.
Each run can emit a manifest recording the command, inputs, options,
scalar outputs, eigensolver work, and the seed; identical invocations
with the same seed reproduce every manifest field except wall time.

Exit codes: 0 success, 2 input error (files, parsing, parameters),
3 numerical failure (not positive definite, no convergence).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from . import geodesics, metrics
from .core import DEFAULT_DENSE_CEILING, spectrum_dense
from .eigen import EigenOptions, EigenStats, extreme_pair
from .errors import InvalidArgument, NumericalError, SpdConeError
from .mean import MeanProblem, inductive_mean
from .mmio import read_spd, write_matrix

_VALUE = "%.16e"  # 17 significant digits


def _fmt(x: float) -> str:
    return _VALUE % float(x)


class _Run:
    """Shared per-invocation state, built from the group's parameters.

    ``params`` is the group's ``ctx.params``: every option but ``as_json``
    goes into the manifest's ``options`` as given, and the eigensolver
    options are built once, so every command passes the same ``eigen``
    (with its ``dense_ceiling``) to the library.
    """

    def __init__(self, params):
        self.options = {k: v for k, v in params.items() if k != "as_json"}
        self.as_json = params["as_json"]
        self.stats = EigenStats()
        eigen = {k: params[k] for k in ("tol", "backend", "seed", "dense_ceiling")}
        self.eigen = EigenOptions(**eigen, stats=self.stats)
        self.t0 = time.perf_counter()

    def manifest(self, command, inputs, outputs, extra_options=None):
        return {
            "command": command,
            "inputs": [str(p) for p in inputs],
            "options": {**self.options, **(extra_options or {})},
            "outputs": outputs,
            "eigen_iterations": self.stats.iterations,
            "eigen_solves": self.stats.solves,
            "seed": self.options["seed"],
            "wall_time_ms": (time.perf_counter() - self.t0) * 1000.0,
        }


def _emit(run, manifest, human_lines):
    if run.as_json:
        click.echo(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            click.echo(line)


def _number(option, token):
    """float(token), or InvalidArgument naming the option and the token."""
    try:
        return float(token)
    except ValueError:
        raise InvalidArgument(f"{option}: {token!r} is not a number") from None


class _Group(click.Group):
    """The one error boundary: library errors map to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except (SpdConeError, OSError) as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Group, context_settings={"auto_envvar_prefix": "SPDCONE"})
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Eigensolver relative residual target, and the mean's certificate.")
@click.option("--backend", type=click.Choice(["auto", "dense", "iterative"]),
              default="auto", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for eigensolver starting vectors.")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON manifest on stdout.")
@click.option("--allow-extrapolation", is_flag=True,
              help="Permit geodesic parameters outside [0, 1].")
@click.option("--dense-ceiling", type=int, default=DEFAULT_DENSE_CEILING,
              show_default=True, help="Largest n for dense-spectrum operations.")
@click.pass_context
def main(ctx, **_):
    """Thompson/Hilbert geometry of SPD matrices from extreme eigenvalues.

    Options can also be set through SPDCONE_* environment variables
    (flags win over the environment).
    """
    ctx.obj = _Run(ctx.params)


@main.command()
@click.argument("file_x", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_y", type=click.Path(exists=True, dir_okay=False))
@click.option("--metric", default="thompson", show_default=True,
              help="thompson | hilbert | riemannian | phi-P (e.g. phi-1, phi-2, phi-inf)")
@click.pass_obj
def distance(run, file_x, file_y, metric):
    """Distance between two SPD matrices."""
    X = read_spd(file_x)
    Y = read_spd(file_y)
    if metric in ("thompson", "hilbert", "riemannian"):
        # looked up at call time, so a patched module attribute is the one called
        value = getattr(metrics, f"{metric}_distance")(X, Y, run.eigen)
    elif metric.startswith("phi-"):
        suffix = metric[4:]
        p = float("inf") if suffix == "oo" else _number("--metric", suffix)
        value = metrics.phi_distance(X, Y, p, run.eigen)
    else:
        raise InvalidArgument(f"unknown metric {metric!r}")
    manifest = run.manifest(
        "distance", [file_x, file_y], {"distance": value}, {"metric": metric}
    )
    _emit(run, manifest, [_fmt(value)])


@main.command()
@click.argument("file_x", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_y", type=click.Path(exists=True, dir_okay=False))
@click.option("--family", type=click.Choice(["star", "riemannian", "diamond"]),
              default="star", show_default=True)
@click.option("--ts", default="0,0.25,0.5,0.75,1",
              show_default=True, help="Comma-separated interpolation parameters.")
@click.option("--outdir", type=click.Path(file_okay=False), required=True)
@click.pass_obj
def geodesic(run, file_x, file_y, family, ts, outdir):
    """Sample a geodesic between two SPD matrices into Matrix Market files."""
    X = read_spd(file_x)
    Y = read_spd(file_y)
    t_values = [_number("--ts", tok) for tok in ts.split(",") if tok.strip()]
    if not t_values:
        raise InvalidArgument("no interpolation parameters given")
    outside = [t for t in t_values if not 0.0 <= t <= 1.0]
    if outside and not run.options["allow_extrapolation"]:
        raise InvalidArgument(
            f"t values {outside} lie outside [0, 1]; pass --allow-extrapolation"
        )
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    # one call per path: the pencil is solved once for all samples
    points = getattr(geodesics, f"{family}_geodesic")(X, Y, t_values, run.eigen)
    samples = []
    for idx, (t, G) in enumerate(zip(t_values, points)):
        path = out / f"{family}_{idx:03d}.mtx"
        write_matrix(path, G)
        samples.append(
            {"t": t, "file": str(path), "nnz": G.nnz, "certified": G.certified}
        )
    outputs = {
        "family": family,
        "samples": samples,
        "nnz_inputs": {"x": X.nnz, "y": Y.nnz},
    }
    manifest = run.manifest(
        "geodesic", [file_x, file_y], outputs, {"family": family, "ts": t_values}
    )
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    lines = [f"t={t['t']:g} -> {t['file']} (nnz={t['nnz']})" for t in samples]
    _emit(run, manifest, lines)


@main.command()
@click.argument("files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
def mean(run, files, out):
    """Inductive Thompson mean of one or more SPD matrices."""
    points = [read_spd(f) for f in files]
    result = inductive_mean(MeanProblem(points, opts=run.eigen))
    write_matrix(out, result.mean)
    outputs = {
        "mean_file": str(out),
        "rounds": result.rounds,
        "displacement": result.final_displacement,
        "residual": result.residual_norm,
        "certified": result.certified,
    }
    manifest = run.manifest("mean", list(files), outputs)
    outputs_with_time = dict(outputs, wall_time_ms=manifest["wall_time_ms"])
    with open(str(out) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    _emit(run, manifest, [json.dumps(outputs_with_time, sort_keys=True)])


@main.command()
@click.argument("file_x", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_y", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["extremes", "full"]), default="extremes",
              show_default=True)
@click.pass_obj
def spectrum(run, file_x, file_y, mode):
    """Extreme or full generalized spectrum of the pencil (Y, X)."""
    X = read_spd(file_x)
    Y = read_spd(file_y)
    if mode == "extremes":
        ext = extreme_pair(X, Y, run.eigen)
        outputs = {
            "alpha": ext.alpha,
            "beta": ext.beta,
            "residuals": list(ext.residuals),
            "iterations": list(ext.iterations),
            "proven": list(ext.proven),
            "backend": ext.backend,
        }
        lines = [
            f"alpha = {_fmt(ext.alpha)} (residual {ext.residuals[0]:.3e})",
            f"beta  = {_fmt(ext.beta)} (residual {ext.residuals[1]:.3e})",
        ]
    else:
        eigenvalues = spectrum_dense(X, Y, run.eigen).tolist()
        outputs = {"eigenvalues": eigenvalues}
        lines = [_fmt(v) for v in eigenvalues]
    manifest = run.manifest("spectrum", [file_x, file_y], outputs, {"mode": mode})
    _emit(run, manifest, lines)


if __name__ == "__main__":
    main()
