"""Batch command-line surface.

One subcommand per analysis: scan, reflect, series, zeros, count, order,
eigencount, witness, plus ``examples`` which writes re-runnable bundled
configs.  Tables go to stdout (or --output) as CSV or JSON with numbers at
17 significant digits; runs are deterministic.

Exit codes: 0 success, 1 usage/config error, 2 degenerate (b identically
zero), 3 solver failure.

In process, ``main(argv)`` returns the exit code: usage, config and output
errors (an unwritable ``--output`` or ``--output-dir``) come back as codes,
not exceptions.  It builds the parser on its first call and reuses it on
every later one, since parsing leaves the parser unchanged; a one-shot
``ccscatter`` process builds it once, as before.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog, config as cfg, series, spectral, zeros
from .errors import (
    ConfigError,
    DegenerateFunctionError,
    ScatterError,
    WitnessNotFoundError,
)
# reflection is unused here, but perfbench/tracing.py wraps cli.reflection by name
from .scattering import coefficients_batch, realify, reflection, reflection_batch  # noqa: F401


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(rows: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(_fmt(v) for v in row.values())
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


_SHORT_GRID = "coupling grids need at least 2 points"


def _read(run: cfg.RunConfig, cmd: str, key: str, default, convert):
    """command.<cmd>.<key> through convert (a rejected value is a ConfigError), or default."""
    block = run.command.get(cmd, {})
    if key not in block:
        return default
    try:
        return convert(block[key])
    except (TypeError, ValueError, KeyError) as exc:
        where = f"command.{cmd}.{key}"
        raise ConfigError(f"malformed value {block[key]!r}: {exc}", where) from None


def _numbers(value, size: int | None = None) -> list[float]:
    if not isinstance(value, list) or size not in (None, len(value)):
        raise TypeError("expected a list of " + (f"{size} " if size else "") + "numbers")
    return [float(v) for v in value]


def _grid(spec) -> list[float]:
    if not isinstance(spec, dict):
        return _numbers(spec)
    count = int(spec.get("count", 0))
    if count < 2:
        raise ValueError(_SHORT_GRID)
    return list(np.linspace(float(spec["start"]), float(spec["stop"]), count))


def _resolve_lambdas(flag: str | None, run: cfg.RunConfig, cmd: str) -> list[float]:
    if flag is None:
        return _read(run, cmd, "lambdas", list(np.linspace(-5.0, 5.0, 21)), _grid)
    try:
        if ":" not in flag:
            lams = [float(tok) for tok in flag.split(",") if tok]
        else:
            lo, hi, count = flag.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(
            f"--lambdas takes lo:hi:count or a comma list, not {flag!r}"
        ) from None
    if ":" in flag:
        if count < 2:
            raise ValueError(_SHORT_GRID)
        lams = list(np.linspace(lo, hi, count))
    if not lams or not np.all(np.isfinite(lams)):
        raise ValueError(f"--lambdas needs finite couplings, not {flag!r}")
    return lams


def _real_problem(run: cfg.RunConfig):
    """Realify for the real-axis analyses, with a notice when it matters."""
    if run.problem.ref.u0_is_real:
        return run.problem
    print(
        "note: reference solution realified for real-axis analysis",
        file=sys.stderr,
    )
    return realify(run.problem)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scan(run: cfg.RunConfig, args) -> list[dict]:
    lams = _resolve_lambdas(args.lambdas, run, "scan")
    a, b, err = coefficients_batch(run.problem, np.asarray(lams, dtype=complex))
    return [
        {
            "lambda_re": float(l.real),
            "lambda_im": float(l.imag),
            "a_re": float(av.real),
            "a_im": float(av.imag),
            "b_re": float(bv.real),
            "b_im": float(bv.imag),
            "err": float(e),
            "method": "ode",
        }
        for l, av, bv, e in zip(np.asarray(lams, dtype=complex), a, b, err)
    ]


def _cmd_reflect(run: cfg.RunConfig, args) -> list[dict]:
    lams = _resolve_lambdas(args.lambdas, run, "reflect")
    return [
        {
            "lambda": float(lam),
            "alpha_re": res.alpha.real,
            "alpha_im": res.alpha.imag,
            "beta_re": res.beta.real,
            "beta_im": res.beta.imag,
            "R": res.R,
            "flux_defect": res.flux_defect,
            "method": "ode",
        }
        for lam, res in zip(lams, reflection_batch(run.problem, lams))
    ]


def _cmd_series(run: cfg.RunConfig, args) -> list[dict]:
    order = args.order if args.order is not None else _read(run, "series", "N", 16, int)
    lams = _resolve_lambdas(args.lambdas, run, "series")
    expansion = series.series_coefficients(run.problem, order)
    rows = []
    for lam in lams:
        val = series.evaluate_series(expansion, lam)
        rows.append(
            {
                "lambda_re": float(complex(lam).real),
                "lambda_im": float(complex(lam).imag),
                "a_re": val.a.real,
                "a_im": val.a.imag,
                "b_re": val.b.real,
                "b_im": val.b.imag,
                "certified_err": val.err,
                "usable": int(val.is_usable()),
                "method": "series",
            }
        )
    return rows


def _cmd_zeros(run: cfg.RunConfig, args) -> list[dict]:
    if args.interval is not None:
        try:
            lo, hi = (float(tok) for tok in args.interval.split(":"))
        except ValueError:
            raise ValueError(f"--interval expects lo:hi, not {args.interval!r}") from None
    else:
        lo, hi = _read(run, "zeros", "interval", (-50.0, 50.0), lambda v: _numbers(v, 2))
    grid_points = args.grid_points
    if grid_points is None:
        grid_points = _read(run, "zeros", "grid_points", 400, int)
    report = zeros.real_zero_scan(_real_problem(run), (lo, hi), grid_points)
    if report.identically_zero:
        raise DegenerateFunctionError("b identically zero")
    return [
        {
            "zero_re": z.real,
            "zero_im": z.imag,
            "multiplicity": mult,
            "residual": res,
            "method": "ode",
        }
        for z, mult, res in report.zeros
    ]


def _cmd_count(run: cfg.RunConfig, args) -> list[dict]:
    if args.radius is not None:
        radii = [float(args.radius)]
    else:
        radii = _read(
            run, "count", "radius", [50.0], lambda r: _numbers(r if isinstance(r, list) else [r])
        )
    nodes = args.nodes if args.nodes is not None else _read(run, "count", "nodes", 64, int)
    return [
        {
            "radius": r,
            "count": zeros.disk_zero_count(run.problem, r, nodes),
            "method": "ode",
        }
        for r in radii
    ]


def _cmd_order(run: cfg.RunConfig, args) -> list[dict]:
    radii = (
        [float(tok) for tok in args.radii.split(",")]
        if args.radii
        else _read(run, "order", "radii", [1e2, 1e3, 1e4, 1e5], _numbers)
    )
    fit = zeros.order_fit(run.problem, radii)
    return [
        {
            "radius": r,
            "count": c,
            "log_max_modulus": lm,
            "count_exponent": fit.count_exponent,
            "growth_exponent": fit.growth_exponent,
            "fit_residual": fit.fit_residual,
            "method": "ode",
        }
        for r, c, lm in zip(fit.radii, fit.counts, fit.log_max_modulus)
    ]


def _cmd_eigencount(run: cfg.RunConfig, args) -> list[dict]:
    lams = _resolve_lambdas(args.lambdas, run, "eigencount")
    problem = _real_problem(run)
    counts = spectral.negative_eigenvalue_counts(problem, lams, spectral.boundary_angles(problem))
    return [
        {
            "lambda": float(lam),
            "count": int(count),
            "boundary_degenerate": int(count.boundary_degenerate),
            "method": "prufer",
        }
        for lam, count in zip(lams, counts)
    ]


def _cmd_witness(run: cfg.RunConfig, args) -> list[dict]:
    lam = args.coupling
    if lam is None:
        lam = _read(run, "witness", "lambda", -1e4, float)
    tents = args.tents if args.tents is not None else _read(run, "witness", "tents", 5, int)
    problem = _real_problem(run)
    try:
        witness = spectral.tent_witness(problem, lam, tents)
    except WitnessNotFoundError as exc:
        print(f"witness: inconclusive ({exc})", file=sys.stderr)
        return []
    return [
        {
            "center": c,
            "epsilon": witness.epsilon,
            "rayleigh": q,
            "method": "tent",
        }
        for c, q in zip(witness.centers, witness.rayleigh_values)
    ]


_EXAMPLE_BUNDLE = (
    ("delta_pair.json", catalog.delta_pair, {"scan": {"lambdas": {"start": -5.0, "stop": 5.0, "count": 41}}}),
    ("sine_well.json", catalog.sine_well, {
        "zeros": {"interval": [-5.0, 100.0], "grid_points": 400},
        "count": {"radius": 500.0},
        "order": {"radii": [1e2, 1e3, 1e4, 1e5]},
        "eigencount": {"lambdas": [0.0, 5.0 * math.pi**2, 35.0 * math.pi**2]},
    }),
    ("box_barrier.json", catalog.box_barrier, {
        "zeros": {"interval": [-50.0, 1.0], "grid_points": 400},
        "witness": {"lambda": -1e4, "tents": 5},
    }),
    ("noise_bed.json", catalog.noise_bed, {"series": {"N": 16}}),
    ("traveling_barrier.json", catalog.traveling_barrier, {
        "reflect": {"lambdas": {"start": -2.0, "stop": 2.0, "count": 21}},
    }),
)


def _cmd_examples(args) -> list[dict]:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, builder, command in _EXAMPLE_BUNDLE:
        path = out_dir / name
        path.write_text(cfg.config_to_text(builder(), command))
        rows.append({"name": name, "path": str(path)})
    return rows


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ccscatter",
        description="Coupling-constant scattering analysis on [0, 1]",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="write the table to this path")
    # accept the output flags after the subcommand too; SUPPRESS keeps the
    # globally parsed value when the trailing flag is absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default=argparse.SUPPRESS
    )
    common.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, help_text: str, needs_config: bool = True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if needs_config:
            p.add_argument("config", help="problem configuration file")
        return p

    p = add("scan", "sweep (a, b) over a coupling grid")
    p.add_argument("--lambdas", help="lo:hi:count or comma list")
    p = add("reflect", "reflection probability over real couplings")
    p.add_argument("--lambdas")
    p = add("series", "power-series evaluation with certified error")
    p.add_argument("--lambdas")
    p.add_argument("--order", type=int, help="truncation order N")
    p = add("zeros", "real zeros of b")
    p.add_argument("--interval", help="lo:hi")
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p = add("count", "zeros of b in a disk (argument principle)")
    p.add_argument("--radius", type=float)
    p.add_argument("--nodes", type=int)
    p = add("order", "growth and zero-count exponents")
    p.add_argument("--radii", help="comma list of increasing radii")
    p = add("eigencount", "negative eigenvalues under the u0 boundary angles")
    p.add_argument("--lambdas")
    p = add("witness", "tent-function minimax witness")
    p.add_argument("--coupling", type=float, help="coupling value")
    p.add_argument("--tents", type=int, help="number of tents N")
    p = add("examples", "write bundled example configs", needs_config=False)
    p.add_argument("--output-dir", default="ccscatter-examples")
    return parser


_HANDLERS = {
    "scan": _cmd_scan,
    "reflect": _cmd_reflect,
    "series": _cmd_series,
    "zeros": _cmd_zeros,
    "count": _cmd_count,
    "order": _cmd_order,
    "eigencount": _cmd_eigencount,
    "witness": _cmd_witness,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "examples":
            rows = _cmd_examples(args)
        else:
            run = cfg.load_config(args.config)
            rows = _HANDLERS[args.cmd](run, args)
        _emit(rows, args.format, args.output)
        return 0
    except OSError as exc:  # an unwritable --output or --output-dir
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # flag values the analyses reject
        return _Parser._fail(str(exc))
    except DegenerateFunctionError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    except ScatterError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
