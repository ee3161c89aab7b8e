"""Batch command-line surface.

One subcommand per analysis: scan, reflect, series, zeros, count, order,
eigencount, witness, plus ``examples`` which writes re-runnable bundled
configs.  ``_COMMANDS`` declares each one once: its help, its handler and
its options.  An option is a flag and the key of the config's command block
that the flag overrides; ``main`` hands the handler the flag's value, else
the key's, else the option's default.  Tables go to stdout (or --output) as
CSV or JSON with numbers at 17 significant digits; runs are deterministic.
JSON is ``json.dumps(rows, indent=2)`` byte for byte, each row in one call
of the C encoder.

Exit codes: 0 success, 1 usage/config error, 2 degenerate (b identically
zero), 3 solver failure.

In process, ``main(argv)`` returns the exit code: usage, config and output
errors (an unwritable ``--output`` or ``--output-dir``) come back as codes,
not exceptions.  It builds the parser on its first call and reuses it on
every later one, since parsing leaves the parser unchanged; a one-shot
``ccscatter`` process builds it once, so the reuse costs it nothing.
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
from typing import Callable, NamedTuple

import numpy as np

from . import catalog, config as cfg, series, spectral, zeros
from .errors import ConfigError, DegenerateFunctionError, ScatterError, WitnessNotFoundError
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
    else:  # json.dumps(rows, indent=2), each row (of scalars) through the C encoder
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        body = ",\n".join("  {\n    " + encode(row)[1:-1] + "\n  }" for row in rows)
        text = f"[\n{body}\n]\n" if rows else "[]\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _complex(name: str, z) -> dict:
    """``z`` as the two columns <name>_re and <name>_im."""
    return {name + "_re": z.real, name + "_im": z.imag}


def _numbers(value, size: int | None = None) -> list[float]:
    if not isinstance(value, list) or size not in (None, len(value)):
        raise TypeError("expected a list of " + (f"{size} " if size else "") + "numbers")
    return [float(v) for v in value]


def _grid(spec, refuse: Callable[[str], Exception] = ValueError) -> list[float]:
    """Couplings from a list or {start, stop, count}: finite, non-empty, or refuse(reason)."""
    if isinstance(spec, dict):
        count = int(spec.get("count", 0))
        if count < 2:
            raise refuse("needs a count of at least 2")
        spec = np.linspace(float(spec["start"]), float(spec["stop"]), count).tolist()
    lams = _numbers(spec)
    if not lams or not np.all(np.isfinite(lams)):
        raise refuse("needs finite couplings")
    return lams


def _grid_text(flag: str, text: str) -> list[float]:
    """lo:hi:count or a comma list, read as the grid's config form."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            spec = {"start": float(lo), "stop": float(hi), "count": int(count)}
        else:
            spec = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"{flag} takes lo:hi:count or a comma list, not {text!r}") from None
    return _grid(spec, lambda reason: ValueError(f"{flag} {reason}, not {text!r}"))


def _interval_text(flag: str, text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ValueError(f"{flag} expects lo:hi, not {text!r}") from None
    return lo, hi


def _radii_text(flag: str, text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes a comma list of radii, not {text!r}") from None


def _real_problem(run: cfg.RunConfig):
    """Realify for the real-axis analyses, with a notice when it matters."""
    if run.problem.ref.u0_is_real:
        return run.problem
    print("note: reference solution realified for real-axis analysis", file=sys.stderr)
    return realify(run.problem)


# ---------------------------------------------------------------------------
# subcommands: each takes the loaded config, then its options' values


def _cmd_scan(run: cfg.RunConfig, lams: list[float]) -> list[dict]:
    lams = np.asarray(lams, dtype=complex)
    a, b, err = coefficients_batch(run.problem, lams)
    return [
        {**_complex("lambda", l), **_complex("a", av), **_complex("b", bv),
         "err": e, "method": "ode"}
        for l, av, bv, e in zip(lams.tolist(), a.tolist(), b.tolist(), err.tolist())
    ]


def _cmd_reflect(run: cfg.RunConfig, lams: list[float]) -> list[dict]:
    return [
        {"lambda": float(lam), **_complex("alpha", res.alpha), **_complex("beta", res.beta),
         "R": res.R, "flux_defect": res.flux_defect, "method": "ode"}
        for lam, res in zip(lams, reflection_batch(run.problem, lams))
    ]


def _cmd_series(run: cfg.RunConfig, lams: list[float], order: int) -> list[dict]:
    expansion = series.series_coefficients(run.problem, order)
    values = [series.evaluate_series(expansion, lam) for lam in lams]
    return [
        {**_complex("lambda", lam), **_complex("a", val.a), **_complex("b", val.b),
         "certified_err": val.err, "usable": int(val.is_usable()), "method": "series"}
        for lam, val in zip(lams, values)
    ]


def _cmd_zeros(run: cfg.RunConfig, interval, grid_points: int) -> list[dict]:
    report = zeros.real_zero_scan(_real_problem(run), interval, grid_points)
    if report.identically_zero:
        raise DegenerateFunctionError("b identically zero")
    return [
        {**_complex("zero", z), "multiplicity": mult, "residual": res, "method": "ode"}
        for z, mult, res in report.zeros
    ]


def _cmd_count(run: cfg.RunConfig, radii: list[float]) -> list[dict]:
    return [
        {"radius": r, "count": zeros.disk_zero_count(run.problem, r), "method": "ode"}
        for r in radii
    ]


def _cmd_order(run: cfg.RunConfig, radii: list[float]) -> list[dict]:
    fit = zeros.order_fit(run.problem, radii)
    return [
        {"radius": r, "count": c, "log_max_modulus": lm, "count_exponent": fit.count_exponent,
         "growth_exponent": fit.growth_exponent, "fit_residual": fit.fit_residual,
         "method": "ode"}
        for r, c, lm in zip(fit.radii, fit.counts, fit.log_max_modulus)
    ]


def _cmd_eigencount(run: cfg.RunConfig, lams: list[float]) -> list[dict]:
    problem = _real_problem(run)
    counts = spectral.negative_eigenvalue_counts(problem, lams, spectral.boundary_angles(problem))
    return [
        {"lambda": float(lam), "count": int(count),
         "boundary_degenerate": int(count.boundary_degenerate), "method": "prufer"}
        for lam, count in zip(lams, counts)
    ]


def _cmd_witness(run: cfg.RunConfig, lam: float, tents: int) -> list[dict]:
    problem = _real_problem(run)
    try:
        witness = spectral.tent_witness(problem, lam, tents)
    except WitnessNotFoundError as exc:
        print(f"witness: inconclusive ({exc})", file=sys.stderr)
        return []
    return [
        {"center": c, "epsilon": witness.epsilon, "rayleigh": q, "method": "tent"}
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


def _cmd_examples(_run: None, output_dir: str) -> list[dict]:
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, builder, command in _EXAMPLE_BUNDLE:
        path = out_dir / name
        path.write_text(cfg.config_to_text(builder(), command))
        rows.append({"name": name, "path": str(path)})
    return rows


# ---------------------------------------------------------------------------
# the command table


class _Option(NamedTuple):
    """A flag, the command-block key it overrides and the key's default.

    ``parse`` reads the key's value, and the flag's value once argparse's
    ``type`` has read it; where no ``type`` can, ``text(flag, text)`` reads
    the flag's text instead.
    """

    flag: str
    key: str | None
    default: object
    parse: Callable = str
    type: Callable | None = None
    text: Callable | None = None
    help: str | None = None

    def value(self, args: argparse.Namespace, cmd: str, block: dict):
        """The flag's value, else the key's (a rejected one is a ConfigError), else the default."""
        given = getattr(args, self.flag[2:].replace("-", "_"))
        if given is not None:
            return self.text(self.flag, given) if self.text else self.parse(given)
        if self.key not in block:
            return self.default
        try:
            return self.parse(block[self.key])
        except (TypeError, ValueError, KeyError) as exc:
            where = f"command.{cmd}.{self.key}"
            raise ConfigError(f"malformed value {block[self.key]!r}: {exc}", where) from None


class _Command(NamedTuple):
    help: str
    handler: Callable  # handler(run, *values of options), run None unless config
    options: tuple[_Option, ...]
    config: bool = True  # takes a problem configuration file


_LAMBDAS = _Option(
    "--lambdas", "lambdas", tuple(np.linspace(-5.0, 5.0, 21)), _grid,
    text=_grid_text, help="lo:hi:count or comma list",
)

_COMMANDS = {
    "scan": _Command("sweep (a, b) over a coupling grid", _cmd_scan, (_LAMBDAS,)),
    "reflect": _Command("reflection probability over real couplings", _cmd_reflect, (_LAMBDAS,)),
    "series": _Command("power-series evaluation with certified error", _cmd_series, (
        _LAMBDAS,
        _Option("--order", "N", 16, int, type=int, help="truncation order N"),
    )),
    "zeros": _Command("real zeros of b", _cmd_zeros, (
        _Option("--interval", "interval", (-50.0, 50.0), lambda v: _numbers(v, 2),
                text=_interval_text, help="lo:hi"),
        _Option("--grid-points", "grid_points", 400, int, type=int),
    )),
    "count": _Command("zeros of b in a disk", _cmd_count, (
        _Option("--radius", "radius", (50.0,),
                lambda r: _numbers(r if isinstance(r, list) else [r]), type=float),
    )),
    "order": _Command("growth and zero-count exponents", _cmd_order, (
        _Option("--radii", "radii", (1e2, 1e3, 1e4, 1e5), _numbers,
                text=_radii_text, help="comma list of increasing radii"),
    )),
    "eigencount": _Command(
        "negative eigenvalues under the u0 boundary angles", _cmd_eigencount, (_LAMBDAS,)
    ),
    "witness": _Command("tent-function minimax witness", _cmd_witness, (
        _Option("--coupling", "lambda", -1e4, float, type=float, help="coupling value"),
        _Option("--tents", "tents", 5, int, type=int, help="number of tents N"),
    )),
    "examples": _Command("write bundled example configs", _cmd_examples, (
        _Option("--output-dir", None, "ccscatter-examples"),
    ), config=False),
}


def _check_blocks(blocks: dict) -> None:
    """Refuse a command block that no config-reading subcommand owns, or a key
    that no option of its subcommand reads: either would be ignored."""
    for name, block in blocks.items():
        command = _COMMANDS.get(name)
        if command is None or not command.config:
            raise ConfigError("unknown block; no subcommand reads it", f"command.{name}")
        keys = sorted(option.key for option in command.options)
        for key in block:
            if key not in keys:
                where = f"command.{name}.{key}"
                raise ConfigError(f"unknown key; {name} reads only {', '.join(keys)}", where)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ccscatter", description="Coupling-constant scattering analysis on [0, 1]"
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="write the table to this path")
    # accept the output flags after the subcommand too; SUPPRESS keeps the
    # globally parsed value when the trailing flag is absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[common])
        if command.config:
            p.add_argument("config", help="problem configuration file")
        for option in command.options:
            p.add_argument(option.flag, type=option.type, help=option.help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.cmd]
    try:
        run, block = None, {}
        if command.config:
            run = cfg.load_config(args.config)
            _check_blocks(run.command)
            block = run.command.get(args.cmd, {})
        values = [option.value(args, args.cmd, block) for option in command.options]
        _emit(command.handler(run, *values), args.format, args.output)
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
