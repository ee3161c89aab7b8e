"""The three benchmark workloads: seeded inputs, operations and checks.

A workload is a fixed list of operations per pass.  The seed only drives
coupling draws; problems, radii and intervals are fixed.  Pass ``i`` of a
run with seed ``s`` draws its couplings from ``default_rng([s, i])``, so a
pass's inputs do not depend on how many passes ran before it.

Every operation calls the library through module attributes at call time
(``scattering.coefficients_batch`` and so on), so the wrappers that the
traced run installs see each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ccscatter import catalog, cli, config, scattering, spectral, zeros

import oracle

WORKLOADS = ("varying_batch", "varying_scalar", "constant_cli")

# varying_batch: batched scans on circles, disk counts and order fits
VARYING = ("ramp_well", "tilted_background")
SCAN_RADII = (1e2, 1e3, 1e4)
SCAN_POOL = 64  # pinned phases per circle
SCAN_BATCH = 16  # couplings per scan call: one per stratum of 4 pool phases
DISK_RADII = {"ramp_well": (1e2, 1e3), "tilted_background": (1e2, 1e3, 1e4)}
ORDER_RADII = {
    "ramp_well": (1e2, 3e2, 1e3, 3e3),
    "tilted_background": (1e2, 1e3, 1e4, 1e5),
}

# varying_scalar: one-coupling calls on the real axis
REAL_POOL = 160  # pinned couplings -400 + 5 (j + 1/2)
REAL_DRAWS = 16  # single coefficients calls per problem, one per stratum
EIGEN_RANGE = (-400.0, 400.0)
EIGEN_DRAWS = 8  # eigencounts per problem, one per stratum
ZERO_SCANS = {
    "ramp_well": ((-5.0, 120.0), 100),
    "tilted_background": ((-5.0, 300.0), 100),
}

# constant_cli: the bundled configs through cli.main
CONFIGS = (
    "delta_pair.json",
    "sine_well.json",
    "box_barrier.json",
    "noise_bed.json",
    "traveling_barrier.json",
)
CLI_SCAN_GRIDS = {
    "delta_pair.json": (-5.0, 5.0),
    "sine_well.json": (-50.0, 50.0),
    "box_barrier.json": (-50.0, 50.0),
    "noise_bed.json": (-50.0, 50.0),
    "traveling_barrier.json": (-50.0, 50.0),
}
CLI_DRAWS = 16
CLI_COUNT_RANGE = (50.0, 2000.0)  # one seeded disk radius per config below
CLI_COUNT_CONFIGS = ("sine_well.json", "box_barrier.json")
CLI_REFLECT_RANGE = (-2.0, 2.0)
CLI_EIGEN_RANGE = (0.0, 400.0)
CLI_EIGEN_DRAWS = 8
CLI_ROUNDS = 4  # seeded commands per pass, each round with fresh draws
WITNESS_INCONCLUSIVE = ("sine_well.json", -300.0, 3)

ANALYSIS_KINDS = (
    "coeff", "reflect", "series", "real_zeros", "count", "order", "eigencount", "witness",
)
ZEROS_KINDS = ("real_zeros", "count", "order")  # the calls zeros_ms averages

# tolerances (see README.md, "Correctness checks")
CLOSED_FORM_RTOL = 1e-8  # acceptance criterion 1
LOG_MAX_ATOL = 1e-9  # acceptance criterion 5, against a closed form
PINNED_LOG_MAX_ATOL = 1e-8  # ten times the library's contour rtol
EXPONENT_ATOL = 1e-8
ZERO_RTOL = 1e-8  # zero locations, relative to 1 + |z|
REFLECT_ATOL = 1e-9  # acceptance criterion 8
FLUX_ATOL = 1e-10


def scan_coupling(radius: float, j: int) -> complex:
    return radius * complex(math.cos(2 * math.pi * (j + 0.5) / SCAN_POOL),
                            math.sin(2 * math.pi * (j + 0.5) / SCAN_POOL))


def real_coupling(j: int) -> float:
    return -400.0 + 5.0 * (j + 0.5)


@dataclass
class Op:
    """One timed library or CLI call and the check of its result."""

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    couplings: int = 0


@dataclass
class Context:
    """What set-up builds once per run: problems, angles, config paths."""

    problems: dict = field(default_factory=dict)
    angles: dict = field(default_factory=dict)
    config_dir: Path | None = None


# ---------------------------------------------------------------------------
# seeded inputs


def _stratified_indices(rng, pool: int, draws: int) -> list[int]:
    width = pool // draws
    return [int(k * width + rng.integers(width)) for k in range(draws)]


def _stratified_values(rng, lo, hi, draws, avoid=(), margin=1e-6) -> list[float]:
    """One uniform draw per stratum, redrawn while within margin of avoid."""
    width = (hi - lo) / draws
    out = []
    for k in range(draws):
        while True:
            x = float(lo + width * (k + rng.random()))
            if all(abs(x - a) > margin * (1.0 + abs(a)) for a in avoid):
                break
        out.append(x)
    return out


def _zero_moduli(cfg: str, radius: float) -> list[float]:
    """|z| of the zeros of b in |lam| <= radius (all real for these configs)."""
    if cfg == "sine_well.json":
        return oracle.sine_well_zeros(0.0, radius)
    return [-z for z in oracle.box_barrier_zeros(-radius, 0.0)]


def _disk_count(cfg: str, radius: float) -> int:
    return len(_zero_moduli(cfg, radius))


def make_inputs(workload: str, seed: int, pass_index: int) -> dict:
    """Coupling draws of one pass: plain numbers, a function of its arguments."""
    rng = np.random.default_rng([seed, pass_index])
    if workload == "varying_batch":
        return {
            name: {
                str(r): _stratified_indices(rng, SCAN_POOL, SCAN_BATCH)
                for r in SCAN_RADII
            }
            for name in VARYING
        }
    if workload == "varying_scalar":
        real_zeros = oracle.pinned()["real_zeros"]
        return {
            name: {
                "eigen": _stratified_values(
                    rng, *EIGEN_RANGE, EIGEN_DRAWS, real_zeros[name], 1e-3
                ),
                "coeff": _stratified_indices(rng, REAL_POOL, REAL_DRAWS),
            }
            for name in VARYING
        }
    if workload == "constant_cli":
        sine_marks = oracle.sine_well_zeros(*CLI_EIGEN_RANGE)
        return {"rounds": [{
            "scan": {
                cfg: sorted(_stratified_values(rng, lo, hi, CLI_DRAWS))
                for cfg, (lo, hi) in CLI_SCAN_GRIDS.items()
            },
            # radii keep 5 % away from the moduli of zeros, off the contour
            "count": {
                cfg: _stratified_values(
                    rng, *CLI_COUNT_RANGE, 1, _zero_moduli(cfg, 1.1 * CLI_COUNT_RANGE[1]), 0.05
                )[0]
                for cfg in CLI_COUNT_CONFIGS
            },
            "reflect": _stratified_values(rng, *CLI_REFLECT_RANGE, CLI_DRAWS),
            "eigencount": _stratified_values(
                rng, *CLI_EIGEN_RANGE, CLI_EIGEN_DRAWS, sine_marks, 1e-3
            ),
        } for _ in range(CLI_ROUNDS)]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# set-up


def make_context(workload: str, config_dir: Path, *, write: bool = True) -> Context:
    """Build the problems (varying workloads) or load the bundled configs.

    With ``write`` the configs are first written by ``ccscatter examples``.
    """
    ctx = Context()
    if workload == "constant_cli":
        ctx.config_dir = config_dir
        if write:
            code, _, err = run_cli(["examples", "--output-dir", str(config_dir)])
            if code != 0:
                raise RuntimeError(f"ccscatter examples exited {code}: {err.strip()}")
        for name in CONFIGS:
            ctx.problems[name] = config.load_config(config_dir / name).problem
    else:
        for name in VARYING:
            problem = getattr(catalog, name)()
            ctx.problems[name] = problem
            ctx.angles[name] = spectral.boundary_angles(problem)
    return ctx


# ---------------------------------------------------------------------------
# checks


def _close(got: complex, want: complex, tol: float) -> bool:
    return bool(abs(got - want) <= tol)


def _check_pinned_coefficients(a, b, err, pinned_rows) -> str | None:
    """Values within the sum of the reported and the pinned error estimates."""
    for i, (ai, bi, ei, row) in enumerate(zip(a, b, err, pinned_rows)):
        pa = complex(row[0], row[1])
        pb = complex(row[2], row[3])
        tol = float(ei) + row[4]
        if not (_close(ai, pa, tol) and _close(bi, pb, tol)):
            return (
                f"coupling {i}: (a, b) = ({complex(ai):.17g}, {complex(bi):.17g}), "
                f"pinned ({pa:.17g}, {pb:.17g}), tolerance {tol:.3g}"
            )
    return None


def _check_equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _check_zero_list(got, want) -> str | None:
    """Zero reports against [(location, multiplicity), ...]."""
    if len(got) != len(want):
        return f"{len(got)} zeros, expected {len(want)}: {got}"
    for (z, mult), (wz, wmult) in zip(got, want):
        if mult != wmult or not _close(z, wz, ZERO_RTOL * (1.0 + abs(wz))):
            return f"zero {z!r} (multiplicity {mult}), expected {wz!r} ({wmult})"
    return None


def _check_order_fit(fit, want) -> str | None:
    if list(fit.counts) != want["counts"]:
        return f"counts {list(fit.counts)}, expected {want['counts']}"
    for got, exp in zip(fit.log_max_modulus, want["log_max"]):
        if abs(got - exp) > PINNED_LOG_MAX_ATOL:
            return f"log max modulus {got!r}, expected {exp!r}"
    for key in ("count_exponent", "growth_exponent"):
        if abs(getattr(fit, key) - want[key]) > EXPONENT_ATOL:
            return f"{key} {getattr(fit, key)!r}, expected {want[key]!r}"
    return None


# ---------------------------------------------------------------------------
# varying_batch


def _varying_batch_ops(ctx: Context, inputs: dict) -> list[Op]:
    pins = oracle.pinned()
    ops = []
    for name in VARYING:
        p = ctx.problems[name]
        for r in SCAN_RADII:
            idx = inputs[name][str(r)]
            lams = np.array([scan_coupling(r, j) for j in idx])
            rows = [pins["scan_pool"][name][str(r)][j] for j in idx]
            ops.append(
                Op(
                    "coeff",
                    f"{name} scan |lam|={r:g}",
                    lambda p=p, lams=lams: scattering.coefficients_batch(p, lams),
                    lambda res, rows=rows: _check_pinned_coefficients(*res, rows),
                    couplings=len(lams),
                )
            )
        for r in DISK_RADII[name]:
            want = pins["disk_counts"][name][str(r)]
            ops.append(
                Op(
                    "count",
                    f"{name} disk count r={r:g}",
                    lambda p=p, r=r: zeros.disk_zero_count(p, r),
                    lambda got, want=want: _check_equal(got, want, "disk count"),
                )
            )
        ops.append(
            Op(
                "order",
                f"{name} order fit",
                lambda p=p, radii=ORDER_RADII[name]: zeros.order_fit(p, radii),
                lambda fit, want=pins["order_fits"][name]: _check_order_fit(fit, want),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# varying_scalar


def _expected_eigencount(real_zeros, lam: float) -> int:
    # V < 0 on both problems, so the count rises by one exactly at each
    # zero of b (where zero is an eigenvalue); b(0) = 0 is structural
    return sum(1 for z in real_zeros if z < lam)


def _check_eigencount(count, want: int) -> str | None:
    if int(count) != want or count.boundary_degenerate:
        return f"count {int(count)} (degenerate {count.boundary_degenerate}), expected {want}"
    return None


def _varying_scalar_ops(ctx: Context, inputs: dict) -> list[Op]:
    pins = oracle.pinned()
    ops = []
    for name in VARYING:
        p = ctx.problems[name]
        interval, grid = ZERO_SCANS[name]
        want_zeros = [(complex(z), m) for z, m in pins["zero_scans"][name]]
        ops.append(
            Op(
                "real_zeros",
                f"{name} real zero scan {interval}",
                lambda p=p, interval=interval, grid=grid: zeros.real_zero_scan(
                    p, interval, grid
                ),
                lambda rep, want=want_zeros: _check_zero_list(
                    [(z, m) for z, m, _ in rep.zeros], want
                ),
            )
        )
        angles = ctx.angles[name]
        for lam in inputs[name]["eigen"]:
            want = _expected_eigencount(pins["real_zeros"][name], lam)
            ops.append(
                Op(
                    "eigencount",
                    f"{name} eigencount lam={lam:.6g}",
                    lambda p=p, lam=lam, angles=angles: spectral.negative_eigenvalue_count(
                        p, lam, angles
                    ),
                    lambda got, want=want: _check_eigencount(got, want),
                )
            )
        for j in inputs[name]["coeff"]:
            row = pins["real_pool"][name][j]
            ops.append(
                Op(
                    "coeff",
                    f"{name} coefficients lam={real_coupling(j):g}",
                    lambda p=p, lam=real_coupling(j): scattering.coefficients(p, lam),
                    lambda c, row=row: _check_pinned_coefficients(
                        [c.a], [c.b], [c.err], [row]
                    ),
                    couplings=1,
                )
            )
    return ops


# ---------------------------------------------------------------------------
# constant_cli


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process with captured standard streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rows(result) -> list[dict]:
    code, out, err = result
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.strip()}")
    return json.loads(out)


def _check_cli(result, check: Callable[[list[dict]], str | None]) -> str | None:
    try:
        rows = _rows(result)
    except (RuntimeError, json.JSONDecodeError) as exc:
        return str(exc)
    return check(rows)


def _check_scan_rows(rows, problem, lams) -> str | None:
    if len(rows) != len(lams):
        return f"{len(rows)} rows for {len(lams)} couplings"
    for row, lam in zip(rows, lams):
        got_lam = complex(row["lambda_re"], row["lambda_im"])
        if got_lam != complex(lam):
            return f"row coupling {got_lam!r}, expected {lam!r}"
        want_a, want_b = oracle.exact_coefficients(problem, lam)
        for got, want in (
            (complex(row["a_re"], row["a_im"]), want_a),
            (complex(row["b_re"], row["b_im"]), want_b),
        ):
            tol = row["err"] + CLOSED_FORM_RTOL * max(1.0, abs(want))
            if not _close(got, want, tol):
                return f"lam={lam!r}: {got!r}, closed form {want!r}"
    return None


def _check_reflect_rows(rows, problem, lams) -> str | None:
    if len(rows) != len(lams):
        return f"{len(rows)} rows for {len(lams)} couplings"
    k = problem.ref.k_tag
    for row, lam in zip(rows, lams):
        alpha, beta = oracle.exact_reflection(problem, lam)
        got_alpha = complex(row["alpha_re"], row["alpha_im"])
        got_beta = complex(row["beta_re"], row["beta_im"])
        if not (
            _close(got_alpha, alpha, REFLECT_ATOL * max(1.0, abs(alpha)))
            and _close(got_beta, beta, REFLECT_ATOL * max(1.0, abs(beta)))
        ):
            return f"lam={lam!r}: amplitudes ({got_alpha!r}, {got_beta!r}), closed form ({alpha!r}, {beta!r})"
        want_r = oracle.barrier_reflection_probability(k, lam)
        if abs(row["R"] - want_r) > REFLECT_ATOL:
            return f"lam={lam!r}: R {row['R']!r}, mode matching {want_r!r}"
        if not row["flux_defect"] <= FLUX_ATOL:
            return f"lam={lam!r}: flux defect {row['flux_defect']!r}"
    return None


def _check_series_rows(rows, problem, lams) -> str | None:
    if len(rows) != len(lams):
        return f"{len(rows)} rows for {len(lams)} couplings"
    for row, lam in zip(rows, lams):
        want_a, want_b = oracle.exact_coefficients(problem, lam)
        got_a = complex(row["a_re"], row["a_im"])
        got_b = complex(row["b_re"], row["b_im"])
        cert = row["certified_err"]
        if not (_close(got_a, want_a, cert) and _close(got_b, want_b, cert)):
            return f"lam={lam!r}: series ({got_a!r}, {got_b!r}) outside certificate {cert:.3g} of ({want_a!r}, {want_b!r})"
        if row["usable"] != 1:
            return f"lam={lam!r}: series value flagged unusable"
    return None


def _check_zero_rows(rows, want_zeros) -> str | None:
    got = [(complex(r["zero_re"], r["zero_im"]), r["multiplicity"]) for r in rows]
    return _check_zero_list(got, [(complex(z), 1) for z in want_zeros])


def _check_count_rows(rows, radius, want) -> str | None:
    return _check_equal([(r["radius"], r["count"]) for r in rows], [(radius, want)], "disk count")


def _check_order_rows(rows, radii) -> str | None:
    want_counts = [_disk_count("sine_well.json", r) for r in radii]
    want_logs = [oracle.sine_well_log_max(r) for r in radii]
    if [r["radius"] for r in rows] != list(radii):
        return f"radii {[r['radius'] for r in rows]}"
    if [r["count"] for r in rows] != want_counts:
        return f"counts {[r['count'] for r in rows]}, closed form {want_counts}"
    for row, want in zip(rows, want_logs):
        if abs(row["log_max_modulus"] - want) > LOG_MAX_ATOL:
            return f"log max modulus {row['log_max_modulus']!r}, closed form {want!r}"
    log_r = [math.log(r) for r in radii]
    want_count_exp = oracle.least_squares_slope(log_r, [math.log(max(c, 1)) for c in want_counts])
    want_growth_exp = oracle.least_squares_slope(log_r, [math.log(v) for v in want_logs])
    for key, want in (("count_exponent", want_count_exp), ("growth_exponent", want_growth_exp)):
        if abs(rows[0][key] - want) > EXPONENT_ATOL:
            return f"{key} {rows[0][key]!r}, closed form {want!r}"
    return None


def _check_eigencount_rows(rows, lams) -> str | None:
    if len(rows) != len(lams):
        return f"{len(rows)} rows for {len(lams)} couplings"
    for row, lam in zip(rows, lams):
        want = oracle.sine_well_negative_count(lam)
        marks = oracle.sine_well_zeros(lam - 1.0, lam + 1.0)
        degenerate = int(any(abs(m - lam) <= 1e-6 * (1.0 + abs(lam)) for m in marks))
        if (row["count"], row["boundary_degenerate"]) != (want, degenerate):
            return f"lam={lam!r}: count {row['count']} (degenerate {row['boundary_degenerate']}), closed form {want} ({degenerate})"
    return None


def _check_witness_rows(rows, lam, tents, want) -> str | None:
    if [r["center"] for r in rows] != want["centers"]:
        return f"centers {[r['center'] for r in rows]}, pinned {want['centers']}"
    for row in rows:
        eps = row["epsilon"]
        # box_barrier: Q = 0, V = 1 on [0, 1], unit-norm tents inside
        rayleigh = 3.0 / (eps * eps) + lam
        if eps != want["epsilon"] or abs(row["rayleigh"] - rayleigh) > 1e-9 * abs(rayleigh):
            return f"tent ({eps!r}, {row['rayleigh']!r}), expected ({want['epsilon']!r}, {rayleigh!r})"
    return _check_equal(len(rows), tents, "tents")


def _check_inconclusive(result) -> str | None:
    code, out, err = result
    if code != 0 or json.loads(out) != [] or "inconclusive" not in err:
        return f"expected an inconclusive witness, got exit {code}, {out.strip()!r}, {err.strip()!r}"
    return None


def _grid(start: float, stop: float, count: int) -> list[float]:
    """A config block's coupling grid, as the CLI expands it."""
    return [float(v) for v in np.linspace(start, stop, count)]


def _lambda_flag(values) -> str:
    return "--lambdas=" + ",".join(repr(float(v)) for v in values)


def _cli_op(kind, label, argv, check_rows, couplings=0) -> Op:
    return Op(
        kind,
        label,
        lambda argv=argv: run_cli(["--format", "json", *argv]),
        lambda result: _check_cli(result, check_rows),
        couplings=couplings,
    )


def _constant_cli_ops(ctx: Context, inputs: dict) -> list[Op]:
    """Every config-block command once, then rounds of seeded commands.

    The rounds give the millisecond-scale commands enough samples; each
    round draws its own couplings and radii, so no call repeats another.
    """
    d = ctx.config_dir
    probs = ctx.problems
    pins = oracle.pinned()["cli"]
    sine = str(d / "sine_well.json")
    box = str(d / "box_barrier.json")
    travel = str(d / "traveling_barrier.json")
    scan_block = _grid(-5.0, 5.0, 41)
    eigen_block = [0.0, 5.0 * math.pi**2, 35.0 * math.pi**2]
    series_block = _grid(-5.0, 5.0, 21)
    reflect_block = _grid(-2.0, 2.0, 21)
    ops = [
        _cli_op(
            "coeff", "scan delta_pair (config block)", ["scan", str(d / "delta_pair.json")],
            lambda rows: _check_scan_rows(rows, probs["delta_pair.json"], scan_block),
            couplings=len(scan_block),
        ),
        _cli_op(
            "real_zeros", "zeros sine_well (config block)", ["zeros", sine],
            lambda rows: _check_zero_rows(rows, oracle.sine_well_zeros(-5.0, 100.0)),
        ),
        _cli_op(
            "count", "count sine_well (config block)", ["count", sine],
            lambda rows: _check_count_rows(rows, 500.0, _disk_count("sine_well.json", 500.0)),
        ),
        _cli_op(
            "order", "order sine_well (config block)", ["order", sine],
            lambda rows: _check_order_rows(rows, (1e2, 1e3, 1e4, 1e5)),
        ),
        _cli_op(
            "eigencount", "eigencount sine_well (config block)", ["eigencount", sine],
            lambda rows: _check_eigencount_rows(rows, eigen_block),
        ),
        _cli_op(
            "real_zeros", "zeros box_barrier (config block)", ["zeros", box],
            lambda rows: _check_zero_rows(rows, oracle.box_barrier_zeros(-50.0, 1.0)),
        ),
        _cli_op(
            "witness", "witness box_barrier (config block)", ["witness", box],
            lambda rows: _check_witness_rows(rows, -1e4, 5, pins["box_witness"]),
        ),
        _cli_op(
            "series", "series noise_bed (config block)", ["series", str(d / "noise_bed.json")],
            lambda rows: _check_series_rows(rows, probs["noise_bed.json"], series_block),
        ),
        _cli_op(
            "reflect", "reflect traveling_barrier (config block)", ["reflect", travel],
            lambda rows: _check_reflect_rows(rows, probs["traveling_barrier.json"], reflect_block),
        ),
    ]
    for draws in inputs["rounds"]:
        for cfg, lams in draws["scan"].items():
            ops.append(_cli_op(
                "coeff", f"scan {cfg} (seeded)", ["scan", str(d / cfg), _lambda_flag(lams)],
                lambda rows, cfg=cfg, lams=lams: _check_scan_rows(rows, probs[cfg], lams),
                couplings=len(lams),
            ))
        for cfg, radius in draws["count"].items():
            ops.append(_cli_op(
                "count", f"count {cfg} (seeded)", ["count", str(d / cfg), f"--radius={radius!r}"],
                lambda rows, cfg=cfg, radius=radius: _check_count_rows(rows, radius, _disk_count(cfg, radius)),
            ))
        lams = draws["eigencount"]
        ops.append(_cli_op(
            "eigencount", "eigencount sine_well (seeded)", ["eigencount", sine, _lambda_flag(lams)],
            lambda rows, lams=lams: _check_eigencount_rows(rows, lams),
        ))
        lams = draws["reflect"]
        ops.append(_cli_op(
            "reflect", "reflect traveling_barrier (seeded)", ["reflect", travel, _lambda_flag(lams)],
            lambda rows, lams=lams: _check_reflect_rows(rows, probs["traveling_barrier.json"], lams),
        ))
    cfg, lam, tents = WITNESS_INCONCLUSIVE
    argv = ["--format", "json", "witness", str(d / cfg), f"--coupling={lam!r}", "--tents", str(tents)]
    ops.append(Op(
        "witness", f"witness {cfg} --coupling {lam:g} --tents {tents} (inconclusive)",
        lambda: run_cli(argv), _check_inconclusive,
    ))
    return ops


def make_ops(workload: str, ctx: Context, inputs: dict) -> list[Op]:
    ops_for = {
        "varying_batch": _varying_batch_ops,
        "varying_scalar": _varying_scalar_ops,
        "constant_cli": _constant_cli_ops,
    }
    return ops_for[workload](ctx, inputs)


def warmup_ops(workload: str, ctx: Context) -> list[Op]:
    """A light call of each kind, so lazy set-up and caches are warm."""
    if workload == "constant_cli":
        d = ctx.config_dir
        argvs = [
            ["scan", str(d / "delta_pair.json")],
            ["zeros", str(d / "sine_well.json"), "--grid-points", "16"],
            ["count", str(d / "sine_well.json"), "--radius", "50"],
            ["eigencount", str(d / "sine_well.json"), "--lambdas", "1,2"],
            ["series", str(d / "noise_bed.json"), "--order", "4"],
            ["reflect", str(d / "traveling_barrier.json"), "--lambdas", "1,2"],
            ["witness", str(d / "box_barrier.json")],
        ]
        return [Op("warmup", " ".join(a[:1]), lambda a=a: run_cli(["--format", "json", *a]),
                   lambda res: None if res[0] == 0 else f"exit {res[0]}") for a in argvs]
    ops = []
    for name in VARYING:
        p = ctx.problems[name]
        ops.append(Op("warmup", f"{name} coefficients",
                      lambda p=p: scattering.coefficients_batch(p, [10.0, 10j]), lambda _: None))
        ops.append(Op("warmup", f"{name} eigencount",
                      lambda p=p, a=ctx.angles[name]: spectral.negative_eigenvalue_count(p, 10.0, a),
                      lambda _: None))
    p = ctx.problems["tilted_background"]
    ops.append(Op("warmup", "disk count", lambda: zeros.disk_zero_count(p, 50.0), lambda _: None))
    ops.append(Op("warmup", "zero scan", lambda: zeros.real_zero_scan(p, (-5.0, 20.0), 16), lambda _: None))
    return ops
