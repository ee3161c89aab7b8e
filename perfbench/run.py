"""ccscatter benchmark runner: one closed-loop caller, one thread.

    python3 perfbench/run.py --workload varying_batch --seed 1 --seconds 20 --trace 0

Builds nothing: it imports ``ccscatter`` from the checkout's ``src``.  A
run measures set-up time in fresh interpreters (``--trace 0`` only), warms
each call kind once, then repeats passes of the workload for ``--seconds``
with tracing off, checking every result.  With ``--trace 1`` it finishes
with one traced pass and reports the per-layer metrics instead of the
end-to-end ones.  Human-readable tables go to stdout; the last stdout line
is the JSON result.  Exit status is 0 only when every operation passed its
check.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
TRACED_INPUTS = 1  # the traced pass repeats the inputs of the first timed pass

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scan_couplings_per_s", "1/s"),
    ("zeros_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Recorder:
    """Durations, couplings and failures of the operations of a run."""

    def __init__(self, cal=None):
        self.cal = cal
        self.passes: list[list[tuple]] = []  # per pass: (kind, seconds, couplings)
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, ops, record: bool = True) -> float:
        """Run ops in order; returns the summed call time of the pass.

        With a calibration, a chunk runs after every ``cal.interval``
        seconds of calls and at the end of the pass.
        """
        cal = self.cal
        rows = []
        since = 0.0
        for op in ops:
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                elapsed = time.perf_counter() - start
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - start
                problem = op.check(result)
            rows.append((op.kind, elapsed, op.couplings))
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")
            since += elapsed
            if cal and (since >= cal.interval or op is ops[-1]):
                cal.chunk()
                since = 0.0
        if record:
            self.passes.append(rows)
        return sum(r[1] for r in rows)

    def pass_walls(self) -> list[float]:
        return [sum(r[1] for r in rows) for rows in self.passes]

    def call_times(self, kind) -> list[float]:
        return [r[1] for rows in self.passes for r in rows if r[0] == kind]


def _tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def _describe(name: str, unit: str, samples: list[float], scale: float = 1.0) -> str:
    med = statistics.median(samples) * scale
    tail = _tail(samples)
    tail_text = f"p{tail[0]} {tail[1] * scale:.6g}" if tail else "p- (under 11 samples)"
    return f"  {name:<22} {med:>14.6g} {unit:<6} median; {tail_text}; n={len(samples)}"


def _measure_setup(workload: str, config_dir: Path, cal) -> list[float]:
    """Wall times of fresh interpreters doing the workload's set-up.

    A calibration chunk runs before and after each probe.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(config_dir)]
    samples = []
    cal.chunk()
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL, cwd=bootstrap.ROOT)
        elapsed = time.perf_counter() - start
        cal.chunk()
        if i:  # the first one only warms the file cache and bytecode
            samples.append(elapsed)
    return samples


def _timed_passes(wl, workload, ctx, seed, seconds, rec: Recorder) -> None:
    start = time.perf_counter()
    if rec.cal:
        rec.cal.chunk()
    index = 0
    while True:
        index += 1
        ops = wl.make_ops(workload, ctx, wl.make_inputs(workload, seed, index))
        rec.run_pass(ops)
        elapsed = time.perf_counter() - start
        expected = elapsed / len(rec.passes)
        if len(rec.passes) >= MIN_PASSES and elapsed + expected > seconds:
            return


def _median_pass(rec: Recorder) -> list[tuple]:
    """Each operation's median duration over the passes, in pass order.

    Every pass runs the same operations (kind and couplings) in the same
    order, so a transient slowdown of one call in one pass drops out.
    """
    first = rec.passes[0]
    return [
        (kind, statistics.median(rows[k][1] for rows in rec.passes), couplings)
        for k, (kind, _, couplings) in enumerate(first)
    ]


def _pass_metrics(wl, ops) -> dict:
    coeff = [op for op in ops if op[0] == "coeff"]
    zeros = [op for op in ops if op[0] in wl.ZEROS_KINDS]
    return {
        "wall_s": sum(op[1] for op in ops),
        "scan_couplings_per_s": sum(op[2] for op in coeff) / sum(op[1] for op in coeff),
        "zeros_ms": 1e3 * sum(op[1] for op in zeros) / len(zeros),
    }


def _end_to_end(wl, rec: Recorder, setup: list[float]) -> tuple[dict, list[str]]:
    raw = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw.update(_pass_metrics(wl, _median_pass(rec)))
    factor = rec.cal.factor()
    scale = {"s": 1.0 / factor, "ms": 1.0 / factor, "1/s": factor, "MB": 1.0}
    values = {name: raw[name] * scale[unit] for name, unit in END_TO_END}
    samples = rec.cal.samples
    lines = [
        f"speed factor {factor:.4f} ({len(samples)} calibration chunks, median "
        f"{statistics.median(samples):.4f} s, reference {rec.cal.reference} s)",
        "end-to-end metrics (tracing off), at reference speed and raw:",
    ]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<22} {values[name]:>14.6g} {unit:<4} raw {raw[name]:.6g}")
    lines.append("raw samples:")
    lines.append(_describe("setup_s", "s", setup))
    lines.append(_describe("pass wall_s", "s", rec.pass_walls()))
    lines.append("time per call of each analysis (all passes, raw):")
    for kind in wl.ANALYSIS_KINDS:
        samples = rec.call_times(kind)
        if samples:
            lines.append(_describe(f"{kind}_ms", "ms", samples, 1e3))
    return values, lines


def _traced_pass(wl, tracing, workload, ctx, seed, rec: Recorder, out: Path):
    """One pass with tracing on, over the inputs of the first timed pass.

    The overhead compares it with the median untraced pass: a single pair
    of passes is too noisy on a shared machine.
    """
    untraced_wall = statistics.median(rec.pass_walls())
    tracer = tracing.Tracer()
    ops = wl.make_ops(workload, ctx, wl.make_inputs(workload, seed, TRACED_INPUTS))
    tracer.install()
    try:
        wall = rec.run_pass(ops, record=False)
    finally:
        tracer.uninstall()
    tracer.write(out)
    metrics = tracer.layer_metrics(wall)
    metrics["trace.overhead"] = wall / untraced_wall
    lines = [f"per-layer metrics (one traced pass, spans in {out}):"]
    values = {}
    for name, unit in tracing.PER_LAYER:
        values[name] = metrics[name]
        lines.append(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    return values, lines


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bootstrap.use_source_tree()
    except (bootstrap.SourceTreeMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import calibration
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {wl.WORKLOADS}", file=sys.stderr)
        return 2
    bootstrap.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bootstrap.OUT))
    try:
        ctx = wl.make_context(args.workload, scratch / "configs")
        cal = None if args.trace else calibration.Calibration()
        if cal is not None:
            setup = _measure_setup(args.workload, scratch / "configs", cal)
        Recorder().run_pass(wl.warmup_ops(args.workload, ctx), record=False)
        rec = Recorder(cal)
        _timed_passes(wl, args.workload, ctx, args.seed, args.seconds, rec)
        if args.trace:
            out = bootstrap.OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, lines = _traced_pass(wl, tracing, args.workload, ctx, args.seed, rec, out)
            units = dict(tracing.PER_LAYER)
        else:
            metrics, lines = _end_to_end(wl, rec, setup)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(rec.failures)
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rec.passes)} timed passes")
    print("\n".join(lines))
    print(f"  {'failed_ratio':<22} {failed / rec.attempted:>14.6g} ({failed} of {rec.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
