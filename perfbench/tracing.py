"""Per-layer tracing from outside the library.

The traced run wraps the public entry points of each layer (and the copies
other modules bound by name at import time) with a recorder.  A span opens
at each layer boundary: a wrapped call whose caller is in another layer,
or is the benchmark itself.  Calls inside the same layer only update
counters and the frame stack that attributes them.  Spans stay in memory as
``[name, layer, start, end, parent, calls, covered]`` rows and are written
out when the run ends.

Layers are the package's modules: engine, scattering, zeros, spectral,
series, config and cli.  ``problem``, ``catalog`` and ``errors`` only hold
data and are not traced.

``spectral`` steps its Pruefer phase with the engine's private step-matrix
kernel, once per sub-step.  That kernel is wrapped for spectral alone,
through a view of the engine module bound into spectral, and consecutive
kernel spans under one parent merge into one row (``calls`` counts them,
``covered`` sums their durations), so the span list stays small.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ccscatter import cli, config, engine, scattering, series, spectral, zeros

NAME, LAYER, START, END, PARENT, CALLS, COVERED = range(7)

LAYERS = ("engine", "scattering", "zeros", "spectral", "series", "config", "cli")
KERNEL = "engine._step_matrices"
CONTOUR_FUNCTIONS = ("zeros.disk_zero_count_fn", "zeros.order_fit_fn")

# per_layer metrics in BENCHMARK.json order, with units.  Layer times are
# shares of the traced pass's call time: they do not move with the speed of
# a shared machine, and a layer that a workload never calls reads 0 there
# as a ratio, not as a time.
PER_LAYER = (
    ("engine.calls", "count"),
    ("engine.couplings", "count"),
    ("engine.scalar_calls", "count"),
    ("engine.busy_share", "ratio"),
    ("engine.us_per_coupling", "us"),
    ("engine.failures", "count"),
    ("zeros.busy_share", "ratio"),
    ("zeros.self_share", "ratio"),
    ("zeros.b_evals", "count"),
    ("zeros.b_calls", "count"),
    ("zeros.scalar_share", "ratio"),
    ("zeros.degeneracy_checks", "count"),
    ("zeros.contour_rounds", "count"),
    ("zeros.contour_nodes", "count"),
    ("spectral.count_calls", "count"),
    ("spectral.kernel_calls", "count"),
    ("spectral.busy_share", "ratio"),
    ("spectral.self_share", "ratio"),
    ("spectral.engine_share", "ratio"),
    ("spectral.witness_share", "ratio"),
    ("series.busy_share", "ratio"),
    ("series.self_share", "ratio"),
    ("series.reference_state_calls", "count"),
    ("series.eval_calls", "count"),
    ("scattering.calls", "count"),
    ("scattering.self_share", "ratio"),
    ("cli.calls", "count"),
    ("cli.self_share", "ratio"),
    ("config.load_share", "ratio"),
    ("trace.overhead", "ratio"),
)

# counters that must repeat exactly for a given seed
COUNTERS = tuple(name for name, unit in PER_LAYER if unit == "count") + (
    "zeros.scalar_b_calls",
    "spectral.witness_calls",
)


def _batch_size(lams) -> int:
    return int(np.atleast_1d(np.asarray(lams)).size)


class _ModuleView:
    """A module with some attributes replaced, for one importer only."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of one traced run, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []  # indices of open boundary spans
        self._frames: list[tuple[str, str]] = []  # (layer, name) of wrapped calls
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _in(self, layer: str) -> str | None:
        """Name of the innermost open call in ``layer``, if any."""
        for frame_layer, name in reversed(self._frames):
            if frame_layer == layer:
                return name
        return None

    def _call(self, layer, name, fn, args, kwargs, count, merge):
        boundary = not self._frames or self._frames[-1][0] != layer
        if count is not None:
            count(*args, **kwargs)
        self._frames.append((layer, name))
        if not boundary:
            try:
                return fn(*args, **kwargs)
            finally:
                self._frames.pop()
        parent = self._open[-1] if self._open else -1
        if not merge:
            self._open.append(len(self.spans))
            self.spans.append([name, layer, time.perf_counter(), 0.0, parent, 1, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counters[f"{layer}.failures"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._frames.pop()
            if merge:
                last = self.spans[-1] if self.spans else None
                if last is not None and last[NAME] == name and last[PARENT] == parent:
                    last[END] = end
                    last[CALLS] += 1
                    last[COVERED] += end - start
                else:
                    self.spans.append([name, layer, start, end, parent, 1, end - start])
            else:
                span = self.spans[self._open.pop()]
                span[END] = end
                span[COVERED] = end - span[START]

    def wrap(self, layer, name, fn, count=None, merge=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, fn, args, kwargs, count, merge)

        return traced

    # -- counters ----------------------------------------------------------

    def _count_engine(self, problem, lams, *args, **kwargs):
        n = _batch_size(lams)
        self.counters["engine.calls"] += 1
        self.counters["engine.couplings"] += n
        self.counters["engine.scalar_calls"] += n == 1

    def _count_reference_states(self, *args, **kwargs):
        self.counters["engine.calls"] += 1
        if self._in("series") is not None:
            self.counters["series.reference_state_calls"] += 1

    def _count_b_call(self, problem, lams, *args, **kwargs):
        self.counters["scattering.calls"] += 1
        caller = self._in("zeros")
        if caller is None:
            return
        n = _batch_size(lams)
        self.counters["zeros.b_calls"] += 1
        self.counters["zeros.b_evals"] += n
        self.counters["zeros.scalar_b_calls"] += n == 1
        if caller in CONTOUR_FUNCTIONS:
            self.counters["zeros.contour_rounds"] += 1
            self.counters["zeros.contour_nodes"] += n

    def _counter(self, key):
        def count(*args, **kwargs):
            self.counters[key] += 1

        return count

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every traced entry point, including copies bound by name."""
        plan = [
            ("engine", engine, "transfer_matrices", self._count_engine, ()),
            ("engine", engine, "propagate", self._count_engine, ()),
            ("engine", engine, "reference_states", self._count_reference_states, ()),
            ("scattering", scattering, "coefficients_batch", self._count_b_call,
             ((zeros, "coefficients_batch"), (cli, "coefficients_batch"))),
            ("scattering", scattering, "reflection", self._counter("scattering.calls"),
             ((cli, "reflection"),)),
            ("zeros", zeros, "is_identically_zero", self._counter("zeros.degeneracy_checks"), ()),
            ("spectral", spectral, "negative_eigenvalue_count",
             self._counter("spectral.count_calls"), ()),
            ("spectral", spectral, "tent_witness", self._counter("spectral.witness_calls"), ()),
            ("series", series, "evaluate_series", self._counter("series.eval_calls"), ()),
            ("cli", cli, "main", self._counter("cli.calls"), ()),
            ("config", config, "load_config", None, ()),
        ]
        for fn_name in ("real_zero_scan", "real_zero_scan_fn", "disk_zero_count",
                        "disk_zero_count_fn", "order_fit", "order_fit_fn"):
            plan.append(("zeros", zeros, fn_name, None, ()))
        for fn_name in ("boundary_angles", "zero_eigen_check"):
            plan.append(("spectral", spectral, fn_name, None, ()))
        for fn_name in ("series_coefficients", "kernel", "M_constant"):
            plan.append(("series", series, fn_name, None, ()))
        try:
            for layer, module, attr, count, copies in plan:
                traced = self.wrap(layer, f"{layer}.{attr}", getattr(module, attr), count)
                self._patch(module, attr, traced)
                for other, other_attr in copies:
                    self._patch(other, other_attr, traced)
            kernel = self.wrap(
                "engine", KERNEL, engine._step_matrices,
                self._counter("spectral.kernel_calls"), merge=True,
            )
            self._patch(spectral, "engine", _ModuleView(engine, _step_matrices=kernel))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[COVERED]
        return [span[COVERED] - c for span, c in zip(self.spans, child)]

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of a traced pass whose calls took ``wall`` s.

        ``trace.overhead`` is left to the caller, which knows the untraced
        time.
        """
        selfs = self.self_times()
        busy: Counter = Counter({layer: 0.0 for layer in LAYERS})
        self_s: Counter = Counter({layer: 0.0 for layer in LAYERS})
        coupling_time = 0.0
        spectral_engine = 0.0
        witness = 0.0
        for span, own in zip(self.spans, selfs):
            name, layer, covered = span[NAME], span[LAYER], span[COVERED]
            if name == KERNEL:  # the engine's kernel, called from spectral
                spectral_engine += covered
                continue
            self_s[layer] += own
            busy[layer] += covered
            if name in ("engine.transfer_matrices", "engine.propagate"):
                coupling_time += covered
            if name == "spectral.tent_witness":
                witness += covered
        c = self.counters
        out = {key: float(c[key]) for key in COUNTERS}
        couplings = c["engine.couplings"]
        out.update({
            "engine.busy_share": busy["engine"] / wall,
            "engine.us_per_coupling": 1e6 * coupling_time / couplings if couplings else 0.0,
            "zeros.busy_share": busy["zeros"] / wall,
            "zeros.self_share": self_s["zeros"] / wall,
            "zeros.scalar_share": c["zeros.scalar_b_calls"] / c["zeros.b_calls"] if c["zeros.b_calls"] else 0.0,
            "spectral.busy_share": busy["spectral"] / wall,
            "spectral.self_share": self_s["spectral"] / wall,
            "spectral.engine_share": spectral_engine / wall,
            "spectral.witness_share": witness / wall,
            "series.busy_share": busy["series"] / wall,
            "series.self_share": self_s["series"] / wall,
            "scattering.self_share": self_s["scattering"] / wall,
            "cli.self_share": self_s["cli"] / wall,
            "config.load_share": busy["config"] / wall,
        })
        return out

    def write(self, path: Path) -> None:
        origin = min((s[START] for s in self.spans), default=0.0)
        rows = [
            [s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[CALLS], s[COVERED]]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent", "calls", "covered_s"],
            "spans": rows,
            "counters": dict(sorted(self.counters.items())),
        }) + "\n")
