"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q     (about a minute and a half)

Same seed: identical inputs and identical trace counters across two traced
passes.  Different seed: different coupling draws, same operations.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bootstrap
import tracing
import workloads as wl

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def contexts(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("perfbench")
    return {w: wl.make_context(w, scratch / "configs") for w in wl.WORKLOADS}


def _traced(workload, ctx, seed):
    ops = wl.make_ops(workload, ctx, wl.make_inputs(workload, seed, 0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = [op.check(op.call()) for op in ops]
    finally:
        tracer.uninstall()
    counters = {key: tracer.counters[key] for key in tracing.COUNTERS}
    return [p for p in problems if p is not None], counters, tracer


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert wl.make_inputs(workload, 11, 3) == wl.make_inputs(workload, 11, 3)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_other_draws_same_operations(workload, contexts):
    a = wl.make_inputs(workload, 11, 1)
    b = wl.make_inputs(workload, 12, 1)
    assert a != b
    ops_a = wl.make_ops(workload, contexts[workload], a)
    ops_b = wl.make_ops(workload, contexts[workload], b)
    assert [(op.kind, op.couplings) for op in ops_a] == [(op.kind, op.couplings) for op in ops_b]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counters_repeat_and_outputs_check(workload, contexts):
    failures, first, tracer = _traced(workload, contexts[workload], 5)
    assert failures == []
    _, second, _ = _traced(workload, contexts[workload], 5)
    assert first == second
    assert first["engine.calls"] > 0
    metrics = tracer.layer_metrics(wall=1.0)
    assert {name for name, _ in tracing.PER_LAYER} - set(metrics) == {"trace.overhead"}


def test_traced_runs_repeat_their_counters():
    def counters():
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "constant_cli",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    first = counters()
    assert first["cli.calls"] > 0
    assert counters() == first


def test_tracing_is_removed_after_the_traced_pass():
    from ccscatter import cli, engine, scattering, spectral, zeros

    before = (engine.transfer_matrices, scattering.coefficients_batch,
              zeros.coefficients_batch, cli.reflection, spectral.engine)
    tracer = tracing.Tracer()
    tracer.install()
    assert zeros.coefficients_batch is not before[2]
    tracer.uninstall()
    after = (engine.transfer_matrices, scattering.coefficients_batch,
             zeros.coefficients_batch, cli.reflection, spectral.engine)
    assert after == before


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["zeros.order_fit", "zeros", 0.0, 10.0, -1, 1, 10.0],
        ["scattering.coefficients_batch", "scattering", 1.0, 4.0, 0, 1, 3.0],
        ["engine.transfer_matrices", "engine", 1.5, 3.5, 1, 1, 2.0],
        ["scattering.coefficients_batch", "scattering", 5.0, 6.0, 0, 1, 1.0],
        # merged kernel row: calls spread over [6.5, 9], covering 1.5
        ["engine._step_matrices", "engine", 6.5, 9.0, 0, 30, 1.5],
    ]
    assert tracer.self_times() == [10.0 - 3.0 - 1.0 - 1.5, 1.0, 2.0, 1.0, 1.5]


def test_median_pass_takes_each_operation_median():
    import run

    rec = run.Recorder()
    rec.passes = [
        [("coeff", 2.0, 4), ("zeros", 1.0, 0)],
        [("coeff", 1.0, 4), ("zeros", 3.0, 0)],
        [("coeff", 4.0, 4), ("zeros", 2.0, 0)],
    ]
    assert run._median_pass(rec) == [("coeff", 2.0, 4), ("zeros", 2.0, 0)]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "varying_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no ccscatter sources" in proc.stderr


def test_benchmark_json_names_every_metric():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    units = dict(run.END_TO_END) | dict(tracing.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
