"""CLI surface: subcommands, formats, exit codes, bundled configs."""

import argparse
import cmath
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import ccscatter
from ccscatter import PotentialSpec, Tolerances, build_problem, catalog, cli, load_config
from ccscatter.cli import main
from ccscatter.config import config_to_text, problem_from_dict, problem_to_dict

PI = math.pi


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert main(["examples", "--output-dir", str(out)]) == 0
    return out


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_examples_bundle_is_byte_stable(bundle_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["examples", "--output-dir", str(again)]) == 0
    names = sorted(p.name for p in bundle_dir.iterdir())
    assert names == [
        "box_barrier.json",
        "delta_pair.json",
        "noise_bed.json",
        "sine_well.json",
        "traveling_barrier.json",
    ]
    for name in names:
        assert (bundle_dir / name).read_bytes() == (again / name).read_bytes()


def test_examples_round_trip(bundle_dir):
    for name, builder in (
        ("delta_pair.json", catalog.delta_pair),
        ("sine_well.json", catalog.sine_well),
        ("box_barrier.json", catalog.box_barrier),
        ("noise_bed.json", catalog.noise_bed),
        ("traveling_barrier.json", catalog.traveling_barrier),
    ):
        parsed = load_config(bundle_dir / name)
        assert parsed.problem == builder(), name


def test_problem_dict_round_trip(corpus):
    for name, prob in corpus:
        d = problem_to_dict(prob)
        assert problem_from_dict(d) == prob, name
        # configs written before ode_atol was dropped still load, key ignored
        legacy = {**d, "tolerances": {**d["tolerances"], "ode_atol": 1e-15}}
        assert problem_from_dict(legacy) == prob, name


def test_bundled_delta_pair_has_spikes(bundle_dir):
    payload = json.loads((bundle_dir / "delta_pair.json").read_text())
    assert payload["problem"]["V"]["spikes"] == [[0.0, 1.0], [1.0, -1.0]]
    e2 = json.loads((bundle_dir / "sine_well.json").read_text())
    assert e2["problem"]["Q"]["segments"] == [[0.0, 1.0, [-PI * PI]]]
    assert e2["problem"]["V"]["segments"] == [[0.0, 1.0, [-1.0]]]


def test_scan_at_zero_coupling(bundle_dir, capsys):
    code, out, _ = run_cli(
        ["scan", str(bundle_dir / "delta_pair.json"), "--lambdas", "0"], capsys
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["a_re"]) == 1.0 and float(row["a_im"]) == 0.0
    assert float(row["b_re"]) == 0.0 and float(row["b_im"]) == 0.0
    assert row["method"] == "ode"


def test_scan_matches_closed_form(bundle_dir, capsys):
    code, out, _ = run_cli(
        ["scan", str(bundle_dir / "delta_pair.json"), "--lambdas", "2"], capsys
    )
    assert code == 0
    (row,) = parse_csv(out)
    expected = 2.0 * (1.0 - 1j) * (cmath.exp(2j) - 1.0)
    assert complex(float(row["b_re"]), float(row["b_im"])) == pytest.approx(expected)


def test_scan_hits_sine_well_zero(bundle_dir, capsys):
    lam = 3 * PI * PI
    code, out, _ = run_cli(
        ["scan", str(bundle_dir / "sine_well.json"), "--lambdas", f"{lam!r}"],
        capsys,
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(complex(float(row["b_re"]), float(row["b_im"]))) <= 1e-8


def test_zeros_exit_code_on_degenerate(tmp_path, capsys):
    free = build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (1.0, 0.0))
    path = tmp_path / "free.json"
    path.write_text(config_to_text(free))
    code, _, err = run_cli(["zeros", str(path)], capsys)
    assert code == 2
    assert "identically zero" in err


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "delta_pair.json", "--lambdas=1:2"],
        ["scan", "delta_pair.json", "--lambdas=a,b"],
        ["scan", "delta_pair.json", "--lambdas=1:2:0"],
        ["count", "sine_well.json", "--radius=-5"],
        ["zeros", "sine_well.json", "--interval=5:1"],
        ["zeros", "sine_well.json", "--interval=5"],
        ["zeros", "sine_well.json", "--grid-points", "0"],
        ["count", "sine_well.json", "--radius", "0"],
        ["series", "noise_bed.json", "--order", "0"],
        ["witness", "box_barrier.json", "--tents", "0"],
        ["order", "sine_well.json", "--radii", "1,2"],
        ["scan", "sine_well.json", "--lambdas=,"],
        ["scan", "sine_well.json", "--lambdas=nan"],
        ["scan", "sine_well.json", "--lambdas=0:nan:3"],
        ["reflect", "traveling_barrier.json", "--lambdas=inf"],
        ["series", "sine_well.json", "--lambdas=nan"],
        ["eigencount", "sine_well.json", "--lambdas=nan"],
        ["witness", "sine_well.json", "--coupling", "nan"],
        ["count", "sine_well.json", "--radius", "nan"],
        ["count", "sine_well.json", "--radius", "inf"],
        ["zeros", "sine_well.json", "--interval=0:inf"],
        ["zeros", "sine_well.json", "--interval=-inf:0"],
        ["order", "sine_well.json", "--radii", "100,1000,10000,inf"],
        ["order", "sine_well.json", "--radii", "100,1000,10000,nan"],
        ["scan", "sine_well.json", "--lambdas="],
    ],
)
def test_bad_flag_values_are_usage_errors(bundle_dir, capsys, args):
    cmd, name, *flags = args
    code, out, err = run_cli([cmd, str(bundle_dir / name), *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_count_takes_no_nodes_flag(bundle_dir, capsys):
    # a count's contour always starts at 64 nodes
    args = ["count", str(bundle_dir / "sine_well.json"), "--nodes", "64"]
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --nodes 64" in err


@pytest.mark.parametrize(
    "cmd, flag, text, message",
    [
        ("zeros", "--interval", "5", "--interval expects lo:hi"),
        ("scan", "--lambdas", "a,b", "--lambdas takes lo:hi:count or a comma list"),
        ("scan", "--lambdas", "0:1:1", "--lambdas needs a count of at least 2"),
        ("scan", "--lambdas", "nan", "--lambdas needs finite couplings"),
        ("order", "--radii", "a,b", "--radii takes a comma list of radii"),
    ],
    ids=["interval", "lambdas", "lambdas-count", "lambdas-finite", "radii"],
)
def test_interval_error_names_the_flag(bundle_dir, capsys, cmd, flag, text, message):
    # the flags whose text the CLI reads itself, not argparse's type
    code, _, err = run_cli([cmd, str(bundle_dir / "sine_well.json"), f"{flag}={text}"], capsys)
    assert code == 1
    assert err == f"error: {message}, not {text!r}\n"


def test_count_and_eigencount(bundle_dir, capsys):
    code, out, _ = run_cli(["count", str(bundle_dir / "sine_well.json")], capsys)
    assert code == 0
    (row,) = parse_csv(out)
    assert row["count"] == "7"
    code, out, _ = run_cli(
        [
            "eigencount",
            str(bundle_dir / "sine_well.json"),
            "--lambdas",
            f"{5 * PI * PI!r}",
        ],
        capsys,
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["count"] == "2"


def test_zeros_subcommand(bundle_dir, capsys):
    # the command block scans (-5, 100) on 400 points: (n^2 - 1) pi^2, n = 1, 2, 3
    code, out, _ = run_cli(["zeros", str(bundle_dir / "sine_well.json")], capsys)
    assert code == 0
    rows = parse_csv(out)
    want = [(n * n - 1) * PI * PI for n in (1, 2, 3)]
    assert len(rows) == len(want)
    for row, z in zip(rows, want):
        found = complex(float(row["zero_re"]), float(row["zero_im"]))
        assert abs(found - z) <= 1e-8 * (1.0 + abs(z))
        assert row["multiplicity"] == "1"


def test_realified_reference_is_noted(bundle_dir, capsys):
    code, out, err = run_cli(["eigencount", str(bundle_dir / "traveling_barrier.json")], capsys)
    assert code == 0 and out
    assert err.startswith("note: reference solution realified")


def test_solver_failure_exit_code(bundle_dir, capsys):
    # series expansions need an L^1 perturbation, and delta_pair's V is spikes
    code, out, err = run_cli(["series", str(bundle_dir / "delta_pair.json")], capsys)
    assert code == 3 and out == ""
    assert err.startswith("solver error:")


def test_eigencount_at_large_coupling(bundle_dir, capsys):
    code, out, _ = run_cli(
        ["eigencount", str(bundle_dir / "box_barrier.json"), "--lambdas", "1e6,-1e6"], capsys
    )
    assert code == 0
    assert [row["count"] for row in parse_csv(out)] == ["0", "319"]


def test_csv_and_json_values_agree(bundle_dir, capsys):
    args = ["scan", str(bundle_dir / "sine_well.json"), "--lambdas=-3:3:5"]
    code, out_csv, _ = run_cli(args, capsys)
    assert code == 0
    # global flags are accepted both before and after the subcommand
    code, out_json, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    code, first_json, _ = run_cli(["--format", "json"] + args, capsys)
    assert code == 0 and first_json == out_json
    # the parser is shared between calls: a flagless call after a JSON one is CSV again
    code, again_csv, _ = run_cli(args, capsys)
    assert code == 0 and again_csv == out_csv
    csv_rows = parse_csv(out_csv)
    json_rows = json.loads(out_json)
    assert len(csv_rows) == len(json_rows) == 5
    for c, j in zip(csv_rows, json_rows):
        for key, jv in j.items():
            if isinstance(jv, float):
                assert float(c[key]) == jv  # 17 sig digits round-trip exactly
            else:
                assert c[key] == str(jv)


def test_runs_are_deterministic(bundle_dir, capsys):
    args = ["scan", str(bundle_dir / "noise_bed.json"), "--lambdas=-5:5:11"]
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_output_file(bundle_dir, tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        ["--output", str(target), "count", str(bundle_dir / "sine_well.json")],
        capsys,
    )
    assert code == 0 and out == ""
    assert "7" in target.read_text()
    # the next call without --output writes to stdout, and leaves the file alone
    target.write_text("")
    code, out, _ = run_cli(["count", str(bundle_dir / "sine_well.json")], capsys)
    assert code == 0 and parse_csv(out)[0]["count"] == "7"
    assert target.read_text() == ""


@pytest.mark.parametrize("case", ["missing_dir", "onto_dir", "bundle_onto_file"])
def test_unwritable_output_is_an_error_code(bundle_dir, tmp_path, capsys, case):
    config = str(bundle_dir / "sine_well.json")
    args = {
        "missing_dir": ["--output", str(tmp_path / "missing" / "t.csv"), "count", config],
        "onto_dir": ["--output", str(tmp_path), "count", config],
        "bundle_onto_file": ["examples", "--output-dir", config],
    }[case]
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_usage_errors_leave_the_parser_usable(bundle_dir, capsys):
    config = str(bundle_dir / "sine_well.json")
    for bad in (["count", config, "--format", "xml"], ["count", config, "--radius", "x"]):
        code, out, err = run_cli(bad, capsys)
        assert code == 1 and out == ""
        assert "error: " in err
        code, out, _ = run_cli(["count", config], capsys)
        assert code == 0
        assert parse_csv(out) == [{"radius": "500", "count": "7", "method": "ode"}]


def test_main_builds_no_parser_after_its_first_call(bundle_dir, capsys, monkeypatch):
    main(["count", str(bundle_dir / "sine_well.json")])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for args in (
        ["scan", "noise_bed.json", "--lambdas=-5:5:16"],
        ["count", "sine_well.json"],
        ["eigencount", "sine_well.json", "--lambdas=0:100:8"],
        ["reflect", "traveling_barrier.json", "--lambdas=-2:2:16"],
    ):
        cmd, name, *flags = args
        assert main([cmd, str(bundle_dir / name), *flags]) == 0
    capsys.readouterr()
    assert built == []


def test_config_error_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(["scan", str(bad)], capsys)
    assert code == 1
    assert "line 1" in err
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"problem": {"Q": {"segments": []}}}))
    code, _, err = run_cli(["scan", str(missing)], capsys)
    assert code == 1
    assert "problem" in err


@pytest.mark.parametrize(
    "cmd, block",
    [
        ("scan", {"lambdas": {"stop": 1.0, "count": 3}}),
        ("zeros", {"interval": 5.0}),
        ("count", {"radius": {"value": 50.0}}),
        ("order", {"radii": 100.0}),
        ("witness", {"lambda": [-1e4, 1e4]}),
        ("eigencount", {"lambdas": "0:1:3"}),
        ("scan", {"lambdas": {"start": 0.0, "stop": 1.0, "count": 1}}),
        # a block's couplings obey the --lambdas rule: finite, at least one
        *(
            (cmd, {"lambdas": lams})
            for cmd in ("scan", "series", "eigencount", "reflect")
            for lams in ([math.nan], [], {"start": 0.0, "stop": math.nan, "count": 5})
        ),
    ],
)
def test_malformed_command_blocks_are_config_errors(tmp_path, capsys, cmd, block):
    path = tmp_path / "bad_block.json"
    path.write_text(config_to_text(catalog.sine_well(), {cmd: block}))
    code, out, err = run_cli([cmd, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")
    assert f"command.{cmd}.{next(iter(block))}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "blocks, where",
    [
        ({"count": {"radus": 5}}, "command.count.radus"),
        ({"cuont": {"radius": 5}}, "command.cuont"),
        ({"count": {"nodes": 0}}, "command.count.nodes"),
        ({"examples": {"output_dir": "out"}}, "command.examples"),
        # every block is checked, not only the one of the running subcommand
        ({"count": {"radius": 5}, "zeros": {"grid": 40}}, "command.zeros.grid"),
    ],
)
def test_unknown_command_blocks_and_keys_are_config_errors(tmp_path, capsys, blocks, where):
    # a block or key that nothing reads would silently leave the default
    path = tmp_path / "unknown.json"
    path.write_text(config_to_text(catalog.sine_well(), blocks))
    code, out, err = run_cli(["count", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")
    assert f"({where})" in err
    assert "Traceback" not in err


def test_bundled_configs_use_only_known_keys(bundle_dir):
    keys = set()
    for path in bundle_dir.glob("*.json"):
        for name, block in load_config(path).command.items():
            keys |= set(block)
            cli._check_blocks({name: block})
    assert keys == {"N", "grid_points", "interval", "lambda", "lambdas", "radii", "radius", "tents"}


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", [1.0]),
        ("ode_rtol", [1e-10]),
        ("wronskian_tol", {}),
        ("ode_rtol", "abc"),
        ("ode_rtol", 0.0),
        ("ode_rtol", -1e-10),
        ("ode_rtol", math.nan),
        ("wronskian_tol", math.inf),
    ],
)
def test_bad_numbers_in_the_problem_block_are_config_errors(
    bundle_dir, tmp_path, capsys, key, value
):
    payload = json.loads((bundle_dir / "sine_well.json").read_text())
    problem = payload["problem"]
    where = "problem.k" if key == "k" else f"problem.tolerances.{key}"
    (problem if key == "k" else problem.setdefault("tolerances", {}))[key] = value
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["scan", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")
    assert f"({where})" in err
    assert "Traceback" not in err


def _set(path, value):
    """A change to a parsed config: the entry at the key path set to value."""
    def change(payload):
        block = payload
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    return change


@pytest.mark.parametrize(
    "change, where",
    [
        (_set(["problem", "u0", "value"], [1.0]), "problem.u0.value"),
        (_set(["problem", "u0", "derivative"], ["a", 0.0]), "problem.u0.derivative"),
        (_set(["problem", "V"], [[0.0, 1.0, [-1.0]]]), "problem.V"),
        (_set(["problem", "V", "segments"], [[0.0, 1.0]]), "problem.V.segments"),
        (_set(["problem", "Q", "segments"], [[0.0, 0.5, [1.0]], [0.6, 1.0, [1.0]]]), "problem.Q"),
        (_set(["problem", "V", "spikes"], [[0.5]]), "problem.V.spikes"),
        (_set(["problem"], [1.0]), "problem"),
        (_set(["problem", "u0"], [1.0, 0.0]), "problem.u0"),
        (_set(["problem", "tolerances"], 1e-10), "problem.tolerances"),
        (_set(["problem", "u0"], {"value": [0.0, 0.0], "derivative": [0.0, 0.0]}), "problem"),
        (lambda payload: payload.pop("problem"), None),
        (_set(["command"], {"scan": [1.0]}), None),
        (None, None),  # no file at the path
    ],
    ids=["u0-not-a-pair", "u0-not-numbers", "V-not-an-object", "segments-malformed",
         "segments-gap", "spikes-malformed", "problem-not-an-object", "u0-not-an-object",
         "tolerances-not-an-object", "u0-zero", "no-problem", "command-not-objects",
         "unreadable"],
)
def test_malformed_configs_name_their_field(tmp_path, capsys, change, where):
    path = tmp_path / "malformed.json"
    if change is not None:
        payload = json.loads(config_to_text(catalog.sine_well()))
        change(payload)
        path.write_text(json.dumps(payload))
    code, out, err = run_cli(["scan", str(path), "--lambdas=0,1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")
    assert f"({where or path})" in err
    assert "Traceback" not in err


def test_config_without_wronskian_tol_loads_the_default(tmp_path):
    payload = json.loads(config_to_text(catalog.sine_well()))
    del payload["problem"]["tolerances"]["wronskian_tol"]
    path = tmp_path / "default_tol.json"
    path.write_text(json.dumps(payload))
    problem = load_config(path).problem
    assert problem.tolerances.wronskian_tol == Tolerances.wronskian_tol
    assert problem == catalog.sine_well()


def test_order_subcommand(bundle_dir, capsys):
    code, out, _ = run_cli(
        [
            "order",
            str(bundle_dir / "sine_well.json"),
            "--radii",
            "100,1000,10000,100000",
        ],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    exponent = float(rows[0]["count_exponent"])
    assert 0.45 <= exponent <= 0.55


def test_witness_subcommand(bundle_dir, capsys):
    code, out, _ = run_cli(["witness", str(bundle_dir / "box_barrier.json")], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert all(float(r["rayleigh"]) < 0 for r in rows)


def test_witness_inconclusive_is_reported(tmp_path, capsys):
    free = build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (1.0, 0.0))
    path = tmp_path / "free.json"
    path.write_text(config_to_text(free))
    code, out, err = run_cli(
        ["witness", str(path), "--coupling", "-100", "--tents", "1"], capsys
    )
    assert code == 0
    assert "inconclusive" in err


def test_json_rows_are_the_indented_dump_byte_for_byte(bundle_dir, tmp_path, capsys, monkeypatch):
    """--format json prints json.dumps(rows, indent=2) and a newline, whatever the rows hold."""
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda rows, fmt, output: (seen.append(rows), emit(rows, fmt, output)))
    free = tmp_path / "free.json"
    free.write_text(config_to_text(build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (1.0, 0.0))))
    odd_dir = tmp_path / 'quote"d \u00e9'
    runs = [[cmd, str(path)] for path in sorted(bundle_dir.iterdir()) for cmd in cli._COMMANDS
            if cmd != "examples"]
    runs += [
        ["witness", str(free), "--coupling", "-100", "--tents", "1"],  # inconclusive: no rows
        ["examples", "--output-dir", str(odd_dir)],  # escaped and non-ASCII strings
    ]
    emitted = []
    for args in runs:
        seen.clear()
        code, out, _ = run_cli(["--format", "json", *args], capsys)
        if code == 0:
            (rows,) = seen
            assert out == json.dumps(rows, indent=2) + "\n", args
            emitted.append(out)
    assert len(emitted) >= 30
    assert emitted[-2] == "[]\n"
    assert '\\"d \\u00e9' in emitted[-1]
    row = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "text": "\u00e9\t\"", "count": 3}
    emit([row, row], "json", None)
    assert capsys.readouterr().out == json.dumps([row, row], indent=2) + "\n"


def test_reflect_subcommand(bundle_dir, capsys):
    code, out, _ = run_cli(
        ["reflect", str(bundle_dir / "traveling_barrier.json"), "--lambdas", "0"],
        capsys,
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["R"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["flux_defect"]) <= 1e-10


def test_series_subcommand(bundle_dir, capsys):
    code, out, _ = run_cli(
        ["series", str(bundle_dir / "noise_bed.json"), "--lambdas", "0,1"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["usable"] == "1" and rows[1]["usable"] == "1"
    assert float(rows[1]["certified_err"]) <= 1e-6


def test_console_entry_point(bundle_dir):
    src = pathlib.Path(ccscatter.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "ccscatter.cli", "count", str(bundle_dir / "sine_well.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert "7" in proc.stdout


def test_library_imports_only_numpy():
    # scipy is a test dependency only: importing it adds about half a second
    # and 40 MB of resident memory to each start of the library or the CLI
    src = pathlib.Path(ccscatter.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ccscatter, ccscatter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
