"""CLI surface: subcommands, formats, exit codes, bundled configs."""

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
from ccscatter import PotentialSpec, build_problem, catalog, load_config
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
        ["count", "sine_well.json", "--nodes", "0"],
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


def test_interval_error_names_the_flag(bundle_dir, capsys):
    code, _, err = run_cli(["zeros", str(bundle_dir / "sine_well.json"), "--interval=5"], capsys)
    assert code == 1
    assert "--interval expects lo:hi" in err
    assert "'5'" in err


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
    ],
)
def test_malformed_command_blocks_are_config_errors(tmp_path, capsys, cmd, block):
    path = tmp_path / "bad_block.json"
    path.write_text(config_to_text(catalog.sine_well(), {cmd: block}))
    code, out, err = run_cli([cmd, str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error:")
    assert f"command.{cmd}." in err
    assert "Traceback" not in err


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
    proc = subprocess.run(
        [sys.executable, "-m", "ccscatter.cli", "count", str(bundle_dir / "sine_well.json")],
        capture_output=True,
        text=True,
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
