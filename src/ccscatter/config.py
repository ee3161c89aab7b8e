"""Problem/command configuration files (documented JSON schema).

Layout::

    {
      "problem": {
        "Q": {"segments": [[x_lo, x_hi, [c0, c1, ...]], ...]},
        "V": {"segments": [...], "spikes": [[position, weight], ...]},
        "u0": {"value": [re, im], "derivative": [re, im]},
        "k": 1.0,                      # optional traveling-wave tag
        "tolerances": {"ode_rtol": ..., "wronskian_tol": ...}
      },
      "command": {"scan": {...}, "zeros": {...}, ...}   # optional defaults
    }

Polynomial coefficients are ascending in the local variable ``x - x_lo``;
complex numbers are two-element [re, im] arrays.  Serialization is
deterministic (sorted keys, fixed indentation) so emitted bundles are
byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ScatterError
from .problem import (
    PotentialSpec,
    ScatteringProblem,
    Tolerances,
    build_problem,
)


@dataclass(frozen=True)
class RunConfig:
    """A parsed configuration: the problem plus per-command parameters."""

    problem: ScatteringProblem
    command: dict = field(default_factory=dict)
    source: str = ""


def _complex_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_in(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("complex values are [re, im] arrays", where)
    try:
        return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError):
        raise ConfigError("complex components must be numbers", where)


def _number_in(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {value!r}", where) from None


def _tolerance_in(block: dict, key: str, where: str) -> float:
    if key not in block:
        return getattr(Tolerances, key)
    tol = _number_in(block[key], f"{where}.{key}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tolerance must be finite and positive, got {tol!r}", f"{where}.{key}")
    return tol


def potential_to_dict(pot: PotentialSpec) -> dict:
    out: dict = {
        "segments": [[lo, hi, list(coeffs)] for lo, hi, coeffs in pot.segments]
    }
    if pot.spikes:
        out["spikes"] = [[p, w] for p, w in pot.spikes]
    return out


def potential_from_dict(d, where: str) -> PotentialSpec:
    if not isinstance(d, dict) or "segments" not in d:
        raise ConfigError("potential needs a 'segments' list", where)
    try:
        segments = tuple(
            (float(s[0]), float(s[1]), tuple(float(c) for c in s[2]))
            for s in d["segments"]
        )
    except (TypeError, ValueError, IndexError):
        raise ConfigError(
            "segments are [x_lo, x_hi, [coeffs...]] triples", f"{where}.segments"
        )
    spikes = d.get("spikes", [])
    try:
        spikes = tuple((float(p), float(w)) for p, w in spikes)
    except (TypeError, ValueError):
        raise ConfigError(
            "spikes are [position, weight] pairs", f"{where}.spikes"
        )
    try:
        return PotentialSpec(segments, spikes)
    except ScatterError as exc:
        raise ConfigError(str(exc), where)


def problem_to_dict(problem: ScatteringProblem) -> dict:
    out = {
        "Q": potential_to_dict(problem.Q),
        "V": potential_to_dict(problem.V),
        "u0": {
            "value": _complex_out(problem.ref.u0_at_0[0]),
            "derivative": _complex_out(problem.ref.u0_at_0[1]),
        },
        "tolerances": {
            "ode_rtol": problem.tolerances.ode_rtol,
            "wronskian_tol": problem.tolerances.wronskian_tol,
        },
    }
    if problem.ref.k_tag is not None:
        out["k"] = problem.ref.k_tag
    return out


def problem_from_dict(d, where: str = "problem") -> ScatteringProblem:
    if not isinstance(d, dict):
        raise ConfigError("problem block must be an object", where)
    for key in ("Q", "V", "u0"):
        if key not in d:
            raise ConfigError(f"missing field '{key}'", where)
    q = potential_from_dict(d["Q"], f"{where}.Q")
    v = potential_from_dict(d["V"], f"{where}.V")
    u0_block = d["u0"]
    if not isinstance(u0_block, dict):
        raise ConfigError("u0 needs 'value' and 'derivative'", f"{where}.u0")
    u0 = (
        _complex_in(u0_block.get("value"), f"{where}.u0.value"),
        _complex_in(u0_block.get("derivative"), f"{where}.u0.derivative"),
    )
    tol_block = d.get("tolerances", {})
    if not isinstance(tol_block, dict):
        raise ConfigError("tolerances must be an object", f"{where}.tolerances")
    tol = Tolerances(
        ode_rtol=_tolerance_in(tol_block, "ode_rtol", f"{where}.tolerances"),
        wronskian_tol=_tolerance_in(tol_block, "wronskian_tol", f"{where}.tolerances"),
    )
    k = d.get("k")
    if k is not None:
        k = _number_in(k, f"{where}.k")
    try:
        return build_problem(q, v, u0, k_tag=k, tolerances=tol)
    except ScatterError as exc:
        raise ConfigError(str(exc), where)


def config_to_text(problem: ScatteringProblem, command: dict | None = None) -> str:
    payload: dict = {"problem": problem_to_dict(problem)}
    if command:
        payload["command"] = command
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "invalid JSON", f"{path}: line {exc.lineno} column {exc.colno}"
        )
    if not isinstance(payload, dict) or "problem" not in payload:
        raise ConfigError("config needs a top-level 'problem' block", str(path))
    problem = problem_from_dict(payload["problem"])
    command = payload.get("command", {})
    if not isinstance(command, dict) or not all(isinstance(b, dict) for b in command.values()):
        raise ConfigError("'command' block must be an object of objects", str(path))
    return RunConfig(problem=problem, command=command, source=str(path))
