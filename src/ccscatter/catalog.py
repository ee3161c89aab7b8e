"""Bundled problem corpus used by the test battery and the CLI.

Each builder returns a fresh validated instance.  The corpus deliberately
mixes constant, sampled-noise and polynomial potentials, real and
traveling-wave reference solutions, and one measure-type perturbation.
Corpus problems carry a tightened propagation tolerance: they anchor the
acceptance thresholds and should not spend the error budget themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import PotentialSpec, ScatteringProblem, Tolerances, build_problem

_CORPUS_TOL = Tolerances(ode_rtol=1e-12)

# fixed sampled-noise cell values (seeded draw, frozen for reproducibility)
_NOISE_CELLS = tuple(
    round(float(v), 6)
    for v in np.random.default_rng(7).uniform(-0.7, 0.7, size=8)
)


def delta_pair(k: float = 1.0) -> ScatteringProblem:
    """Traveling wave over Q = -k^2 hitting point masses +1 at 0, -1 at 1."""
    return build_problem(
        PotentialSpec.constant(-k * k),
        PotentialSpec.deltas([(0.0, 1.0), (1.0, -1.0)]),
        (1.0, 1j * k),
        k_tag=k,
        tolerances=_CORPUS_TOL,
    )


def sine_well() -> ScatteringProblem:
    """u0 = sin(pi x) over Q = -pi^2 with the attractive box V = -1."""
    pi = math.pi
    return build_problem(
        PotentialSpec.constant(-pi * pi),
        PotentialSpec.constant(-1.0),
        (0.0, pi),
        tolerances=_CORPUS_TOL,
    )


def box_barrier() -> ScatteringProblem:
    """Flat reference u0 = 1 against the unit box V = chi_[0,1]."""
    return build_problem(
        PotentialSpec.zero(),
        PotentialSpec.constant(1.0),
        (1.0, 0.0),
        tolerances=_CORPUS_TOL,
    )


def traveling_barrier(k: float = 1.3) -> ScatteringProblem:
    """Free traveling wave at energy k^2 meeting the unit box barrier."""
    return build_problem(
        PotentialSpec.constant(-k * k),
        PotentialSpec.constant(1.0),
        (1.0, 1j * k),
        k_tag=k,
        tolerances=_CORPUS_TOL,
    )


def noise_bed() -> ScatteringProblem:
    """Sampled-noise perturbation: eight frozen piecewise-constant cells."""
    return build_problem(
        PotentialSpec.zero(),
        PotentialSpec.from_samples(_NOISE_CELLS),
        (1.0, 0.0),
        tolerances=_CORPUS_TOL,
    )


def ramp_well() -> ScatteringProblem:
    """Smooth parabolic well V = -3x(1-x); exercises the varying-piece path."""
    return build_problem(
        PotentialSpec.zero(),
        PotentialSpec.polynomial([0.0, -3.0, 3.0]),
        (1.0, 0.0),
        tolerances=_CORPUS_TOL,
    )


def tilted_background() -> ScatteringProblem:
    """Linear background Q = 1 - 2x under a constant perturbation."""
    return build_problem(
        PotentialSpec.polynomial([1.0, -2.0]),
        PotentialSpec.constant(-0.6),
        (1.0, 0.0),
        tolerances=_CORPUS_TOL,
    )


def cosh_shelf() -> ScatteringProblem:
    """Positive background Q = 2 (hyperbolic reference) with V = -0.8."""
    return build_problem(
        PotentialSpec.constant(2.0),
        PotentialSpec.constant(-0.8),
        (1.0, 0.0),
        tolerances=_CORPUS_TOL,
    )


def shifted_sine() -> ScatteringProblem:
    """u0 = sin(pi x) with a repulsive half-strength box V = +1/2."""
    pi = math.pi
    return build_problem(
        PotentialSpec.constant(-pi * pi),
        PotentialSpec.constant(0.5),
        (0.0, pi),
        tolerances=_CORPUS_TOL,
    )


def corpus_problems() -> list[tuple[str, ScatteringProblem]]:
    """The full corpus as (name, problem) pairs, deterministic order."""
    return [
        ("delta_pair", delta_pair()),
        ("sine_well", sine_well()),
        ("box_barrier", box_barrier()),
        ("traveling_barrier", traveling_barrier()),
        ("noise_bed", noise_bed()),
        ("ramp_well", ramp_well()),
        ("tilted_background", tilted_background()),
        ("cosh_shelf", cosh_shelf()),
        ("shifted_sine", shifted_sine()),
    ]


def spike_free_corpus() -> list[tuple[str, ScatteringProblem]]:
    return [(n, p) for n, p in corpus_problems() if not p.V.has_spikes]
