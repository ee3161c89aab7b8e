"""Reference values the benchmark checks library outputs against.

Two sources:

* closed forms for problems whose pieces are all constant (delta_pair,
  sine_well, box_barrier, traveling_barrier, noise_bed): exact 2x2 transfer
  matrices multiplied piece by piece, with spike jumps, independent of the
  library's Magnus stepper;
* values pinned from the library at the commit that defined the benchmark
  (``pinned.json``, regenerated by ``pin.py``) for the polynomial-piece
  problems, which have no closed form.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

PINNED_PATH = Path(__file__).with_name("pinned.json")

PI = math.pi


@lru_cache(maxsize=1)
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


# ---------------------------------------------------------------------------
# closed forms for piecewise-constant problems


def _matmul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _apply(m, state):
    return (m[0][0] * state[0] + m[0][1] * state[1], m[1][0] * state[0] + m[1][1] * state[1])


def _constant_transfer(c: complex, h: float):
    """Exact transfer of u'' = c u over length h."""
    z = cmath.sqrt(c) * h
    ch = cmath.cosh(z)
    shc = 1.0 if abs(z) < 1e-8 else cmath.sinh(z) / z
    return ((ch, h * shc), (c * h * shc, ch))


def exact_transfer(problem, lam: complex):
    """Transfer matrix over [0, 1] (spikes included) for constant pieces."""
    for pot in (problem.Q, problem.V):
        if any(len(coeffs) != 1 for _, _, coeffs in pot.segments):
            raise ValueError("closed form needs piecewise-constant potentials")
    lam = complex(lam)
    spikes = dict(problem.V.spikes)
    cuts = sorted(set(problem.Q.breakpoints) | set(problem.V.breakpoints) | set(spikes))
    cuts = [x for x in cuts if 0.0 <= x <= 1.0]
    m = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
    if 0.0 in spikes:
        m = _matmul(((1.0, 0.0), (lam * spikes[0.0], 1.0)), m)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        c = problem.Q(mid) + lam * problem.V(mid)
        m = _matmul(_constant_transfer(c, hi - lo), m)
        if hi in spikes:
            m = _matmul(((1.0, 0.0), (lam * spikes[hi], 1.0)), m)
    return m


def _wronskian(f, g) -> complex:
    return f[1] * g[0] - f[0] * g[1]


def _reference_at_1(problem):
    """(u0, v0) at x = 1 from the zero-coupling closed form."""
    zero = exact_transfer(problem, 0.0)
    return _apply(zero, problem.ref.u0_at_0), _apply(zero, problem.ref.v0_at_0)


def exact_coefficients(problem, lam: complex) -> tuple[complex, complex]:
    """Closed-form (a(lam), b(lam)) by Wronskians at 1+."""
    u, up = _apply(exact_transfer(problem, lam), problem.ref.u0_at_0)
    (u1, u1p), (v1, v1p) = _reference_at_1(problem)
    return v1 * up - v1p * u, u1p * u - u1 * up


def exact_reflection(problem, lam: float) -> tuple[complex, complex]:
    """Closed-form traveling-wave amplitudes (alpha, beta)."""
    u0_0 = problem.ref.u0_at_0
    u1 = _apply(exact_transfer(problem, lam), u0_0)
    u0_1, _ = _reference_at_1(problem)
    u0_0bar = (u0_0[0].conjugate(), u0_0[1].conjugate())
    u0_1bar = (u0_1[0].conjugate(), u0_1[1].conjugate())
    beta = _wronskian(u0_1, u1) / _wronskian(u0_0, u0_0bar)
    alpha = _wronskian(u0_1bar, u1) / _wronskian(u0_1bar, u0_1)
    return alpha, beta


def barrier_reflection_probability(k: float, lam: float) -> float:
    """R of the unit box barrier by plane-wave mode matching.

    The same linear system as the acceptance oracle: match the interior
    solution at x = 0 and x = 1 against plane waves; the second unknown is
    the reflected amplitude.
    """
    kappa = cmath.sqrt(complex(k * k - lam))
    ch = cmath.cosh(1j * kappa)
    shc = 1.0 if abs(kappa) < 1e-12 else cmath.sinh(1j * kappa) / (1j * kappa)
    row = (1j * kappa) * cmath.sinh(1j * kappa) if abs(kappa) > 1e-12 else 0.0
    lhs = np.array(
        [
            [ch - 1j * k * shc, -cmath.exp(1j * k)],
            [row - 1j * k * ch, -1j * k * cmath.exp(1j * k)],
        ]
    )
    rhs = np.array([cmath.exp(-1j * k), -1j * k * cmath.exp(-1j * k)])
    _, r = np.linalg.solve(lhs, rhs)
    return float(abs(r) ** 2)


def sine_well_negative_count(lam: float) -> int:
    """Negative eigenvalues of -u'' - pi^2 - lam with Dirichlet ends."""
    return sum(1 for n in range(1, 1000) if (n * n - 1) * PI * PI - lam < 0)


def sine_well_zeros(lo: float, hi: float) -> list[float]:
    """Zeros of b = -pi^2 sin(kappa)/kappa, kappa^2 = lam + pi^2, in [lo, hi]."""
    return [(n * n - 1) * PI * PI for n in range(1, 1000) if lo <= (n * n - 1) * PI * PI <= hi]


def box_barrier_zeros(lo: float, hi: float) -> list[float]:
    """Zeros of b = -sqrt(lam) sinh(sqrt(lam)) in [lo, hi]."""
    return [-(n * n) * PI * PI for n in range(0, 1000) if lo <= -(n * n) * PI * PI <= hi]


def sine_well_log_max(r: float, nodes: int = 256) -> float:
    """log max |b| over the order-fit contour nodes, from the closed form."""
    best = 0.0
    for j in range(nodes):
        lam = r * cmath.exp(2j * PI * j / nodes)
        kappa = cmath.sqrt(lam + PI * PI)
        b = -PI * PI if abs(kappa) < 1e-8 else -(PI * PI / kappa) * cmath.sin(kappa)
        best = max(best, abs(b))
    return math.log(best)


def least_squares_slope(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
