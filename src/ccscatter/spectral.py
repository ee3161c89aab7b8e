"""Oscillation-theory machinery: boundary angles, eigenvalue counts, tents.

The reference solution u0 fixes self-adjoint boundary conditions

    cos(theta_x) u(x) + sin(theta_x) u'(x) = 0,   x in {0, 1},

for operators H_lam u = -u'' + (Q + lam V) u on [0, 1].  Negative
eigenvalues of H_lam are counted by the winding of the phase in the polar
representation u = rho sin(alpha), u' = rho cos(alpha), integrated at
energy zero: the phase can cross multiples of pi only upward, so the
terminal phase against the right boundary mark gives the count exactly.

On constant-coefficient pieces the phase advance is evaluated in closed
form (trigonometric zero counting).  Varying pieces take their
rotation-bounded Magnus sub-steps from the engine, which builds all step
matrices of a piece in one call, as four arrays of matrix entries; the
states after every sub-step are prefix products of those matrices, built
on the four real entry arrays, and crossings are counted as sign changes
of u between consecutive states, all in one vectorized pass.

Tent functions phi_eps(x) = sqrt(3/2) eps^{-3/2} (eps - |x|)_+ supply
minimax witnesses: N disjointly supported tents with negative Rayleigh
quotients force at least N negative eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as npoly

from . import engine
from .errors import WitnessNotFoundError
from .problem import PotentialSpec, ScatteringProblem
from .scattering import require_real_reference

_PHASE_TOL = 1e-6


@dataclass(frozen=True)
class BoundaryAngles:
    """Angles of the boundary conditions satisfied by u0, in [0, pi)."""

    theta0: float
    theta1: float


class EigenvalueCount(int):
    """Count of negative eigenvalues, flagging a borderline zero eigenvalue.

    Behaves as a plain int; ``boundary_degenerate`` is set when the energy
    zero phase meets the right boundary mark within the phase tolerance
    (zero is then an eigenvalue and the strict count is reported).
    """

    boundary_degenerate: bool

    def __new__(cls, value: int, boundary_degenerate: bool):
        obj = super().__new__(cls, value)
        obj.boundary_degenerate = boundary_degenerate
        return obj


@dataclass(frozen=True)
class TentWitness:
    """Disjoint tent centers with negative Rayleigh quotients."""

    centers: tuple[float, ...]
    epsilon: float
    rayleigh_values: tuple[float, ...]

    def __post_init__(self):
        eps = self.epsilon
        cs = self.centers
        if any(not (eps < c < 1.0 - eps) for c in cs):
            raise ValueError("tent supports must lie inside (0, 1)")
        for a, b in zip(cs[:-1], cs[1:]):
            if b - a < 2.0 * eps:
                raise ValueError("tent supports must be disjoint")


def _angle_of(u: float, up: float) -> float:
    """Representative in [0, pi) of the boundary angle for data (u, u')."""
    norm = math.hypot(u, up)
    theta = math.atan2(-u / norm, up / norm) % math.pi
    return 0.0 if theta == math.pi else theta


def boundary_angles(problem: ScatteringProblem) -> BoundaryAngles:
    """Angles theta_0, theta_1 with cos(theta) u0 + sin(theta) u0' = 0."""
    require_real_reference(problem)
    r = problem.ref
    return BoundaryAngles(
        theta0=_angle_of(r.u0_at_0[0].real, r.u0_at_0[1].real),
        theta1=_angle_of(r.u0_at_1[0].real, r.u0_at_1[1].real),
    )


# ---------------------------------------------------------------------------
# Pruefer phase integration at energy zero


def _phase_from_state(u_e: float, up_e: float, strip: int) -> float:
    """Continuous phase for terminal data known to sit in the given strip.

    ``strip`` counts crossed multiples of pi.  In the strip, sin(alpha)
    carries the sign (-1)^strip; when roundoff flips the sign of a
    structurally vanishing u_e, the raw angle would gain or lose a whole
    pi, so inconsistent states are snapped to the nearest mark (which one
    is decided by the sign of u').
    """
    sigma = -1.0 if strip % 2 else 1.0
    delta = math.atan2(sigma * u_e, sigma * up_e)
    if 0.0 <= delta < math.pi:
        return strip * math.pi + delta
    if -0.5 * math.pi < delta < 0.0:  # noise just above the mark strip*pi
        return strip * math.pi
    return (strip + 1) * math.pi  # at/just below the next mark


def _constant_piece_phase(alpha: float, c: float, h: float) -> float:
    """Advance the phase across u'' = c u over length h, exactly."""
    u0 = math.sin(alpha)
    up0 = math.cos(alpha)
    k_in = math.floor(alpha / math.pi)
    if c < 0.0:
        w_freq = math.sqrt(-c)
        u_e = u0 * math.cos(w_freq * h) + up0 * math.sin(w_freq * h) / w_freq
        up_e = -u0 * w_freq * math.sin(w_freq * h) + up0 * math.cos(w_freq * h)
        # zeros of A sin(w x + phi) in (0, h]
        phi = math.atan2(u0, up0 / w_freq)
        crossings = math.floor((w_freq * h + phi) / math.pi) - math.floor(
            phi / math.pi
        )
    else:
        if c == 0.0:
            u_e = u0 + up0 * h
            up_e = up0
        else:
            mu = math.sqrt(c)
            u_e = u0 * math.cosh(mu * h) + up0 * math.sinh(mu * h) / mu
            up_e = u0 * mu * math.sinh(mu * h) + up0 * math.cosh(mu * h)
        if u0 == 0.0:
            crossings = 0
        elif u_e == 0.0 or (u_e < 0.0) != (u0 < 0.0):
            crossings = 1
        else:
            crossings = 0
    return _phase_from_state(u_e, up_e, k_in + crossings)


def _varying_phase_fixed(alpha: float, piece: engine._Piece, lam: float, n: int) -> float:
    """Phase advance across a varying piece with n Magnus sub-steps.

    The state after each sub-step comes from prefix products of the
    engine's step matrices, built by recursive doubling on their four real
    entries (arrays over the sub-steps); every level is rescaled by its
    max-abs entry, a positive factor, which keeps the sign of u and the
    terminal angle and rules out overflow, so the states are positive
    multiples of the true ones.  Each sign change of u between consecutive
    sub-steps is one crossing of a multiple of pi.
    """
    q, v, h = engine._node_values(piece, n)
    c = lam * v + q
    prefix = np.array([e.real for e in engine._step_matrices(c[0], c[1], h)])  # (4, n)
    span = 1
    while span < n:
        prefix[:, span:] = engine._product(prefix[:, span:], prefix[:, :-span])
        prefix /= np.abs(prefix).max(axis=0)
        span *= 2
    start = (math.sin(alpha), math.cos(alpha))
    states = prefix[0::2] * start[0] + prefix[1::2] * start[1]  # (2, n): (u, u')
    u = np.concatenate(([start[0]], states[0]))
    before, after = u[:-1], u[1:]
    crossed = (after == 0.0) | ((before != 0.0) & ((after < 0.0) != (before < 0.0)))
    k = math.floor(alpha / math.pi) + int(np.count_nonzero(crossed))
    return _phase_from_state(float(states[0, -1]), float(states[1, -1]), k)


def _varying_piece_phase(alpha: float, piece: engine._Piece, lam: float) -> float:
    """Stepped phase advance, refined until the terminal phase settles.

    The initial step count keeps each sub-step shorter than the zero
    spacing pi/sqrt(|c|), so sign changes detect crossings one at a time;
    doubling then drives the fourth-order phase error well below the
    documented resolution.
    """
    xs = np.linspace(0.0, piece.length, 9)
    cmax = float(
        np.abs(
            npoly.polyval(xs, piece.q_coeffs) + lam * npoly.polyval(xs, piece.v_coeffs)
        ).max()
    )
    n = max(16, int(piece.length * (math.sqrt(cmax) + 1.0) * 4.0) + 1)
    val = _varying_phase_fixed(alpha, piece, lam, n)
    while n <= 1 << 14:
        n *= 2
        refined = _varying_phase_fixed(alpha, piece, lam, n)
        if abs(refined - val) <= 1e-9 * (1.0 + abs(refined)):
            return refined
        val = refined
    return val


def _spike_phase_jump(alpha: float, lam: float, weight: float) -> float:
    k = math.floor(alpha / math.pi)
    beta = alpha - k * math.pi
    s, c = math.sin(beta), math.cos(beta)
    if s == 0.0:
        return alpha
    beta_new = math.atan2(s, c + lam * weight * s)
    return k * math.pi + beta_new


def _terminal_phase(problem: ScatteringProblem, lam: float, theta0: float) -> float:
    alpha = (-theta0) % math.pi
    jump0, pieces = engine._layout(problem.Q, problem.V)
    if jump0:
        alpha = _spike_phase_jump(alpha, lam, jump0)
    for piece in pieces:
        if piece.is_constant:
            c = piece.q_coeffs[0] + lam * piece.v_coeffs[0]
            alpha = _constant_piece_phase(alpha, c, piece.length)
        else:
            alpha = _varying_piece_phase(alpha, piece, lam)
        if piece.jump:
            alpha = _spike_phase_jump(alpha, lam, piece.jump)
    return alpha


def negative_eigenvalue_count(
    problem: ScatteringProblem, lam: float, angles: BoundaryAngles
) -> EigenvalueCount:
    """Number of negative eigenvalues of H_lam under the theta conditions.

    The energy-zero phase is integrated from the left condition and read
    against the right boundary mark; the result is exact while individual
    phases are resolved to much better than pi (the documented resolution
    bound is the phase tolerance 1e-6).  A terminal phase landing on the
    mark within tolerance flags ``boundary_degenerate`` (zero is an
    eigenvalue); the strict count is still returned.
    """
    lam = float(lam)
    alpha1 = _terminal_phase(problem, lam, angles.theta0)
    t = (alpha1 + angles.theta1) / math.pi
    nearest = round(t)
    if abs(t - nearest) * math.pi <= _PHASE_TOL:
        return EigenvalueCount(max(0, int(nearest) - 1), True)
    return EigenvalueCount(max(0, math.floor(t)), False)


def zero_eigen_check(
    problem: ScatteringProblem, lam: float, angles: BoundaryAngles
) -> bool:
    """Whether zero is an eigenvalue of H_lam (phase meets the mark)."""
    return negative_eigenvalue_count(problem, lam, angles).boundary_degenerate


# ---------------------------------------------------------------------------
# tent functions


def tent_value(x, eps: float):
    """phi_eps(x) = sqrt(3/2) eps^{-3/2} (eps - |x|)_+ (unit L^2 norm)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.5) * eps ** (-1.5) * np.clip(eps - np.abs(x), 0.0, None)


def tent_gradient_energy(eps: float) -> float:
    """int phi_eps'^2 = 3 / eps^2, exactly."""
    return 3.0 / (eps * eps)


def _tent_weighted_integral(
    pot: PotentialSpec, center: float, eps: float
) -> float:
    """int p(x) phi_eps(x - center)^2 dx for the density part of pot."""
    lo, hi = center - eps, center + eps
    cuts = {lo, center, hi}
    cuts.update(b for b in pot.breakpoints if lo < b < hi)
    cuts = sorted(cuts)
    order = max(6, (pot.max_degree + 3) // 2 + 1)
    xg, wg = npleg.leggauss(order)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (b - a)
        xs = a + half * (xg + 1.0)
        phi2 = tent_value(xs - center, eps) ** 2
        total += half * float(np.dot(wg, pot.values(xs) * phi2))
    return total


def _rayleigh_value(
    problem: ScatteringProblem, lam: float, center: float, eps: float
) -> float:
    val = tent_gradient_energy(eps)
    val += _tent_weighted_integral(problem.Q, center, eps)
    val += lam * _tent_weighted_integral(problem.V, center, eps)
    for pos, w in problem.V.spikes:
        val += lam * w * float(tent_value(pos - center, eps)) ** 2
    return val


def tent_witness(
    problem: ScatteringProblem, lam: float, N: int
) -> TentWitness:
    """Search for N disjoint tents with negative Rayleigh quotients.

    The schedule halves eps from 1/4 down to 2^-20; for each eps the
    candidate centers (a grid of pitch eps/2, capped at 1024 points) are
    ranked greedily by the coupling term lam * int V phi^2 (most negative
    first) and picked subject to disjointness.  The returned witness is
    sound by construction: each recorded Rayleigh value was evaluated and
    found negative.

    Raises
    ------
    WitnessNotFoundError
        Schedule exhausted.  Not a disproof; reported as inconclusive.
    """
    lam = float(lam)
    if N < 1:
        raise ValueError("witness size N must be >= 1")
    eps = 0.25
    while eps >= 2.0**-20:
        margin = 1e-9 * eps
        step = max(eps / 2.0, (1.0 - 2.0 * eps) / 1024.0)
        candidates = np.arange(eps + margin, 1.0 - eps + step, step)
        candidates = candidates[candidates <= 1.0 - eps - margin]
        if len(candidates) >= N:
            scored = []
            for c in candidates:
                coupling = lam * _tent_weighted_integral(problem.V, float(c), eps)
                for pos, w in problem.V.spikes:
                    coupling += lam * w * float(tent_value(pos - c, eps)) ** 2
                scored.append((coupling, float(c)))
            # quantize scores so fp-noise ties break by position: for equal
            # scores left-to-right packing is the densest greedy order
            scale = max(1.0, max(abs(s) for s, _ in scored))
            orders = [
                sorted((round(s / scale, 9), c) for s, c in scored),
                sorted((0.0, c) for s, c in scored if s <= 0.0),
            ]
            for order in orders:
                picked: list[float] = []
                for _, c in order:
                    if all(abs(c - p) >= 2.0 * eps + margin for p in picked):
                        picked.append(c)
                        if len(picked) == N:
                            break
                if len(picked) < N:
                    continue
                picked.sort()
                values = tuple(
                    _rayleigh_value(problem, lam, c, eps) for c in picked
                )
                if all(v < 0.0 for v in values):
                    return TentWitness(tuple(picked), eps, values)
        eps /= 2.0
    raise WitnessNotFoundError(
        f"no {N}-tent witness found at coupling {lam:g} "
        "(inconclusive, not a disproof)"
    )
