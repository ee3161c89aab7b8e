"""Oscillation-theory machinery: boundary angles, eigenvalue counts, tents.

The reference solution u0 fixes self-adjoint boundary conditions

    cos(theta_x) u(x) + sin(theta_x) u'(x) = 0,   x in {0, 1},

for operators H_lam u = -u'' + (Q + lam V) u on [0, 1].  Negative
eigenvalues of H_lam are counted by the winding of the phase in the polar
representation u = rho sin(alpha), u' = rho cos(alpha), integrated at
energy zero: the phase can cross multiples of pi only upward, so the
terminal phase against the right boundary mark gives the count exactly.

A batch of phases walks the layout together, item by item: each spike or piece
maps (sin alpha, cos alpha) through its real state map, free of scale, and counts
the zeros of u inside it, in closed form on constant pieces, and one coupling at a
time from the engine's states after every Magnus sub-step on varying pieces.

Tent functions phi_eps(x) = sqrt(3/2) eps^{-3/2} (eps - |x|)_+ supply
minimax witnesses: N disjointly supported tents with negative Rayleigh
quotients force at least N negative eigenvalues.  The integrals of Q phi^2
and V phi^2 run over the same layout pieces, with each piece's local
coefficients, for a whole array of candidate centres at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import engine
from .errors import WitnessNotFoundError
from .problem import ScatteringProblem
from .scattering import require_real_reference
from .series import _reference_rule

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


def _phase_from_state(u_e: np.ndarray, up_e: np.ndarray, strip: np.ndarray) -> np.ndarray:
    """Phases of states (u_e, u_e') known to sit in the given strips of width pi.

    In strip k, alpha = k pi + delta with sin(delta) = (-1)^k sin(alpha) >= 0,
    so a vanishing u_e whose sign roundoff flipped stays at a mark, not pi away.
    """
    base = strip * math.pi
    return base + np.arctan2(np.abs(u_e), np.cos(base) * up_e)  # cos(k pi) = (-1)^k


def _crossed(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Whether u lands on 0 or changes sign from a nonzero value between two
    states: x (x + y) = 0 for x = sign(after), y = sign(before)."""
    x = np.sign(after)
    return x * (x + np.sign(before)) == 0.0


def _spike_phase(alpha: np.ndarray, lams: np.ndarray, weight: float) -> np.ndarray:
    """A spike maps (u, u') to (u, u' + lam weight u) and crosses no mark."""
    if not weight:
        return alpha
    u = np.sin(alpha)
    return _phase_from_state(u, np.cos(alpha) + lams * weight * u, np.floor(alpha / math.pi))


def _oscillating_phase(alpha: np.ndarray, c: np.ndarray, h: float) -> np.ndarray:
    """Phases across u'' = -w^2 u: the angle atan2(w u, u') shares the marks of alpha
    and advances by exactly wh, and (u, u') is a positive multiple of (sin, w cos) of it."""
    w = np.sqrt(-c)
    psi = _phase_from_state(w * np.sin(alpha), np.cos(alpha), np.floor(alpha / math.pi)) + w * h
    return _phase_from_state(np.sin(psi), w * np.cos(psi), np.floor(psi / math.pi))


def _growing_phase(alpha: np.ndarray, c: np.ndarray, h: float) -> np.ndarray:
    """Phases across u'' = w^2 u by the map [[1, t/w], [w t, 1]], t = tanh(wh), a
    positive multiple of the exact one that cannot overflow; u changes sign at most
    once.  c = 0 is read as c = 1e-300, where t/w is h to rounding."""
    w = np.sqrt(np.maximum(c, 1e-300))
    t = np.tanh(w * h)
    u, up = np.sin(alpha), np.cos(alpha)
    u_e = u + t / w * up
    return _phase_from_state(u_e, w * t * u + up, np.floor(alpha / math.pi) + _crossed(u, u_e))


def _constant_piece_phase(alpha: np.ndarray, piece: engine._Piece, lams: np.ndarray):
    """Phases across a piece where u'' = c u with constant c, exactly, each
    coupling by the map of its sign of c."""
    c = piece.q_coeffs[0] + lams * piece.v_coeffs[0]
    osc = c < 0.0
    n_osc = np.count_nonzero(osc)
    if n_osc in (0, len(c)):
        return (_oscillating_phase if n_osc else _growing_phase)(alpha, c, piece.length)
    out = np.empty_like(alpha)
    for sel, advance in ((osc, _oscillating_phase), (~osc, _growing_phase)):
        out[sel] = advance(alpha[sel], c[sel], piece.length)
    return out


def _stepped_phase(alpha: float, piece: engine._Piece, lam: float, n: int) -> float:
    """Phase across a varying piece at one coupling with n Magnus sub-steps, counting each
    sign change of u between sub-step states; its (2, 2, n) arrays die on return."""
    prefix = engine._piece_states(piece, np.array([lam]), n)[0][:, :, 0]  # (2, 2, n)
    u0, up0 = math.sin(alpha), math.cos(alpha)
    states = prefix[:, 0] * u0 + prefix[:, 1] * up0  # (2, n): (u, u')
    u = np.concatenate(([u0], states[0]))
    strip = math.floor(alpha / math.pi) + np.count_nonzero(_crossed(u[:-1], u[1:]))
    return float(_phase_from_state(states[0, -1], states[1, -1], strip))


def _varying_piece_phase(alpha: np.ndarray, piece: engine._Piece, lams: np.ndarray):
    """Phases across a varying piece, from n sub-steps doubled until they settle.

    Every coupling is stepped on its own, from a first n that keeps sub-steps
    shorter than its zero spacing pi/sqrt(|c|), so its cost and memory do not
    depend on the rest of the batch.
    """
    xs = np.arange(9) * (piece.length / 8.0)  # np.linspace(0, length, 9), bit for bit
    c = npoly.polyval(xs, piece.q_coeffs) + lams[:, None] * npoly.polyval(xs, piece.v_coeffs)
    first = np.floor(piece.length * (np.sqrt(np.abs(c).max(axis=1)) + 1.0) * 4.0) + 1.0
    out = np.empty_like(alpha)
    for j, lam in enumerate(lams.tolist()):
        n = max(16, int(first[j]))
        val = _stepped_phase(alpha[j], piece, lam, n)
        while n <= 1 << 14:
            n, coarse = 2 * n, val
            val = _stepped_phase(alpha[j], piece, lam, n)
            if abs(val - coarse) <= 1e-9 * (1.0 + abs(val)):
                break
        out[j] = val
    return out


def negative_eigenvalue_counts(
    problem: ScatteringProblem, lams, angles: BoundaryAngles
) -> list[EigenvalueCount]:
    """Numbers of negative eigenvalues of H_lam under the theta conditions.

    The energy-zero phases of all couplings walk the layout together from the left
    condition and are read against the right boundary mark: exact while phases are
    resolved to much better than pi (the phase tolerance 1e-6).  A phase on the mark
    within it flags ``boundary_degenerate``: zero is an eigenvalue, and is not counted.
    """
    lams = np.array(lams, dtype=float, ndmin=1)
    if not np.isfinite(lams).all():
        raise ValueError(f"coupling must be finite, not {lams[~np.isfinite(lams)][0]}")
    alpha = np.full(len(lams), (-angles.theta0) % math.pi)
    jump0, pieces = engine._layout(problem.Q, problem.V)
    alpha = _spike_phase(alpha, lams, jump0)
    for piece in pieces:
        advance = _constant_piece_phase if piece.is_constant else _varying_piece_phase
        alpha = _spike_phase(advance(alpha, piece, lams), lams, piece.jump)
    ts = ((alpha + angles.theta1) / math.pi).tolist()  # past the right mark, in units of pi
    on_mark = [abs(t - round(t)) * math.pi <= _PHASE_TOL for t in ts]
    counts = [round(t) - 1 if flag else math.floor(t) for t, flag in zip(ts, on_mark)]
    return [EigenvalueCount(max(0, k), flag) for k, flag in zip(counts, on_mark)]


def negative_eigenvalue_count(
    problem: ScatteringProblem, lam: float, angles: BoundaryAngles
) -> EigenvalueCount:
    """``negative_eigenvalue_counts`` for one coupling."""
    return negative_eigenvalue_counts(problem, [lam], angles)[0]


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


def _tent_integrals(
    problem: ScatteringProblem, centers: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """(int Q phi^2, int V phi^2 + spike terms) for tents at increasing centers.

    Each tent half is clipped to each layout piece it meets and integrated
    with the piece's local coefficients, by a Gauss rule exact there.
    """
    jump0, pieces = engine._layout(problem.Q, problem.V)
    deg = max(max(len(p.q_coeffs), len(p.v_coeffs)) - 1 for p in pieces)
    xg, wg, _ = _reference_rule(max(6, (deg + 3) // 2 + 1))
    iq, iv = np.zeros((2, len(centers)))
    for piece in pieces:
        i, j = np.searchsorted(centers, (piece.x0 - eps, piece.x1 + eps))
        c = centers[i:j]
        for a, b in ((c - eps, c), (c, c + eps)):
            lo = np.maximum(a, piece.x0)
            half = 0.5 * np.maximum(np.minimum(b, piece.x1) - lo, 0.0)
            xs = lo[:, None] + half[:, None] * (xg + 1.0)
            phi2 = tent_value(xs - c[:, None], eps) ** 2
            iq[i:j] += half * ((npoly.polyval(xs - piece.x0, piece.q_coeffs) * phi2) @ wg)
            iv[i:j] += half * ((npoly.polyval(xs - piece.x0, piece.v_coeffs) * phi2) @ wg)
    for x, w in [(0.0, jump0)] + [(p.x1, p.jump) for p in pieces]:  # w = 0: no spike
        iv += w * tent_value(x - centers, eps) ** 2
    return iq, iv


def tent_witness(
    problem: ScatteringProblem, lam: float, N: int
) -> TentWitness:
    """Search for N disjoint tents with negative Rayleigh quotients.

    The schedule halves eps from 1/4 down to 2^-20; for each eps the
    candidate centers (a grid of pitch eps/2, capped at 1024 points) are
    scored all at once by ``_tent_integrals`` over the layout pieces,
    ranked greedily by the coupling term lam * int V phi^2 (most negative
    first) and picked subject to disjointness.  The returned witness is
    sound by construction: each recorded Rayleigh value
    3/eps^2 + int Q phi^2 + lam int V phi^2 was evaluated and found
    negative.

    Raises
    ------
    WitnessNotFoundError
        Schedule exhausted.  Not a disproof; reported as inconclusive.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"coupling must be finite, not {lam}")
    if N < 1:
        raise ValueError("witness size N must be >= 1")
    eps = 0.25
    while eps >= 2.0**-20:
        margin = 1e-9 * eps
        step = max(eps / 2.0, (1.0 - 2.0 * eps) / 1024.0)
        candidates = np.arange(eps + margin, 1.0 - eps + step, step)
        candidates = candidates[candidates <= 1.0 - eps - margin]
        if len(candidates) >= N:
            iq, iv = _tent_integrals(problem, candidates, eps)
            scores = lam * iv
            # quantize scores so fp-noise ties break by position: for equal
            # scores left-to-right packing is the densest greedy order
            scale = max(1.0, float(np.abs(scores).max()))
            orders = [
                np.argsort(np.round(scores / scale, 9), kind="stable"),
                np.flatnonzero(scores <= 0.0),
            ]
            centers = candidates.tolist()
            for order in orders:
                picked: list[int] = []
                for i in order.tolist():
                    if all(abs(centers[i] - centers[p]) >= 2.0 * eps + margin for p in picked):
                        picked.append(i)
                        if len(picked) == N:
                            break
                if len(picked) < N:
                    continue
                picked.sort()
                values = tent_gradient_energy(eps) + iq[picked] + lam * iv[picked]
                if np.all(values < 0.0):
                    picked_centers = tuple(centers[p] for p in picked)
                    return TentWitness(picked_centers, eps, tuple(values.tolist()))
        eps /= 2.0
    raise WitnessNotFoundError(
        f"no {N}-tent witness found at coupling {lam:g} "
        "(inconclusive, not a disproof)"
    )
