"""Oscillation-theory machinery: boundary angles, eigenvalue counts, tents.

The reference solution u0 fixes self-adjoint boundary conditions

    cos(theta_x) u(x) + sin(theta_x) u'(x) = 0,   x in {0, 1},

for operators H_lam u = -u'' + (Q + lam V) u on [0, 1].  Negative
eigenvalues of H_lam are counted by the winding of the phase in the polar
representation u = rho sin(alpha), u' = rho cos(alpha), integrated at
energy zero: the phase can cross multiples of pi only upward, so the
terminal phase against the right boundary mark gives the count exactly.

Each map of the walk is a lifted element: M / |M|, log scale, and the lifted
phase it gives to alpha = 0, as in the rotation number of Johnson and Moser
(Comm. Math. Phys. 84, 1982).  The left condition, spikes, constant pieces in
closed form and the engine's Magnus sub-steps meet in one pairwise tree.

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


def _lift(M: np.ndarray, log_scale=0.0, strip=0.0) -> np.ndarray:
    """Lifted elements (3, 2, ...) of maps exp(log_scale) M of determinant 1.

    An element holds M / |M| (max-abs entry) in [:2], then its log scale ls and
    the lifted phase theta that it gives to alpha = 0.  In the given strip k,
    theta - k pi = atan2(|M01|, (-1)^k M11): a sign roundoff of M01 keeps theta
    at a mark, not pi away.
    """
    out = np.empty((3, 2) + M.shape[2:])
    peak = engine._matrix_scale(M)
    np.divide(M, peak, out=out[:2])
    out[2, 0] = log_scale + np.log(peak)
    sign = 1.0 - 2.0 * np.remainder(strip, 2.0)
    out[2, 1] = strip * math.pi + np.arctan2(np.abs(M[0, 1]), sign * M[1, 1])
    return out


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lifted element of a after b.

    With theta_b = k pi + phi, 0 <= phi < pi, and e_phi = (sin phi, cos phi), its
    phase is k pi + theta_a + the angle from A e_0 to A e_phi, in [0, pi].  That
    angle's sine part, det(A) sin(phi) = exp(-2 ls_a) sin(phi) >= 0, is exact, so
    no rounding moves it by pi, even where A / |A| is nearly of rank one.
    """
    A = a[:2]
    k, phi = np.divmod(b[2, 1], math.pi)
    sin, cos = np.sin(phi), np.cos(phi)
    dot = ((A[:, 0] * sin + A[:, 1] * cos) * A[:, 1]).sum(axis=0)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    M = engine._mul(A, b[:2], out=out[:2])
    peak = engine._matrix_scale(M)
    M /= peak
    out[2, 0] = a[2, 0] + b[2, 0] + np.log(peak)
    out[2, 1] = k * math.pi + a[2, 1] + np.arctan2(sin * np.exp(-2.0 * a[2, 0]), dot)
    return out


def _constant_leaves(pieces: list[engine._Piece], lams: np.ndarray) -> np.ndarray:
    """Lifted elements (3, 2, L, K) across pieces where u'' = c u, c constant.

    c < 0, w = sqrt(-c): the map [[cos, sin/w], [-w sin, cos]] of wh takes
    alpha = 0 to the marks of atan2(w u, u') = wh, in strip floor(wh / pi).
    c >= 0: cosh(wh) [[1, t/w], [w t, 1]], t = tanh(wh), which cannot overflow;
    c = 0 is read as c = 1e-300, where t/w is h to rounding.
    """
    q, v, h = np.array([(p.q_coeffs[0], p.v_coeffs[0], p.length) for p in pieces]).T
    c = q + lams[:, None] * v
    w = np.sqrt(np.maximum(np.abs(c), 1e-300))
    x = w * h
    grows = c >= 0.0
    sin = np.where(grows, np.tanh(x), np.sin(x))
    diag = np.where(grows, 1.0, np.cos(x))
    M = np.array([[diag, sin / w], [np.where(grows, w, -w) * sin, diag]])
    log_cosh = x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)
    return _lift(M, np.where(grows, log_cosh, 0.0), np.where(grows, 0.0, np.floor(x / math.pi)))


def _varying_leaf(piece: engine._Piece, lams: np.ndarray) -> np.ndarray:
    """Lifted element (3, 2, L) across a varying piece, from n Magnus sub-steps.

    n is ``engine._resolving_substeps``, so each sub-step turns alpha = 0 by less
    than pi.  Blocks of ``engine._BLOCK_ENTRIES`` steps times couplings cap memory.
    """
    n = engine._resolving_substeps(piece, lams)
    k = max(1, engine._BLOCK_ENTRIES // max(1, len(lams)))
    leaf = None
    for lo in range(0, n, k):
        q, v, h = engine._node_values(piece, n, lo, min(n, lo + k))
        steps = engine._step_matrices(lams[:, None] * v[:, None] + q[:, None], h)
        block = engine._tree_product(_lift(steps), _compose)
        leaf = block if leaf is None else _compose(block, leaf)
    return leaf


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
    walk = engine._layout(problem.Q, problem.V)
    # leaves: 0 turns alpha = 0 to the left condition, k is item k - 1 of the walk
    leaves = np.zeros((2, 2, len(lams), len(walk) + 1))
    leaves[0, 0] = leaves[1, 1] = 1.0
    a0 = (-angles.theta0) % math.pi
    leaves[:, :, :, 0] = [[[math.cos(a0)], [math.sin(a0)]], [[-math.sin(a0)], [math.cos(a0)]]]
    pieces = {k: item for k, item in enumerate(walk, 1) if isinstance(item, engine._Piece)}
    for k, item in enumerate(walk, 1):
        if k not in pieces:  # a spike's jump
            leaves[1, 0, :, k] = lams * item
    leaves = _lift(leaves)
    cols = [k for k, piece in pieces.items() if piece.is_constant]
    if cols:  # one pass over every constant piece
        leaves[..., cols] = _constant_leaves([pieces[k] for k in cols], lams)
    for k, piece in pieces.items():
        if not piece.is_constant:
            leaves[..., k] = _varying_leaf(piece, lams)
    alpha = engine._tree_product(leaves, _compose)[2, 1]
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
    pieces = engine._pieces(problem)
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
    for x, w in problem.V.spikes:
        iv += w * tent_value(x - centers, eps) ** 2
    return iq, iv


def _rayleigh_floor(problem: ScatteringProblem, lam: float) -> tuple[float, float]:
    """(m, S): m a lower bound of Q + lam V on [0, 1], S = sum max(0, -lam w)
    over the spikes in (0, 1).

    m is the least min Q + min(lam min V, lam max V) of the pieces' ``ranges``,
    exact where Q or V is constant on a piece.  A unit tent of half-width eps
    inside [0, 1] has phi^2 <= 1.5 / eps and vanishes at 0 and 1, where spikes
    add nothing, so its Rayleigh value is at least 3/eps^2 + m - 1.5 S / eps,
    which decreases in eps for eps < 4 / S.
    """
    m = min(p.ranges[0][0] + min(lam * v for v in p.ranges[1]) for p in engine._pieces(problem))
    return m, sum(max(0.0, -lam * w) for x, w in problem.V.spikes if 0.0 < x < 1.0)


def tent_witness(
    problem: ScatteringProblem, lam: float, N: int
) -> TentWitness:
    """Search for N disjoint tents with negative Rayleigh quotients.

    The schedule halves eps from 1/4 down to 2^-20; for each eps the
    Rayleigh values 3/eps^2 + int Q phi^2 + lam int V phi^2 of the
    candidate centers (a grid of pitch eps/2, capped at 1024 points) come
    all at once from ``_tent_integrals`` over the layout pieces.  Walking
    the candidates left to right, a tent of negative value is taken when
    its center lies at least 2 eps + margin past the last one taken.  Tents
    of one width are intervals of one length, for which this earliest-first
    greedy is exact (interval scheduling; Kleinberg and Tardos, Algorithm
    Design, 2006, 4.1): it takes as many pairwise disjoint negative tents
    as any choice can, so the search returns the first N at the first eps
    where N exist.  The witness is sound by construction: each recorded
    Rayleigh value was evaluated and found negative.

    The search stops early once the floor of ``_rayleigh_floor`` proves
    that no tent of this eps or narrower has a negative value: the floor
    exceeds 1e-9 * 3/eps^2 and eps < 4 / S, so it only grows as eps halves.
    A coupling whose floor is positive, where no spike inside (0, 1)
    attracts, is decided before any tent is scored.

    Raises
    ------
    WitnessNotFoundError
        Schedule exhausted, or stopped by the floor.  Not a disproof;
        reported as inconclusive.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"coupling must be finite, not {lam}")
    if N < 1:
        raise ValueError("witness size N must be >= 1")
    floor, attraction = _rayleigh_floor(problem, lam)
    eps = 0.25
    while eps >= 2.0**-20:
        energy = tent_gradient_energy(eps)
        if attraction * eps < 4.0 and energy + floor - 1.5 * attraction / eps > 1e-9 * energy:
            break
        margin = 1e-9 * eps
        step = max(eps / 2.0, (1.0 - 2.0 * eps) / 1024.0)
        candidates = np.arange(eps + margin, 1.0 - eps + step, step)
        candidates = candidates[candidates <= 1.0 - eps - margin]
        if len(candidates) >= N:
            iq, iv = _tent_integrals(problem, candidates, eps)
            values = energy + iq + lam * iv
            picked: list[int] = []
            for i in np.flatnonzero(values < 0.0).tolist():
                if not picked or candidates[i] - candidates[picked[-1]] >= 2.0 * eps + margin:
                    picked.append(i)
                    if len(picked) == N:
                        return TentWitness(
                            tuple(candidates[picked].tolist()), eps, tuple(values[picked].tolist())
                        )
        eps /= 2.0
    raise WitnessNotFoundError(
        f"no {N}-tent witness found at coupling {lam:g} "
        "(inconclusive, not a disproof)"
    )
