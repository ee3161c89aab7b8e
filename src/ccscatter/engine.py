"""Propagation engine for -u'' + (Q + lam*V) u = 0 on [0, 1].

The interval is split at every polynomial breakpoint and spike position.
On each piece the coefficient c(x) = Q(x) + lam*V(x) is a single
polynomial and the first-order system (u, u') is advanced with a two-point
Gauss Magnus step,

    Omega = (h/2)(A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1],
    exp(Omega) = cosh(s) I + sinh(s)/s * Omega,   s^2 = det-free invariant,

which is fourth-order accurate, exact on constant-coefficient pieces, and
has unit determinant by construction, so the Wronskian of solution pairs
is preserved to rounding no matter how coarse the subdivision is.  Pieces
with genuinely varying coefficients are refined by step doubling until the
Richardson error estimate meets the problem tolerance.

Everything is vectorized over a batch of coupling values: the same
subdivision is applied to every lam in the batch.  The steps of a piece are
held as four component arrays, one per matrix entry, and multiplied by a
pairwise reduction in log2(n) vectorized levels.

``_layout`` is the one place that decides how [0, 1] is walked: it returns
the weight of the spike at 0 and the pieces, each carrying the weight of
the spike at its right end.  A spike contributes the jump
u' -> u' + lam * weight * u.  ``transfer_matrices`` walks the layout from
0- to 1+, and every whole-interval quantity (coefficients, reflection,
``propagate``, ``transfer_matrix``) is a read-out of it; spectral's phase
count walks the same layout.  ``reference_states`` steps between interior
nodes over clipped pieces; it runs at lam = 0, where spikes are the
identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IntegrationError
from .problem import Pair, PotentialSpec, ScatteringProblem

# Gauss-Legendre 2-point nodes of a unit step, as a column: 1/2 -/+ sqrt(3)/6
_GAUSS_NODES = 0.5 + np.array([[-1.0], [1.0]]) * (math.sqrt(3.0) / 6.0)
_MAX_SUBSTEPS = 1 << 15
_BLOCK_ENTRIES = 1 << 13  # steps x couplings per block of the sweep's product


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 complex matrix propagating (u, u') across [0, 1] at one coupling.

    ``entries`` maps left data to right data *after* any spike at x = 1 has
    been applied.  The determinant equals 1 up to rounding.
    """

    entries: tuple[tuple[complex, complex], tuple[complex, complex]]
    lam: complex
    err_estimate: float

    @property
    def det(self) -> complex:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    def apply(self, state: Pair) -> Pair:
        (a, b), (c, d) = self.entries
        u, up = complex(state[0]), complex(state[1])
        return (a * u + b * up, c * u + d * up)


# ---------------------------------------------------------------------------
# piece decomposition


@dataclass(frozen=True)
class _Piece:
    x0: float
    x1: float
    q_coeffs: tuple[float, ...]  # local to x0
    v_coeffs: tuple[float, ...]  # local to x0
    jump: float = 0.0  # weight of the spike at x1

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    @property
    def is_constant(self) -> bool:
        return len(self.q_coeffs) == 1 and len(self.v_coeffs) == 1


def _shift_poly(coeffs: tuple[float, ...], delta: float) -> tuple[float, ...]:
    """Coefficients of p(delta + xi) given those of p(xi)."""
    if len(coeffs) == 1 or delta == 0.0:
        return coeffs
    poly = np.polynomial.Polynomial(coeffs)
    shifted = poly(np.polynomial.Polynomial([delta, 1.0]))
    return tuple(float(c) for c in shifted.coef)


def _local_coeffs(pot: PotentialSpec, x: float) -> tuple[float, ...]:
    # x is the left end of a piece: take the segment extending rightward
    lo, _, c = pot.segment_at(x, from_right=True)
    return _shift_poly(c, x - lo)


@functools.lru_cache(maxsize=256)
def _layout(q: PotentialSpec, v: PotentialSpec) -> tuple[float, tuple[_Piece, ...]]:
    """How [0, 1] is walked: (weight of the spike at 0, pieces).

    Pieces are split at every breakpoint and spike position, so each spike
    in (0, 1] sits at the right end of exactly one piece, as its ``jump``.
    """
    spikes = dict(v.spikes)
    cuts = sorted(set(q.breakpoints) | set(v.breakpoints) | set(spikes))
    cuts = [c for c in cuts if 0.0 <= c <= 1.0]
    if cuts[0] != 0.0:
        cuts.insert(0, 0.0)
    if cuts[-1] != 1.0:
        cuts.append(1.0)
    pieces = tuple(
        _Piece(lo, hi, _local_coeffs(q, lo), _local_coeffs(v, lo), spikes.get(hi, 0.0))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )
    return spikes.get(0.0, 0.0), pieces


def _pieces(problem: ScatteringProblem) -> tuple[_Piece, ...]:
    return _layout(problem.Q, problem.V)[1]


def _clip_piece(piece: _Piece, lo: float, hi: float) -> _Piece:
    """The part of a piece inside [lo, hi], without its spike."""
    lo = max(lo, piece.x0)
    hi = min(hi, piece.x1)
    return _Piece(
        lo,
        hi,
        _shift_poly(piece.q_coeffs, lo - piece.x0),
        _shift_poly(piece.v_coeffs, lo - piece.x0),
    )


# ---------------------------------------------------------------------------
# Magnus stepping (batched over couplings)


def _step_matrices(c1: np.ndarray, c2: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """exp(Omega) for one Magnus step, as its entries (a, b, c, d).

    Each entry has the shape of ``c1``.  cosh(s) and sinh(s)/s come from
    real functions of Re s and Im s.  Overflow at extreme couplings
    produces non-finite entries here; the sweep detects them and raises
    IntegrationError, so warnings are suppressed rather than surfaced.
    """
    cbar = 0.5 * (c1 + c2)
    d = (math.sqrt(3.0) * h * h / 12.0) * (c1 - c2)
    s = np.sqrt((d * d + h * h * cbar).astype(complex, copy=False))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        chx, shx = np.cosh(s.real), np.sinh(s.real)
        cy, sy = np.cos(s.imag), np.sin(s.imag)
        ch = chx * cy + 1j * (shx * sy)
        shc = (shx * cy + 1j * (chx * sy)) / s
        if not s.all():
            shc[s == 0.0] = 1.0  # the limit; the quotient is accurate for all s != 0
        shd, b = shc * d, shc * h
        return ch + shd, b, b * cbar, ch - shd


def _gauss_coefficients(
    piece: _Piece, lams: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """c = Q + lam*V at the Gauss nodes of n equal sub-steps: (c1, c2, h).

    ``c1`` and ``c2`` have shape (L, n); ``h`` is the sub-step length.  The
    sweep and spectral's phase count both step from these values, so the
    coefficients and the eigenvalue counts use one discretization.
    """
    h = piece.length / n
    offsets = (piece.x0 + h * np.arange(n)) - piece.x0
    xs = offsets + _GAUSS_NODES * h  # (2, n): both nodes of every sub-step
    q = npoly.polyval(xs, piece.q_coeffs)
    v = npoly.polyval(xs, piece.v_coeffs)
    c = lams[:, None] * v[:, None, :]
    c += q[:, None, :]  # in place: c is the largest array of a sweep
    return c[0], c[1], h


def _product(later, earlier):
    """Entries (a, b, c, d) of later @ earlier, for 2x2 matrices given by theirs."""
    (la, lb, lc, ld), (ea, eb, ec, ed) = later, earlier
    return la * ea + lb * ec, la * eb + lb * ed, lc * ea + ld * ec, lc * eb + ld * ed


def _tree_product(steps):
    """Product over axis 1 of 2x2 steps given by their entries, as a pairwise tree.

    Each level multiplies neighbours, later times earlier; an odd last step
    waits for the next level.  Axis 1 of the returned entries has length 1.
    """
    while steps[0].shape[1] > 1:
        m = steps[0].shape[1] // 2 * 2
        pairs = _product([x[:, 1:m:2] for x in steps], [x[:, 0:m:2] for x in steps])
        if m < steps[0].shape[1]:
            pairs = [np.hstack((p, x[:, m:])) for p, x in zip(pairs, steps)]
        steps = pairs
    return steps


def _sweep(piece: _Piece, lams: np.ndarray, n: int) -> np.ndarray:
    """Transfer matrices across one piece with n Magnus sub-steps.

    The steps are multiplied as one pairwise tree.  Its lower levels run on
    cache-sized blocks of a power-of-two number of steps, whose products
    then finish the same tree, so blocking changes no rounding.
    """
    c1, c2, h = _gauss_coefficients(piece, lams, n)
    width = 1 << max(6, (_BLOCK_ENTRIES // len(lams)).bit_length() - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [
            _tree_product(_step_matrices(c1[:, j : j + width], c2[:, j : j + width], h))
            for j in range(0, n, width)
        ]
        if len(blocks) > 1:
            blocks = [_tree_product([np.hstack(e) for e in zip(*blocks)])]
    return np.concatenate(blocks[0], axis=1).reshape(-1, 2, 2)


def _matrix_scale(M: np.ndarray) -> np.ndarray:
    return np.abs(M).max(axis=(-2, -1))


def _initial_substeps(piece: _Piece, lams: np.ndarray) -> int:
    qmax = max(abs(c) for c in piece.q_coeffs) * max(1.0, piece.length)
    vmax = max(abs(c) for c in piece.v_coeffs) * max(1.0, piece.length)
    cmax = qmax + float(np.abs(lams).max()) * vmax
    n = max(4, int(piece.length * math.sqrt(cmax) / 2.0) + 1)
    return min(n, _MAX_SUBSTEPS)


def _piece_transfer(
    piece: _Piece, lams: np.ndarray, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive transfer over a piece; returns (matrices, relative errors)."""
    if piece.is_constant:
        return _sweep(piece, lams, 1), np.zeros(lams.shape)

    n = _initial_substeps(piece, lams)
    M = _sweep(piece, lams, n)
    while True:
        M2 = _sweep(piece, lams, 2 * n)
        diff = _matrix_scale(M2 - M)
        scale = _matrix_scale(M2) + 1.0
        # Richardson for 4th order would divide by 15; keep a safety margin
        rel = diff / (4.0 * scale)
        if not np.all(np.isfinite(scale)):
            raise IntegrationError("propagation overflowed", piece.x0)
        if np.all(rel <= rtol):
            return M2, rel
        n *= 2
        if 2 * n > _MAX_SUBSTEPS:
            raise IntegrationError("step refinement exhausted", piece.x0)
        M = M2


def _spike_matrices(lams: np.ndarray, weight: float) -> np.ndarray:
    out = np.zeros(lams.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    out[..., 1, 0] = lams * weight
    return out


# ---------------------------------------------------------------------------
# public operations


def apply_delta(state: Pair, lam: complex, weight: float) -> Pair:
    """Jump condition of a point mass: u continuous, u' += lam*weight*u."""
    u, up = complex(state[0]), complex(state[1])
    return (u, up + complex(lam) * weight * u)


def transfer_matrices(
    problem: ScatteringProblem, lams, *, rtol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices from 0- to 1+ for a batch of couplings.

    Walks the layout: the spike at 0, then each piece followed by the spike
    at its right end.  Returns (matrices of shape (L, 2, 2), error
    estimates of shape (L,)).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    tol = problem.tolerances.ode_rtol if rtol is None else rtol
    jump0, pieces = _layout(problem.Q, problem.V)
    M = np.broadcast_to(np.eye(2, dtype=complex), lams.shape + (2, 2)).copy()
    err = np.zeros(lams.shape)
    if jump0:
        M = _spike_matrices(lams, jump0) @ M
    for piece in pieces:
        Mp, rel = _piece_transfer(piece, lams, tol)
        M = Mp @ M
        err = err + rel
        if piece.jump:
            M = _spike_matrices(lams, piece.jump) @ M
    if not np.all(np.isfinite(M.view(float))):
        raise IntegrationError("propagation produced non-finite values", 1.0)
    return M, err * (_matrix_scale(M) + 1.0)


def propagate(problem: ScatteringProblem, lam: complex, init: Pair) -> Pair:
    """Propagate (u, u') from 0- to 1+ at coupling lam (spikes included)."""
    M, _ = transfer_matrices(problem, [lam])
    u = M[0, 0, 0] * init[0] + M[0, 0, 1] * init[1]
    up = M[0, 1, 0] * init[0] + M[0, 1, 1] * init[1]
    return (complex(u), complex(up))


def transfer_matrix(problem: ScatteringProblem, lam: complex) -> TransferMatrix:
    """Transfer matrix over [0, 1] at a single coupling value."""
    M, err = transfer_matrices(problem, [lam])
    m = M[0]
    floor = 5e-16 * float(_matrix_scale(m)) * (len(_pieces(problem)) + 1)
    return TransferMatrix(
        entries=(
            (complex(m[0, 0]), complex(m[0, 1])),
            (complex(m[1, 0]), complex(m[1, 1])),
        ),
        lam=complex(lam),
        err_estimate=float(err[0]) + floor,
    )


def reference_states(
    problem: ScatteringProblem, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Values (u0, u0', v0, v0') of the reference solutions at sorted xs.

    Reference solutions solve the zero-coupling equation, where spikes are
    the identity, so the walk steps over the clipped pieces alone.  ``xs``
    must lie in [0, 1] and be nondecreasing.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if len(xs) and (xs[0] < -1e-12 or xs[-1] > 1.0 + 1e-12):
        raise ValueError("xs must lie in [0, 1]")
    if np.any(np.diff(xs) < 0):
        raise ValueError("xs must be nondecreasing")
    u0 = np.empty(len(xs), dtype=complex)
    u0p = np.empty(len(xs), dtype=complex)
    v0 = np.empty(len(xs), dtype=complex)
    v0p = np.empty(len(xs), dtype=complex)
    zero = np.array([0.0 + 0.0j])
    tol = problem.tolerances.ode_rtol
    pieces = _pieces(problem)
    M = np.eye(2, dtype=complex)
    x_prev = 0.0
    for i, x in enumerate(xs):
        x = min(max(float(x), 0.0), 1.0)
        if x > x_prev:
            step = np.eye(2, dtype=complex)[None]
            for piece in pieces:
                if x_prev < piece.x1 and piece.x0 < x:
                    part = _clip_piece(piece, x_prev, x)
                    step = _piece_transfer(part, zero, tol)[0] @ step
            M = step[0] @ M
            x_prev = x
        ru = M @ np.array(problem.ref.u0_at_0)
        rv = M @ np.array(problem.ref.v0_at_0)
        u0[i], u0p[i] = ru
        v0[i], v0p[i] = rv
    return u0, u0p, v0, v0p
