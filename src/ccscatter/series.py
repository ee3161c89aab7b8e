"""Power-series route to (a, b): iterated kernels with certified tails.

The perturbed solution solves a Volterra equation with triangular kernel

    K(x, t) = [u0(x) v0(t) - v0(x) u0(t)] V(t),

and repeated substitution turns the simplex integrals of the resulting
series into nested one-dimensional passes,

    I_0 = u0,   I_n(x) = int_0^x K(x, t) I_{n-1}(t) dt,
    a_n = int_0^1 v0 V I_{n-1},   b_n = -int_0^1 u0 V I_{n-1},

which this module evaluates on a composite Gauss-Legendre grid with exact
within-panel cumulative integration.  Truncation is certified by the
coefficient bound

    |b_n| <= M^{n+1} ||V||_1^n / (n! (n-1)^(n-1)),

where M dominates both sup|u0| and the kernel ratio |K| / (|s-t| |V(t)|).
One walk of the reference solutions serves the coarse and the fine
quadrature grids and the grid that certifies M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as npoly

from . import engine
from .errors import MeasureUnsupportedError, QuadraturePrecisionError
from .problem import ScatteringProblem
from .scattering import Coefficients

_EPS = np.finfo(float).eps
_SUP_XS = np.linspace(0.0, 1.0, 513)  # the grid that certifies M
_SUP_ROWS = 64  # rows of the grid's pair table held at once


def _factorial_term(lead: float, base: float, n: int) -> float:
    """lead * base^n / (n! (n-1)^(n-1)) with 0^0 = 1, in log space."""
    if n == 0:
        return lead
    if lead <= 0.0 or base <= 0.0:
        return 0.0
    log_term = (
        math.log(lead)
        + n * math.log(base)
        - math.lgamma(n + 1)
        - (0.0 if n == 1 else (n - 1) * math.log(n - 1))
    )
    if log_term > 700.0:
        return float("inf")
    return math.exp(log_term)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre layout for the nested simplex passes."""

    nodes_per_panel: int = 12
    panels_per_unit: int = 8

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(self.nodes_per_panel, 2 * self.panels_per_unit)


@functools.lru_cache(maxsize=16)
def _reference_rule(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and cumulative matrix on [-1, 1], shared and read-only.

    The cumulative matrix C maps values at the g Gauss nodes to the
    integrals from -1 to each node of the degree-(g-1) interpolant.
    """
    x, w = npleg.leggauss(g)
    vand = npleg.legvander(x, g - 1)
    anti = npleg.legint(np.eye(g), axis=0)
    partial = npleg.legval(x, anti) - npleg.legval(-1.0, anti)[:, None]
    cum = partial.T @ np.linalg.inv(vand)
    for a in (x, w, cum):
        a.flags.writeable = False
    return x, w, cum


class _Grid:
    """Composite quadrature grid aligned with the potential breakpoints.

    Every panel holds the g nodes of the reference rule, so values on the
    grid reshape to one row per panel.
    """

    def __init__(self, problem: ScatteringProblem, spec: QuadratureSpec):
        ref_x, self._ref_w, self._ref_cum = _reference_rule(spec.nodes_per_panel)
        nodes, halves, v = [], [], []
        for piece in engine._pieces(problem):
            n_panels = max(1, int(np.ceil(piece.length * spec.panels_per_unit)))
            edges = np.linspace(piece.x0, piece.x1, n_panels + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                halves.append(0.5 * (b - a))
                nodes.append(a + halves[-1] * (ref_x + 1.0))
                v.append(npoly.polyval(nodes[-1] - piece.x0, piece.v_coeffs))
        self.half = np.array(halves)
        self.nodes = np.concatenate(nodes)
        self.weights = (self.half[:, None] * self._ref_w).ravel()
        self.V = np.concatenate(v)

    def total(self, f: np.ndarray) -> complex:
        return complex(np.dot(self.weights, f))

    def cumulative(self, f: np.ndarray) -> np.ndarray:
        """int_0^{node} of the panel-wise interpolant of f."""
        panels = f.reshape(len(self.half), -1)
        totals = np.cumsum(self.half * (panels @ self._ref_w))
        start = np.concatenate(([0.0], totals[:-1]))
        return (start[:, None] + self.half[:, None] * (panels @ self._ref_cum.T)).ravel()


@dataclass(frozen=True)
class SeriesExpansion:
    """Truncated expansions of a and b with certified tail data.

    ``a_coeffs[n]``, ``b_coeffs[n]`` for n = 0..N; ``M_bound`` is the
    certified constant of the coefficient bound (``Mv_bound`` its analogue
    for the leading v0 factor of the a-series), and the per-coefficient
    quadrature errors feed the certificate of :func:`evaluate_series`.
    """

    a_coeffs: tuple[complex, ...]
    b_coeffs: tuple[complex, ...]
    M_bound: float
    Mv_bound: float
    l1_norm: float
    a_quad_err: tuple[float, ...]
    b_quad_err: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.b_coeffs) - 1

    def coefficient_bound(self, n: int, leading: float | None = None) -> float:
        """The factorial bound on |b_n| (or |a_n| with leading=Mv_bound)."""
        lead = self.M_bound if leading is None else leading
        return _factorial_term(lead, self.M_bound * self.l1_norm, n)

    def tail_bound(self, abs_lam: float, order: int | None = None) -> float:
        """Certified bound on the dropped tail at |lambda| = abs_lam."""
        n0 = (self.order if order is None else order) + 1
        lead = max(self.M_bound, self.Mv_bound)
        base = self.M_bound * self.l1_norm * abs_lam
        total = 0.0
        prev = float("inf")
        for n in range(n0, n0 + 4000):
            term = _factorial_term(lead, base, n)
            if not np.isfinite(term):
                return float("inf")
            total += term
            if term < prev and term <= 1e-3 * _EPS * (total + 1e-300):
                return total
            prev = term
        return float("inf")


def kernel(problem: ScatteringProblem, x: float, t: float) -> complex:
    """Triangular kernel K(x, t) = [u0(x) v0(t) - v0(x) u0(t)] V(t).

    Defined for 0 <= t <= x <= 1 and vanishes identically on the diagonal.
    """
    if problem.V.has_spikes:
        raise MeasureUnsupportedError(
            "series kernel needs an L^1 perturbation; spikes are measures"
        )
    x, t = float(x), float(t)
    if not (0.0 <= t <= x <= 1.0):
        raise ValueError("kernel requires 0 <= t <= x <= 1")
    if x == t:
        return 0.0 + 0.0j
    u0, _, v0, _ = engine.reference_states(problem, np.array([t, x]))
    return complex((u0[1] * v0[0] - v0[1] * u0[0]) * problem.V(t))


def M_constant(problem: ScatteringProblem) -> float:
    """Grid-certified constant for the coefficient bounds.

    Smallest M on a 513-point grid with |u0| <= M and
    |u0(s) v0(t) - v0(s) u0(t)| <= M |s - t|, inflated by the documented
    safety factor 1.01.
    """
    u0, _, v0, _ = engine.reference_states(problem, _SUP_XS)
    return _sup_constants(u0, v0)[0]


def _sup_constants(u0: np.ndarray, v0: np.ndarray) -> tuple[float, float]:
    """(M, Mv) of ``M_constant`` from u0 and v0 on ``_SUP_XS``, a block of rows at a time.

    fl(ab - cd) = -fl(cd - ab), so the ratio is read on the triangle t > s alone, and a
    real reference in real arithmetic, whose products, differences and moduli are the same.
    """
    if not (u0.imag.any() or v0.imag.any()):
        u0, v0 = u0.real, v0.real
    xs, ratio = _SUP_XS, 1.0  # the diagonal limit is |W[u0, v0]| = 1 exactly
    for i in range(0, len(xs), _SUP_ROWS):
        rows = slice(i, i + _SUP_ROWS)
        cross = np.abs(u0[rows, None] * v0[i:] - v0[rows, None] * u0[i:])
        dx = xs[i:] - xs[rows, None]
        dx[dx <= 0.0] = np.inf  # t <= s lies outside the triangle
        ratio = max(ratio, float((cross / dx).max()))
    m = max(float(np.abs(u0).max()), ratio)
    return 1.01 * m, 1.01 * float(np.abs(v0).max())


def _coefficients_on_grid(
    grid: _Grid, u0: np.ndarray, v0: np.ndarray, N: int
) -> tuple[list[complex], list[complex]]:
    a = [1.0 + 0.0j]
    b = [0.0 + 0.0j]
    iterate = u0.copy()
    weight_v = v0 * grid.V
    weight_u = u0 * grid.V
    for _ in range(N):
        fa = weight_v * iterate
        fb = weight_u * iterate
        a.append(grid.total(fa))
        b.append(-grid.total(fb))
        A = grid.cumulative(fa)
        B = grid.cumulative(fb)
        iterate = u0 * A - v0 * B
    return a, b


def series_coefficients(
    problem: ScatteringProblem,
    N: int = 16,
    quad: QuadratureSpec | None = None,
) -> SeriesExpansion:
    """Expansion coefficients a_0..a_N, b_0..b_N by nested quadrature.

    Each coefficient is computed at two panel refinements; the refined
    value is kept and the difference reported as its quadrature error.

    Raises
    ------
    MeasureUnsupportedError
        The perturbation carries spikes (the L^1 bounds do not apply).
    QuadraturePrecisionError
        Refinement failed to stabilize a coefficient.
    """
    if problem.V.has_spikes:
        raise MeasureUnsupportedError(
            "series expansion needs an L^1 perturbation; spikes are measures"
        )
    if N < 1:
        raise ValueError("series order N must be >= 1")
    spec = quad if quad is not None else QuadratureSpec()
    coarse = _Grid(problem, spec)
    fine = _Grid(problem, spec.refined())
    # one walk for all three grids: its values are pointwise, whatever nodes share it
    nodes = np.concatenate((coarse.nodes, fine.nodes, _SUP_XS))
    order = np.argsort(nodes, kind="stable")
    ref = np.empty((2, len(nodes)), dtype=complex)  # rows u0, v0
    ref[0, order], _, ref[1, order], _ = engine.reference_states(problem, nodes[order])
    ref_c, ref_f, ref_s = np.split(ref, np.cumsum([len(coarse.nodes), len(fine.nodes)]), axis=1)
    a1, b1 = _coefficients_on_grid(coarse, *ref_c, N)
    a2, b2 = _coefficients_on_grid(fine, *ref_f, N)
    M, Mv = _sup_constants(*ref_s)
    l1 = problem.V.l1_norm

    a_err, b_err = [], []
    lead = max(M, Mv)
    for n in range(N + 1):
        # roundoff floor scales with the coefficient magnitude bound: the
        # nested passes are linear, so absolute FP noise in a tiny high
        # order coefficient is itself tiny
        floor = 64.0 * _EPS * (
            abs(a2[n]) + abs(b2[n]) + _factorial_term(lead, M * l1, n)
        )
        ea = abs(a2[n] - a1[n]) + floor
        eb = abs(b2[n] - b1[n]) + floor
        a_err.append(ea)
        b_err.append(eb)
        scale = max(abs(a2[n]), abs(b2[n]), 1e-12)
        if max(ea, eb) > max(1e-4 * scale, 1e-9):
            raise QuadraturePrecisionError(
                "simplex quadrature did not converge", n
            )
    return SeriesExpansion(
        a_coeffs=tuple(a2),
        b_coeffs=tuple(b2),
        M_bound=M,
        Mv_bound=Mv,
        l1_norm=l1,
        a_quad_err=tuple(a_err),
        b_quad_err=tuple(b_err),
    )


def evaluate_series(exp: SeriesExpansion, lam: complex) -> Coefficients:
    """Evaluate the truncated series with a certified error attached.

    The certificate accumulates per-coefficient quadrature errors, the
    factorial tail bound beyond the truncation order, and a roundoff floor
    proportional to the magnitude sum of the evaluated terms.
    """
    lam = complex(lam)
    if lam == 0.0:
        # a_0 = 1 and b_0 = 0 hold by construction, with zero uncertainty
        return Coefficients(a=1.0 + 0.0j, b=0.0j, lam=lam, method="series", err=0.0)
    r = abs(lam)
    powers = r ** np.arange(exp.order + 1)
    a_val = 0.0 + 0.0j
    b_val = 0.0 + 0.0j
    for n in range(exp.order, -1, -1):  # Horner
        a_val = a_val * lam + exp.a_coeffs[n]
        b_val = b_val * lam + exp.b_coeffs[n]
    mag = float(
        np.dot(np.abs(exp.a_coeffs) + np.abs(exp.b_coeffs), powers)
    )
    quad_part = float(
        max(np.dot(exp.a_quad_err, powers), np.dot(exp.b_quad_err, powers))
    )
    certified = quad_part + exp.tail_bound(r) + 500.0 * _EPS * (1.0 + mag)
    return Coefficients(
        a=complex(a_val), b=complex(b_val), lam=lam, method="series", err=certified
    )
