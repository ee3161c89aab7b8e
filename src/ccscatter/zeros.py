"""Zero location and counting for the Wronskian coefficient b.

Three views of the same entire function:

* real-axis scans with bracketing and refinement (plus a local-minimum
  sweep that catches even-order zeros where the sign does not change),
* argument-principle counts over disks, with adaptive phase unwrapping,
* growth fitting of both log N(r) and log log max |b| against log r.

A degenerate b (identically zero) is detected first on a fixed control
grid; every counting routine refuses to run on it.

The ``*_fn`` variants operate on a plain callable, which is the seam used
to validate the counting machinery against synthetic functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from .errors import ContourCollisionError, DegenerateFunctionError
from .problem import ScatteringProblem
from .scattering import coefficients_batch, require_real_reference

_DEGENERACY_REAL_GRID = 64
_DEGENERACY_COMPLEX_POINTS = 16
_MAX_CONTOUR_NODES = 1 << 17
_MULTIPLICITY_CAP = 4
_ZERO_THRESHOLD = 1e-9  # relative max|b| on the control grid of a degenerate b
_FIT_NODES = 256  # contour nodes of the max-modulus sample per radius
_SCAN_LABEL = "[{:g}, {:g}] grid={}"


@dataclass(frozen=True)
class ZeroReport:
    """Located real zeros (lam, multiplicity, residual), sorted by |lam|."""

    zeros: tuple[tuple[complex, int, float], ...]
    identically_zero: bool
    scan_range: str


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth data over a set of radii.

    ``count_exponent`` is the slope of log N(r) vs log r;
    ``growth_exponent`` the slope of log log max|b| vs log r.  An entire
    function of order one-half produces slopes near 0.5 on both.
    """

    radii: tuple[float, ...]
    counts: tuple[int, ...]
    log_max_modulus: tuple[float, ...]
    count_exponent: float
    growth_exponent: float
    fit_residual: float


# contour sweeps reach |lam| ~ 1e5 where winding and log-max fitting only
# need ~1e-9 relative values; the problem's own (much tighter) tolerance
# would force excessive refinement of polynomial pieces there
_CONTOUR_RTOL = 1e-9


def _batch_evaluator(
    problem: ScatteringProblem, rtol: float | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    def f(lams: np.ndarray) -> np.ndarray:
        _, b, _ = coefficients_batch(problem, lams, rtol=rtol)
        return b

    return f


def is_identically_zero(problem: ScatteringProblem) -> bool:
    """Control-grid test of the degenerate dichotomy.

    True when max|b| over 64 real points on [-10, 10] plus 16 complex
    points stays below ``1e-9 * (1 + max|a|)``.
    """
    lams = np.concatenate(
        [
            np.linspace(-10.0, 10.0, _DEGENERACY_REAL_GRID).astype(complex),
            5.0
            * np.exp(
                2j
                * np.pi
                * np.arange(_DEGENERACY_COMPLEX_POINTS)
                / _DEGENERACY_COMPLEX_POINTS
            )
            * (1.0 + 0.3j),
        ]
    )
    a, b, _ = coefficients_batch(problem, lams)
    return float(np.abs(b).max()) <= _ZERO_THRESHOLD * (1.0 + float(np.abs(a).max()))


# ---------------------------------------------------------------------------
# real-axis scan


def _multiplicity(
    f: Callable[[float], float], lam0: float, scale: float
) -> int:
    """Order of a zero from scaled central-difference Taylor terms."""
    h = 1e-3 * (1.0 + abs(lam0))
    v = np.array([f(lam0 + k * h) for k in (-2, -1, 0, 1, 2)])
    d1 = (v[3] - v[1]) / (2 * h)
    d2 = (v[3] - 2 * v[2] + v[1]) / h**2
    d3 = (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * h**3)
    d4 = (v[4] - 4 * v[3] + 6 * v[2] - 4 * v[1] + v[0]) / h**4
    terms = np.array(
        [
            abs(d1) * h,
            abs(d2) * h**2 / 2.0,
            abs(d3) * h**3 / 6.0,
            abs(d4) * h**4 / 24.0,
        ]
    )
    top = terms.max()
    noise = 1e3 * np.finfo(float).eps * scale
    if top <= noise:
        return 1
    for m, t in enumerate(terms, start=1):
        if t >= 0.1 * top and t > noise:
            return min(m, _MULTIPLICITY_CAP)
    return _MULTIPLICITY_CAP


def real_zero_scan_fn(
    f_batch: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    grid_points: int,
    *,
    structural_zero_at_origin: bool = False,
) -> ZeroReport:
    """Scan a real-valued function on a grid and refine its zeros."""
    lo, hi = float(interval[0]), float(interval[1])
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    grid = np.linspace(lo, hi, grid_points)
    vals = np.real(f_batch(grid.astype(complex)))
    scale = max(1.0, float(np.abs(vals).max()))

    def f_scalar(x: float) -> float:
        return float(np.real(f_batch(np.array([x], dtype=complex)))[0])

    found: list[float] = []

    def push(lam: float) -> None:
        for seen in found:
            if abs(lam - seen) <= 1e-6 * (1.0 + abs(seen)):
                return
        found.append(lam)

    # sign changes -> bracketed refinement
    sign_change = np.zeros(grid_points, dtype=bool)
    for i in range(grid_points - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            push(float(a))
        elif fa * fb < 0.0:
            sign_change[i] = sign_change[i + 1] = True
            push(float(optimize.brentq(f_scalar, a, b, xtol=1e-14, rtol=1e-15)))
    if vals[-1] == 0.0:
        push(float(grid[-1]))

    # even-order zeros: local minima of |b| that dip below threshold but do
    # not change sign (sign changes were already refined above)
    absvals = np.abs(vals)
    for i in range(1, grid_points - 1):
        if (
            not sign_change[i]
            and not sign_change[i - 1]
            and not sign_change[i + 1]
            and absvals[i] <= absvals[i - 1]
            and absvals[i] <= absvals[i + 1]
            and absvals[i] < 1e-3 * scale
        ):
            res = optimize.minimize_scalar(
                lambda x: abs(f_scalar(x)),
                bounds=(float(grid[i - 1]), float(grid[i + 1])),
                method="bounded",
                options={"xatol": 1e-13},
            )
            if abs(res.fun) <= 1e-8 * scale:
                push(float(res.x))

    if structural_zero_at_origin and lo <= 0.0 <= hi:
        push(0.0)

    zeros = []
    for lam in found:
        residual = abs(f_scalar(lam))
        if residual > 1e-8 * scale:
            continue
        mult = _multiplicity(f_scalar, lam, scale)
        zeros.append((complex(lam), mult, float(residual)))
    zeros.sort(key=lambda z: (abs(z[0]), z[0].real))
    return ZeroReport(tuple(zeros), False, _SCAN_LABEL.format(lo, hi, grid_points))


def real_zero_scan(
    problem: ScatteringProblem,
    interval: tuple[float, float],
    grid_points: int,
) -> ZeroReport:
    """Real zeros of b on an interval.

    Degeneracy is checked first; a degenerate problem yields an empty
    report with ``identically_zero`` set.  Otherwise a real-valued u0 is
    required (realify first), so b is real on the real axis; b(0) = 0 is
    structural and always reported when 0 lies in the interval.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if is_identically_zero(problem):
        return ZeroReport((), True, _SCAN_LABEL.format(lo, hi, grid_points))
    require_real_reference(problem)
    return real_zero_scan_fn(
        _batch_evaluator(problem),
        (lo, hi),
        grid_points,
        structural_zero_at_origin=True,
    )


# ---------------------------------------------------------------------------
# argument principle


def disk_zero_count_fn(
    f_batch: Callable[[np.ndarray], np.ndarray], r: float, nodes: int = 64
) -> int:
    """Zeros of f inside |lam| <= r by trapezoidal winding of the phase.

    Node count starts at max(nodes, 64) and doubles until consecutive
    phase increments stay below pi/2 and the winding number is within 0.25
    of an integer.  ``nodes`` must be at least 1.
    """
    r = float(r)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    n = max(int(nodes), 64)
    while True:
        lams = r * np.exp(2j * np.pi * np.arange(n) / n)
        vals = f_batch(lams)
        absvals = np.abs(vals)
        if float(absvals.min()) == 0.0:
            raise ContourCollisionError(
                f"b vanishes on the contour |lam| = {r:g}; perturb the radius"
            )
        ratios = np.roll(vals, -1) / vals
        increments = np.angle(ratios)
        winding = float(increments.sum() / (2.0 * np.pi))
        defect = abs(winding - round(winding))
        if float(np.abs(increments).max()) < 0.5 * np.pi and defect < 0.25:
            # resolution has settled; now the finite-difference Newton step
            # is a meaningful distance estimate for the nearest zero
            j = int(absvals.argmin())
            deriv = (vals[(j + 1) % n] - vals[j - 1]) / (
                lams[(j + 1) % n] - lams[j - 1]
            )
            if abs(deriv) > 0.0 and abs(vals[j] / deriv) < 1e-6 * r:
                raise ContourCollisionError(
                    f"zero within 1e-6*r of the contour |lam| = {r:g}; "
                    "perturb the radius"
                )
            count = int(round(winding))
            if count < 0:
                raise ContourCollisionError(
                    f"negative winding on |lam| = {r:g}: unresolved phase"
                )
            return count
        n *= 2
        if n > _MAX_CONTOUR_NODES:
            raise ContourCollisionError(
                f"phase unwrapping did not settle on |lam| = {r:g}; "
                "perturb the radius"
            )


def disk_zero_count(problem: ScatteringProblem, r: float, nodes: int = 64) -> int:
    """Number of zeros of b in |lam| <= r, counted by multiplicity."""
    if is_identically_zero(problem):
        raise DegenerateFunctionError("b vanishes identically; no discrete zeros")
    return disk_zero_count_fn(_batch_evaluator(problem, _CONTOUR_RTOL), r, nodes)


# ---------------------------------------------------------------------------
# growth order


def order_fit_fn(f_batch: Callable[[np.ndarray], np.ndarray], radii) -> GrowthFit:
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("order fitting needs at least 4 radii")
    if any(r <= 0 for r in radii) or any(
        b <= a for a, b in zip(radii[:-1], radii[1:])
    ):
        raise ValueError("radii must be positive and increasing")
    counts = []
    log_max = []
    for r in radii:
        thetas = 2j * np.pi * np.arange(_FIT_NODES) / _FIT_NODES
        vals = f_batch(r * np.exp(thetas))
        log_max.append(float(np.log(np.abs(vals).max())))
        counts.append(disk_zero_count_fn(f_batch, r))
    log_r = np.log(radii)
    count_fit, count_res = _slope(log_r, np.log(np.maximum(counts, 1)))
    # max|b| < e makes log log meaningless for order fitting; clamp so the
    # fit degrades instead of crashing
    growth_fit, growth_res = _slope(log_r, np.log(np.maximum(log_max, 1e-6)))
    return GrowthFit(
        radii=tuple(radii),
        counts=tuple(counts),
        log_max_modulus=tuple(log_max),
        count_exponent=count_fit,
        growth_exponent=growth_fit,
        fit_residual=max(count_res, growth_res),
    )


def _slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    coef, stats = np.polynomial.polynomial.polyfit(x, y, 1, full=True)
    resid = stats[0]
    rms = float(np.sqrt(resid[0] / len(x))) if len(resid) else 0.0
    return float(coef[1]), rms


def order_fit(problem: ScatteringProblem, radii) -> GrowthFit:
    """Fit growth and zero-count exponents of b over increasing radii."""
    if is_identically_zero(problem):
        raise DegenerateFunctionError("b vanishes identically; growth undefined")
    return order_fit_fn(_batch_evaluator(problem, _CONTOUR_RTOL), radii)
