"""Zero location and counting for the Wronskian coefficient b.

Three views of the same entire function:

* real-axis scans with bracketing and refinement (plus a local-minimum
  sweep that catches even-order zeros where the sign does not change),
* argument-principle counts over disks, with adaptive phase unwrapping,
* growth fitting of both log N(r) and log log max |b| against log r.

A degenerate b (identically zero) is detected first: for a spike-free V
by the paper's theorem (b vanishes identically exactly when V = 0), for V
with spikes on a fixed control grid.  Every counting routine refuses to run
on it.

Refinement is batched, and one iteration (Chandrupatla's) refines every
real zero.  A sign change of a scan is bracketed on b itself; a dip of |b|,
where an even-order zero leaves the sign unchanged, is bracketed on the
central difference b(x + d) - b(x - d), whose root is the extremum.  Every
open bracket takes one probe per iteration, and the probes of one
iteration go to b in one call.  The five-point multiplicity stencils
of all candidate zeros then go in one more call.  Contours reuse what they
have evaluated: doubling n nodes evaluates only the n new odd nodes (the
even nodes of the 2n grid are the old grid, bit for bit), and a growth fit
counts each radius starting from its own 256 max-modulus nodes.  When u0 is
exactly real, only the upper half of each circle is evaluated: Q, V and
u0 are then real, so b(conj lam) = conj b(lam), and every node below the
real axis is the exact conjugate of one above it.

The ``*_fn`` variants operate on a plain callable, which is the seam used
to validate the counting machinery against synthetic functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContourCollisionError, DegenerateFunctionError
from .problem import ScatteringProblem
from .scattering import coefficients_batch, require_real_reference

_DEGENERACY_REAL_GRID = 64
_DEGENERACY_COMPLEX_POINTS = 16
_MAX_CONTOUR_NODES = 1 << 17
_ZERO_THRESHOLD = 1e-9  # relative max|b| on the control grid of a degenerate b
_FIT_NODES = 256  # contour nodes of the max-modulus sample per radius
_SCAN_LABEL = "[{:g}, {:g}] grid={}"

# refinement stopping rules: a root's bracket is done when narrower than
# _XTOL + _RTOL |x|, a dip's when narrower than _DIP_XTOL + sqrt(eps) |x|
_XTOL = 1e-14
_RTOL = 1e-15
_DIP_XTOL = 1e-13
_SQRT_EPS = math.sqrt(2.2e-16)
_DISTINCT = 1e-6  # candidate zeros closer than _DISTINCT (1 + |x|) are one
# a dip's central-difference step, times 1 + |x|: small enough that a pair
# of zeros the scan tells apart leaves f(x -/+ d) of the other sign between
# them, large enough that rounding noise in f barely moves the extremum
_DIP_STEP = 0.1 * _DISTINCT
_MAX_ITERATIONS = 500


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


def _real_on_real_axis(problem: ScatteringProblem) -> bool:
    """Whether b(conj lam) = conj b(lam): Q and V are real, so when u0 is."""
    return all(z.imag == 0.0 for z in problem.ref.u0_at_0)


def is_identically_zero(problem: ScatteringProblem) -> bool:
    """Whether b vanishes for every lam.

    For a perturbation V in L^1 the paper's theorem decides it: the zeros of
    b are discrete unless V = 0.  So a spike-free V gives b = 0 exactly when
    every segment of V is the zero polynomial, and no b is evaluated.
    Spikes are measures, outside the theorem (``delta_pair`` at k = n pi is
    degenerate with V != 0), so a V with spikes is tested on a control grid:
    True when max|b| over 64 real points on [-10, 10] plus 16 complex points
    stays below ``1e-9 * (1 + max|a|)``.
    """
    if not problem.V.has_spikes:
        return all(c == (0.0,) for _, _, c in problem.V.segments)
    ring = _contour(5.0, _DEGENERACY_COMPLEX_POINTS) * (1.0 + 0.3j)
    lams = np.concatenate([np.linspace(-10.0, 10.0, _DEGENERACY_REAL_GRID), ring])
    a, b, _ = coefficients_batch(problem, lams)
    return float(np.abs(b).max()) <= _ZERO_THRESHOLD * (1.0 + float(np.abs(a).max()))


# ---------------------------------------------------------------------------
# real-axis scan


class _Brackets:
    """Sign-change brackets refined together by Chandrupatla's iteration.

    Each bracket holds two ends (x1, f1), (x2, f2) of opposite sign and the
    end (x3, f3) it dropped last.  Its next probe is x1 + t (x2 - x1), with t
    from inverse quadratic interpolation through the three points where that
    is safe and 1/2 otherwise (Chandrupatla, Adv. Eng. Softw. 28, 1997).  A
    bracket is done when its better end is an exact zero or the bracket is
    narrower than the instance's tolerance ``xtol + rtol |x|``; that end is
    its root.
    """

    def __init__(self, xtol: float, rtol: float) -> None:
        self.xtol, self.rtol = xtol, rtol
        empty = np.empty(0)
        self.keys = np.empty(0, dtype=int)
        self.x1 = self.f1 = self.x2 = self.f2 = self.x3 = self.f3 = empty
        self.probes = empty
        self.roots: list[tuple[int, float]] = []

    def add(self, keys, x1, f1, x2, f2) -> None:
        if len(keys) == 0:
            return
        nan = np.full(len(keys), np.nan)  # no dropped end yet: bisect first
        self.keys = np.concatenate([self.keys, keys])
        self.x1, self.f1 = np.concatenate([self.x1, x1]), np.concatenate([self.f1, f1])
        self.x2, self.f2 = np.concatenate([self.x2, x2]), np.concatenate([self.f2, f2])
        self.x3, self.f3 = np.concatenate([self.x3, nan]), np.concatenate([self.f3, nan])
        self._next()

    def update(self, ft: np.ndarray, drop=np.False_) -> None:
        """Take the values at the probes and choose the next probes.

        The brackets marked in ``drop`` leave without a root.
        """
        same = np.sign(ft) == np.sign(self.f1)
        self.x3 = np.where(same, self.x1, self.x2)
        self.f3 = np.where(same, self.f1, self.f2)
        self.x2 = np.where(same, self.x2, self.x1)
        self.f2 = np.where(same, self.f2, self.f1)
        self.x1, self.f1 = self.probes, ft
        self._next(drop)

    def _next(self, drop=np.False_) -> None:
        first = np.abs(self.f1) < np.abs(self.f2)
        xm = np.where(first, self.x1, self.x2)
        fm = np.where(first, self.f1, self.f2)
        dx = np.abs(self.x2 - self.x1)
        tol = self.xtol + self.rtol * np.abs(xm)
        done = ((fm == 0.0) | (dx < tol)) & ~drop
        self.roots += zip(self.keys[done].tolist(), xm[done].tolist())
        keep = ~(done | drop)
        self.keys, dx, tol = self.keys[keep], dx[keep], tol[keep]
        x1, f1, x2, f2, x3, f3 = (
            v[keep] for v in (self.x1, self.f1, self.x2, self.f2, self.x3, self.f3)
        )
        self.x1, self.f1, self.x2, self.f2, self.x3, self.f3 = x1, f1, x2, f2, x3, f3
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            quadratic = (
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
            )
            t = np.where(iqi, quadratic, 0.5)
        tl = 0.5 * tol / dx
        self.probes = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)


def _refine(f, grid: np.ndarray, vals: np.ndarray, cells: np.ndarray, i: np.ndarray):
    """Refine the sign changes of ``cells`` and the dips at grid points ``i``.

    A dip at x_i is a root of the central difference g(x) = f(x + d) -
    f(x - d), d = _DIP_STEP (1 + |x_i|): its two cells have slopes of
    opposite sign, so f' changes sign between x_(i-1) and x_(i+1).  Its
    bracket holds those two points, with the slopes times 2 d / h as end
    values, so its first probe is x_i.  A probe x where f(x -/+ d) has the
    other sign from the dip's grid neighbours splits the dip into the root
    brackets [x_(i-1), x -/+ d] and [x -/+ d, x_(i+1)]; so a simple zero on
    a grid point between neighbours of one sign finds its partner zero.
    Each round is one call of ``f``, on the root probes and on x -/+ d of
    every dip probe.

    Returns the roots as (key, x), and the dips' extrema as (key, x, the
    smaller |f(x -/+ d)| at the dip's last probe, within tolerance of x).
    """
    n = len(grid)
    roots = _Brackets(_XTOL, _RTOL)
    roots.add(2 * cells, grid[cells], vals[cells], grid[cells + 1], vals[cells + 1])
    slopes = _Brackets(_DIP_XTOL, _SQRT_EPS)
    w = 4.0 * _DIP_STEP * (1.0 + np.abs(grid[i])) / (grid[i + 1] - grid[i - 1])  # 2 d / h
    slopes.add(
        2 * (n + i),
        grid[i - 1], (vals[i] - vals[i - 1]) * w,
        grid[i + 1], (vals[i + 1] - vals[i]) * w,
    )
    near = np.abs(vals)
    for _ in range(_MAX_ITERATIONS):
        nr, nd = len(roots.probes), len(slopes.probes)
        if nd == 0:
            if nr == 0:
                break
            roots.update(f(roots.probes))
            continue
        i = slopes.keys // 2 - n
        x, d = slopes.probes, _DIP_STEP * (1.0 + np.abs(grid[i]))
        values = f(np.concatenate([roots.probes, x - d, x + d]))
        roots.update(values[:nr])
        lo, hi = values[nr : nr + nd], values[nr + nd :]
        near[i] = np.minimum(np.abs(lo), np.abs(hi))
        sign = np.sign(vals[i - 1] + vals[i + 1])
        left = lo * sign < 0.0
        split = left | (hi * sign < 0.0)
        keys, j = slopes.keys[split], i[split]
        xs, fs = np.where(left, x - d, x + d)[split], np.where(left, lo, hi)[split]
        roots.add(
            np.concatenate([keys, keys + 1]),
            np.concatenate([grid[j - 1], xs]), np.concatenate([vals[j - 1], fs]),
            np.concatenate([xs, grid[j + 1]]), np.concatenate([fs, vals[j + 1]]),
        )
        slopes.update(hi - lo, drop=split)
    else:
        # out of rounds: what is open reports its last probe
        for brackets in (roots, slopes):
            brackets.roots += zip(brackets.keys.tolist(), brackets.x1.tolist())
    return roots.roots, [(k, x, near[k // 2 - n]) for k, x in slopes.roots]


def _multiplicities(v: np.ndarray, scale: float) -> np.ndarray:
    """Zero orders, at most 4, from the Taylor terms of the 5-point interpolant.

    ``v`` holds f at lam + k h, k = -2..2, one row per zero.  The interpolant
    sum_j c_j k^j through them is exact on quartics, so c_j = f^(j) h^j / j!
    up to the fifth Taylor term, and a zero of order m <= 4 leaves c_1 ...
    c_(m-1) at that level.
    """
    c = np.linalg.solve(np.vander(np.arange(-2, 3), 5, increasing=True), v.T)
    terms = np.abs(c[1:].T)
    top = terms.max(axis=1)
    noise = 1e3 * np.finfo(float).eps * scale
    # the order is the first significant term; the largest term always is
    # one unless every term is noise
    significant = (terms >= 0.1 * top[:, None]) & (terms > noise)
    return np.where(top <= noise, 1, significant.argmax(axis=1) + 1)


def _scan_interval(interval: tuple[float, float], grid_points: int) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, not ({lo}, {hi})")
    return lo, hi


def real_zero_scan_fn(
    f_batch: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    grid_points: int,
    *,
    structural_zero_at_origin: bool = False,
) -> ZeroReport:
    """Scan a real-valued function on a grid and refine its zeros."""
    lo, hi = _scan_interval(interval, grid_points)
    grid = np.linspace(lo, hi, grid_points)

    def f(x: np.ndarray) -> np.ndarray:
        return np.real(f_batch(np.asarray(x, dtype=complex)))

    vals = f(grid)
    scale = max(1.0, float(np.abs(vals).max()))

    # every candidate zero carries a key that fixes the order of the dedup
    # below: grid cells first (2 i), then dips (2 (n + i), and + 1 for the
    # right half of a split dip), then the structural zero
    n = grid_points
    on_grid = np.flatnonzero(vals == 0.0)
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    sign_change = np.zeros(n, dtype=bool)
    sign_change[cells] = sign_change[cells + 1] = True

    # even-order zeros: local minima of |f| that dip below threshold but do
    # not change sign (sign changes are refined as brackets, and so is an
    # exact zero on the grid between neighbours of opposite sign)
    absvals = np.abs(vals)
    i = np.arange(1, n - 1)
    dip = (
        (vals[i - 1] * vals[i + 1] >= 0.0)
        & ~sign_change[i]
        & ~sign_change[i - 1]
        & ~sign_change[i + 1]
        & (absvals[i] <= absvals[i - 1])
        & (absvals[i] <= absvals[i + 1])
        & (absvals[i] < 1e-3 * scale)
    )

    roots, extrema = _refine(f, grid, vals, cells, i[dip])

    candidates = [(2 * int(k), float(grid[k])) for k in on_grid]
    candidates += roots
    candidates += [(key, lam) for key, lam, near in extrema if near <= 1e-8 * scale]
    if structural_zero_at_origin and lo <= 0.0 <= hi:
        candidates.append((4 * n, 0.0))
    candidates.sort(key=lambda c: c[0])

    found: list[float] = []
    for _, lam in candidates:
        if all(abs(lam - seen) > _DISTINCT * (1.0 + abs(seen)) for seen in found):
            found.append(lam)

    zeros = []
    if found:
        lams = np.array(found)
        h = 1e-3 * (1.0 + np.abs(lams))
        stencil = f((lams[:, None] + np.arange(-2, 3) * h[:, None]).ravel())
        stencil = stencil.reshape(len(lams), 5)
        mults = _multiplicities(stencil, scale)
        for lam, v, mult in zip(found, stencil, mults.tolist()):
            residual = abs(float(v[2]))
            if residual <= 1e-8 * scale:
                zeros.append((complex(lam), mult, residual))
    zeros.sort(key=lambda z: (abs(z[0]), z[0].real))
    return ZeroReport(tuple(zeros), False, _SCAN_LABEL.format(lo, hi, grid_points))


def real_zero_scan(
    problem: ScatteringProblem,
    interval: tuple[float, float],
    grid_points: int,
) -> ZeroReport:
    """Real zeros of b on an interval.

    Arguments are checked first, then degeneracy: a degenerate problem yields
    an empty report with ``identically_zero`` set.  Otherwise a real-valued u0
    is required (realify first), so b is real on the real axis; b(0) = 0 is
    structural and always reported when 0 lies in the interval.
    """
    lo, hi = _scan_interval(interval, grid_points)
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


def _mirror(out: np.ndarray) -> np.ndarray:
    """Set entry n - k of the n entries to the conjugate of entry k, 0 < k < n / 2."""
    n = len(out)
    out[n // 2 + 1 :] = out[(n + 1) // 2 - 1 : 0 : -1].conj()
    return out


def _contour(r: float, n: int) -> np.ndarray:
    """The n nodes r exp(2 pi i k / n); the even nodes of 2n are those of n.

    Nodes k = 0 ... n // 2 come from the formula, and node n - k is the
    conjugate of node k bit for bit, so the nodes below the real axis are
    exact mirrors of those above it at every radius.
    """
    out = np.empty(n, dtype=complex)
    out[: n // 2 + 1] = r * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    return _mirror(out)


def _on_contour(
    f_batch: Callable[[np.ndarray], np.ndarray],
    r: float,
    n: int,
    mirrored: bool,
    half: np.ndarray | None = None,
) -> np.ndarray:
    """f on the n nodes of |lam| = r.

    ``half`` holds f on the n / 2 nodes of the halved circle, which are the
    even nodes of this one; then only the odd nodes are evaluated.  When
    ``mirrored`` (f(conj z) = conj f(z)), only the nodes k <= n / 2 are
    evaluated, and node n - k takes the conjugate of node k.
    """
    lams = _contour(r, n)
    top = n // 2 + 1 if mirrored else n
    out = np.empty(n, dtype=complex)
    if half is None:
        out[:top] = f_batch(lams[:top])
    else:
        out[0::2], out[1:top:2] = half, f_batch(lams[1:top:2])
    return _mirror(out) if mirrored else out


def _settled_count(
    f_batch: Callable[[np.ndarray], np.ndarray],
    r: float,
    n: int,
    vals: np.ndarray,
    mirrored: bool,
) -> int:
    """Winding count on |lam| = r from n nodes, doubling until it settles.

    ``vals`` holds f on the contour of ``len(vals)`` nodes, a multiple of n;
    past that, each doubling evaluates only the new odd nodes, and when
    ``mirrored`` only those with Im lam >= 0.
    """
    while True:
        if n > len(vals):
            vals = _on_contour(f_batch, r, n, mirrored, vals)
        sub = vals[:: len(vals) // n]
        absvals = np.abs(sub)
        if float(absvals.min()) == 0.0:
            raise ContourCollisionError(
                f"b vanishes on the contour |lam| = {r:g}; perturb the radius"
            )
        ratios = np.roll(sub, -1) / sub
        increments = np.angle(ratios)
        winding = float(increments.sum() / (2.0 * np.pi))
        defect = abs(winding - round(winding))
        if float(np.abs(increments).max()) < 0.5 * np.pi and defect < 0.25:
            # resolution has settled; now the finite-difference Newton step
            # is a meaningful distance estimate for the nearest zero
            j = int(absvals.argmin())
            lams = _contour(r, n)
            deriv = (sub[(j + 1) % n] - sub[j - 1]) / (lams[(j + 1) % n] - lams[j - 1])
            if abs(deriv) > 0.0 and abs(sub[j] / deriv) < 1e-6 * r:
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


def _disk_radius(r: float, nodes: int) -> float:
    r = float(r)
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, not {r}")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    return r


def disk_zero_count_fn(
    f_batch: Callable[[np.ndarray], np.ndarray],
    r: float,
    nodes: int = 64,
    *,
    conjugate_symmetric: bool = False,
) -> int:
    """Zeros of f inside |lam| <= r by trapezoidal winding of the phase.

    Node count starts at max(nodes, 64) and doubles until consecutive
    phase increments stay below pi/2 and the winding number is within 0.25
    of an integer.  ``nodes`` must be at least 1.  f is evaluated once per
    node of the final contour, or, when ``conjugate_symmetric`` declares
    f(conj z) = conj f(z), once per node with Im lam >= 0.
    """
    r = _disk_radius(r, nodes)
    n = max(int(nodes), 64)
    vals = _on_contour(f_batch, r, n, conjugate_symmetric)
    return _settled_count(f_batch, r, n, vals, conjugate_symmetric)


def disk_zero_count(problem: ScatteringProblem, r: float, nodes: int = 64) -> int:
    """Number of zeros of b in |lam| <= r, counted by multiplicity."""
    _disk_radius(r, nodes)
    if is_identically_zero(problem):
        raise DegenerateFunctionError("b vanishes identically; no discrete zeros")
    return disk_zero_count_fn(
        _batch_evaluator(problem, _CONTOUR_RTOL), r, nodes,
        conjugate_symmetric=_real_on_real_axis(problem),
    )


# ---------------------------------------------------------------------------
# growth order


def _fit_radii(radii) -> list[float]:
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("order fitting needs at least 4 radii")
    if not all(0 < r < math.inf for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be finite, positive and increasing, not {radii}")
    return radii


def order_fit_fn(
    f_batch: Callable[[np.ndarray], np.ndarray],
    radii,
    *,
    conjugate_symmetric: bool = False,
) -> GrowthFit:
    """Growth and zero-count exponents of f over increasing radii.

    ``conjugate_symmetric`` declares f(conj z) = conj f(z), so that only the
    contour nodes with Im lam >= 0 are evaluated.
    """
    radii = _fit_radii(radii)
    counts = []
    log_max = []
    for r in radii:
        vals = _on_contour(f_batch, r, _FIT_NODES, conjugate_symmetric)
        log_max.append(float(np.log(np.abs(vals).max())))
        # the count's 64- and 128-node contours are every 4th and 2nd node
        counts.append(_settled_count(f_batch, r, 64, vals, conjugate_symmetric))
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
    _fit_radii(radii)
    if is_identically_zero(problem):
        raise DegenerateFunctionError("b vanishes identically; growth undefined")
    return order_fit_fn(
        _batch_evaluator(problem, _CONTOUR_RTOL), radii,
        conjugate_symmetric=_real_on_real_axis(problem),
    )
