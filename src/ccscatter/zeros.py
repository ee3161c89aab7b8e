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
iteration go to b in one call.  A bracket whose next step is already tiny
also probes p -/+ delta, delta just under its tolerance, so that a side
point of the other sign closes it in that same call; so does one of the
three points where |b| is within the error bound that ``coefficients_batch``
returns with it.  The nine-point multiplicity stencil of each zero rides in
the call that closes its bracket (zeros on the grid and the structural zero
at 0 take theirs in the first), so a scan makes a separate stencil call
only for a zero left without one, or for one of two zeros found so close
together that each needs a narrower stencil.

Contours reuse what they have evaluated: doubling n nodes evaluates only
the n new odd nodes (the even nodes of the 2n grid are the old grid, bit
for bit), and a growth fit counts each radius starting from its own 256
max-modulus nodes.  When u0 is
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
_STENCIL = np.arange(-4, 5)  # the multiplicity stencil lam + k h
# maps f on the stencil to the Taylor terms c_0 ... c_8 of its interpolant
_TAYLOR = np.linalg.inv(np.vander(_STENCIL, increasing=True))


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

    Each bracket holds two ends (x1, f1), (x2, f2) of opposite sign and a
    point (x3, f3) beyond x1 of its sign: the end it dropped last, or a seed
    (nan for none, and then the first step bisects).  Its next probe is
    x1 + t (x2 - x1), with t from inverse quadratic interpolation through
    the three points where that is safe and 1/2 otherwise (Chandrupatla,
    Adv. Eng. Softw. 28, 1997).  The interpolation runs on sign(f) |f|^(1/m),
    m = 1 at first.  When it is unsafe a second round in a row, the bracket
    takes m = 1 if that step is safe, else m + 2 if that one is: a zero of
    odd order m >= 3 is too flat for the test, and its m-th root is simple.

    A bracket is done when it is narrower than tol = xtol + rtol |x| at its
    better end, or when f is exactly 0 at its probe.  A bracket whose probe
    p moves by less than sqrt(tol (1 + |x|)) is closing: it also probes
    p -/+ delta, delta = 0.9 tol, and when a side point has the other sign
    from f(p), or |f| at one of the three is within the bound on its error
    that came with it (the noise of f), the one of the three with the
    smallest |f| is its root.  A root comes as (key, x, |f(x)|).
    """

    def __init__(self, xtol: float, rtol: float) -> None:
        self.xtol, self.rtol = xtol, rtol
        self.keys = np.empty(0, dtype=int)
        # one column a bracket: x1, f1, x2, f2, x3, f3 and the order m
        self.s = np.empty((7, 0))
        self.stalled = self.closing = self.bisected = np.empty(0, dtype=bool)
        self.probes = self.delta = np.empty(0)
        self.c = np.empty(0, dtype=int)  # the closing brackets
        self.rooted = False  # whether some bracket has m > 1
        self.roots: list[tuple[int, float, float]] = []

    def add(self, keys, x1, f1, x2, f2, x3=np.nan, f3=np.nan) -> None:
        if len(keys) == 0:
            return
        new = np.empty((7, len(keys)))
        new[0], new[1], new[2], new[3], new[4], new[5], new[6] = x1, f1, x2, f2, x3, f3, 1.0
        self.keys = np.concatenate([self.keys, keys])
        self.s = np.concatenate([self.s, new], axis=1)
        self.stalled = np.concatenate([self.stalled, np.zeros(len(keys), dtype=bool)])
        self._next()

    def spread(self, v: np.ndarray) -> np.ndarray:
        """Per-bracket values, one for each of ``points()``."""
        c = self.c
        return np.concatenate([v, v[c], v[c]]) if c.size else v

    def points(self) -> np.ndarray:
        """The probes, then p - delta and then p + delta of the closing ones."""
        p, c = self.probes, self.c
        if not c.size:
            return p
        d = self.delta[c]
        return np.concatenate([p, p[c] - d, p[c] + d])

    def update(self, values: np.ndarray, noise: np.ndarray, drop=None) -> None:
        """Take f and its noise at ``points()`` and choose the next probes.

        The brackets marked in ``drop`` leave without a root.
        """
        n, c = len(self.probes), self.c
        ft = values[:n]
        at, residual = self.probes, np.abs(ft)
        ends = residual == 0.0
        if c.size:
            # the trio p - delta, p, p + delta of each closing bracket
            k = c.size
            trio = np.array([values[n : n + k], ft[c], values[n + k :]])
            size = np.abs(trio)
            zero = size <= np.array([noise[n : n + k], noise[c], noise[n + k :]])
            s = np.sign(trio)
            ends[c] = zero.any(axis=0) | (s[0] != s[1]) | (s[1] != s[2])
            best = size.argmin(axis=0)
            at, residual = at.copy(), residual.copy()
            at[c] += (best - 1) * self.delta[c]
            residual[c] = size[best, np.arange(k)]
        if drop is not None:
            ends &= ~drop
        e = ends.nonzero()[0]
        if e.size:
            self.roots += zip(self.keys[e].tolist(), at[e].tolist(), residual[e].tolist())
        self.stalled = self.bisected
        # the probe replaces the end of its sign, which becomes (x3, f3)
        old = self.s
        same = np.sign(ft) == np.sign(old[1])
        self.s = np.empty_like(old)
        self.s[4:6] = np.where(same, old[0:2], old[2:4])
        self.s[2:4] = np.where(same, old[2:4], old[0:2])
        self.s[0], self.s[1], self.s[6] = self.probes, ft, old[6]
        self._next(ends if drop is None else ends | drop)

    def _next(self, gone=None) -> None:
        """Report the brackets that are done, drop those in ``gone`` and
        choose the probes of the rest."""
        x1, f1, x2, f2, x3, f3, order = self.s
        # the better end, xm, and |f| there
        size = np.abs(self.s[1:4:2])
        xm = np.where(size[0] < size[1], x1, x2)
        fm = np.minimum(size[0], size[1])
        dx = np.abs(x2 - x1)
        tol = self.xtol + self.rtol * np.abs(xm)
        done = (fm == 0.0) | (dx < tol)
        if gone is not None:
            done &= ~gone
        e = done.nonzero()[0]
        if e.size:
            self.roots += zip(self.keys[e].tolist(), xm[e].tolist(), fm[e].tolist())
        gone = done if gone is None else done | gone
        if gone.nonzero()[0].size:
            keep = ~gone
            self.keys, self.s, self.stalled = self.keys[keep], self.s[:, keep], self.stalled[keep]
            x1, f1, x2, f2, x3, f3, order = self.s
            dx, tol = dx[keep], tol[keep]
        points = (x1, f1, x2, f2, x3, f3)
        t = _interpolation(*points, order if self.rooted else None)
        unsafe = np.isnan(t)
        # a second bisection in a row: step on f if that is safe, else on
        # its next odd root
        flat = unsafe & self.stalled
        if flat.nonzero()[0].size:
            for m in (np.ones_like(order), order + 2):
                other = _interpolation(*points, m)
                up = flat & ~np.isnan(other)
                order, t = np.where(up, m, order), np.where(up, other, t)
                flat &= ~up
            self.s[6] = order
            self.rooted = bool((order != 1.0).any())
            unsafe = np.isnan(t)
        self.bisected = unsafe & ~np.isnan(x3)
        t[unsafe] = 0.5
        tl = 0.5 * tol / dx
        self.probes = x1 + np.minimum(np.maximum(t, tl), 1.0 - tl) * (x2 - x1)
        step = self.probes - x1
        self.closing = step * step < tol * (1.0 + np.abs(x1))
        self.c = self.closing.nonzero()[0]
        self.delta = 0.9 * tol


def _unstenciled(brackets: _Brackets, stencils: dict) -> np.ndarray:
    """The closing brackets whose keys have no stencil yet."""
    c = brackets.c
    if c.size:
        c = c[[key not in stencils for key in brackets.keys[c].tolist()]]
    return c


def _interpolation(x1, f1, x2, f2, x3, f3, order=None):
    """Chandrupatla's t on sign(f) |f|^(1/order) (on f for None): nan where
    the inverse quadratic through the three points is unsafe."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if order is not None:
            f1, f2, f3 = (np.sign(v) * np.abs(v) ** (1.0 / order) for v in (f1, f2, f3))
        f12, f32 = f1 - f2, f3 - f2
        xi = (x1 - x2) / (x3 - x2)
        phi = f12 / f32
        alpha = (x3 - x1) / (x2 - x1)
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        quadratic = f1 / f12 * f3 / f32 + alpha * f1 / (f3 - f1) * f2 / f32
    return np.where(iqi, quadratic, np.nan)


def _step(lam, cell: float):
    """The multiplicity stencil's step h = min(0.02 (1 + |lam|), cell / 5).

    It is wide enough that the sixth Taylor term of a sixth-order zero
    clears the noise rule of ``_multiplicities``, and the stencil's nine
    points stay within 0.8 of a grid cell of lam.  A zero found closer than
    1.5 h to another is read again with a narrower step (see ``_scan``).
    """
    return np.minimum(0.02 * (1.0 + np.abs(lam)), 0.2 * cell)


def _stencil(centres: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The multiplicity stencils lam + k h, k = -4..4, one row per centre."""
    return centres[:, None] + _STENCIL * steps[:, None]


def _refine(f, grid, vals, cells, i, centres, origin):
    """Refine the sign changes of ``cells`` and the dips at grid points ``i``.

    A cell's bracket is seeded with the grid point left of it when that has
    the sign of the cell's left end, so its first step can interpolate; the
    cell ``origin`` (-1: none) holds the structural zero and probes 0 first.
    A dip at x_i is a root of the central difference g(x) = f(x + d) -
    f(x - d), d = _DIP_STEP (1 + |x_i|): its two cells have slopes of
    opposite sign, so f' changes sign between x_(i-1) and x_(i+1).  Its
    bracket holds those two points, with the slopes times 2 d / h as end
    values, so its first probe is x_i.  A probe x where f(x -/+ d) has the
    other sign from the dip splits it into two root brackets, from the
    innermost points seen on either side of the dip where f has its sign
    (the grid neighbours at first, then x + d of a probe left of the extremum
    and x - d of one right of it); so a simple zero on a grid point between
    neighbours of one sign finds its partner zero.

    Each round is one call of ``f``: on the points of the root brackets, on
    x -/+ d of the points of the dip brackets, and on the multiplicity
    stencils of the round, those of ``centres`` (key -> centre) in the first
    and that of each bracket in its first closing round, centred on its
    probe.

    Returns the roots as (key, x, |f(x)|), the dips' extrema as (key, x, the
    smaller |f(x -/+ d)| at the dip's last probe, within tolerance of x), and
    the stencils as key -> (centre, values).
    """
    n, cell = len(grid), grid[1] - grid[0]
    roots = _Brackets(_XTOL, _RTOL)
    seed = np.maximum(cells - 1, 0)
    seeded = (cells > 0) & (np.sign(vals[seed]) * np.sign(vals[cells]) > 0.0)
    roots.add(
        2 * cells,
        grid[cells], vals[cells], grid[cells + 1], vals[cells + 1],
        np.where(seeded, grid[seed], np.nan), np.where(seeded, vals[seed], np.nan),
    )
    if origin >= 0:
        # the cell ``origin`` holds the structural zero: it probes 0 first
        held = roots.keys == 2 * origin
        roots.probes[held], roots.closing[held] = 0.0, True
        roots.c = roots.closing.nonzero()[0]
    slopes = _Brackets(_DIP_XTOL, _SQRT_EPS)
    near = np.abs(vals)
    if len(i):
        d = _DIP_STEP * (1.0 + np.abs(grid))
        w = 4.0 * d[i] / (grid[i + 1] - grid[i - 1])  # 2 d / h
        slopes.add(
            2 * (n + i),
            grid[i - 1], (vals[i] - vals[i - 1]) * w,
            grid[i + 1], (vals[i + 1] - vals[i]) * w,
        )
        # the innermost points left and right of each dip where f has its
        # sign, by the dip's grid index
        left_x, left_f, right_x, right_f = np.empty((4, n))
        left_x[i], left_f[i] = grid[i - 1], vals[i - 1]
        right_x[i], right_f[i] = grid[i + 1], vals[i + 1]
    outer = _STENCIL != 0
    stencils: dict[int, tuple[float, np.ndarray]] = {}
    for _ in range(_MAX_ITERATIONS):
        # this round's points: the root brackets', x -/+ d of the dip
        # brackets', then the stencils: a root bracket's outer points (the
        # value at its centre, the probe, comes with the round), and every
        # point of a dip's and of those in ``centres``
        new = _unstenciled(roots, stencils)
        keys, at = list(centres), list(centres.values())
        centres = {}
        rx = roots.points()
        batch, ns = [rx], 0
        if len(slopes.keys):
            j = slopes.keys // 2 - n
            sx, sd = slopes.points(), slopes.spread(d[j])
            batch, ns = batch + [sx - sd, sx + sd], len(sx)
            fresh = _unstenciled(slopes, stencils)
            keys += slopes.keys[fresh].tolist()
            at += slopes.probes[fresh].tolist()
        if new.size:
            p = roots.probes[new]
            batch.append(_stencil(p, _step(p, cell))[:, outer].ravel())
        if keys:
            p = np.array(at)
            batch.append(_stencil(p, _step(p, cell)).ravel())
        points = np.concatenate(batch)
        if len(points) == 0:
            break
        values, noise = f(points)
        nr = len(rx)
        rest = values[nr + 2 * ns :]
        if new.size:
            size = len(new) * (len(_STENCIL) - 1)
            rows = np.empty((len(new), len(_STENCIL)))
            rows[:, outer], rows[:, ~outer] = rest[:size].reshape(len(new), -1), values[new, None]
            stencils.update(zip(roots.keys[new].tolist(), zip(roots.probes[new].tolist(), rows)))
            rest = rest[size:]
        if keys:
            stencils.update(zip(keys, zip(at, rest.reshape(len(keys), len(_STENCIL)))))
        if nr:
            roots.update(values[:nr], noise[:nr])
        if ns == 0:
            continue

        lo, hi = values[nr : nr + ns], values[nr + ns : nr + 2 * ns]
        m = len(slopes.probes)
        x, dm, flo, fhi = slopes.probes, d[j], lo[:m], hi[:m]
        near[j] = np.minimum(np.abs(flo), np.abs(fhi))
        sign = np.sign(vals[j - 1] + vals[j + 1])
        left, right = flo * sign < 0.0, fhi * sign < 0.0
        split = left | right
        # a probe that does not split the dip moves the innermost point on its
        # side of the extremum: x + d where f falls towards the dip
        falls = (fhi - flo) * sign < 0.0
        moves = ~split & falls
        left_x[j[moves]], left_f[j[moves]] = (x + dm)[moves], fhi[moves]
        moves = ~split & ~falls
        right_x[j[moves]], right_f[j[moves]] = (x - dm)[moves], flo[moves]
        if split.any():
            # a dip that splits drops its stencil, centred on its extremum
            keys, js = slopes.keys[split], j[split]
            for key in keys.tolist():
                stencils.pop(key, None)
            roots.add(
                np.concatenate([keys, keys + 1]),
                np.concatenate([left_x[js], np.where(right, x + dm, x - dm)[split]]),
                np.concatenate([left_f[js], np.where(right, fhi, flo)[split]]),
                np.concatenate([np.where(left, x - dm, x + dm)[split], right_x[js]]),
                np.concatenate([np.where(left, flo, fhi)[split], right_f[js]]),
            )
        slopes.update(hi - lo, noise[nr : nr + ns] + noise[nr + ns : nr + 2 * ns], split)
    else:
        # out of rounds: what is open reports its last probe
        for brackets in (roots, slopes):
            brackets.roots += zip(
                brackets.keys.tolist(), brackets.s[0].tolist(), np.abs(brackets.s[1]).tolist()
            )
    extrema = [(k, x, near[k // 2 - n]) for k, x, _ in slopes.roots]
    return roots.roots, extrema, stencils


def _multiplicities(v: np.ndarray, scale: float) -> np.ndarray:
    """Zero orders, at most 8, from the Taylor terms of the 9-point interpolant.

    ``v`` holds f at lam + k h, k = -4..4, one row per zero.  The interpolant
    sum_j c_j k^j through them is exact on polynomials of degree 8, so c_j =
    f^(j) h^j / j! up to the ninth Taylor term, and a zero of order m <= 8
    leaves c_1 ... c_(m-1) at that level.  (Seven points would not do for
    m = 6: they fold k^7 into 36 k - 49 k^3 + 14 k^5.)
    """
    c = _TAYLOR @ v.T
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


def _scan(f, lo: float, hi: float, n: int, structural_zero_at_origin: bool) -> ZeroReport:
    """The real zeros of f on [lo, hi] from an n-point grid.

    ``f`` maps an array of points to f there and a bound on its error there.
    """
    grid = np.linspace(lo, hi, n)
    vals, _ = f(grid)
    scale = max(1.0, float(np.abs(vals).max()))

    # every candidate zero carries a key that fixes the order of the dedup
    # below: grid cells first (2 i), then dips (2 (n + i), and + 1 for the
    # right half of a split dip), then the structural zero
    on_grid = np.flatnonzero(vals == 0.0)
    # signs compare as signs: a product of two values of f underflows to
    # zero once |f| is below about 1e-154
    signs = np.sign(vals)
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    sign_change = np.zeros(n, dtype=bool)
    sign_change[cells] = sign_change[cells + 1] = True

    # even-order zeros: local minima of |f| that dip below threshold but do
    # not change sign (sign changes are refined as brackets, and so is an
    # exact zero on the grid between neighbours of opposite sign)
    absvals = np.abs(vals)
    left, mid, right = absvals[:-2], absvals[1:-1], absvals[2:]
    dip = (
        (signs[:-2] * signs[2:] >= 0.0)
        & ~(sign_change[:-2] | sign_change[1:-1] | sign_change[2:])
        & (mid <= left)
        & (mid <= right)
        & (mid < 1e-3 * scale)
    )

    # zeros on the grid take their stencils in the first round; so does the
    # structural zero, centred on the probe at 0 of the cell that holds it
    # or else on its own
    centres = {2 * int(k): float(grid[k]) for k in on_grid}
    structural = structural_zero_at_origin and lo <= 0.0 <= hi
    origin = -1
    if structural:
        held = cells[(grid[cells] < 0.0) & (grid[cells + 1] > 0.0)]
        if len(held):
            origin = int(held[0])
        elif not np.any(grid[on_grid] == 0.0):
            centres[4 * n] = 0.0
    dips = np.flatnonzero(dip) + 1
    roots, extrema, stencils = _refine(f, grid, vals, cells, dips, centres, origin)

    candidates = [(2 * int(k), float(grid[k]), None) for k in on_grid]
    candidates += roots
    candidates += [(key, lam, None) for key, lam, near in extrema if near <= 1e-8 * scale]
    if structural:
        candidates.append((4 * n, 0.0, None))
    candidates.sort(key=lambda c: c[0])

    found: list[tuple[int, float, float | None]] = []
    for key, lam, residual in candidates:
        if all(abs(lam - seen) > _DISTINCT * (1.0 + abs(seen)) for _, seen, _ in found):
            found.append((key, lam, residual))

    # a zero takes a stencil in one more call when it has none, when the
    # centre of its stencil is farther than h / 100 from it (an order m
    # reads right while c_(m-1) / c_m = m e / h stays below 0.1), or when
    # another zero lies closer than 1.5 h: a neighbour of order m' at g
    # puts C(m', k) (h / g)^k into c_(m+k) / c_m, below 10 for m' <= 6 only
    # while h < 0.79 g.  Then h shrinks to g / 2, but not below the
    # 1e-3 (1 + |lam|) at which the terms of a triple zero next to a simple
    # one would sink into the noise rule.
    lams = np.array([lam for _, lam, _ in found])
    apart = np.abs(lams[:, None] - lams)
    np.fill_diagonal(apart, np.inf)
    wide = _step(lams, grid[1] - grid[0])
    gap = apart.min(axis=1, initial=np.inf)
    narrow = np.minimum(wide, np.maximum(0.5 * gap, 1e-3 * (1.0 + np.abs(lams))))
    steps = np.where(gap < 1.5 * wide, narrow, wide)
    missing = [
        j for j, ((key, lam, _), h, h0) in enumerate(zip(found, steps.tolist(), wide.tolist()))
        if key not in stencils or abs(lam - stencils[key][0]) > 0.01 * h or h < h0
    ]
    if missing:
        values, _ = f(_stencil(lams[missing], steps[missing]).ravel())
        rows = values.reshape(len(missing), len(_STENCIL))
        stencils.update((found[j][0], (lams[j], v)) for j, v in zip(missing, rows))

    zeros = []
    if found:
        rows = np.array([stencils[key][1] for key, _, _ in found])
        mults = _multiplicities(rows, scale)
        for (_, lam, residual), v, mult in zip(found, rows, mults.tolist()):
            # a root's residual is its bracket's last |f|, any other zero's
            # is |f| at its stencil's centre
            residual = abs(float(v[len(_STENCIL) // 2])) if residual is None else residual
            if residual <= 1e-8 * scale:
                zeros.append((complex(lam), mult, residual))
    zeros.sort(key=lambda z: (abs(z[0]), z[0].real))
    return ZeroReport(tuple(zeros), False, _SCAN_LABEL.format(lo, hi, n))


def real_zero_scan_fn(
    f_batch: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    grid_points: int,
    *,
    structural_zero_at_origin: bool = False,
) -> ZeroReport:
    """Scan a real-valued function on a grid and refine its zeros.

    f is taken as exact: a closing bracket ends on a zero of f only where f
    is exactly 0.
    """
    lo, hi = _scan_interval(interval, grid_points)

    def f(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.real(f_batch(np.asarray(x, dtype=complex)))
        return values, np.zeros_like(values)

    return _scan(f, lo, hi, grid_points, structural_zero_at_origin)


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

    A bracket that has closed in to about 1e-7 (1 + |lam|) ends at a point
    where |b| is within ``err``, the bound on the errors of a and b that
    ``coefficients_batch`` returns with b: a zero as far as b can tell.  So
    a zero is located to within err / |b'| of the zero of the computed b,
    as close as the computed b locates the exact one.
    """
    lo, hi = _scan_interval(interval, grid_points)
    if is_identically_zero(problem):
        return ZeroReport((), True, _SCAN_LABEL.format(lo, hi, grid_points))
    require_real_reference(problem)

    def f(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, b, err = coefficients_batch(problem, lams)
        return np.real(b), err

    return _scan(f, lo, hi, grid_points, True)


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
