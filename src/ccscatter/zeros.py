"""Zero location and counting for the Wronskian coefficient b.

Three views of the same entire function:

* real-axis scans with bracketing and refinement (plus a local-minimum
  sweep that catches even-order zeros where the sign does not change),
* counts over disks: Sturm differences of eigencounts where V keeps one
  sign, elsewhere the argument principle, with adaptive phase unwrapping,
* growth fitting of both log N(r) and log log max |b| against log r.

A degenerate b (identically zero) is detected first: for a spike-free V
by the paper's theorem (b vanishes identically exactly when V = 0), for V
with spikes on a fixed control grid.  Every counting routine refuses to run
on it.

One iteration (Chandrupatla's) refines every real zero, each bracket an
object that steps in plain floats, and one loop runs its rounds.  A sign
change of a scan is bracketed on b itself; a dip of |b|, where an even-order
zero leaves the sign unchanged, is the bracket of the central difference
b(x + d) - b(x - d), whose root is the extremum, and it hands on to two
brackets on b where b(x -/+ d) changes sign.  Every open bracket takes one
probe per round, and the points of one round go to b in one call, so the
numpy work of a round does not grow with the number of brackets.  A bracket
whose next step is already tiny also probes p -/+ delta, delta just under
its tolerance, so that a side point of the other sign closes it in that same
call; so does one of the three points where |b| is within the error bound
that ``coefficients_batch`` returns with it.  A zero whose order is open
(below) reads a nine-point multiplicity stencil in the call that closes its
bracket (on the grid, in the first), so a scan reads stencils in a round of
their own only for a zero left without one, or for one of two zeros so close
together that each needs a narrower stencil.  A stencil keeps the error
bounds of its values, and its order reads against them.

The structural zero b(0) = W[u0, u0] = 0 is a grid point with the value 0
exactly, inserted when the grid misses it; so a zero that shares its grid
cell, where b keeps its sign, is found by the dip that 0 makes.

Where u0 is real and V keeps one sign (spikes included), b'(lam*) = (1/c)
int V u_lam*^2 is never 0 at a zero: the zeros are the eigenvalues of a
right-definite problem, all real and simple, so |N(-r) - N(r)| of the
eigencount N counts those in |lam| <= r in O(sqrt r) steps, where winding b
takes O(r).  A flagged eigencount (its phase within tolerance of the mark:
V = 1e-11 is at -/+ 10) hands the count to the contour, which raises where a
zero is on the circle.  A count's ``nodes`` only seeds the contour.  A scan
of such a b reads a stencil only for a dip that does not split: its roots
and grid zeros are simple, and a grid zero's residual is its value, 0.

Contours reuse what they have evaluated: doubling n nodes evaluates only
the n new odd nodes (the even nodes of the 2n grid are the old grid, bit
for bit), and a growth fit counts each radius starting from its own 256
max-modulus nodes.  When ``ReferenceData.u0_is_real`` holds, only the upper
half of each circle is evaluated: Q and V are real and u0 is within 1e-14 of
real, so b(conj lam) = conj b(lam) to about 1e-14 relative, and every node
below the real axis is taken as the conjugate of one above it.

Every routine reads f through one protocol, ``read(lams, rtol) -> (values,
bounds)``: b with the error bound that ``coefficients_batch`` returns, or a
plain callable (the ``*_fn`` seam for synthetic functions) as exact, with
bounds 0.  Reads pay only for the accuracy they use.  Contour nodes are read
for their phases at ``_PHASE_RTOL``, and one whose bound exceeds 1e-3 |b|
again at ``_CONTOUR_RTOL``: each phase is then within asin(1e-3) rad of the
exact one, far inside the settle rule's margin.  A scan's grid serves only
signs, the dip test and the brackets' first probes, so it is read at
``_PHASE_RTOL`` too; a sign is certified where |b| exceeds its bound, a dip
comparison where the intervals |b| -/+ err do not overlap, and the points
of an open decision are read again at the problem tolerance, as every later
point is.  An order fit reads again, at ``_CONTOUR_RTOL``, the nodes that can
hold max |f|, for log max|b|.  A sign-change root is a zero; a dip (every
local minimum of |f| without a sign change) or a grid zero is one when |f|
at its stencil's centre is within the bound read with it plus 1e-12 S,
S = max(1, max(|f| - err)) over the grid.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine, spectral
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
_STENCIL = range(-4, 5)  # the multiplicity stencil lam + k h
# maps f on the stencil to the Taylor terms c_0 ... c_8 of its interpolant
_TAYLOR = np.linalg.inv(np.vander(np.array(_STENCIL), increasing=True))


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


# contour sweeps reach |lam| ~ 1e5, where the problem's own (much tighter)
# tolerance would force excessive refinement of polynomial pieces
_CONTOUR_RTOL = 1e-9
_PHASE_RTOL = 1e-5
_PHASE_CERT = 1e-3  # certified phases are within asin(1e-3) rad


def _read_b(problem: ScatteringProblem):
    """b of ``problem`` at an rtol, and its ``coefficients_batch`` error bound."""
    return lambda lams, rtol: coefficients_batch(problem, lams, rtol=rtol)[1:]


def _read_exact(f_batch: Callable[[np.ndarray], np.ndarray]):
    """A plain callable's read: f at complex points, exact at every rtol."""
    return lambda lams, rtol: (f_batch(np.asarray(lams, dtype=complex)), np.zeros(len(lams)))


def _one_sign(problem: ScatteringProblem) -> bool:
    """Whether u0 is real and V keeps one sign, spikes included: b's zeros are simple."""
    values = [w for _, w in problem.V.spikes]
    values += [v for piece in engine._pieces(problem) for v in piece.ranges[1]]
    return problem.ref.u0_is_real and not min(values) < 0.0 < max(values)


def _sturm_counts(problem: ScatteringProblem, radii: list[float]) -> list[int | None]:
    """|N(-r) - N(r)| per radius where u0 is real and V keeps one sign, from one
    eigencount call; None at a radius flagged on the mark at -r or r, and at
    every radius of any other problem."""
    if not _one_sign(problem):
        return [None] * len(radii)
    lams = [s * r for r in radii for s in (-1.0, 1.0)]
    counts = spectral.negative_eigenvalue_counts(problem, lams, spectral.boundary_angles(problem))
    return [
        None if lo.boundary_degenerate or hi.boundary_degenerate else abs(lo - hi)
        for lo, hi in zip(counts[::2], counts[1::2])
    ]


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


class _Bracket:
    """A sign change refined by Chandrupatla's iteration, in plain floats.

    It holds two ends (x1, f1), (x2, f2) of opposite sign and a point
    (x3, f3) beyond x1 of its sign: the end it dropped last, or a seed (nan
    for none, and then the first step bisects).  Its next probe is
    x1 + t (x2 - x1), with t from inverse quadratic interpolation through
    the three points where that is safe and 1/2 otherwise (Chandrupatla,
    Adv. Eng. Softw. 28, 1997).  The interpolation runs on sign(f) |f|^(1/m),
    m = 1 at first.  When it is unsafe a second round in a row, the bracket
    takes m = 1 if that step is safe, else m + 2 if that one is: a zero of
    odd order m >= 3 is too flat for the test, and its m-th root is simple.

    It is done when narrower than tol = xtol + rtol |x| at its better end,
    or when f is exactly 0 there (a probe where f is 0 replaces an end like
    any other).  While its probe p moves by less than sqrt(tol (1 + |x|))
    it is closing: it also probes p -/+ delta, delta = 0.9 tol, and when a
    side point has the other sign from f(p), or |f| at one of the three is
    within the bound on its error that came with it (the noise of f), the
    one of the three with the smallest |f| is its root.  ``root`` is
    (x, |f(x)|) once it is done, None before.
    """

    reads_probe = True  # f is read at the probe, its stencil's centre
    halves: tuple[_Bracket, ...] = ()  # the brackets that carry on from it

    def __init__(self, xtol, rtol, x1, f1, x2, f2, x3=math.nan, f3=math.nan):
        self.xtol, self.rtol = xtol, rtol
        self.x1, self.f1, self.x2, self.f2, self.x3, self.f3 = x1, f1, x2, f2, x3, f3
        self.order, self.bisected, self.root = 1.0, False, None
        self._next(stalled=False)

    def points(self) -> list[float]:
        """The probe p, then p - delta and p + delta while closing."""
        p = self.probe
        return [p, p - self.delta, p + self.delta] if self.closing else [p]

    def update(self, values: list[float], noise: list[float]) -> None:
        """Take f and its noise at ``points()`` and step, or end on a root."""
        p, fp = self.probe, values[0]
        if self.closing:
            trio = (values[1], fp, values[2])
            size = [abs(v) for v in trio]
            best = size.index(min(size))
            if (
                any(s <= e for s, e in zip(size, (noise[1], noise[0], noise[2])))
                or (trio[0] > 0.0) != (fp > 0.0)
                or (trio[2] > 0.0) != (fp > 0.0)
            ):
                self.root = ((p - self.delta, p, p + self.delta)[best], size[best])
                return
        # the probe replaces the end of its sign, which becomes (x3, f3)
        if (fp > 0.0) == (self.f1 > 0.0):
            self.x3, self.f3 = self.x1, self.f1
        else:
            self.x3, self.f3, self.x2, self.f2 = self.x2, self.f2, self.x1, self.f1
        self.x1, self.f1 = p, fp
        self._next(stalled=self.bisected)

    def _next(self, stalled: bool) -> None:
        """End at the better end if done, else choose the next probe."""
        x1, f1, x2, f2, x3, f3 = self.x1, self.f1, self.x2, self.f2, self.x3, self.f3
        xm, fm = (x1, abs(f1)) if abs(f1) < abs(f2) else (x2, abs(f2))
        dx = abs(x2 - x1)
        tol = self.xtol + self.rtol * abs(xm)
        if fm == 0.0 or dx < tol:
            self.root = (xm, fm)
            return
        points = (x1, f1, x2, f2, x3, f3)
        t = _interpolation(*points, self.order)
        if math.isnan(t) and stalled:
            # a second bisection in a row: step on f if that is safe, else
            # on its next odd root
            for m in (1.0, self.order + 2.0):
                other = _interpolation(*points, m)
                if not math.isnan(other):
                    self.order, t = m, other
                    break
        self.bisected = math.isnan(t) and not math.isnan(x3)
        if math.isnan(t):
            t = 0.5
        tl = 0.5 * tol / dx
        self.probe = x1 + min(max(t, tl), 1.0 - tl) * (x2 - x1)
        step = self.probe - x1
        self.closing = step * step < tol * (1.0 + abs(x1))
        self.delta = 0.9 * tol


class _Dip(_Bracket):
    """A dip of |f| at a grid point x, given as the points (x, f) of x and of
    its grid neighbours x0 and x1: the bracket of the central difference
    g(x) = f(x + d) - f(x - d), d = _DIP_STEP (1 + |x|), whose root is the
    extremum of f.

    Its two cells have slopes of opposite sign, so g changes sign between x0
    and x1, and it starts from those two points with the slopes times
    2 d / h as values of g.  Each of its probes p reads f at p -/+ d.  A
    probe where f(p -/+ d) has the other sign from the dip ends it, split
    into the two root brackets of ``halves``, from the innermost points seen
    on either side of the dip where f has its sign (the grid neighbours at
    first, then x + d of a probe left of the extremum and x - d of one right
    of it); so a simple zero on a grid point between neighbours of one sign
    finds its partner zero.  A half whose interior holds the grid point,
    when f is exactly 0 there, is dropped: its zero is already on the grid.
    """

    reads_probe = False  # f is read at p -/+ d only

    def __init__(self, left, mid, right):
        (x0, f0), (x, f), (x1, f1) = left, mid, right
        self.d = d = _DIP_STEP * (1.0 + abs(x))
        w = 4.0 * d / (x1 - x0)  # 2 d / h
        self.left, self.right = left, right
        # the sign of f on either side of the dip, as np.sign gives it
        self.sign = math.copysign(1.0, f0 + f1) if f0 + f1 else 0.0
        self.zero = x if f == 0.0 else math.nan
        super().__init__(_DIP_XTOL, _SQRT_EPS, x0, (f - f0) * w, x1, (f1 - f) * w)

    def points(self) -> list[float]:
        """p - d, then p + d, for each point p of the bracket on g."""
        xs, d = super().points(), self.d
        return [x - d for x in xs] + [x + d for x in xs]

    def update(self, values: list[float], noise: list[float]) -> None:
        """Take f and its noise at ``points()``: split, or step on g."""
        k = len(values) // 2
        lo, hi = values[:k], values[k:]
        x, d, sign = self.probe, self.d, self.sign
        flo, fhi = lo[0], hi[0]
        left, right = flo * sign < 0.0, fhi * sign < 0.0
        if left or right:
            ends = (
                (self.left, (x - d, flo) if left else (x + d, fhi)),
                ((x + d, fhi) if right else (x - d, flo), self.right),
            )
            self.halves = tuple(
                _Bracket(_XTOL, _RTOL, *a, *b) for a, b in ends if not a[0] < self.zero < b[0]
            )
            self.root = (x, abs(fhi - flo))  # ended: its halves carry on
            return
        # the probe moves the innermost point on its side of the extremum:
        # x + d where f falls towards the dip
        if (fhi - flo) * sign < 0.0:
            self.left = (x + d, fhi)
        else:
            self.right = (x - d, flo)
        super().update(
            [b - a for a, b in zip(lo, hi)], [a + b for a, b in zip(noise[:k], noise[k:])]
        )


def _interpolation(x1, f1, x2, f2, x3, f3, order=1.0) -> float:
    """Chandrupatla's t on sign(f) |f|^(1/order): nan where the inverse
    quadratic through the three points is unsafe (x3 nan, x3 == x2, f3 == f2,
    or xi = (x1 - x2) / (x3 - x2) outside (0, 1))."""
    if order != 1.0:
        f1, f2, f3 = (math.copysign(abs(v) ** (1.0 / order), v) for v in (f1, f2, f3))
    f12, f32 = f1 - f2, f3 - f2
    if x3 == x2 or f32 == 0.0:
        return math.nan
    xi, phi = (x1 - x2) / (x3 - x2), f12 / f32
    if not (0.0 < xi < 1.0 and 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi)):
        return math.nan
    alpha = (x3 - x1) / (x2 - x1)
    return f1 / f12 * f3 / f32 + alpha * f1 / (f3 - f1) * f2 / f32


def _step(lam: float, cell: float) -> float:
    """The multiplicity stencil's step h = min(0.02 (1 + |lam|), cell / 5).

    It is wide enough that the sixth Taylor term of a sixth-order zero
    clears the noise rule of ``_multiplicities``, and the stencil's nine
    points stay within 0.8 of a grid cell of lam.  A zero found closer than
    1.5 h to another is read again with a narrower step (see ``_scan``).
    """
    return min(0.02 * (1.0 + abs(lam)), 0.2 * cell)


def _stencil(lam: float, h: float) -> list[float]:
    """The multiplicity stencil lam + k h, k = -4..4."""
    return [lam + k * h for k in _STENCIL]


def _refine(f, brackets, centres, cell, simple=False):
    """Refine ``brackets`` in rounds, each one call of ``f``, and read stencils.

    A round's points are those of every open bracket, each followed by its
    multiplicity stencil in its first closing round (a dip's only, when
    ``simple``), centred on its probe (whose value comes with the round when
    the bracket ``reads_probe``).  The first round also takes the stencils of
    ``centres``, (x, h) pairs.  A bracket that ends in ``halves`` hands on to
    them.  Out of rounds, an open bracket ends at its last probe.

    Returns the stencils as (centre, values, their noise), keyed by bracket
    and by position in ``centres``.
    """
    brackets, stencils, taps = list(brackets), {}, len(_STENCIL)
    for _ in range(_MAX_ITERATIONS):
        points, jobs = [], []
        # the brackets on f itself first, then those on g, each in the order made
        for b in sorted((b for b in brackets if b.root is None), key=lambda b: not b.reads_probe):
            xs = b.points()
            wanted = b.closing and b not in stencils and not (simple and b.reads_probe)
            centre = b.probe if wanted else None
            jobs.append((b, len(xs), centre))
            if centre is not None:
                stencil = _stencil(centre, _step(centre, cell))
                if b.reads_probe:
                    del stencil[taps // 2]  # the probe, already in the round
                xs += stencil
            points += xs
        for x, h in centres:
            points += _stencil(x, h)
        if not points:
            break
        values, noise = (a.tolist() for a in f(np.array(points)))
        at = 0
        for b, k, centre in jobs:
            ys, es = values[at : at + k], noise[at : at + k]
            at += k
            if centre is not None:
                m = taps - b.reads_probe
                sv, se = values[at : at + m], noise[at : at + m]
                at += m
                if b.reads_probe:
                    sv.insert(taps // 2, ys[0])
                    se.insert(taps // 2, es[0])
                stencils[b] = (centre, sv, se)
            b.update(ys, es)
            brackets += b.halves
        for i, (x, _) in enumerate(centres):
            stencils[i] = (x, values[at : at + taps], noise[at : at + taps])
            at += taps
        centres = []
    else:
        # out of rounds: what is open reports its last probe
        for b in brackets:
            if b.root is None:
                b.root = (b.x1, abs(b.f1))
    return stencils


def _multiplicities(v: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Zero orders, at most 8, from the Taylor terms of the 9-point interpolant.

    ``v`` holds f at lam + k h, k = -4..4, one row per zero, and ``noise``
    the bounds on the errors of those values.  The interpolant sum_j c_j k^j
    through them is exact on polynomials of degree 8, so c_j = f^(j) h^j / j!
    up to the ninth Taylor term, and a zero of order m <= 8 leaves
    c_1 ... c_(m-1) at that level.  (Seven points would not do for m = 6:
    they fold k^7 into 36 k - 49 k^3 + 14 k^5.)  A term is noise up to
    1e3 eps max|f| plus 4 times the largest error on the row: no row of
    ``_TAYLOR`` sums above 3.26 in modulus.
    """
    c = _TAYLOR @ v.T
    terms = np.abs(c[1:].T)
    top = terms.max(axis=1)
    noise = 1e3 * np.finfo(float).eps * np.abs(v).max(axis=1) + 4.0 * noise.max(axis=1)
    # the order is the first significant term; the largest term always is
    # one unless every term is noise
    significant = (terms >= 0.1 * top[:, None]) & (terms > noise[:, None])
    return np.where(top <= noise, 1, significant.argmax(axis=1) + 1)


def _scan_interval(interval: tuple[float, float], grid_points: int) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, not ({lo}, {hi})")
    return lo, hi


def _dips(signs, mid, left, right) -> np.ndarray:
    """The dip test at the inner grid points, from the signs of f and |f| at
    each point (``mid``) and its neighbours: every local minimum of |f|
    where neither cell changes sign (sign changes are refined as brackets,
    and an exact zero on the grid between neighbours of opposite sign is
    taken as it is).  Whether a dip holds a zero, its residual decides."""
    change = signs[:-1] * signs[1:] < 0.0
    return (
        (signs[:-2] * signs[2:] >= 0.0)
        & ~change[:-1]
        & ~change[1:]
        & (mid <= left)
        & (mid <= right)
    )


def _uncertified(vals: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The points of the grid decisions that the error bounds ``e`` leave open.

    A sign is certified where |f| > e, a comparison of the dip test where
    the intervals |f| -/+ e do not overlap, and the dip test at a point
    where its comparisons are certified true or one of them certified false.
    Returns the points with e > 0 of each open sign and of each open
    comparison of an open dip test.
    """
    a = np.abs(vals)
    low, high = np.maximum(a - e, 0.0), a + e
    unsure = a <= e
    # an open sign passes every sign test of a dip: it may be either
    maybe = _dips(np.where(unsure, 0.0, np.sign(vals)), low[1:-1], high[:-2], high[2:])
    sure = _dips(np.zeros_like(a), high[1:-1], low[:-2], low[2:])
    i = np.flatnonzero(maybe & ~sure) + 1
    again = unsure.copy()
    again[i] = True
    again[i[high[i] > low[i - 1]] - 1] = True
    again[i[high[i] > low[i + 1]] + 1] = True
    return again & (e > 0.0)


def _scan(
    read, lo: float, hi: float, n: int, structural_zero_at_origin: bool, rtol: float,
    simple: bool = False,
) -> ZeroReport:
    """The real zeros of f on [lo, hi] from an n-point grid.

    ``read(lams, rtol)`` maps an array of points to f (its real part is taken)
    and bounds on its errors.  The grid is read at _PHASE_RTOL, or at
    ``rtol``, the problem tolerance, if that is looser, and every other point
    at ``rtol``.  A grid value is loose where its bound exceeds rtol max(1, |f|).
    ``simple`` promises simple zeros: only a dip that does not split reads a stencil.
    """

    def f(lams: np.ndarray, rtol: float = rtol) -> tuple[np.ndarray, np.ndarray]:
        vals, err = read(lams, rtol)
        return np.real(vals), err

    grid, grid_rtol = np.linspace(lo, hi, n), max(rtol, _PHASE_RTOL)
    vals, err = f(grid, grid_rtol)
    cell = float(grid[1] - grid[0])
    if structural_zero_at_origin and lo <= 0.0 <= hi:
        # f(0) = 0 exactly, by promise: the structural zero is a grid point
        k = int(np.searchsorted(grid, 0.0))
        if grid[k] != 0.0:
            grid, vals, err = np.insert(np.array((grid, vals, err)), k, 0.0, axis=1)
        elif abs(vals[k]) > err[k]:
            f0, e0 = float(vals[k]), float(err[k])
            raise ValueError(
                f"structural_zero_at_origin promises f(0) = 0, but f(0) = {f0!r}"
                f" exceeds its error bound {e0!r}"
            )
        vals = np.where(grid == 0.0, 0.0, vals)
        err[k] = 0.0
    # the bounds of the loose values, 0 where a value is as tight as rtol gives
    loose = (grid_rtol > rtol) & (err > rtol * np.maximum(1.0, np.abs(vals)))
    e = np.where(loose, err, 0.0)
    if loose.any():
        again = _uncertified(vals, e)
        if again.any():
            vals[again], e[again] = f(grid[again])[0], 0.0

    on_grid = np.flatnonzero(vals == 0.0).tolist()
    # signs compare as signs: a product of two values of f underflows to
    # zero once |f| is below about 1e-154
    signs = np.sign(vals)
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    absvals = np.abs(vals)
    dip = _dips(signs, absvals[1:-1], absvals[:-2], absvals[2:])
    # a dip or grid zero's residual may exceed its bound by 1e-12 S, S the
    # certified lower bound on max(1, max |f|) over the grid
    slack = 1e-12 * max(1.0, float((absvals - e).max()))
    xs, ys = grid.tolist(), vals.tolist()
    roots = []
    for k in cells.tolist():
        # the seed: grid point k - 1 when f has the sign of f(x_k) there
        seed = (xs[k - 1], ys[k - 1]) if k > 0 and signs[k - 1] == signs[k] else (math.nan,) * 2
        roots.append(_Bracket(_XTOL, _RTOL, xs[k], ys[k], xs[k + 1], ys[k + 1], *seed))
    dips = [_Dip(*zip(xs[i - 1 : i + 2], ys[i - 1 : i + 2])) for i in np.flatnonzero(dip) + 1]
    centres = [] if simple else [(xs[k], _step(xs[k], cell)) for k in on_grid]
    stencils = _refine(f, roots + dips, centres, cell, simple)

    # candidate zeros as (lam, residual, stencil), in the order in which the
    # first of any close pair is kept: grid zeros and cells by position,
    # then the dips (a split one's halves, left then right)
    at_grid = {k: (xs[k], 0.0 if simple else None, stencils.get(i)) for i, k in enumerate(on_grid)}
    at_grid.update((k, (*b.root, stencils.get(b))) for k, b in zip(cells.tolist(), roots))
    candidates = [at_grid[k] for k in sorted(at_grid)]
    for d in dips:
        split = [(*b.root, stencils.get(b)) for b in d.halves]
        candidates += split or [(d.root[0], None, stencils.get(d))]

    # a candidate closer than _DISTINCT (1 + |x|) to a kept zero x is that
    # zero; such an x lies within 2 _DISTINCT (1 + |lam|) of the candidate lam
    found, kept = [], []
    for lam, residual, stencil in candidates:
        w = 2.0 * _DISTINCT * (1.0 + abs(lam))
        near = kept[bisect.bisect_left(kept, lam - w) : bisect.bisect_right(kept, lam + w)]
        if all(abs(lam - seen) > _DISTINCT * (1.0 + abs(seen)) for seen in near):
            bisect.insort(kept, lam)
            found.append((lam, residual, stencil))

    # a zero takes a stencil in one more call when it has none, when the
    # centre of its stencil is farther than h / 100 from it (an order m
    # reads right while c_(m-1) / c_m = m e / h stays below 0.1), or when
    # another zero lies closer than 1.5 h: a neighbour of order m' at g
    # puts C(m', k) (h / g)^k into c_(m+k) / c_m, below 10 for m' <= 6 only
    # while h < 0.79 g.  Then h shrinks to g / 2, but not below the
    # 1e-3 (1 + |lam|) at which the terms of a triple zero next to a simple
    # one would sink into the noise rule.
    gaps = [b - a for a, b in zip(kept, kept[1:])]
    gap = dict(zip(kept, map(min, [math.inf] + gaps, gaps + [math.inf])))
    late = {}
    for j, (lam, residual, stencil) in enumerate(found):
        if simple and residual is not None:
            continue  # a root or grid zero, simple by promise
        wide = _step(lam, cell)
        h = wide
        if gap[lam] < 1.5 * wide:
            h = min(wide, max(0.5 * gap[lam], 1e-3 * (1.0 + abs(lam))))
        if stencil is None or abs(lam - stencil[0]) > 0.01 * h or h < wide:
            late[j] = (lam, h)
    stencils = _refine(f, [], list(late.values()), cell)
    for i, j in enumerate(late):
        found[j] = (*found[j][:2], stencils[i])

    c, zeros = len(_STENCIL) // 2, [(complex(z), 1, r) for z, r, s in found if s is None]
    found = [z for z in found if z[2] is not None]
    if found:
        rows = np.array([stencil[1] for _, _, stencil in found])
        bounds = np.array([stencil[2] for _, _, stencil in found])
        mults = _multiplicities(rows, bounds)
        for (lam, residual, _), v, e, mult in zip(found, rows, bounds, mults.tolist()):
            # a root's residual is its bracket's last |f|, any other zero's
            # |f| at its stencil's centre, within that value's bound + slack
            if residual is None:
                residual = abs(float(v[c]))
                if residual > e[c] + slack:
                    continue
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
    is exactly 0.  A sign change is a zero; a dip of |f| without one, or a
    grid point where f is 0, is a zero when |f| at its stencil's centre is
    at most 1e-12 max(1, max |f| over the grid).  Two simple zeros closer
    than about 1e-3 (1 + |x|), the floor of the stencil step, share their
    stencils, and each can read as a double zero: (x - 0.3)^2 - 1e-10 gives
    (0.29999, 2) and (0.30001, 2).
    ``structural_zero_at_origin=True`` promises f(0) = 0: when 0 lies in the
    interval it becomes a grid point with the value 0.  When 0 is a point of
    the linspace, f is evaluated there and must return exactly 0, or the
    scan raises ValueError.
    """
    lo, hi = _scan_interval(interval, grid_points)
    read = _read_exact(f_batch)
    return _scan(read, lo, hi, grid_points, structural_zero_at_origin, 0.0)


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
    as close as the computed b locates the exact one.  A dip of |b| without
    a sign change is a zero when |b| at its refined centre is within its
    ``err`` plus 1e-12 max(1, max(|b| - err) over the grid).  Where V keeps
    one sign every zero is simple: only a dip that does not split reads a
    stencil, for its residual and order, and the structural zero has residual 0.

    The grid is read at 1e-5 (or the problem tolerance if looser) and every
    decision on it certified by ``err``, so the zeros, multiplicities and
    refinement calls are those of a grid read at the problem tolerance.
    """
    lo, hi = _scan_interval(interval, grid_points)
    if is_identically_zero(problem):
        return ZeroReport((), True, _SCAN_LABEL.format(lo, hi, grid_points))
    require_real_reference(problem)
    tol = problem.tolerances.ode_rtol
    return _scan(_read_b(problem), lo, hi, grid_points, True, tol, _one_sign(problem))


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


def _phases(read, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f at ``lams`` and the bounds on its errors, each within _PHASE_CERT |f|.

    Every point is read at _PHASE_RTOL; one whose bound exceeds
    _PHASE_CERT |f| is read again at _CONTOUR_RTOL.
    """
    vals, err = read(lams, _PHASE_RTOL)
    loose = err > _PHASE_CERT * np.abs(vals)
    if loose.any():
        vals[loose], err[loose] = read(lams[loose], _CONTOUR_RTOL)
    return vals, err


def _on_contour(
    read, r: float, n: int, mirrored: bool, half: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """f on the n nodes of |lam| = r, and the bounds on the errors of the
    nodes it evaluates, in order (``_phases``).

    ``half`` holds f on the n / 2 nodes of the halved circle, which are the
    even nodes of this one; then only the odd nodes are evaluated.  When
    ``mirrored`` (f(conj z) = conj f(z)), only the nodes k <= n / 2 are
    evaluated, and node n - k takes the conjugate of node k.
    """
    lams = _contour(r, n)
    top = n // 2 + 1 if mirrored else n
    new = slice(0, top) if half is None else slice(1, top, 2)
    vals = np.empty(n, dtype=complex)
    if half is not None:
        vals[0::2] = half
    vals[new], err = _phases(read, lams[new])
    return (_mirror(vals) if mirrored else vals), err


def _settled_count(read, r: float, n: int, vals: np.ndarray, mirrored: bool) -> int:
    """Winding count on |lam| = r from n nodes, doubling until it settles.

    ``vals`` holds f on the contour of ``len(vals)`` nodes, a multiple of n;
    past that, each doubling evaluates only the new odd nodes, and when
    ``mirrored`` only those with Im lam >= 0.  Every phase it reads is
    certified by ``_phases``.
    """
    while True:
        if n > len(vals):
            vals = _on_contour(read, r, n, mirrored, vals)[0]
        sub = vals[:: len(vals) // n]
        absvals = np.abs(sub)
        if not np.isfinite(absvals).all():
            raise ContourCollisionError(f"b is not finite on the contour |lam| = {r:g}")
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


def _disk_radius(r: float, nodes: int) -> tuple[float, int]:
    """The checked radius, and the first node count max(nodes, 64)."""
    r = float(r)
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, not {r}")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    return r, max(int(nodes), 64)


def _disk_count(read, r: float, n: int, mirrored: bool) -> int:
    """Winding count on |lam| = r from n nodes up (``_settled_count``)."""
    return _settled_count(read, r, n, _on_contour(read, r, n, mirrored)[0], mirrored)


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
    of an integer.  That rule sees only the sampled increments, so a phase
    that turns by more than pi between nodes aliases.  From the default 64
    nodes on |z| = 1, z^65536 counts 0, z^68 counts 4, and z^60 raises
    "negative winding".  ``nodes`` must be at least 1.  f is
    evaluated once per node of the final contour, or, when
    ``conjugate_symmetric`` declares f(conj z) = conj f(z), once per node
    with Im lam >= 0.
    """
    return _disk_count(_read_exact(f_batch), *_disk_radius(r, nodes), conjugate_symmetric)


def disk_zero_count(problem: ScatteringProblem, r: float, nodes: int = 64) -> int:
    """Number of zeros of b in |lam| <= r, counted by multiplicity.

    |N(-r) - N(r)| where u0 is real and V keeps one sign, unless either
    eigencount is flagged; else the winding of b from ``nodes`` nodes up.
    """
    r, n = _disk_radius(r, nodes)
    if is_identically_zero(problem):
        raise DegenerateFunctionError("b vanishes identically; no discrete zeros")
    (count,) = _sturm_counts(problem, [r])
    if count is None:
        count = _disk_count(_read_b(problem), r, n, problem.ref.u0_is_real)
    return count


# ---------------------------------------------------------------------------
# growth order


def _fit_radii(radii) -> list[float]:
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("order fitting needs at least 4 radii")
    if not all(0 < r < math.inf for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be finite, positive and increasing, not {radii}")
    return radii


def _order_fit(read, radii: list[float], mirrored: bool, counts=None) -> GrowthFit:
    """Growth and zero-count exponents of f over the checked ``radii``, winding the
    contour for each count that is None in ``counts`` (all by default)."""
    counts = list(counts or [None] * len(radii))
    log_max = []
    for i, r in enumerate(radii):
        vals, err = _on_contour(read, r, _FIT_NODES, mirrored)
        # of the evaluated nodes, those that can hold max |f| (|f| + err
        # reaches max(|f| - err), or |f| is nan) and are not already within
        # _CONTOUR_RTOL are read again
        size = np.abs(vals[: len(err)])
        peak = (size + err >= (size - err).max()) | np.isnan(size)
        loose = np.flatnonzero(peak & (err > _CONTOUR_RTOL * size))
        if loose.size:
            size[loose] = np.abs(read(_contour(r, _FIT_NODES)[loose], _CONTOUR_RTOL)[0])
        log_max.append(float(np.log(size[peak].max())))
        if counts[i] is None:
            # the count's 64- and 128-node contours are every 4th and 2nd node
            counts[i] = _settled_count(read, r, 64, vals, mirrored)
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
    return _order_fit(_read_exact(f_batch), _fit_radii(radii), conjugate_symmetric)


def _slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    coef, stats = np.polynomial.polynomial.polyfit(x, y, 1, full=True)
    resid = stats[0]
    rms = float(np.sqrt(resid[0] / len(x))) if len(resid) else 0.0
    return float(coef[1]), rms


def order_fit(problem: ScatteringProblem, radii) -> GrowthFit:
    """Fit growth and zero-count exponents of b over increasing radii.

    log max|b| comes from 256 contour nodes per radius, and the counts as
    ``disk_zero_count``'s do, those by Sturm difference from one eigencount.
    """
    radii = _fit_radii(radii)
    if is_identically_zero(problem):
        raise DegenerateFunctionError("b vanishes identically; growth undefined")
    counts = _sturm_counts(problem, radii)
    return _order_fit(_read_b(problem), radii, problem.ref.u0_is_real, counts)
