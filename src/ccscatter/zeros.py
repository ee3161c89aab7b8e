"""Zero location and counting for the Wronskian coefficient b.

Three views of the same entire function:

* real-axis scans with bracketing and refinement (plus a local-minimum
  sweep that catches even-order zeros where the sign does not change),
* argument-principle counts over disks, with adaptive phase unwrapping,
* growth fitting of both log N(r) and log log max |b| against log r.

A degenerate b (identically zero) is detected first on a fixed control
grid; every counting routine refuses to run on it.

Refinement is batched: every open sign-change bracket of a scan
(Chandrupatla's iteration) and every dip of |b| (Brent's golden-section
search with parabolic steps) takes one probe per iteration, and the probes
of one iteration go to b in one call.  The five-point multiplicity stencils
of all candidate zeros then go in one more call.  Contours reuse what they
have evaluated: doubling n nodes evaluates only the n new odd nodes (the
even nodes of the 2n grid are the old grid, bit for bit), and a growth fit
counts each radius starting from its own 256 max-modulus nodes.

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

# refinement stopping rules: a bracket is done when narrower than
# _XTOL + _RTOL |x|, a dip when Brent's test passes at 1e-13/3 + sqrt(eps)|x|
_XTOL = 1e-14
_RTOL = 1e-15
_DIP_XATOL = 1e-13
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
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


class _Brackets:
    """Sign-change brackets refined together by Chandrupatla's iteration.

    Each bracket holds two ends (x1, f1), (x2, f2) of opposite sign and the
    end (x3, f3) it dropped last.  Its next probe is x1 + t (x2 - x1), with t
    from inverse quadratic interpolation through the three points where that
    is safe and 1/2 otherwise (Chandrupatla, Adv. Eng. Softw. 28, 1997).  A
    bracket is done when its better end is an exact zero or the bracket is
    narrower than 1e-14 + 1e-15 |x|; that end is its root.
    """

    def __init__(self) -> None:
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

    def update(self, ft: np.ndarray) -> None:
        """Take the values at the probes and choose the next probes."""
        same = np.sign(ft) == np.sign(self.f1)
        self.x3 = np.where(same, self.x1, self.x2)
        self.f3 = np.where(same, self.f1, self.f2)
        self.x2 = np.where(same, self.x2, self.x1)
        self.f2 = np.where(same, self.f2, self.f1)
        self.x1, self.f1 = self.probes, ft
        self._next()

    def _next(self) -> None:
        first = np.abs(self.f1) < np.abs(self.f2)
        xm = np.where(first, self.x1, self.x2)
        fm = np.where(first, self.f1, self.f2)
        dx = np.abs(self.x2 - self.x1)
        tol = _XTOL + _RTOL * np.abs(xm)
        done = (fm == 0.0) | (dx < tol)
        self.roots += zip(self.keys[done].tolist(), xm[done].tolist())
        keep = ~done
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


class _Dips:
    """Local minima of |f| searched together, one probe per dip per round.

    Each dip runs Brent's golden-section search with parabolic steps
    (*Algorithms for Minimization without Derivatives*, 1973, ch. 5) on
    (a, b), with x, w, v the best, second and third points and the stopping
    rule |x - (a + b)/2| <= 2 tol - (b - a)/2, tol = 1e-13/3 + sqrt(eps) |x|.
    Every point a dip has seen so far carries the sign of its grid
    neighbours (or is a zero); a probe of the other sign splits it into two
    sign-change brackets, from the nearest points on either side, which
    ``update`` returns.  A simple zero on a grid point between neighbours
    of one sign has a partner zero in the dip, which is found this way.
    """

    def __init__(self, keys, a, fa, b, fb, sign) -> None:
        self.keys = np.asarray(keys, dtype=int)
        self.a, self.fa, self.b, self.fb = a, fa, b, fb
        self.sign = sign  # of the dip's grid neighbours
        self.probes = a + _GOLDEN * (b - a)
        # before the first probe returns, a stands in for x, w and v
        self.x = self.w = self.v = a
        self.fx = self.fw = self.fv = fa
        self.e = self.d = np.zeros(len(a))
        self.fresh = True
        self.minima: list[tuple[int, float, float]] = []

    def update(self, fu: np.ndarray):
        """Take the values at the probes; return the brackets split off."""
        u = self.probes
        split = np.sign(fu) * self.sign < 0.0
        points = np.stack([self.a, self.b, self.x, self.w, self.v])[:, split]
        values = np.stack([self.fa, self.fb, self.fx, self.fw, self.fv])[:, split]
        us, cols = u[split], np.arange(int(split.sum()))
        left = np.argmax(np.where(points < us, points, -np.inf), axis=0)
        right = np.argmin(np.where(points > us, points, np.inf), axis=0)
        keys = self.keys[split]
        pieces = (
            np.concatenate([keys, keys + 1]),
            np.concatenate([points[left, cols], us]),
            np.concatenate([values[left, cols], fu[split]]),
            np.concatenate([us, points[right, cols]]),
            np.concatenate([fu[split], values[right, cols]]),
        )

        keep = ~split
        u, fu = u[keep], fu[keep]
        self.keys, self.sign = self.keys[keep], self.sign[keep]
        a, fa, b, fb, x, fx, w, fw, v, fv, e, d = (
            s[keep]
            for s in (
                self.a, self.fa, self.b, self.fb, self.x, self.fx,
                self.w, self.fw, self.v, self.fv, self.e, self.d,
            )
        )
        if self.fresh:
            x = w = v = u
            fx = fw = fv = fu
            self.fresh = False
        else:
            au, ax, aw, av = np.abs(fu), np.abs(fx), np.abs(fw), np.abs(fv)
            better = au <= ax
            # the interval end on u's side moves to x (u better) or to u
            end, f_end = np.where(better, x, u), np.where(better, fx, fu)
            to_a = np.where(better, u >= x, u < x)
            a, fa = np.where(to_a, end, a), np.where(to_a, f_end, fa)
            b, fb = np.where(to_a, b, end), np.where(to_a, fb, f_end)
            second = ~better & ((au <= aw) | (w == x))
            third = ~better & ~second & ((au <= av) | (v == x) | (v == w))
            v, fv = (
                np.where(better | second, w, np.where(third, u, v)),
                np.where(better | second, fw, np.where(third, fu, fv)),
            )
            w, fw = np.where(better, x, np.where(second, u, w)), np.where(
                better, fx, np.where(second, fu, fw)
            )
            x, fx = np.where(better, u, x), np.where(better, fu, fx)

        # stopping rule, then the next probe: parabolic where acceptable
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(x) + _DIP_XATOL / 3.0
        tol2 = 2.0 * tol1
        done = np.abs(x - mid) <= tol2 - 0.5 * (b - a)
        self.minima += zip(self.keys[done].tolist(), x[done].tolist(), fx[done].tolist())
        keep = ~done
        self.keys, self.sign = self.keys[keep], self.sign[keep]
        a, fa, b, fb, x, fx, w, fw, v, fv, e, d, mid, tol1, tol2 = (
            s[keep] for s in (a, fa, b, fb, x, fx, w, fw, v, fv, e, d, mid, tol1, tol2)
        )
        ax, aw, av = np.abs(fx), np.abs(fw), np.abs(fv)
        r = (x - w) * (ax - av)
        q = (x - v) * (ax - aw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (
            (np.abs(e) > tol1)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - x))
            & (p < q * (b - x))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / q
            near_end = (x + step - a < tol2) | (b - (x + step) < tol2)
        step = np.where(near_end, tol1 * _sign(mid - x), step)
        golden = np.where(x >= mid, a - x, b - x)
        self.e = np.where(parabolic, d, golden)
        self.d = np.where(parabolic, step, _GOLDEN * golden)
        self.probes = x + _sign(self.d) * np.maximum(np.abs(self.d), tol1)
        self.a, self.fa, self.b, self.fb = a, fa, b, fb
        self.x, self.fx, self.w, self.fw, self.v, self.fv = x, fx, w, fw, v, fv
        return pieces


def _sign(x: np.ndarray) -> np.ndarray:
    """Sign with 0 counted as +1."""
    return np.where(x < 0.0, -1.0, 1.0)


def _refine(f: Callable[[np.ndarray], np.ndarray], brackets: _Brackets, dips: _Dips):
    """Advance every bracket and dip together, one call of ``f`` a round."""
    for _ in range(_MAX_ITERATIONS):
        nb = len(brackets.probes)
        if nb + len(dips.probes) == 0:
            return
        values = f(np.concatenate([brackets.probes, dips.probes]))
        brackets.update(values[:nb])
        if len(dips.probes):
            brackets.add(*dips.update(values[nb:]))
    # out of rounds: what is open reports its best point
    brackets.roots += zip(brackets.keys.tolist(), brackets.x1.tolist())
    dips.minima += zip(dips.keys.tolist(), dips.x.tolist(), dips.fx.tolist())


def _multiplicities(v: np.ndarray, h: np.ndarray, scale: float) -> np.ndarray:
    """Zero orders, at most 4, from scaled central-difference Taylor terms.

    ``v`` holds f at lam + k h, k = -2..2, one row per zero.
    """
    d1 = (v[:, 3] - v[:, 1]) / (2 * h)
    d2 = (v[:, 3] - 2 * v[:, 2] + v[:, 1]) / h**2
    d3 = (v[:, 4] - 2 * v[:, 3] + 2 * v[:, 1] - v[:, 0]) / (2 * h**3)
    d4 = (v[:, 4] - 4 * v[:, 3] + 6 * v[:, 2] - 4 * v[:, 1] + v[:, 0]) / h**4
    terms = np.stack(
        [
            np.abs(d1) * h,
            np.abs(d2) * h**2 / 2.0,
            np.abs(d3) * h**3 / 6.0,
            np.abs(d4) * h**4 / 24.0,
        ],
        axis=1,
    )
    top = terms.max(axis=1)
    noise = 1e3 * np.finfo(float).eps * scale
    # the order is the first significant term; the largest term always is
    # one unless every term is noise
    significant = (terms >= 0.1 * top[:, None]) & (terms > noise)
    return np.where(top <= noise, 1, significant.argmax(axis=1) + 1)


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
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, not ({lo}, {hi})")
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
    i = i[dip]

    brackets = _Brackets()
    brackets.add(2 * cells, grid[cells], vals[cells], grid[cells + 1], vals[cells + 1])
    sign = np.sign(vals[i - 1] + vals[i + 1])
    dips = _Dips(2 * (n + i), grid[i - 1], vals[i - 1], grid[i + 1], vals[i + 1], sign)
    _refine(f, brackets, dips)

    candidates = [(2 * int(k), float(grid[k])) for k in on_grid]
    candidates += brackets.roots
    candidates += [(key, lam) for key, lam, fx in dips.minima if abs(fx) <= 1e-8 * scale]
    if structural_zero_at_origin and lo <= 0.0 <= hi:
        candidates.append((4 * n, 0.0))
    candidates.sort(key=lambda c: c[0])

    found: list[float] = []
    for _, lam in candidates:
        if all(abs(lam - seen) > 1e-6 * (1.0 + abs(seen)) for seen in found):
            found.append(lam)

    zeros = []
    if found:
        lams = np.array(found)
        h = 1e-3 * (1.0 + np.abs(lams))
        stencil = f((lams[:, None] + np.arange(-2, 3) * h[:, None]).ravel())
        stencil = stencil.reshape(len(lams), 5)
        mults = _multiplicities(stencil, h, scale)
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


def _contour(r: float, n: int) -> np.ndarray:
    """The n nodes r exp(2 pi i k / n); the even nodes of 2n are those of n."""
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def _settled_count(
    f_batch: Callable[[np.ndarray], np.ndarray], r: float, n: int, vals: np.ndarray
) -> int:
    """Winding count on |lam| = r from n nodes, doubling until it settles.

    ``vals`` holds f on the contour of ``len(vals)`` nodes, a multiple of n;
    past that, each doubling evaluates only the new odd nodes.
    """
    while True:
        lams = _contour(r, n)
        if n > len(vals):
            both = np.empty(n, dtype=complex)
            both[0::2], both[1::2] = vals, f_batch(lams[1::2])
            vals = both
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


def disk_zero_count_fn(
    f_batch: Callable[[np.ndarray], np.ndarray], r: float, nodes: int = 64
) -> int:
    """Zeros of f inside |lam| <= r by trapezoidal winding of the phase.

    Node count starts at max(nodes, 64) and doubles until consecutive
    phase increments stay below pi/2 and the winding number is within 0.25
    of an integer.  ``nodes`` must be at least 1.  f is evaluated once per
    node of the final contour.
    """
    r = float(r)
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, not {r}")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    n = max(int(nodes), 64)
    return _settled_count(f_batch, r, n, f_batch(_contour(r, n)))


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
    if not all(0 < r < math.inf for r in radii) or any(
        b <= a for a, b in zip(radii[:-1], radii[1:])
    ):
        raise ValueError(f"radii must be finite, positive and increasing, not {radii}")
    counts = []
    log_max = []
    for r in radii:
        vals = f_batch(_contour(r, _FIT_NODES))
        log_max.append(float(np.log(np.abs(vals).max())))
        # the count's 64- and 128-node contours are every 4th and 2nd node
        counts.append(_settled_count(f_batch, r, 64, vals))
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
