"""Problem model: potentials, reference solutions and validated instances.

The central object is :class:`ScatteringProblem`, an immutable bundle of a
background potential ``Q``, a compactly supported perturbation ``V`` on
[0, 1], and reference data for the unperturbed pair ``(u0, v0)`` with
``W[u0, v0] = u0' v0 - u0 v0' = 1``.  Everything downstream (transfer
matrices, power series, zero counting, eigenvalue counting) consumes these
instances and never mutates them.

Potentials are piecewise polynomials on [0, 1]; the perturbation may in
addition carry delta spikes (point masses), which are flagged as a measure
extension and rejected by the routines whose estimates need an L^1 density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from numpy.polynomial import polynomial as npoly

from .errors import InvalidProblemError, UnsupportedBackgroundError

# Geometry tolerance for segment bookkeeping (not a solver tolerance).
_GEOM_TOL = 1e-12

Pair = tuple[complex, complex]
Segment = tuple[float, float, tuple[float, ...]]


def wronskian(f: Pair, g: Pair) -> complex:
    """W[f, g] = f' g - f g' for state pairs (value, derivative)."""
    return f[1] * g[0] - f[0] * g[1]


def _as_segment(seg: Sequence) -> Segment:
    x_lo, x_hi, coeffs = seg
    c = tuple(float(v) for v in coeffs)
    if not c:
        c = (0.0,)
    # strip trailing zeros so degree queries are meaningful
    while len(c) > 1 and c[-1] == 0.0:
        c = c[:-1]
    return (float(x_lo), float(x_hi), c)


def _segment_abs_integral(length: float, coeffs: tuple[float, ...]) -> float:
    """Exact integral of |p| over [0, length] for p in local coordinates."""
    if len(coeffs) == 1:
        return abs(coeffs[0]) * length
    cuts = [0.0, length]
    for r in npoly.polyroots(coeffs):
        if abs(r.imag) < 1e-12 and _GEOM_TOL < r.real < length - _GEOM_TOL:
            cuts.append(float(r.real))
    cuts.sort()
    anti = npoly.polyint(coeffs)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += abs(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
    return float(total)


@dataclass(frozen=True)
class PotentialSpec:
    """Piecewise-polynomial potential on [0, 1], optionally with delta spikes.

    Parameters
    ----------
    segments : tuple of (x_lo, x_hi, coeffs)
        Ordered, disjoint intervals whose closures cover [0, 1].  ``coeffs``
        are ascending polynomial coefficients in the local variable
        ``x - x_lo``.
    spikes : tuple of (position, weight)
        Point masses ``weight * delta(x - position)``.  A measure extension:
        positions must strictly increase and lie in [0, 1].

    The L^1 norm of the absolutely continuous part is computed exactly from
    the polynomial pieces and stored in ``l1_norm``.
    """

    segments: tuple[Segment, ...]
    spikes: tuple[tuple[float, float], ...] = ()
    l1_norm: float = field(init=False, compare=False)

    def __post_init__(self):
        segs = tuple(_as_segment(s) for s in self.segments)
        if not segs:
            raise InvalidProblemError("potential needs at least one segment")
        segs = tuple(sorted(segs, key=lambda s: s[0]))
        if abs(segs[0][0]) > _GEOM_TOL or abs(segs[-1][1] - 1.0) > _GEOM_TOL:
            raise InvalidProblemError("segments must cover [0, 1]")
        for (a_lo, a_hi, _), (b_lo, _, _) in zip(segs[:-1], segs[1:]):
            if a_hi - a_lo <= _GEOM_TOL:
                raise InvalidProblemError("empty potential segment")
            if abs(a_hi - b_lo) > _GEOM_TOL:
                raise InvalidProblemError(
                    f"segments must tile [0, 1]; gap or overlap at x = {a_hi!r}"
                )
        if segs[-1][1] - segs[-1][0] <= _GEOM_TOL:
            raise InvalidProblemError("empty potential segment")
        spikes = tuple((float(p), float(w)) for p, w in self.spikes)
        for (p, _), (q, _) in zip(spikes[:-1], spikes[1:]):
            if not p < q:
                raise InvalidProblemError("spike positions must strictly increase")
        for p, _ in spikes:
            if not 0.0 <= p <= 1.0:
                raise InvalidProblemError(f"spike position {p} outside [0, 1]")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "spikes", spikes)
        l1 = sum(_segment_abs_integral(hi - lo, c) for lo, hi, c in segs)
        object.__setattr__(self, "l1_norm", l1)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec(((0.0, 1.0, (0.0,)),))

    @staticmethod
    def constant(value: float) -> "PotentialSpec":
        return PotentialSpec(((0.0, 1.0, (float(value),)),))

    @staticmethod
    def polynomial(coeffs: Iterable[float]) -> "PotentialSpec":
        """Single segment over [0, 1]; coeffs ascending in x."""
        return PotentialSpec(((0.0, 1.0, tuple(float(c) for c in coeffs)),))

    @staticmethod
    def from_samples(values: Iterable[float]) -> "PotentialSpec":
        """Piecewise-constant potential from equal-width cell values."""
        vals = [float(v) for v in values]
        n = len(vals)
        if n == 0:
            raise InvalidProblemError("from_samples needs at least one value")
        return PotentialSpec(
            tuple((i / n, (i + 1) / n, (v,)) for i, v in enumerate(vals))
        )

    @staticmethod
    def deltas(spikes: Iterable[tuple[float, float]]) -> "PotentialSpec":
        """Pure point-mass potential (zero density)."""
        return PotentialSpec(((0.0, 1.0, (0.0,)),), tuple(spikes))

    # -- queries -----------------------------------------------------------

    @property
    def has_spikes(self) -> bool:
        return bool(self.spikes)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts = [self.segments[0][0]]
        pts.extend(s[1] for s in self.segments)
        return tuple(pts)

    @property
    def max_degree(self) -> int:
        return max(len(c) - 1 for _, _, c in self.segments)

    def segment_at(self, x: float, *, from_right: bool = False) -> Segment:
        """Segment containing x.

        At interior breakpoints the segments touch; ``from_right`` selects
        the segment extending to the right of x (needed when x is the start
        of a sweep), the default selects the one ending at x.
        """
        for lo, hi, c in self.segments:
            if x < hi or (not from_right and x == hi):
                return (lo, hi, c)
        return self.segments[-1]

    def __call__(self, x: float) -> float:
        """Density value at x (spikes do not contribute)."""
        lo, _, c = self.segment_at(float(x))
        return float(npoly.polyval(float(x) - lo, c))


@dataclass(frozen=True)
class Tolerances:
    """Solver tolerance block.

    ``ode_rtol`` drives the adaptive propagator refinement, ``wronskian_tol``
    is the acceptance threshold for the W[u0, v0] = 1 normalization checks.
    Defaults leave ample headroom under the 1e-8 analysis thresholds.
    """

    ode_rtol: float = 1e-10
    wronskian_tol: float = 1e-10


@dataclass(frozen=True)
class ReferenceData:
    """Endpoint data of the reference solutions u0 and v0.

    ``u0_at_0`` is the prescribed initial data; the values at 1 are derived
    by zero-coupling propagation.  ``k_tag`` optionally records the
    wavenumber of a traveling-wave u0 (metadata only).
    """

    u0_at_0: Pair
    u0_at_1: Pair
    v0_at_0: Pair
    v0_at_1: Pair
    k_tag: float | None = None

    def __post_init__(self):
        for name in ("u0_at_0", "u0_at_1", "v0_at_0", "v0_at_1"):
            val, der = getattr(self, name)
            object.__setattr__(self, name, (complex(val), complex(der)))

    @property
    def u0_is_real(self) -> bool:
        """The library's one test of a real u0, read by every layer: each imaginary
        part of ``u0_at_0`` within 1e-14 of the pair's larger modulus."""
        scale = max(abs(self.u0_at_0[0]), abs(self.u0_at_0[1]))
        return (
            abs(self.u0_at_0[0].imag) <= 1e-14 * scale
            and abs(self.u0_at_0[1].imag) <= 1e-14 * scale
        )


@dataclass(frozen=True)
class ScatteringProblem:
    """Immutable problem instance.  Build through :func:`build_problem`."""

    Q: PotentialSpec
    V: PotentialSpec
    ref: ReferenceData
    tolerances: Tolerances = Tolerances()


def v0_from_u0(u0_init: Pair) -> Pair:
    """Initial data of the companion solution v0 with W[u0, v0](0) = 1.

    The constraint ``u0'(0) v0(0) - u0(0) v0'(0) = 1`` is one linear
    equation in two unknowns; among all solutions the minimal-Euclidean-norm
    one is returned (the least-squares pseudo-inverse, so the choice is
    deterministic).
    """
    u, up = complex(u0_init[0]), complex(u0_init[1])
    norm_sq = abs(u) ** 2 + abs(up) ** 2
    if norm_sq == 0.0:
        raise InvalidProblemError("reference initial data must not vanish")
    # minimal-norm solution of c . z = 1 with c = (u0'(0), -u0(0))
    return (up.conjugate() / norm_sq, -u.conjugate() / norm_sq)


def build_problem(
    Q: PotentialSpec,
    V: PotentialSpec,
    u0_init: Pair,
    *,
    k_tag: float | None = None,
    tolerances: Tolerances | None = None,
    v0_init: Pair | None = None,
) -> ScatteringProblem:
    """Assemble and validate a scattering problem.

    ``v0_init`` normally comes from :func:`v0_from_u0`; passing it
    explicitly (any data with W[u0, v0](0) = 1) is allowed so that the
    v0-convention independence of the Wronskian coefficient can be probed.

    Raises
    ------
    InvalidProblemError
        Zero initial data, or v0_init violating the normalization.
    UnsupportedBackgroundError
        Delta spikes in the background potential Q.
    """
    from . import engine  # local import: engine depends on this module

    if Q.has_spikes:
        raise UnsupportedBackgroundError("background potential Q must be spike-free")
    u0 = (complex(u0_init[0]), complex(u0_init[1]))
    if u0 == (0.0, 0.0):
        raise InvalidProblemError("reference initial data must not vanish")
    tol = tolerances if tolerances is not None else Tolerances()
    if v0_init is None:
        v0 = v0_from_u0(u0)
    else:
        v0 = (complex(v0_init[0]), complex(v0_init[1]))
        if abs(wronskian(u0, v0) - 1.0) > tol.wronskian_tol:
            raise InvalidProblemError("v0_init violates W[u0, v0](0) = 1")

    # Zero-coupling transfer across [0, 1]: V (and any spikes) drop out.
    (a, b), (c, d) = engine._product(Q, V, 0.0, tol.ode_rtol)[0].tolist()
    u0_at_1, v0_at_1 = ((a * u + b * up, c * u + d * up) for u, up in (u0, v0))
    defect = abs(wronskian(u0_at_1, v0_at_1) - 1.0)
    if defect > tol.wronskian_tol:
        raise InvalidProblemError(
            f"Wronskian normalization drifted to {defect:.3e} across [0, 1]"
        )
    return ScatteringProblem(
        Q=Q,
        V=V,
        ref=ReferenceData(u0, u0_at_1, v0, v0_at_1, k_tag),
        tolerances=tol,
    )

