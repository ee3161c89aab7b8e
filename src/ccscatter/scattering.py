"""Wronskian coefficients (a, b), traveling-wave amplitudes and reflection.

Past the support of the perturbation the perturbed solution is a
combination ``u_lam = a(lam) u0 + b(lam) v0``; both coefficients are read
off from Wronskians at x = 1+ (after the last spike):

    b = W[u0, u_lam] = u0' u_lam - u0 u_lam',
    a = -W[v0, u_lam].

For a genuinely complex u0 the pair (u0, conj(u0)) is a traveling-wave
basis and ``u_lam = alpha u0 + beta conj(u0)`` defines the reflection
probability R = |beta/alpha|^2.  The amplitudes are a fixed linear function
of (a, b), so reflection is read from the same batch as the coefficients:

    beta = b / W[u0, conj(u0)],
    alpha = a + b W[conj(u0), v0] / W[conj(u0), u0]   (Wronskians at 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .errors import RealificationRequiredError, TravelingBasisError
from .problem import ScatteringProblem, build_problem, wronskian

_REAL_BASIS_THRESHOLD = 1e-12
_USABLE_RTOL = 1e-3


@dataclass(frozen=True)
class Coefficients:
    """The pair (a, b) at one coupling value.

    ``method`` records which route produced the values ("ode" or "series"),
    ``err`` bounds the error of both values: on the ode route it is the
    transfer matrices' entrywise bound carried through the Wronskians (see
    ``coefficients_batch``), on the series route the series certificate.
    """

    a: complex
    b: complex
    lam: complex
    method: str
    err: float

    def is_usable(self) -> bool:
        """Whether the attached error is at most 1e-3 of the values."""
        return self.err <= _USABLE_RTOL * max(1.0, abs(self.a), abs(self.b))


@dataclass(frozen=True)
class ReflectionResult:
    """Traveling-wave decomposition and reflection probability."""

    alpha: complex
    beta: complex
    R: float
    flux_defect: float


def coefficients_batch(
    problem: ScatteringProblem, lams, *, rtol: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (a, b, err) over a batch of couplings.

    ``err`` bounds the errors of a and b: the engine's entrywise bound on
    the transfer matrices, carried through the maps to (u, u') and (a, b).
    """
    M, bound = engine.transfer_matrices(problem, lams, rtol=rtol)
    ref = problem.ref
    u0, u0p = ref.u0_at_0
    u = M[:, 0, 0] * u0 + M[:, 0, 1] * u0p
    up = M[:, 1, 0] * u0 + M[:, 1, 1] * u0p
    u1, u1p = ref.u0_at_1
    v1, v1p = ref.v0_at_1
    b = u1p * u - u1 * up
    a = v1 * up - v1p * u
    du = bound @ np.abs(ref.u0_at_0)  # bounds on the errors of (u, u')
    err = np.maximum(du @ np.abs((u1p, u1)), du @ np.abs((v1p, v1)))
    return a, b, err


def coefficients(
    problem: ScatteringProblem, lam: complex, *, rtol: float | None = None
) -> Coefficients:
    """Compute (a(lam), b(lam)) by propagation and Wronskians at 1+."""
    a, b, err = coefficients_batch(problem, [lam], rtol=rtol)
    return Coefficients(
        a=complex(a[0]),
        b=complex(b[0]),
        lam=complex(lam),
        method="ode",
        err=float(err[0]),
    )


def reflection_batch(problem: ScatteringProblem, lams) -> list[ReflectionResult]:
    """Reflection probabilities R = |beta/alpha|^2 at real couplings.

    Requires a traveling-wave reference solution: W[u0, conj(u0)] must be
    nonzero.  For real-valued u0 there is no traveling basis; realify the
    problem and use the Wronskian-coefficient machinery instead.  One
    ``coefficients_batch`` call gives every coupling's (a, b).
    """
    ref = problem.ref
    u0_0 = ref.u0_at_0
    u0bar_0 = (u0_0[0].conjugate(), u0_0[1].conjugate())
    w_u_ubar = wronskian(u0_0, u0bar_0)
    norm = max(1.0, abs(u0_0[0]) ** 2 + abs(u0_0[1]) ** 2)
    if abs(w_u_ubar) <= _REAL_BASIS_THRESHOLD * norm:
        raise TravelingBasisError(
            "reference solution is (a multiple of) a real solution; "
            "apply realify() and work with the real-solution machinery"
        )
    a, b, _ = coefficients_batch(problem, np.asarray(lams, dtype=float))
    u0_1 = ref.u0_at_1
    u0bar_1 = (u0_1[0].conjugate(), u0_1[1].conjugate())
    # u_lam = a u0 + b v0 past the spikes; Wronskians with u0 and conj(u0)
    # at 1 split it into the traveling pair
    beta = b / wronskian(u0_1, u0bar_1)
    alpha = a + b * wronskian(u0bar_1, ref.v0_at_1) / wronskian(u0bar_1, u0_1)
    R = np.abs(beta / alpha) ** 2
    flux_defect = np.abs(np.abs(alpha) ** 2 - np.abs(beta) ** 2 - 1.0)
    rows = zip(alpha.tolist(), beta.tolist(), R.tolist(), flux_defect.tolist())
    return [ReflectionResult(*row) for row in rows]


def reflection(problem: ScatteringProblem, lam: float) -> ReflectionResult:
    """Reflection probability at one real coupling: ``reflection_batch`` of one."""
    return reflection_batch(problem, [lam])[0]


def realify(problem: ScatteringProblem) -> ScatteringProblem:
    """Replace u0 by its real part (imaginary part if that vanishes).

    When the real and imaginary parts of u0 are linearly independent the
    identically-vanishing-b question is unchanged by this substitution; when
    they are dependent the problem was a complex multiple of a real one to
    begin with.  The companion v0 is rebuilt from the new data.
    """
    u, up = problem.ref.u0_at_0
    re = (complex(u.real), complex(up.real))
    if re == (0.0, 0.0):
        re = (complex(u.imag), complex(up.imag))
    return build_problem(
        problem.Q,
        problem.V,
        re,
        k_tag=problem.ref.k_tag,
        tolerances=problem.tolerances,
    )


def require_real_reference(problem: ScatteringProblem) -> None:
    """Raise unless u0 is real-valued (realify() provides the reduction)."""
    if not problem.ref.u0_is_real:
        raise RealificationRequiredError(
            "operation requires a real-valued reference solution; "
            "apply realify() first"
        )
