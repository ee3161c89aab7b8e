"""Closed-form oracles for the coefficient b(lam) of the varying corpus problems.

Each returns b as (mantissa, log scale), b = mantissa * exp(log scale), so
that values past the float range can still be read.
"""

import mpmath as mp


def _scaled(b) -> tuple[complex, float]:
    """(mantissa, log scale) of an mpmath number, the scale an integer."""
    if b == 0:
        return 0j, 0.0
    scale = mp.floor(mp.log(abs(b)))
    return complex(b / mp.exp(scale)), float(scale)


def b_airy(lam, digits: int = 40) -> tuple[complex, float]:
    """b(lam) of ``catalog.tilted_background``, Q = 1 - 2x and V = -0.6, from (u, u')(0) = (1, 0).

    u'' = (alpha + beta x) u with alpha = 1 - 0.6 lam and beta = -2 is Airy's
    equation in t = s (alpha + beta x), s = |beta|^(-2/3).  The Airy basis at
    x = 0 is inverted through its Wronskian Ai Bi' - Ai' Bi = 1/pi, not by a
    linear solve, which calls the basis singular where Bi is large.  u0 is the
    same solution at lam = 0, and b = u0'(1) u(1) - u0(1) u'(1).
    Real couplings only: at complex lam the Ai/Bi pair cancels (at 1e5i, b
    comes out 0).
    """
    with mp.workdps(digits):
        s = mp.mpf(4) ** (-mp.mpf(1) / 3)

        def at_1(alpha):  # (u, u')(1) of the solution with (u, u')(0) = (1, 0)
            c1, c2 = mp.pi * mp.airybi(s * alpha, 1), -mp.pi * mp.airyai(s * alpha, 1)
            t = s * (alpha - 2)
            u = c1 * mp.airyai(t) + c2 * mp.airybi(t)
            up = -2 * s * (c1 * mp.airyai(t, 1) + c2 * mp.airybi(t, 1))  # dt/dx = -2 s
            return u, up

        u, up = at_1(1 - mp.mpf(0.6) * mp.mpmathify(lam))  # 0.6 as the double V holds
        u0, u0p = at_1(mp.mpf(1))
        return _scaled(u0p * u - u0 * up)


def b_weber(lam, digits: int = 40) -> tuple[complex, float]:
    """b(lam) of ``catalog.ramp_well``, Q = 0 and V = 3x^2 - 3x, from (u, u')(0) = (1, 0).

    u'' = 3 lam ((x - 1/2)^2 - 1/4) u is Weber's equation w'' = (z^2/4 - nu - 1/2) w
    in z = (x - 1/2) s, s = (12 lam)^(1/4), nu = (3 lam / 4) / s^2 - 1/2, with the
    basis f1, f2 = D_nu(z), D_nu(-z) and D_nu'(z) = (z/2) D_nu(z) - D_nu+1(z).  The
    basis at x = 0 is inverted through its own Wronskian w there, not by a
    linear solve, so u = (f2'(0) f1 - f1'(0) f2) / w.  z is odd about x = 1/2,
    so f1'(1) = -f2'(0) and f2'(1) = -f1'(0).  u0 = 1, so b = -u'(1).  Real
    and complex couplings.
    """
    with mp.workdps(digits):
        lam = mp.mpmathify(lam)
        s = (12 * lam) ** (mp.mpf(1) / 4)
        nu = 3 * lam / (4 * s * s) - mp.mpf(1) / 2
        z = -s / 2  # x = 0
        f1, f2 = mp.pcfd(nu, z), mp.pcfd(nu, -z)
        f1p = s * (z / 2 * f1 - mp.pcfd(nu + 1, z))  # dz/dx = s
        f2p = -s * (-z / 2 * f2 - mp.pcfd(nu + 1, -z))
        return _scaled((f2p * f2p - f1p * f1p) / (f1 * f2p - f1p * f2))
