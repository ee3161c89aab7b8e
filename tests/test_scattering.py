"""Wronskian coefficients, reflection, realification."""

import cmath
import math

import numpy as np
import pytest
from mpmath import mp

from ccscatter import (
    PotentialSpec,
    TravelingBasisError,
    build_problem,
    catalog,
    coefficients,
    coefficients_batch,
    realify,
    reflection,
    reflection_batch,
    spectral,
    v0_from_u0,
    zeros,
)
from ccscatter.engine import _layout, transfer_matrices

PI = math.pi


def delta_pair_b(k: float, lam: complex) -> complex:
    """Closed form for the point-mass pair problem."""
    return lam * (1.0 + lam / (2j * k)) * (cmath.exp(2j * k) - 1.0)


def test_coefficients_at_zero_coupling(corpus):
    for name, prob in corpus:
        c = coefficients(prob, 0.0)
        assert c.b == 0.0, name  # structurally exact: same propagation path
        assert c.a == pytest.approx(1.0, abs=1e-12), name
        assert c.err > 0.0


def test_delta_pair_closed_form():
    prob = catalog.delta_pair(k=1.0)
    c = coefficients(prob, 2.0)
    expected = 2.0 * (1.0 - 1j) * (cmath.exp(2j) - 1.0)
    assert c.b == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(delta_pair_b(1.0, 2.0))


def test_box_barrier_closed_form(box_barrier):
    c = coefficients(box_barrier, 4.0)
    assert c.b == pytest.approx(-2.0 * math.sinh(2.0), rel=1e-12)
    assert c.a == pytest.approx(math.cosh(2.0) - 2.0 * math.sinh(2.0), rel=1e-12)


def test_basis_change_consistency(corpus):
    """(a, b) must reconstruct the propagated state at x = 1+."""
    from ccscatter.engine import propagate

    rng = np.random.default_rng(23)
    checked = 0
    for name, prob in corpus:
        for _ in range(6):
            lam = complex(rng.uniform(-30, 30), rng.uniform(-10, 10))
            c = coefficients(prob, lam)
            u1 = propagate(prob, lam, prob.ref.u0_at_0)
            r = prob.ref
            rec0 = c.a * r.u0_at_1[0] + c.b * r.v0_at_1[0]
            rec1 = c.a * r.u0_at_1[1] + c.b * r.v0_at_1[1]
            scale = 1.0 + abs(u1[0]) + abs(u1[1])
            assert abs(rec0 - u1[0]) <= 1e-9 * scale, name
            assert abs(rec1 - u1[1]) <= 1e-9 * scale, name
            checked += 1
    assert checked >= 50


def test_b_independent_of_v0_convention(box_barrier, sine_well):
    rng = np.random.default_rng(31)
    for prob in (box_barrier, sine_well):
        u0 = prob.ref.u0_at_0
        v0 = v0_from_u0(u0)
        for _ in range(4):
            shift = complex(rng.normal(), rng.normal())
            tweaked = build_problem(
                prob.Q,
                prob.V,
                u0,
                v0_init=(v0[0] + shift * u0[0], v0[1] + shift * u0[1]),
            )
            for lam in (0.8, -3.0, 2.5 + 1.0j):
                base = coefficients(prob, lam)
                other = coefficients(tweaked, lam)
                assert abs(base.b - other.b) <= 1e-10 * (1.0 + abs(base.b))


def test_a_moves_with_v0_convention(box_barrier):
    u0 = box_barrier.ref.u0_at_0
    v0 = v0_from_u0(u0)
    tweaked = build_problem(
        box_barrier.Q,
        box_barrier.V,
        u0,
        v0_init=(v0[0] + u0[0], v0[1] + u0[1]),
    )
    base = coefficients(box_barrier, 4.0)
    other = coefficients(tweaked, 4.0)
    assert abs(base.b - other.b) <= 1e-12 * (1.0 + abs(base.b))
    assert abs(base.a - other.a) == pytest.approx(abs(base.b), rel=1e-10)


def test_reflection_at_zero_coupling():
    prob = catalog.traveling_barrier(k=1.3)
    res = reflection(prob, 0.0)
    assert res.alpha == pytest.approx(1.0, abs=1e-12)
    assert abs(res.beta) <= 1e-12
    assert res.R == pytest.approx(0.0, abs=1e-12)


def test_reflection_vanishes_at_resonant_wavenumbers():
    for n in (1, 2):
        prob = catalog.delta_pair(k=n * PI)
        for lam in np.linspace(-5.0, 5.0, 11):
            assert reflection(prob, float(lam)).R <= 1e-12


def test_reflection_against_plane_wave_matching_oracle():
    """Independent oracle: match t e^{-ikx} | e^{-ikx} + r e^{+ikx} by hand."""
    for k in (0.8, 1.3, 2.1):
        prob = catalog.traveling_barrier(k=k)
        for lam in np.linspace(-2.0, 2.0, 9):
            res = reflection(prob, float(lam))
            kappa = cmath.sqrt(complex(k * k - lam))
            ch, sh = cmath.cosh(1j * kappa), cmath.sinh(1j * kappa)
            shc = 1.0 if abs(kappa) < 1e-12 else sh / (1j * kappa)
            M = np.array([[ch, shc], [1j * kappa * sh * (1.0 if abs(kappa) > 1e-12 else 0.0), ch]])
            # unknowns (t, r): M @ (t, -ik t) = (e^{-ik} + r e^{ik}, ...)
            lhs = np.array(
                [
                    [M[0, 0] - 1j * k * M[0, 1], -cmath.exp(1j * k)],
                    [M[1, 0] - 1j * k * M[1, 1], -1j * k * cmath.exp(1j * k)],
                ]
            )
            rhs = np.array([cmath.exp(-1j * k), -1j * k * cmath.exp(-1j * k)])
            t, r = np.linalg.solve(lhs, rhs)
            assert res.R == pytest.approx(abs(r) ** 2, abs=1e-9), (k, lam)


def test_flux_identity(corpus):
    for name, prob in corpus:
        if prob.ref.u0_is_real:
            continue
        for lam in np.linspace(-5.0, 5.0, 11):
            res = reflection(prob, float(lam))
            assert res.flux_defect <= 1e-10, (name, lam)
            assert 0.0 <= res.R < 1.0, (name, lam)


def test_reflection_requires_traveling_basis(box_barrier):
    with pytest.raises(TravelingBasisError, match="realify"):
        reflection(box_barrier, 1.0)
    with pytest.raises(TravelingBasisError, match="realify"):
        reflection_batch(box_barrier, [1.0, 2.0])


def test_reflection_batch_matches_one_at_a_time():
    prob = catalog.traveling_barrier()
    lams = np.linspace(-2.0, 2.0, 21)
    batch = reflection_batch(prob, lams)
    assert batch == [reflection(prob, float(lam)) for lam in lams]  # bit for bit
    assert reflection_batch(prob, []) == []


def test_realify_componentwise():
    prob = catalog.traveling_barrier(k=1.0)  # u0 data (1, i)
    real = realify(prob)
    assert real.ref.u0_at_0 == (1.0 + 0.0j, 0.0 + 0.0j)
    again = realify(real)
    assert again.ref.u0_at_0 == real.ref.u0_at_0  # idempotent


def test_realify_imaginary_fallback():
    prob = build_problem(
        PotentialSpec.constant(-PI * PI),
        PotentialSpec.constant(-1.0),
        (1j * 0.0, 1j * PI),
    )
    real = realify(prob)
    assert real.ref.u0_at_0 == (0.0 + 0.0j, PI + 0.0j)


def test_realify_keeps_real_problem(sine_well):
    assert realify(sine_well) == sine_well


def test_real_data_gives_real_coefficients(real_corpus):
    for name, prob in real_corpus:
        for lam in (-7.0, 0.3, 12.5):
            c = coefficients(prob, lam)
            assert abs(c.a.imag) <= max(c.err, 1e-13 * (1 + abs(c.a))), name
            assert abs(c.b.imag) <= max(c.err, 1e-13 * (1 + abs(c.b))), name


def test_schwarz_symmetry(real_corpus):
    rng = np.random.default_rng(41)
    for name, prob in real_corpus:
        for _ in range(4):
            lam = complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
            plus = coefficients(prob, lam)
            minus = coefficients(prob, lam.conjugate())
            assert minus.b == pytest.approx(plus.b.conjugate(), rel=1e-10, abs=1e-10), name


def test_unimodularity_when_b_vanishes():
    prob = catalog.delta_pair(k=PI)
    lams = np.linspace(-8.0, 8.0, 33)
    a, b, _ = coefficients_batch(prob, lams.astype(complex))
    assert np.abs(b).max() <= 1e-10
    assert np.abs(np.abs(a) - 1.0).max() <= 1e-9


def _taylor_state_at_1(p, init):
    """(u(1), u'(1)) for u'' = p(x) u, p a polynomial, by its Taylor series.

    The coefficients obey (n + 2)(n + 1) u_{n+2} = sum_k p_k u_{n-k}; the
    sum runs until the terms have fallen far below the working precision.
    """
    c = [mp.mpc(init[0]), mp.mpc(init[1])]
    u, up = c[0] + c[1], c[1]
    min_terms = int(4 * math.sqrt(float(sum(abs(pk) for pk in p)))) + 40
    n = 0
    while True:
        term = mp.fsum(p[k] * c[n - k] for k in range(min(len(p), n + 1)))
        term /= (n + 2) * (n + 1)
        c.append(term)
        u += term
        up += (n + 2) * term
        n += 1
        size = max(abs(t) for t in c[-len(p) - 1 :])
        if n > min_terms and size * (n + 2) < mp.mpf(10) ** (-mp.dps) * (1 + abs(u)):
            return u, up


def _check_error_bounds(prob, lams, exact):
    """Reported err against exact (a, b), in one batch and one coupling at a time.

    The true error must stay within err with no slack, and err within
    3e-11 of max(1, |a|, |b|).
    """
    batch = coefficients_batch(prob, lams)
    single = [np.concatenate(v) for v in zip(*(coefficients_batch(prob, [lam]) for lam in lams))]
    for a, b, err in (batch, single):
        for i, lam in enumerate(lams):
            a_true, b_true = exact(lam)
            true_err = float(max(abs(a[i] - a_true), abs(b[i] - b_true)))
            assert true_err <= err[i] <= 3e-11 * max(1.0, abs(a[i]), abs(b[i])), lam


def _readout(u, up, u0_at_1, v0_at_1):
    """(a, b) from (u, u') at 1+ and the reference data there, in mpmath."""
    (u1, u1p), (v1, v1p) = (map(mp.mpc, pair) for pair in (u0_at_1, v0_at_1))
    return v1 * up - v1p * u, u1p * u - u1 * up


def test_varying_pieces_against_power_series_oracle():
    """(a, b) on polynomial potentials against a 60-digit series oracle.

    The series cancels terms up to about exp(sqrt(sum |p_k|)), 1e41 on
    ramp_well at lam = 3000, so 60 digits still leave about 19 there; at
    |lam| = 1e4 they leave none.
    """
    rng = np.random.default_rng(11)
    lams = np.concatenate(
        [
            rng.uniform(-300, 300, 4) + 1j * rng.uniform(-300, 300, 4),
            rng.uniform(-3000, 3000, 4),
        ]
    )
    with mp.workdps(60):
        for name in ("ramp_well", "tilted_background"):
            prob = getattr(catalog, name)()
            (_, _, q), (_, _, v) = prob.Q.segments[0], prob.V.segments[0]
            size = max(len(q), len(v))
            q = [mp.mpf(x) for x in q] + [mp.mpf(0)] * (size - len(q))
            v = [mp.mpf(x) for x in v] + [mp.mpf(0)] * (size - len(v))
            at_1 = [_taylor_state_at_1(q, init) for init in (prob.ref.u0_at_0, prob.ref.v0_at_0)]

            def exact(lam):
                p = [qk + mp.mpc(lam) * vk for qk, vk in zip(q, v)]
                return _readout(*_taylor_state_at_1(p, prob.ref.u0_at_0), *at_1)

            _check_error_bounds(prob, lams, exact)


def _exact_transfer(prob, lam):
    """Product of the layout's exact piece and spike matrices at lam, in mpmath."""
    lam = mp.mpc(lam)
    jump0, pieces = _layout(prob.Q, prob.V)
    M = mp.matrix([[1, 0], [lam * jump0, 1]])
    for piece in pieces:
        h = mp.mpf(piece.x1) - mp.mpf(piece.x0)
        c = piece.q_coeffs[0] + lam * piece.v_coeffs[0]
        k = mp.sqrt(c)
        ch, shc = mp.cosh(h * k), (mp.sinh(h * k) / k if c else h)
        M = mp.matrix([[1, 0], [lam * piece.jump, 1]]) * mp.matrix([[ch, shc], [c * shc, ch]]) * M
    return M


def test_constant_pieces_against_exact_matrices(corpus):
    """The engine's entrywise bound and err hold on the constant-piece corpus.

    The oracle is the 60-digit product of the exact cosh/sinh matrices of
    the layout's pieces and of its spikes.  On each circle |lam| = 1 .. 1e5
    12 couplings at random angles and 24 real ones in [-r, r]: the real ones
    meet the cancellations between growing and oscillating pieces.
    """
    rng = np.random.default_rng(2026)
    constant = [(n, p) for n, p in corpus if all(pc.is_constant for pc in _layout(p.Q, p.V)[1])]
    assert len(constant) == 7
    with mp.workdps(60):
        for name, prob in constant:
            u0, u0p = (mp.mpc(x) for x in prob.ref.u0_at_0)
            M0 = _exact_transfer(prob, 0.0)
            at_1 = [(M0[0, 0] * a + M0[0, 1] * b, M0[1, 0] * a + M0[1, 1] * b)
                    for a, b in (prob.ref.u0_at_0, prob.ref.v0_at_0)]
            for r in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5):
                lams = np.concatenate(
                    [r * np.exp(2j * math.pi * rng.uniform(size=12)), rng.uniform(-r, r, 24) + 0j]
                )
                exact = [_exact_transfer(prob, lam) for lam in lams]
                M, bound = transfer_matrices(prob, lams)
                for m, b, e in zip(M, bound, exact):
                    for i, j in np.ndindex(2, 2):
                        assert abs(m[i, j] - e[i, j]) <= b[i, j], (name, i, j)
                readout = {
                    lam: _readout(e[0, 0] * u0 + e[0, 1] * u0p, e[1, 0] * u0 + e[1, 1] * u0p, *at_1)
                    for lam, e in zip(lams, exact)
                }
                _check_error_bounds(prob, lams, readout.__getitem__)


def test_empty_and_non_finite_couplings(corpus, sine_well):
    for name, prob in corpus:
        M, bound = transfer_matrices(prob, [])
        assert M.shape == bound.shape == (0, 2, 2), name
        a, b, err = coefficients_batch(prob, [])
        assert a.shape == b.shape == err.shape == (0,), name
    angles = spectral.boundary_angles(sine_well)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            spectral.negative_eigenvalue_count(sine_well, bad, angles)
        with pytest.raises(ValueError, match="finite"):
            spectral.tent_witness(sine_well, bad, 1)
        with pytest.raises(ValueError, match="finite"):
            zeros.disk_zero_count(sine_well, bad)
