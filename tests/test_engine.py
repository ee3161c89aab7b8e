"""Propagation engine: closed forms, invariants, adaptivity."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ccscatter import (
    IntegrationError,
    PotentialSpec,
    apply_delta,
    build_problem,
    catalog,
    propagate,
    transfer_matrix,
)
from ccscatter import engine
from ccscatter.engine import (
    _MAX_SUBSTEPS,
    _matrix_scale,
    _node_values,
    _piece_transfer,
    _pieces,
    _step_matrices,
    _sweep,
    reference_states,
    transfer_matrices,
)

PI = math.pi


def test_propagate_free_is_identity(free_problem):
    for lam in (0.0, 3.7, -12.0, 2.0 + 5.0j):
        assert propagate(free_problem, lam, (1.0, 0.0)) == pytest.approx((1.0, 0.0))


def test_propagate_box_closed_form(box_barrier):
    # u'' = 4u with u(0)=1, u'(0)=0: u = cosh(2x)
    out = propagate(box_barrier, 4.0, (1.0, 0.0))
    assert out[0] == pytest.approx(math.cosh(2.0), rel=1e-13)
    assert out[1] == pytest.approx(2.0 * math.sinh(2.0), rel=1e-13)


def test_apply_delta_jump_rule():
    assert apply_delta((1.0, 0.0), 2.0, 3.0) == pytest.approx((1.0, 6.0))
    assert apply_delta((0.0, 5.0), 17.0, -4.0) == pytest.approx((0.0, 5.0))
    out = apply_delta((1.0 + 1j, 2.0), 1j, 0.5)
    assert out[0] == 1.0 + 1j
    assert out[1] == pytest.approx(2.0 + 1j * 0.5 * (1.0 + 1j))


def test_transfer_matrix_free(free_problem):
    m = transfer_matrix(free_problem, 0.0)
    assert m.as_array() == pytest.approx(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_transfer_matrix_box_closed_form(box_barrier):
    m = transfer_matrix(box_barrier, 4.0).as_array()
    c2, s2 = math.cosh(2.0), math.sinh(2.0)
    assert m == pytest.approx(np.array([[c2, s2 / 2.0], [2.0 * s2, c2]]), rel=1e-13)


def test_transfer_at_zero_reproduces_reference_data(corpus):
    for name, prob in corpus:
        m = transfer_matrix(prob, 0.0)
        u1 = m.apply(prob.ref.u0_at_0)
        v1 = m.apply(prob.ref.v0_at_0)
        assert u1 == pytest.approx(prob.ref.u0_at_1, abs=1e-12), name
        assert v1 == pytest.approx(prob.ref.v0_at_1, abs=1e-12), name


def test_delta_pair_against_hand_matching():
    """Spike composition checked against an independent mode-matching oracle."""
    k, lam = 1.3, 0.7
    prob = build_problem(
        PotentialSpec.constant(-k * k),
        PotentialSpec.deltas([(0.0, 1.0), (1.0, -1.0)]),
        (1.0, 1j * k),
    )
    got = propagate(prob, lam, (1.0, 1j * k))
    # oracle: jump at 0, expand in e^{+-ikx}, propagate, jump at 1
    u0, up0 = 1.0, 1j * k + lam
    A = (u0 + up0 / (1j * k)) / 2.0
    B = (u0 - up0 / (1j * k)) / 2.0
    u1 = A * cmath.exp(1j * k) + B * cmath.exp(-1j * k)
    up1 = 1j * k * (A * cmath.exp(1j * k) - B * cmath.exp(-1j * k)) - lam * u1
    assert got[0] == pytest.approx(u1, rel=1e-13)
    assert got[1] == pytest.approx(up1, rel=1e-13)


def test_determinant_at_representation_floor_on_corpus(corpus):
    """det = 1 structurally; float64 entries of size C pin det to ~eps C^2.

    In deep-tunneling regimes (|lam| near 100 on the growing side) the
    entries reach ~5e4 and no stored double matrix can hold a determinant
    closer to 1 than that floor, so the tolerance scales with it.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    checked = 0
    for _, prob in corpus:
        lams = rng.uniform(-100, 100, 12) + 1j * rng.uniform(-100, 100, 12)
        lams *= 100.0 / np.maximum(100.0, np.abs(lams))  # clamp |lam| <= 100
        M, _ = transfer_matrices(prob, lams)
        dets = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        scale = np.abs(M).max(axis=(1, 2))
        floor = np.maximum(1e-10, 20.0 * eps * scale**2)
        assert np.all(np.abs(dets - 1.0) <= floor)
        checked += len(lams)
    assert checked >= 100


def test_entries_analytic_in_coupling(corpus):
    """Finite-difference Cauchy-Riemann check at random complex couplings."""
    rng = np.random.default_rng(5)
    h = 1e-3
    for name, prob in corpus:
        for _ in range(3):
            lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            probe = np.array([lam + h, lam - h, lam + 1j * h, lam - 1j * h])
            M, _ = transfer_matrices(prob, probe)
            d_re = (M[0] - M[1]) / (2 * h)
            d_im = (M[2] - M[3]) / (2j * h)
            scale = 1.0 + np.abs(d_re).max()
            assert np.abs(d_re - d_im).max() <= 1e-6 * scale, name


def test_composition_of_subinterval_sweeps(spike_free):
    """Node-to-node steps compose to the whole-interval reference data."""
    for name, prob in spike_free:
        u0, u0p, v0, v0p = reference_states(prob, [0.5, 1.0])
        assert (u0[1], u0p[1]) == pytest.approx(prob.ref.u0_at_1, rel=1e-11, abs=1e-12), name
        assert (v0[1], v0p[1]) == pytest.approx(prob.ref.v0_at_1, rel=1e-11, abs=1e-12), name


def test_halving_step_bound_stays_within_error_estimate():
    """A run at a 1000x tighter tolerance moves within the error estimate."""
    prob = build_problem(
        PotentialSpec.polynomial([1.0, -2.0]),
        PotentialSpec.polynomial([0.0, -3.0, 3.0]),
        (1.0, 0.0),
    )
    for lam in (7.0, -25.0, 4.0 + 9.0j):
        coarse = transfer_matrix(prob, lam)
        fine, _ = transfer_matrices(prob, [lam], rtol=1e-13)
        diff = np.abs(coarse.as_array() - fine[0]).max()
        assert 0.0 < diff <= coarse.err_estimate


@pytest.mark.parametrize("name", ["ramp_well", "tilted_background"])
def test_tree_product_matches_sequential_product(name):
    """The sweep's pairwise product equals the step-by-step product."""
    piece = _varying_piece(name)
    rng = np.random.default_rng(13)
    for L in (1, 16):
        radii = 10.0 ** rng.uniform(0.0, 4.0, L)
        lams = radii * np.exp(2j * PI * rng.uniform(0.0, 1.0, L))
        for n in (1, 2, 3, 5, 7, 64, 4607):
            q, v, h = _node_values(piece, n)
            coeffs = lams[:, None] * v[:, None, :] + q[:, None, :]
            a, b, c, d = _step_matrices(coeffs[0], coeffs[1], h)
            steps = np.stack((a, b, c, d), axis=-1).reshape(L, n, 2, 2)
            M = steps[:, 0]
            for i in range(1, n):
                M = steps[:, i] @ M
            diff = np.abs(_sweep(piece, lams, n) - M).max(axis=(1, 2))
            assert np.all(diff <= 1e-12 * _matrix_scale(M)), (L, n)


def _varying_piece(name):
    (piece,) = (p for p in _pieces(getattr(catalog, name)()) if not p.is_constant)
    return piece


def _counting_sweeps(monkeypatch):
    """Record the sub-step count of every sweep the engine makes."""
    counts = []
    sweep = engine._sweep

    def counting(piece, lams, n):
        counts.append(n)
        return sweep(piece, lams, n)

    monkeypatch.setattr(engine, "_sweep", counting)
    return counts


@pytest.mark.parametrize("name", ["ramp_well", "tilted_background"])
def test_refinement_meets_rtol_and_its_error_bound(name):
    """The accepted pair passes rtol, and its estimate bounds the step error.

    The reference is a sweep of _MAX_SUBSTEPS steps.  Its own rounding
    reaches about 3e-12 of the matrix scale at |lam| = 1e4, so the bound
    is checked at rtol 1e-8 and 1e-10 with an allowance of 1e-11 for
    rounding; the coarse member of the pair misses it by about 4x.
    """
    piece = _varying_piece(name)
    rng = np.random.default_rng(17)
    for L in (1, 16):
        for rtol in (1e-8, 1e-10):
            radii = 10.0 ** rng.uniform(0.0, 4.0, L)
            for lams in (
                radii * np.sign(rng.uniform(-1.0, 1.0, L)) + 0j,
                radii * np.exp(2j * PI * rng.uniform(0.0, 1.0, L)),
            ):
                M, rel = _piece_transfer(piece, lams, rtol)
                M_ref = _sweep(piece, lams, _MAX_SUBSTEPS)
                scale = _matrix_scale(M) + 1.0
                assert np.all(rel <= rtol), (L, rtol)
                diff = _matrix_scale(M - M_ref)
                assert np.all(diff <= (rel + 1e-11) * scale), (L, rtol)


def test_predicted_step_count_needs_few_sweeps(monkeypatch):
    """ramp_well at lam = 98: step doubling ran 9 -> 4608 in 10 sweeps."""
    piece = _varying_piece("ramp_well")
    counts = _counting_sweeps(monkeypatch)
    _, rel = _piece_transfer(piece, np.array([98.0 + 0j]), 1e-12)
    assert rel[0] <= 1e-12
    assert len(counts) <= 4, counts
    assert sum(counts) <= 9207, counts  # the sub-steps of doubling 9 -> 4608


def test_unreachable_rtol_exhausts_within_the_step_cap(monkeypatch):
    piece = _varying_piece("ramp_well")
    counts = _counting_sweeps(monkeypatch)
    with pytest.raises(IntegrationError, match="step refinement exhausted"):
        _piece_transfer(piece, np.array([98.0 + 0j]), 1e-17)
    assert max(counts) == _MAX_SUBSTEPS, counts


def test_varying_piece_against_ivp_oracle():
    prob = build_problem(
        PotentialSpec.polynomial([2.0, 5.0]), PotentialSpec.zero(), (1.0, 0.0)
    )
    sol = solve_ivp(
        lambda x, y: [y[1], (2.0 + 5.0 * x) * y[0]],
        (0.0, 1.0),
        [1.0, 0.0],
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    u1 = prob.ref.u0_at_1
    assert u1[0].real == pytest.approx(sol.y[0, -1], rel=1e-9)
    assert u1[1].real == pytest.approx(sol.y[1, -1], rel=1e-9)


def test_multisegment_propagation_matches_cellwise_product():
    """Regression: pieces at segment boundaries must use the right-hand cell."""
    prob = catalog.noise_bed()
    lam = 1.0
    cells = [prob.V((i + 0.5) / 8.0) for i in range(8)]
    M = np.eye(2, dtype=complex)
    for v in cells:
        mu = cmath.sqrt(complex(lam * v))
        h = 1.0 / 8.0
        ch, sh = cmath.cosh(mu * h), cmath.sinh(mu * h)
        shc = h if abs(mu) < 1e-12 else sh / mu
        row = mu * sh if abs(mu) > 1e-12 else 0.0
        M = np.array([[ch, shc], [row, ch]]) @ M
    got = transfer_matrix(prob, lam).as_array()
    assert got == pytest.approx(M, rel=1e-12, abs=1e-14)


def test_integration_overflow_raises(box_barrier):
    with pytest.raises(IntegrationError) as err:
        propagate(box_barrier, 1e9, (1.0, 0.0))
    assert 0.0 <= err.value.abscissa <= 1.0


def test_reference_states_closed_form(sine_well):
    xs = np.linspace(0.0, 1.0, 7)
    u0, u0p, v0, v0p = reference_states(sine_well, xs)
    assert u0 == pytest.approx(np.sin(PI * xs), abs=1e-12)
    assert u0p == pytest.approx(PI * np.cos(PI * xs), abs=1e-12)
    assert v0 == pytest.approx(np.cos(PI * xs) / PI, abs=1e-12)


def test_interior_spike_jump():
    prob = build_problem(
        PotentialSpec.zero(), PotentialSpec.deltas([(0.5, 2.0)]), (1.0, 0.0)
    )
    # u = 1 up to 0.5, where u' jumps by lam * 2 = 6; then u = 1 + 6 (x - 0.5)
    assert propagate(prob, 3.0, (1.0, 0.0)) == pytest.approx((4.0, 6.0))
