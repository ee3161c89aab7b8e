"""Boundary angles, oscillation counts, zero-eigenvalue link, tents."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ccscatter import (
    PotentialSpec,
    RealificationRequiredError,
    WitnessNotFoundError,
    boundary_angles,
    build_problem,
    catalog,
    coefficients_batch,
    negative_eigenvalue_count,
    negative_eigenvalue_counts,
    tent_gradient_energy,
    tent_value,
    tent_witness,
    zero_eigen_check,
)

PI = math.pi


def sine_well_count(lam: float, modes: int = 200) -> int:
    """Dirichlet spectrum n^2 pi^2 - pi^2 - lam enumerated directly."""
    return sum(1 for n in range(1, modes) if n * n * PI * PI - PI * PI - lam < 0)


def test_boundary_angles_dirichlet(sine_well):
    ang = boundary_angles(sine_well)
    assert ang.theta0 == pytest.approx(0.0, abs=1e-12)
    assert ang.theta1 == pytest.approx(0.0, abs=1e-12)


def test_boundary_angles_neumann(box_barrier):
    ang = boundary_angles(box_barrier)
    assert ang.theta0 == pytest.approx(PI / 2, abs=1e-12)
    assert ang.theta1 == pytest.approx(PI / 2, abs=1e-12)


def test_boundary_angle_mixed():
    prob = build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (0.0, 1.0))
    ang = boundary_angles(prob)  # u0 = x: (1, 1) at the right end
    assert ang.theta1 == pytest.approx(3 * PI / 4, abs=1e-12)


def test_boundary_angles_reject_complex_reference():
    with pytest.raises(RealificationRequiredError):
        boundary_angles(catalog.delta_pair(k=1.0))


def test_count_matches_enumerated_spectrum(sine_well):
    ang = boundary_angles(sine_well)
    for lam in (0.0, 5 * PI * PI, 35 * PI * PI, -PI * PI):
        got = negative_eigenvalue_count(sine_well, lam, ang)
        assert int(got) == sine_well_count(lam), lam
    rng = np.random.default_rng(13)
    for lam in rng.uniform(-60.0, 900.0, 40):
        got = negative_eigenvalue_count(sine_well, float(lam), ang)
        assert int(got) == sine_well_count(float(lam)), lam


def test_count_flags_boundary_degeneracy(sine_well):
    ang = boundary_angles(sine_well)
    flagged = negative_eigenvalue_count(sine_well, 3 * PI * PI, ang)
    assert flagged.boundary_degenerate
    clear = negative_eigenvalue_count(sine_well, 5 * PI * PI, ang)
    assert not clear.boundary_degenerate


def test_count_free_neumann_stays_zero(free_problem):
    ang = boundary_angles(free_problem)
    for lam in (-1000.0, -10.0, 0.0, 7.0, 1000.0):
        assert int(negative_eigenvalue_count(free_problem, lam, ang)) == 0


def test_monotone_counting(sine_well, corpus):
    ang = boundary_angles(sine_well)
    grid = np.linspace(-30.0, 400.0, 87)
    counts = [int(negative_eigenvalue_count(sine_well, float(l), ang)) for l in grid]
    assert all(a <= b for a, b in zip(counts[:-1], counts[1:]))  # V <= 0
    shifted = dict(corpus)["shifted_sine"]
    ang2 = boundary_angles(shifted)
    counts2 = [int(negative_eigenvalue_count(shifted, float(l), ang2)) for l in grid]
    assert all(a >= b for a, b in zip(counts2[:-1], counts2[1:]))  # V >= 0


def test_count_on_varying_pieces_at_large_coupling():
    """Polynomial pieces stepped at |lam| up to 3e4, and at -3e6, where the
    unscaled sub-step states would overflow (exp(sqrt|lam|) growth)."""
    lams = (-3e6, -3e4, -17000.37, -8000.37, -1500.37, 1500.37, 8000.37,
            17000.37, 3e4)
    expected = {
        "ramp_well": [0, 0, 0, 0, 0, 9, 20, 29, 38],
        "tilted_background": [0, 0, 0, 0, 0, 10, 23, 33, 43],
    }
    for name, want in expected.items():
        prob = getattr(catalog, name)()
        ang = boundary_angles(prob)
        with np.errstate(over="raise", invalid="raise"):
            got = [negative_eigenvalue_count(prob, lam, ang) for lam in lams]
        assert [int(c) for c in got] == want, name
        assert not any(c.boundary_degenerate for c in got), name


def test_zero_eigen_check_known_values(sine_well):
    ang = boundary_angles(sine_well)
    assert zero_eigen_check(sine_well, 3 * PI * PI, ang)
    assert not zero_eigen_check(sine_well, 5 * PI * PI, ang)
    assert zero_eigen_check(sine_well, 0.0, ang)


def test_zero_eigen_at_origin_for_all_real_problems(real_corpus):
    for name, prob in real_corpus:
        ang = boundary_angles(prob)
        assert zero_eigen_check(prob, 0.0, ang), name


def test_link_between_phase_and_wronskian(real_corpus):
    """zero_eigen_check(lam) iff |b(lam)| < 1e-8, both directions."""
    grid = np.linspace(-50.0, 50.0, 200)
    for name, prob in real_corpus:
        ang = boundary_angles(prob)
        b = np.abs(coefficients_batch(prob, grid.astype(complex))[1])
        for lam, ab in zip(grid, b):
            assert zero_eigen_check(prob, float(lam), ang) == (ab < 1e-8), (
                name,
                lam,
            )


def test_link_with_interior_spike():
    grid = np.linspace(-40.0, 40.0, 81)
    # an interior spike, and one at each end of the walk
    for spikes in ([(0.5, 1.0)], [(0.0, 2.0)], [(1.0, -1.5)]):
        prob = build_problem(
            PotentialSpec.zero(), PotentialSpec.deltas(spikes), (1.0, 0.0)
        )
        ang = boundary_angles(prob)
        b = np.abs(coefficients_batch(prob, grid.astype(complex))[1])
        for lam, ab in zip(grid, b):
            assert zero_eigen_check(prob, float(lam), ang) == (ab < 1e-8), (spikes, lam)


def test_tent_normalization():
    for eps in (0.25, 0.04, 1e-3):
        val, _ = quad(lambda x: tent_value(x, eps) ** 2, -eps, eps, epsabs=1e-15)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert tent_gradient_energy(eps) == pytest.approx(3.0 / eps**2)


def test_witness_box_barrier(box_barrier):
    w = tent_witness(box_barrier, -1e4, 5)
    assert len(w.centers) == 5
    assert w.epsilon > 0
    assert all(q < 0 for q in w.rayleigh_values)
    spacing = np.diff(w.centers)
    assert spacing.min() >= 2 * w.epsilon


def test_witness_soundness(box_barrier):
    """N tents with negative Rayleigh values force >= N negatives."""
    ang = boundary_angles(box_barrier)
    for lam, n in ((-1e4, 5), (-500.0, 3)):
        w = tent_witness(box_barrier, lam, n)
        count = negative_eigenvalue_count(box_barrier, lam, ang)
        assert int(count) >= len(w.centers)


def test_witness_divergence(box_barrier, corpus):
    positive_part = ["box_barrier", "noise_bed", "shifted_sine"]
    lookup = dict(corpus)
    for name in positive_part:
        prob = lookup[name]
        ang = boundary_angles(prob)
        counts = [
            int(negative_eigenvalue_count(prob, lam, ang))
            for lam in (-10.0, -100.0, -1000.0)
        ]
        assert counts[0] < counts[1] < counts[2], name


def test_witness_not_found_cases(free_problem, box_barrier):
    with pytest.raises(WitnessNotFoundError):
        tent_witness(free_problem, -1e6, 1)
    with pytest.raises(WitnessNotFoundError):
        tent_witness(box_barrier, 0.0, 1)


def test_witness_spike_form():
    prob = build_problem(
        PotentialSpec.zero(), PotentialSpec.deltas([(0.5, 1.0)]), (1.0, 0.0)
    )
    w = tent_witness(prob, -1e4, 1)
    # the only negative-energy budget is the spike at 0.5
    assert abs(w.centers[0] - 0.5) <= 2 * w.epsilon


def test_witness_rayleigh_values_against_quad_oracle():
    """Rayleigh values on breaks of Q and V that differ, with spikes under tents."""
    Q = PotentialSpec(((0.0, 0.37, (0.5, -1.0)), (0.37, 1.0, (-0.2, 0.3, 1.0))))
    V = PotentialSpec(
        ((0.0, 0.61, (1.0, 2.0, -3.0)), (0.61, 1.0, (-0.5,))), ((0.2, 0.4), (0.8, -0.3))
    )
    prob = build_problem(Q, V, (1.0, 0.0))
    for lam, n in ((-1e4, 5), (1e4, 3)):
        w = tent_witness(prob, lam, n)
        assert len(w.centers) == n
        eps = w.epsilon
        assert any(abs(c - p) < eps for c in w.centers for p, _ in V.spikes)
        for c, value in zip(w.centers, w.rayleigh_values):
            lo, hi = c - eps, c + eps
            breaks = [x for x in (0.37, 0.61) if lo < x < hi] + [c]
            density = quad(
                lambda x: (Q(x) + lam * V(x)) * tent_value(x - c, eps) ** 2,
                lo, hi, points=breaks, epsabs=0.0, epsrel=1e-13,
            )[0]
            spikes = sum(lam * wt * tent_value(p - c, eps) ** 2 for p, wt in V.spikes)
            oracle = tent_gradient_energy(eps) + density + spikes
            assert value < 0.0
            assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_batch_counts_match_one_at_a_time(real_corpus):
    """One call over many couplings, with both signs of c on constant pieces,
    counts and flags each coupling as a call of its own does."""
    rng = np.random.default_rng(2024)
    grid = [*np.linspace(-3000.0, 3000.0, 25), *rng.uniform(-2000.0, 2000.0, 15)]
    mixed = [3e4, -3e6, 0.0, 5 * PI * PI, 3e4, -PI * PI, 0.0]  # repeats, far apart
    for name, prob in real_corpus:
        ang = boundary_angles(prob)
        for lams in (grid, mixed):
            batch = negative_eigenvalue_counts(prob, lams, ang)
            single = [negative_eigenvalue_count(prob, lam, ang) for lam in lams]
            assert [(int(c), c.boundary_degenerate) for c in batch] == [
                (int(c), c.boundary_degenerate) for c in single
            ], name


def cosh_shelf_count(lam: float) -> int:
    """Negative eigenvalues of -u'' + (2 - 0.8 lam) u, u'(0) = 0, u'(1) = kappa u(1).

    kappa = sqrt(2) tanh(sqrt(2)).  The spectrum of -u'' under these
    conditions is -2 (cosh(sqrt(2) x)) and k^2 for the roots of
    k tan k = -kappa, one in each ((j - 1/2) pi, j pi).
    """
    kappa = math.sqrt(2.0) * math.tanh(math.sqrt(2.0))
    shift = 0.8 * lam - 2.0  # eigenvalue E of -u'' is negative for H_lam iff E < shift
    if shift <= -2.0:
        return 0

    def f(k):
        return k * math.sin(k) + kappa * math.cos(k)

    count, j = 1, 1
    while (j - 0.5) * PI < math.sqrt(max(shift, 0.0)):
        count += brentq(f, (j - 0.5) * PI, j * PI, xtol=1e-14) ** 2 < shift
        j += 1
    return count


def test_counts_at_large_coupling_on_constant_pieces(sine_well, box_barrier):
    """Closed-form pieces at |lam| up to 1e7: exp(sqrt|lam|) growth must not
    overflow the walk, and the counts are those of the enumerated spectra."""
    cases = [
        (sine_well, [-1e6, -1e7, 1e6, 1e7], lambda lam: sine_well_count(lam, 2000)),
        (box_barrier, [1e6, 1e7, -1e6, -1e7],
         lambda lam: sum(1 for n in range(2000) if n * n * PI * PI + lam < 0)),
        (catalog.cosh_shelf(), [3e6, -3e6], cosh_shelf_count),
    ]
    for prob, lams, exact in cases:
        ang = boundary_angles(prob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = negative_eigenvalue_counts(prob, lams, ang)
        assert [int(c) for c in got] == [exact(lam) for lam in lams]
        assert not any(c.boundary_degenerate for c in got)


def test_count_batches_empty_and_non_finite(sine_well):
    ang = boundary_angles(sine_well)
    assert negative_eigenvalue_counts(sine_well, [], ang) == []
    with pytest.raises(ValueError, match="coupling must be finite, not nan"):
        negative_eigenvalue_counts(sine_well, [1.0, math.nan, 2.0], ang)
