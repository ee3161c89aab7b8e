"""Boundary angles, oscillation counts, zero-eigenvalue link, tents."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
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
    realify,
    tent_gradient_energy,
    tent_value,
    tent_witness,
    zero_eigen_check,
)
from ccscatter import engine, spectral

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
            batch = negative_eigenvalue_counts(prob, lams, ang)  # one n, set by -3e6
        assert [int(c) for c in got] == want, name
        assert not any(c.boundary_degenerate for c in got), name
        assert [(int(c), c.boundary_degenerate) for c in batch] == [(k, False) for k in want], name


def sturm_count(coeffs, lam: float) -> int:
    """Negative eigenvalues of -u'' + lam V u, u'(0) = u'(1) = 0, V = coeffs.

    DOP853 integrates u(0) = 1, u'(0) = 0; the count is the number of sign
    changes of u in (0, 1), plus 1 where u(1) u'(1) < 0.
    """
    def rhs(x, y):
        return [y[1], lam * np.polynomial.polynomial.polyval(x, coeffs) * y[0]]

    sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True)
    u = sol.sol(np.linspace(0.0, 1.0, 20001))[0]
    u1, up1 = sol.y[:, -1]
    return int(np.count_nonzero(np.signbit(u[1:]) != np.signbit(u[:-1]))) + int(u1 * up1 < 0.0)


def test_count_where_the_coefficient_peaks_between_samples():
    """V with nine roots j/8 on one piece, scaled to max|V| = 1: |lam V| peaks
    between the points j/8, so a step count set from samples there is too
    coarse, sub-steps turn the phase by more than pi and the count comes out
    low (4, 5, 6, 6 here).  The count steps from the piece's exact range."""
    coeffs = np.polynomial.polynomial.polyfromroots(np.arange(9) / 8.0)
    coeffs /= np.abs(np.polynomial.polynomial.polyval(np.linspace(0.0, 1.0, 10001), coeffs)).max()
    prob = build_problem(PotentialSpec.zero(), PotentialSpec.polynomial(coeffs), (1.0, 0.0))
    ang = boundary_angles(prob)
    lams = [1e4, 3e4, 1e5, -1e5]
    want = [sturm_count(coeffs, lam) for lam in lams]
    assert want == [6, 9, 17, 17]
    assert [int(negative_eigenvalue_count(prob, lam, ang)) for lam in lams] == want
    assert [int(c) for c in negative_eigenvalue_counts(prob, lams, ang)] == want


def test_resolving_count_settles_the_terminal_phase(nine_root, monkeypatch):
    """The phase from the left condition across the one varying piece, at the
    resolving count and at 64 times it, on the nine-root V and ramp_well at
    |lam| = 400, 1e4, 1e5: within 1e-7, where 2e-8 and 1.4e-9 are measured.
    With half the count the nine-root V misses by 1e-6."""
    resolving = engine._resolving_substeps

    def phase(prob, lam, times):
        monkeypatch.setattr(engine, "_resolving_substeps", lambda p, l: times * resolving(p, l))
        (piece,) = engine._pieces(prob)
        a0 = (-boundary_angles(prob).theta0) % PI
        left = [[[math.cos(a0)], [math.sin(a0)]], [[-math.sin(a0)], [math.cos(a0)]]]
        leaf = spectral._varying_leaf(piece, np.array([lam]))
        return spectral._compose(leaf, spectral._lift(np.array(left)))[2, 1, 0]

    for prob in (nine_root, catalog.ramp_well()):
        for lam in (400.0, -400.0, 1e4, -1e4, 1e5, -1e5):
            assert abs(phase(prob, lam, 1) - phase(prob, lam, 64)) <= 1e-7, lam


def test_count_across_cut_pieces_matches_enumerated_spectrum(sine_well):
    """sine_well's [0, 1] cut into 7 equal pieces with the same constants: the
    walk composes phases that have wound through many multiples of pi."""
    cut = build_problem(
        PotentialSpec.from_samples([-PI * PI] * 7),
        PotentialSpec.from_samples([-1.0] * 7),
        (0.0, PI),
        tolerances=sine_well.tolerances,
    )
    rng = np.random.default_rng(7)
    grid = [*np.linspace(-1e6, 1e6, 41), *rng.uniform(-2000.0, 2000.0, 20), 1e6 + 0.37]
    modes = (2, 3, 17, 100, 318)  # lam = (n^2 - 1) pi^2 makes n^2 pi^2 an eigenvalue
    lams = grid + [(n * n - 1) * PI * PI for n in modes]
    want = [(sine_well_count(lam, 2000), lam == 0.0) for lam in grid]
    want += [(n - 1, True) for n in modes]
    ang = boundary_angles(cut)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = negative_eigenvalue_counts(cut, lams, ang)
        single = [negative_eigenvalue_count(cut, lam, ang) for lam in lams]
    assert [(int(c), c.boundary_degenerate) for c in batch] == want
    assert [(int(c), c.boundary_degenerate) for c in single] == want


def test_varying_walk_memory_stays_within_a_few_blocks():
    """16 ramp_well couplings near lam = 1e8: the traced peak of one count.

    The unit, 8 B x _BLOCK_ENTRIES, is one double per step and coupling of
    a block.  The piece takes about 35,000 steps, 68 units of entries, so
    its step matrices alone would take 272 units; a block's coefficients,
    steps, lifted steps and first tree level take about 19.
    """
    prob = catalog.ramp_well()
    ang = boundary_angles(prob)
    lams = 1e8 * (1.0 + np.arange(16) / 1000.0)
    negative_eigenvalue_counts(prob, lams[:1] * 1e-6, ang)  # warm caches outside the trace
    tracemalloc.start()
    try:
        counts = negative_eigenvalue_counts(prob, lams, ang)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(int(c) > 2000 for c in counts)
    assert peak <= 24 * 8 * engine._BLOCK_ENTRIES, peak


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
    # pinned: the first level that fits five tents finds them
    assert w.epsilon == 0.0625
    assert w.centers == (
        0.0625000000625, 0.2187500000625, 0.3750000000625, 0.5312500000625, 0.6875000000625
    )
    assert w.rayleigh_values == pytest.approx([-9232.0] * 5, rel=1e-12)


def test_witness_rejects_misplaced_tents():
    with pytest.raises(ValueError, match="inside"):
        spectral.TentWitness((0.05,), 0.1, (-1.0,))
    with pytest.raises(ValueError, match="disjoint"):
        spectral.TentWitness((0.3, 0.45), 0.1, (-1.0, -1.0))


def _disjoint_negatives(centers, values, eps):
    """Most pairwise disjoint tents of negative value: the longest chain of
    negative candidates spaced 2 eps + margin apart, over all pairs."""
    c = centers[values < 0.0]
    longest = np.ones(len(c), dtype=int)  # the longest chain ending at each
    for j in range(len(c)):
        before = c[j] - c[:j] >= 2.0 * eps + 1e-9 * eps
        longest[j] += longest[:j][before].max(initial=0)
    return int(longest.max(initial=0))


def test_witness_comes_at_the_first_eps_that_holds_one(monkeypatch):
    """The witness stops the schedule at the first eps with N disjoint tents
    of negative value.  On noise_bed at these couplings a greedy packing in
    order of the coupling term lam int V phi^2 reaches tents of positive
    value before it holds N negative ones, and finds no witness at all."""
    problem = catalog.noise_bed()
    angles = boundary_angles(problem)
    scored = []
    inner = spectral._tent_integrals

    def recorded(problem, centers, eps):
        iq, iv = inner(problem, centers, eps)
        scored.append((centers, eps, iq, iv))
        return iq, iv

    monkeypatch.setattr(spectral, "_tent_integrals", recorded)
    for lam, n in ((3000.0, 3), (-2e4, 8)):
        scored.clear()
        w = tent_witness(problem, lam, n)
        assert len(w.centers) == n <= negative_eigenvalue_count(problem, lam, angles)
        counts = [
            _disjoint_negatives(centers, tent_gradient_energy(eps) + iq + lam * iv, eps)
            for centers, eps, iq, iv in scored
        ]
        assert scored[-1][1] == w.epsilon
        assert all(k < n for k in counts[:-1]) and counts[-1] >= n, (lam, counts)


def _schedule_levels(problem, lam, n, monkeypatch):
    """The half-widths that tent_witness scores, and its witness or None."""
    levels = []
    inner = spectral._tent_integrals

    def recorded(problem, centers, eps):
        levels.append(eps)
        return inner(problem, centers, eps)

    monkeypatch.setattr(spectral, "_tent_integrals", recorded)
    try:
        witness = tent_witness(problem, lam, n)
    except WitnessNotFoundError:
        witness = None
    monkeypatch.undo()
    return levels, witness


def test_witness_early_stop_is_sound(corpus, monkeypatch):
    """Wherever the search stops before 2^-20, no narrower tent is negative.

    Besides random corpus couplings: an interior spike, where a tent centred
    on it meets the floor's 1.5 S / eps, and the same spike in a repulsive
    wall, where the floor is positive at eps = 1/4 > 4 / S and negative below.
    """
    rng = np.random.default_rng(7)
    spike = PotentialSpec.deltas([(0.5, 1.0)])
    cases = [(name, prob, np.concatenate([-(10.0 ** rng.uniform(0, 4, 4)),
                                          10.0 ** rng.uniform(0, 4, 2)]))
             for name, prob in corpus]
    cases += [
        ("spike", build_problem(PotentialSpec.zero(), spike, (1.0, 0.0)), [-6.0, -20.0, -35.0]),
        # Q + lam V = 250 off the spike at lam = -40
        ("spike in a wall", build_problem(
            PotentialSpec.zero(), PotentialSpec(((0.0, 1.0, (-6.25,)),), ((0.5, 1.0),)),
            (1.0, 0.0),
        ), [-40.0, -44.0]),
        # spikes at 0 and 1, which no tent reaches: attractive at lam < 0 on
        # the left, at lam > 0 on the right
        ("end spikes", realify(catalog.delta_pair()), [-3880.0, -60.0, 60.0, 3880.0]),
        ("attractive end spikes", build_problem(
            PotentialSpec.constant(-30.0), PotentialSpec.deltas([(0.0, 1.0), (1.0, 1.0)]),
            (1.0, 0.0),
        ), [-3880.0, -50.0]),
        # Q and V both vary on one piece, where the floor is a bound, not the minimum
        ("both varying", build_problem(
            PotentialSpec.polynomial([1.0, -2.0]), PotentialSpec.polynomial([0.0, -3.0, 3.0]),
            (1.0, 0.0),
        ), [-400.0, -60.0, 60.0, 400.0]),
    ]
    stops = 0
    for name, prob, lams in cases:
        for lam in lams:
            for n in (1, 3):
                levels, witness = _schedule_levels(prob, lam, n, monkeypatch)
                eps = min(levels, default=0.5) / 2.0
                if witness is not None or eps < 2.0**-20:
                    continue
                stops += 1
                floor, attraction = spectral._rayleigh_floor(prob, lam)
                while eps >= 2.0**-20:
                    step = max(eps / 2.0, (1.0 - 2.0 * eps) / 1024.0)
                    grid = np.arange(eps + 1e-9 * eps, 1.0 - eps, step)
                    centers = np.sort(np.concatenate([grid, rng.uniform(eps, 1.0 - eps, 256)]))
                    iq, iv = spectral._tent_integrals(prob, centers, eps)
                    energy = tent_gradient_energy(eps)
                    values = energy + iq + lam * iv
                    assert values.min() >= 0.0, (name, lam, n, eps)
                    bound = energy + floor - 1.5 * attraction / eps
                    assert values.min() >= bound - 1e-9 * energy, (name, lam, n, eps)
                    eps /= 2.0
    assert stops >= 20


def test_inconclusive_witness_scores_no_tent(sine_well, monkeypatch):
    # Q + lam V = 300 - pi^2 > 0 and there are no spikes
    levels, witness = _schedule_levels(sine_well, -300.0, 3, monkeypatch)
    assert witness is None and levels == []
    with pytest.raises(WitnessNotFoundError, match=r"^no 3-tent witness found at coupling -300 "
                       r"\(inconclusive, not a disproof\)$"):
        tent_witness(sine_well, -300.0, 3)


def test_end_spikes_score_no_tent(monkeypatch):
    # delta_pair's spikes sit at 0 and 1, where every tent vanishes, so at
    # lam = -3880 the floor is that of Q = -1 alone and stops the search
    problem = realify(catalog.delta_pair())
    assert spectral._rayleigh_floor(problem, -3880.0) == (-1.0, 0.0)
    levels, witness = _schedule_levels(problem, -3880.0, 3, monkeypatch)
    assert witness is None and levels == []


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
