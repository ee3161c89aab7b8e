"""Zero location, disk counting and growth fitting."""

import math

import numpy as np
import pytest

from ccscatter import (
    ContourCollisionError,
    DegenerateFunctionError,
    PotentialSpec,
    RealificationRequiredError,
    Tolerances,
    boundary_angles,
    build_problem,
    catalog,
    coefficients,
    coefficients_batch,
    disk_zero_count,
    disk_zero_count_fn,
    engine,
    is_identically_zero,
    negative_eigenvalue_counts,
    order_fit,
    order_fit_fn,
    real_zero_scan,
    real_zero_scan_fn,
    realify,
    zeros,
)
from mpmath import mp
from oracles import b_airy, b_weber

PI = math.pi


def sine_well_zeros(r: float) -> list[float]:
    """Roots (n^2 - 1) pi^2 of the derived closed form -(pi^2/kappa) sin kappa."""
    out = []
    n = 1
    while (n * n - 1) * PI * PI <= r:
        out.append((n * n - 1) * PI * PI)
        n += 1
    return out


def test_degeneracy_dichotomy(free_problem, corpus):
    assert is_identically_zero(free_problem)
    assert is_identically_zero(catalog.delta_pair(k=PI))
    assert is_identically_zero(catalog.delta_pair(k=2 * PI))
    for name, prob in corpus:
        assert not is_identically_zero(prob), name


def test_small_l1_perturbations_are_not_degenerate():
    # b has discrete zeros unless V = 0, however small V is
    constant = build_problem(PotentialSpec.zero(), PotentialSpec.constant(1e-11), (1.0, 0.0))
    wave = build_problem(
        PotentialSpec.zero(), PotentialSpec.polynomial([0.0, 1e-12, -1e-12]), (1.0, 1j)
    )
    for problem in (constant, wave):
        assert not is_identically_zero(problem)
        assert disk_zero_count(problem, 10.0) == 1
    report = real_zero_scan(constant, (-5.0, 5.0), 50)
    assert not report.identically_zero
    assert [z for z, _, _ in report.zeros] == [0.0]


def test_spike_free_degeneracy_evaluates_no_b(engine_sizes, spike_free):
    for name, problem in spike_free:
        assert not is_identically_zero(problem), name
    assert engine_sizes == []


def test_scan_reports_degenerate(free_problem):
    report = real_zero_scan(free_problem, (-5.0, 5.0), 50)
    assert report.identically_zero
    assert report.zeros == ()


def test_scan_degenerate_beats_realness_check():
    report = real_zero_scan(catalog.delta_pair(k=PI), (-5.0, 5.0), 50)
    assert report.identically_zero


def test_scan_requires_real_reference():
    with pytest.raises(RealificationRequiredError):
        real_zero_scan(catalog.delta_pair(k=1.0), (-5.0, 5.0), 50)


def test_scan_sine_well(sine_well):
    report = real_zero_scan(sine_well, (-5.0, 100.0), 400)
    found = [z[0].real for z in report.zeros]
    assert found == pytest.approx([0.0, 3 * PI * PI, 8 * PI * PI], abs=1e-7)
    assert all(mult == 1 for _, mult, _ in report.zeros)
    assert all(res <= 1e-8 for _, _, res in report.zeros)
    assert not report.identically_zero


def test_scan_box_barrier(box_barrier):
    report = real_zero_scan(box_barrier, (-50.0, 1.0), 400)
    found = sorted(z[0].real for z in report.zeros)
    assert found == pytest.approx([-4 * PI * PI, -PI * PI, 0.0], abs=1e-7)
    mags = [abs(z) for z, _, _ in report.zeros]
    assert mags == sorted(mags)  # reported in |lam| order


def test_scan_always_reports_structural_zero(sine_well):
    # a grid that has no sign change at the origin still reports lam = 0
    report = real_zero_scan(sine_well, (-1.0, 1.0), 7)
    assert any(abs(z) <= 1e-10 for z, _, _ in report.zeros)


def test_scan_finds_the_zero_sharing_the_structural_zeros_cell(engine_sizes, sine_well):
    # 0 and 3 pi^2 lie in the grid cell [-5, 45.03], and b has one sign at
    # both of its ends; 0 is a grid point where b = 0, so its dip splits,
    # and only the half that holds 3 pi^2 is refined
    engine_sizes.clear()
    report = real_zero_scan(sine_well, (-5.0, 1e5), 2000)
    assert engine_sizes == [2000, 100, 103, 237, 132, 27, 5, 6]
    found = sorted(z.real for z, _, _ in report.zeros)
    want = sine_well_zeros(1e5)
    assert len(found) == len(want) == 100
    assert found[0] == 0.0
    assert np.allclose(found, want, rtol=1e-14, atol=0.0)
    assert all(mult == 1 for _, mult, _ in report.zeros)


def test_scan_seam_detects_even_multiplicity():
    def f(lams):
        x = np.real(lams)
        return (x**2) * (x - 1.0)

    report = real_zero_scan_fn(f, (-2.0, 2.0), 101)
    zs = {round(z[0].real, 6): z[1] for z in report.zeros}
    assert zs == {0.0: 2, 1.0: 1}


class Counting:
    """A callable that records the size of each batch it is asked for."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, lams):
        self.sizes.append(int(np.size(lams)))
        return self.f(lams)


def _recorded_engine_calls(monkeypatch, entry):
    """entry(lams, rtol) of each engine coefficient call made inside the test."""
    calls = []
    inner = engine.transfer_matrices

    def counted(problem, lams, *args, **kwargs):
        calls.append(entry(np.array(lams), kwargs.get("rtol")))
        return inner(problem, lams, *args, **kwargs)

    monkeypatch.setattr(engine, "transfer_matrices", counted)
    return calls


@pytest.fixture
def engine_sizes(monkeypatch):
    """Sizes of the engine's coefficient calls made inside the test."""
    return _recorded_engine_calls(monkeypatch, lambda lams, rtol: lams.size)


@pytest.fixture
def engine_calls(monkeypatch):
    """(size, rtol) of each engine coefficient call made inside the test."""
    return _recorded_engine_calls(monkeypatch, lambda lams, rtol: (lams.size, rtol))


@pytest.fixture
def engine_reads(monkeypatch):
    """(couplings, rtol) of each engine coefficient call made inside the test."""
    return _recorded_engine_calls(monkeypatch, lambda lams, rtol: (lams, rtol))


@pytest.mark.parametrize(
    "interval, points",
    [((-300.0, 5.0), 57), ((-1000.0, 500.0), 301)],
    ids=["within_a_cell", "zero_on_the_grid"],
)
def test_scan_zeros_sharing_a_grid_cell(engine_sizes, interval, points):
    # 0 and tan(1) lie in one grid cell, where b does not change sign; on
    # the second grid 0 is itself a grid point
    problem = realify(catalog.delta_pair())
    engine_sizes.clear()
    report = real_zero_scan(problem, interval, points)
    found = sorted(z.real for z, _, _ in report.zeros)
    assert len(found) == 2
    assert abs(found[0]) <= 1e-12
    assert abs(found[1] - math.tan(1.0)) <= 1e-12
    # the split dip's root brackets start from the nearest points seen
    assert len(engine_sizes) <= 14


# synthetic scans on (-2, 2): zeros by location (6 digits) and order, and
# the most calls the scan may make (two more than it takes)
SYNTHETIC_SCANS = {
    "close_pair": (
        lambda x: (x - 0.30) * (x - 0.31) * (x + 1.7), 101,
        {0.3: 1, 0.31: 1, -1.7: 1}, 13,
    ),
    # 5e-4 apart, well inside one another's nine-point stencils
    "near_pair": (
        lambda x: (x - 0.30) * (x - 0.3005) * (x + 1.7), 101,
        {0.3: 1, 0.3005: 1, -1.7: 1}, 17,
    ),
    "double": (lambda x: (x - 0.31) ** 2 * (x + 1.0), 101, {0.31: 2, -1.0: 1}, 8),
    "triple": (lambda x: (x - 0.37) ** 3 * (x + 1.5), 41, {0.37: 3, -1.5: 1}, 7),
    "quartic": (lambda x: (x - 0.37) ** 4 * (x + 1.5), 41, {0.37: 4, -1.5: 1}, 12),
    "quintic": (lambda x: (x - 0.37) ** 5 * (x + 1.5), 41, {0.37: 5, -1.5: 1}, 10),
    "sextic": (lambda x: (x - 0.37) ** 6 * (x + 1.5), 41, {0.37: 6, -1.5: 1}, 11),
    # on finer grids the stencil step shrinks with the cell, and the noise
    # rule follows |f| near the zero
    "quintic_201": (lambda x: (x - 0.37) ** 5 * (x + 1.5), 201, {0.37: 5, -1.5: 1}, 5),
    "sextic_101": (lambda x: (x - 0.37) ** 6 * (x + 1.5), 101, {0.37: 6, -1.5: 1}, 19),
    "seam": (lambda x: x**2 * (x - 1.0), 101, {0.0: 2, 1.0: 1}, 5),
    "off_centre_double": (
        lambda x: (x - 0.3333) ** 2 * (x + 1.0) * np.exp(x), 101,
        {0.3333: 2, -1.0: 1}, 8,
    ),
    "two_doubles": (
        lambda x: (x - 0.5) ** 2 * (x + 0.7) ** 2, 81, {0.5: 2, -0.7: 2}, 5,
    ),
    "cosine_touch": (
        lambda x: 1.0 - np.cos(3.0 * (x - 0.2)), 101, {0.2: 2, -1.894395: 2}, 7,
    ),
    "dip_without_zero": (lambda x: (x - 0.3) ** 2 + 1e-6, 101, {}, 7),
    # dips far above rounding level but below the former 1e-8 max|f| rule,
    # which took them for double zeros
    "shallow_dip_1e-10": (lambda x: (x - 0.3) ** 2 + 1e-10, 41, {}, 5),
    "shallow_dip_1e-11": (lambda x: (x - 0.3) ** 2 + 1e-11, 41, {}, 5),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC_SCANS))
def test_scan_seam_zeros_and_call_counts(case):
    g, points, expected, max_calls = SYNTHETIC_SCANS[case]
    f = Counting(lambda lams: g(np.real(lams)))
    report = real_zero_scan_fn(f, (-2.0, 2.0), points)
    assert {round(z.real, 6): m for z, m, _ in report.zeros} == expected
    assert len(f.sizes) <= max_calls


def test_many_brackets_refine_together():
    # sin(10 x) has 319 simple zeros k pi / 10 on (-50, 50): every bracket
    # steps in the same calls
    f = Counting(lambda lams: np.sin(10.0 * np.real(lams)))
    report = real_zero_scan_fn(f, (-50.0, 50.0), 4000)
    found = sorted(z.real for z, _, _ in report.zeros)
    want = np.arange(-159, 160) * PI / 10.0
    assert len(found) == len(want)
    assert np.all(np.abs(found - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert all(mult == 1 for _, mult, _ in report.zeros)
    assert len(f.sizes) <= 6


@pytest.mark.parametrize(
    "points, order",
    [
        ((0.0, 1.0, 1.0, -1.0, math.nan, math.nan), 1.0),
        ((0.0, 1.0, 1.0, -1.0, 1.0, 2.0), 1.0),
        ((0.0, 1.0, 1.0, -1.0, 1.0, 2.0), 3.0),
        ((0.0, 1.0, 1.0, -1.0, -1.0, -1.0), 1.0),
        ((0.0, 1.0, 1.0, -1.0, 0.5, 2.0), 1.0),
        ((0.0, 1.0, 1.0, -1.0, 2.0, 2.0), 1.0),
    ],
    ids=["no-third-point", "x3-is-x2", "x3-is-x2-cube-root", "f3-is-f2", "xi-above-1",
         "xi-below-0"],
)
def test_unsafe_interpolation_is_nan(points, order):
    # plain floats raise on a division by zero or a square root of a
    # negative number where arrays only warned: these return nan instead
    assert math.isnan(zeros._interpolation(*points, order))


def test_dip_search_takes_parabolic_steps():
    # |f| is a parabola at a double zero, where parabolic steps converge in a
    # few rounds; golden-section steps alone make the scan take 36 calls
    g, points, _, _ = SYNTHETIC_SCANS["double"]
    f = Counting(lambda lams: g(np.real(lams)))
    real_zero_scan_fn(f, (-2.0, 2.0), points)
    assert len(f.sizes) <= 15


@pytest.mark.parametrize("seed", range(5))
def test_noisy_double_zero_is_found_once_in_few_calls(seed):
    # where noise of 1e-12 swamps the central difference, the dip bracket
    # still ends in a few rounds, and its zero is reported once
    rng = np.random.default_rng(seed)
    g, points, _, _ = SYNTHETIC_SCANS["double"]
    f = Counting(lambda lams: g(np.real(lams)) + 1e-12 * rng.standard_normal(np.size(lams)))
    report = real_zero_scan_fn(f, (-2.0, 2.0), points)
    assert [(round(z.real, 4), m) for z, m, _ in report.zeros] == [(0.31, 2), (-1.0, 1)]
    assert len(f.sizes) <= 16


@pytest.mark.parametrize("points", [3, 41])
def test_tiny_function_keeps_its_sign_changes(points):
    # at |f| ~ 1e-300 a product of two values underflows to zero, so signs
    # are compared as signs: the cell's sign change is refined as one, with
    # no spurious zero and no run to the round cap
    f = Counting(lambda lams: 1e-300 * (np.real(lams) - 0.3))
    report = real_zero_scan_fn(f, (-2.0, 2.0), points)
    assert [m for _, m, _ in report.zeros] == [1]
    assert abs(report.zeros[0][0] - 0.3) <= 1e-10
    assert len(f.sizes) < 20


def test_broken_structural_zero_promise_raises():
    # 0 is a point of the 3-point linspace, where f is -3e-301, not 0: taken
    # as a zero, it would leave no sign change and lose the zero at 0.3
    def f(lams):
        return 1e-300 * (np.real(lams) - 0.3)

    with pytest.raises(ValueError, match=r"promises f\(0\) = 0, but f\(0\) = -3e-301"):
        real_zero_scan_fn(f, (-2.0, 2.0), 3, structural_zero_at_origin=True)


def test_scan_refines_all_brackets_in_few_engine_calls(engine_sizes):
    problem = catalog.ramp_well()
    engine_sizes.clear()  # building the problem evaluates lam = 0
    report = real_zero_scan(problem, (-5.0, 2000.0), 400)
    assert len(report.zeros) == 10
    assert len(engine_sizes) <= 5


@pytest.mark.parametrize(
    "name, interval", [("ramp_well", (-5.0, 120.0)), ("tilted_background", (-5.0, 300.0))]
)
def test_benchmark_scans_take_at_most_five_engine_calls(engine_sizes, name, interval):
    # the grid, then refinement rounds of probes and closing trios.  V keeps
    # one sign, so every zero is simple and reads no multiplicity stencil:
    # the structural zero is a grid point and costs no call at all.
    sizes = {"ramp_well": [100, 2, 2, 6], "tilted_background": [100, 4, 4, 12]}
    problem = getattr(catalog, name)()
    engine_sizes.clear()
    report = real_zero_scan(problem, interval, 100)
    assert all(mult == 1 for _, mult, _ in report.zeros)
    assert engine_sizes == sizes[name]


def _single_pass(problem, interval, points):
    """The single-pass scan: ``_scan`` reading every point at the problem
    tolerance and taking each grid value as final."""
    tol = problem.tolerances.ode_rtol

    def read(lams, rtol):
        _, b, err = coefficients_batch(problem, lams, rtol=tol)
        b = np.real(b)
        if rtol != tol:  # the grid: each value is final
            err = np.minimum(err, tol * np.maximum(1.0, np.abs(b)))
        return b, err

    lo, hi = float(interval[0]), float(interval[1])
    return zeros._scan(read, lo, hi, points, True, tol, zeros._one_sign(problem))


# the survey of two-pass scans: the corpus (realified) on (-R, R), (-5, R)
# and (-R, 5) for three R and four grids, then the two benchmark scans and
# three 400-point scans of the polynomial problems
SURVEY_SCANS = [
    (name, interval, points)
    for name in sorted(dict(catalog.corpus_problems()))
    for R in (60.0, 300.0, 1500.0)
    for interval in ((-R, R), (-5.0, R), (-R, 5.0))
    for points in (9, 33, 65, 129)
] + [
    ("ramp_well", (-5.0, 120.0), 100),
    ("tilted_background", (-5.0, 300.0), 100),
    ("ramp_well", (-5.0, 2000.0), 400),
    ("ramp_well", (-3000.0, 500.0), 400),
    ("tilted_background", (-500.0, 3000.0), 400),
]


def test_two_pass_scans_keep_the_single_pass_zeros_and_calls(engine_calls):
    corpus = dict(catalog.corpus_problems())
    rereads = []
    for name, interval, points in SURVEY_SCANS:
        problem = corpus[name] if corpus[name].ref.u0_is_real else realify(corpus[name])
        tol = problem.tolerances.ode_rtol
        engine_calls.clear()
        want = _single_pass(problem, interval, points)
        single = engine_calls[:]
        engine_calls.clear()
        report = real_zero_scan(problem, interval, points)
        calls = [c for c in engine_calls if c[1] is not None]  # not the degeneracy check
        case = (name, interval, points)
        assert len(report.zeros) == len(want.zeros), case
        for (z, m, _), (w, n, _) in zip(report.zeros, want.zeros):
            assert m == n and abs(z - w) <= 1e-12 * (1.0 + abs(w)), case
        # the grid at the phase tolerance, then at most one call that reads
        # the points of open grid decisions again, then the single pass's calls
        assert calls[0] == (points, zeros._PHASE_RTOL) and single[0] == (points, tol), case
        if calls[1:] != single[1:]:
            assert calls[2:] == single[1:] and calls[1][1] == tol, case
            rereads.append(calls[1][0])
    # one 1-point read, of a grid point 5.7e-14 from the structural zero
    # (tilted_background on (-500, 3000))
    assert sum(rereads) <= 1


@pytest.mark.parametrize(
    "name, interval, sizes",
    [
        ("ramp_well", (-5.0, 120.0), [2, 2, 6]),
        ("tilted_background", (-5.0, 300.0), [4, 4, 12]),
    ],
)
def test_benchmark_scans_read_the_grid_at_the_phase_tolerance(engine_calls, name, interval, sizes):
    problem = getattr(catalog, name)()
    engine_calls.clear()
    real_zero_scan(problem, interval, 100)
    tol = problem.tolerances.ode_rtol
    assert engine_calls == [(100, zeros._PHASE_RTOL)] + [(size, tol) for size in sizes]


def test_scan_grid_is_never_read_tighter_than_the_problem(engine_calls):
    # a problem tolerance looser than the phase tolerance reads every point
    # at the problem's, the grid too
    ramp = catalog.ramp_well()
    problem = build_problem(ramp.Q, ramp.V, ramp.ref.u0_at_0, tolerances=Tolerances(1e-4, 1e-10))
    engine_calls.clear()
    real_zero_scan(problem, (-5.0, 120.0), 100)
    assert engine_calls[0] == (100, 1e-4)
    assert {rtol for _, rtol in engine_calls} == {1e-4}


@pytest.mark.parametrize(
    "name, interval, points, sizes",
    [
        ("sine_well", (-5.0, 1e5), 2000, [100, 103, 237, 132, 27, 5, 6]),
        ("box_barrier", (-50.0, 1.0), 400, [2, 4, 6]),
    ],
)
def test_constant_pieces_scan_as_in_a_single_pass(engine_calls, name, interval, points, sizes):
    # their steps are exact at any rtol, so the grid read at the phase
    # tolerance is the grid read at the problem's, bit for bit
    problem = getattr(catalog, name)()
    want = _single_pass(problem, interval, points)
    engine_calls.clear()
    assert real_zero_scan(problem, interval, points) == want
    tol = problem.tolerances.ode_rtol
    assert engine_calls == [(points, zeros._PHASE_RTOL)] + [(size, tol) for size in sizes]


def test_grid_point_within_its_bound_of_a_zero_is_read_again(engine_calls):
    # the middle grid point is 3.6e-15 from ramp_well's zero 27.3155696...,
    # where b read at the phase tolerance is 4e-7 with a bound of 1.5e-5:
    # its sign is open, so it alone is read again before any refinement.
    # Taken as read, its sign sends the bracket through 18 more rounds to a
    # point 7e-12 away.
    problem = catalog.ramp_well()
    z = 27.315569639329393
    engine_calls.clear()
    report = real_zero_scan(problem, (z - 10.0, z + 10.0), 21)
    tol = problem.tolerances.ode_rtol
    assert engine_calls == [(21, zeros._PHASE_RTOL), (1, tol), (3, tol)]
    assert [m for _, m, _ in report.zeros] == [1]
    assert abs(report.zeros[0][0] - z) <= 1e-12


def test_open_dip_comparisons_are_read_again():
    # a double zero at 0.299 whose loose grid values near it read 6e-3 high,
    # within their bound 6.06e-3: every sign is certain, but the intervals
    # |f| -/+ err of 0.28 and its neighbours overlap, so the dip comparisons
    # there are open and those points are read again
    def exact(lams):
        return (np.real(lams) - 0.299) ** 2

    def read(lams, rtol):
        f = exact(lams)
        if rtol == zeros._PHASE_RTOL:
            return f + 6e-3 * (abs(np.real(lams) - 0.299) < 0.1), np.full(len(f), 6.06e-3)
        return f, np.zeros(len(f))

    report = zeros._scan(read, -2.0, 2.0, 101, False, 1e-12)
    assert report == real_zero_scan_fn(exact, (-2.0, 2.0), 101)
    assert [(round(z.real, 6), m) for z, m, _ in report.zeros] == [(0.299, 2)]


def test_shallow_dip_without_a_zero_is_no_zero_on_a_loose_grid():
    # f = (x - 0.3)^2 + c dips to c without a zero, read 1e-4 high on the
    # loose grid: the scan reports what the exact f gives, no zero, for a
    # dip close to 0 and for one far above it
    for c in (1e-8 * 5.29 * (1.0 + 1e-4), 0.5):

        def read(lams, rtol, c=c):
            x = np.real(lams)
            f = (x - 0.3) ** 2 + c
            if rtol == zeros._PHASE_RTOL:
                return f * (1.0 + 1e-4), 2e-4 * f
            return f, np.zeros(len(x))

        def exact(lams, c=c):
            return (np.real(lams) - 0.3) ** 2 + c

        report = zeros._scan(read, -2.0, 2.0, 101, False, 1e-12)
        assert report == real_zero_scan_fn(exact, (-2.0, 2.0), 101)
        assert report.zeros == ()


def test_dips_far_above_zero_are_refined_and_their_residual_decides():
    # the simple zeros 211.5 and 367.7 share the grid cell (183.1, 371.3),
    # where b keeps its sign: |b| dips only to 0.53 at 371.25, 4.5% of
    # max|b|, and the refined dip splits into both
    report = real_zero_scan(catalog.ramp_well(), (-5.0, 1500.0), 9)
    fine = [z.real for z, _, _ in real_zero_scan(catalog.ramp_well(), (-5.0, 1500.0), 4000).zeros]
    found = [z.real for z, _, _ in report.zeros]
    assert len(found) == 7
    assert [round(z, 3) for z in found[1:3]] == [211.524, 367.743]
    for z in found:
        assert min(abs(z - w) for w in fine) <= 1e-9 * (1.0 + abs(z))


def test_double_zero_between_larger_values_is_found():
    # |f| dips only to 0.058 at the grid point 0.5, 0.6% of max|f|, and the
    # refined dip is the double zero 0.33
    report = real_zero_scan_fn(lambda x: (x.real - 0.33) ** 2 * (x.real + 1.5), (-2.0, 2.0), 9)
    assert [(round(z.real, 6), m) for z, m, _ in report.zeros] == [(0.33, 2), (-1.5, 1)]


def test_disk_count_sine_well(sine_well):
    for r in (50.0, 500.0, 5000.0):
        assert disk_zero_count(sine_well, r) == len(sine_well_zeros(r))


def test_disk_count_delta_pair():
    # zeros at 0 and -2ik: both inside |lam| <= 10 for k = 1
    assert disk_zero_count(catalog.delta_pair(k=1.0), 10.0) == 2
    assert disk_zero_count(catalog.delta_pair(k=1.0), 1.0) == 1


def test_disk_count_rejects_degenerate(free_problem):
    with pytest.raises(DegenerateFunctionError):
        disk_zero_count(free_problem, 10.0)


def test_disk_count_contour_collision(sine_well):
    with pytest.raises(ContourCollisionError):
        disk_zero_count(sine_well, 3 * PI * PI)


def test_disk_count_node_doubling_invariance(sine_well):
    # sine_well's disk counts are Sturm differences, so the contour is wound directly
    read = zeros._read_b(sine_well)
    assert zeros._disk_count(read, 500.0, 64, True) == 7
    assert zeros._disk_count(read, 500.0, 128, True) == 7
    assert zeros._disk_count(read, 500.0, 512, True) == 7


# the corpus problems where V keeps one sign, each with int_0^1 sqrt|V| dx
ONE_SIGN = {
    "sine_well": 1.0,
    "box_barrier": 1.0,
    "traveling_barrier": 1.0,
    "ramp_well": math.sqrt(3.0) * PI / 8.0,
    "tilted_background": math.sqrt(0.6),
    "cosh_shelf": math.sqrt(0.8),
    "shifted_sine": math.sqrt(0.5),
}


@pytest.fixture(scope="module")
def one_sign(corpus):
    """The one-sign corpus problems, realified where u0 is complex."""
    return [(n, p if p.ref.u0_is_real else realify(p)) for n, p in corpus if n in ONE_SIGN]


def test_one_sign_disk_counts_are_sturm_differences(engine_calls, one_sign):
    # every zero is real and simple, so |N(-r) - N(r)| counts them and no b
    # is read; the count is the contour's
    assert len(one_sign) == 7
    for name, problem in one_sign:
        for r in (170.0, 1.3e3, 1.1e4, 1.03e5):
            engine_calls.clear()
            count = disk_zero_count(problem, r)
            assert engine_calls == [], (name, r)
            assert count == zeros._disk_count(zeros._read_b(problem), r, 64, True), (name, r)


@pytest.mark.parametrize(
    "name, radii, counts",
    [
        ("ramp_well", (1e2, 3e2, 1e3, 3e3), (3, 4, 7, 12)),
        ("tilted_background", (1e2, 1e3, 1e4, 1e5), (3, 8, 25, 78)),
    ],
)
def test_one_sign_order_fit_is_the_contours(name, radii, counts):
    # Sturm counts, and the maxima of the same 256 nodes
    problem = getattr(catalog, name)()
    fit = order_fit(problem, radii)
    assert fit.counts == counts
    assert fit == zeros._order_fit(zeros._read_b(problem), list(radii), True)


FIT_RADII = [(1e2, 3e2, 1e3, 3e3), (1e2, 1e3, 1e4, 1e5)]


@pytest.mark.parametrize("radii", FIT_RADII)
def test_one_sign_fit_reads_the_contours_peak_node(engine_reads, one_sign, radii):
    # u0 has no zero in (0, 1), so every zero of b is on the half-line where
    # V lam <= 0, and |b| peaks on each circle at -r (V <= 0) or r (V >= 0):
    # the fit reads b there, at one real coupling, in real arithmetic
    for name, problem in one_sign:
        read = zeros._read_b(problem)
        want = zeros._order_fit(read, list(radii), True)
        sign = zeros._one_sign(problem)
        node = zeros._FIT_NODES // 2 if sign < 0 else 0
        for r in radii:
            size = np.abs(read(zeros._contour(r, zeros._FIT_NODES)[:129], zeros._CONTOUR_RTOL)[0])
            assert size.argmax() == node, (name, r)
        engine_reads.clear()
        fit = order_fit(problem, radii)
        calls = [(lams.size, rtol) for lams, rtol in engine_reads]
        assert calls == [(1, zeros._CONTOUR_RTOL)] * 4, name
        for (lams, _), r in zip(engine_reads, radii):
            assert lams.dtype == np.float64 and lams[0] == sign * r, (name, r, lams)
        assert fit.counts == want.counts, name
        assert np.allclose(fit.log_max_modulus, want.log_max_modulus, rtol=1e-12, atol=0), name


@pytest.mark.parametrize("v", [-1.0, 1.0])
def test_fit_winds_the_contour_where_u0_has_an_interior_zero(engine_calls, v):
    # u0 = sin 2 pi x: N(0) = 1, so b has a zero on each half-line, and at
    # r = 30 the peak is node 89 (V = -1), where |b(-r)| is 0.023 of it
    sin2 = (PotentialSpec.constant(-4.0 * PI**2), PotentialSpec.constant(v), (0.0, 2.0 * PI))
    problem = build_problem(*sin2)
    read = zeros._read_b(problem)
    size = np.abs(read(zeros._contour(30.0, zeros._FIT_NODES)[:129], zeros._CONTOUR_RTOL)[0])
    assert size.argmax() == (89 if v < 0 else 39)
    radii = (30.0, 1e2, 1e3, 1e4)
    engine_calls.clear()
    fit = order_fit(problem, radii)
    assert engine_calls == [(129, zeros._PHASE_RTOL)] * 4
    assert fit == zeros._order_fit(read, list(radii), True)


def test_one_sign_counts_reach_large_radii(one_sign):
    # on the contour b overflows: sine_well at 1e6 raised "propagation
    # produced non-finite values"
    problems = dict(one_sign)
    assert disk_zero_count(problems["sine_well"], 1e6) == len(sine_well_zeros(1e6)) == 318
    # b = sqrt(lam) sinh(sqrt(lam)) on box_barrier: its zeros are -(n pi)^2, n >= 0
    assert disk_zero_count(problems["box_barrier"], 1e7) == math.floor(math.sqrt(1e7) / PI) + 1
    # Weyl's law: (sqrt(r) / pi) int_0^1 sqrt|V| dx, 6847 on ramp_well
    r = 1e9
    for name, problem in one_sign:
        weyl = math.sqrt(r) / PI * ONE_SIGN[name]
        assert abs(disk_zero_count(problem, r) - weyl) <= 1.0, name


def test_nearly_real_u0_counts_and_fits_as_the_real_one(engine_calls):
    # imaginary parts within u0_is_real's 1e-14 take the real route in every
    # layer: Sturm counts with no b read, and the contour's upper half
    sine = catalog.sine_well()
    sine = build_problem(sine.Q, sine.V, (1e-17j, PI), tolerances=sine.tolerances)
    ramp = catalog.ramp_well()
    nearly = build_problem(ramp.Q, ramp.V, (1.0, 1e-16j), tolerances=ramp.tolerances)
    assert sine.ref.u0_is_real and nearly.ref.u0_is_real
    assert [disk_zero_count(sine, r) for r in (500.0, 1e4, 1e6)] == [7, 31, 318]
    assert engine_calls == []
    radii = (1e2, 3e2, 1e3, 3e3)
    fit = order_fit(nearly, radii)
    # every zero is positive, so the peak of each circle is its one node -r
    assert engine_calls == [(1, zeros._CONTOUR_RTOL)] * 4
    assert fit == order_fit(ramp, radii)


def _stencil_path(problem, interval, points):
    """The scan that reads a multiplicity stencil at every zero."""
    lo, hi, tol = float(interval[0]), float(interval[1]), problem.tolerances.ode_rtol
    return zeros._scan(zeros._read_b(problem), lo, hi, points, True, tol, False)


def test_one_sign_scans_report_what_their_stencils_read(engine_sizes, one_sign):
    # every zero of a one-sign b is simple: its scan reads no stencil but an
    # unsplit dip's, and finds the stencil path's zeros and orders in fewer
    # values of b
    problems = dict(one_sign)
    for name, interval, points in SURVEY_SCANS:
        if name not in problems or points not in (33, 100):
            continue
        case = (name, interval, points)
        engine_sizes.clear()
        want = _stencil_path(problems[name], interval, points)
        stencil_reads = sum(engine_sizes)
        engine_sizes.clear()
        report = real_zero_scan(problems[name], interval, points)
        assert sum(engine_sizes) < stencil_reads, case
        assert len(report.zeros) == len(want.zeros), case
        for (z, m, _), (w, n, _) in zip(report.zeros, want.zeros):
            assert m == n == 1 and abs(z - w) <= 1e-12 * (1.0 + abs(w)), case


def test_sign_changing_scans_keep_the_stencil_path(engine_calls, corpus):
    # V changes sign: zeros may be multiple, and the scan is the stencil
    # path's, calls included, bit for bit
    problems = {name: realify(p) for name, p in corpus if name in ("noise_bed", "delta_pair")}
    for name, interval, points in SURVEY_SCANS:
        if name not in problems:
            continue
        engine_calls.clear()
        want = _stencil_path(problems[name], interval, points)
        single = engine_calls[:]
        engine_calls.clear()
        report = real_zero_scan(problems[name], interval, points)
        assert report == want, (name, interval, points)
        assert [c for c in engine_calls if c[1] is not None] == single, (name, interval, points)


def test_one_sign_scans_find_at_most_the_sturm_count(one_sign):
    # the zeros of b in [lo, hi] are the jumps of the eigencount N, so a scan
    # reports at most |N(lo) - N(hi)| counted by multiplicity (coarse grids
    # can report fewer: they miss zeros)
    scans = [
        (interval, points)
        for R in (60.0, 300.0)
        for interval in ((-R, R), (-5.0, R), (-R, 5.0))
        for points in (9, 33, 65)
    ]
    ends = [x for interval, _ in scans for x in interval]
    for name, problem in one_sign:
        counts = negative_eigenvalue_counts(problem, ends, boundary_angles(problem))
        for (interval, points), lo, hi in zip(scans, counts[::2], counts[1::2]):
            assert not (lo.boundary_degenerate or hi.boundary_degenerate)
            report = real_zero_scan(problem, interval, points)
            assert sum(m for _, m, _ in report.zeros) <= abs(lo - hi), (name, interval, points)


def test_zero_locations_against_the_oracles():
    # a scan locates each zero z within err(z) / |b'| of the root of the exact
    # b: |b(z)| is within its bound when a bracket closes, and the engine's b
    # is within its bound of the exact one.  Both problems have V <= 0, so
    # every zero is positive.  Thinnest margin: 2.5x, ramp_well's fourth zero
    for name, oracle, count in (("tilted_background", b_airy, 13), ("ramp_well", b_weber, 11)):
        problem = getattr(catalog, name)()
        report = real_zero_scan(problem, (1.0, 3000.0), 400)
        assert len(report.zeros) == count, name
        with mp.workdps(30):

            def b(lam):  # b is real at real couplings
                mantissa, scale = oracle(lam)
                return mp.mpf(mantissa.real) * mp.exp(scale)

            for z, _, _ in report.zeros:
                z = z.real
                start = (mp.mpf(z), mp.mpf(z) * (1 + mp.mpf(1e-9)))
                root = mp.findroot(b, start, solver="secant", tol=1e-40, verify=False)
                h = 1e-6 * root
                slope = abs(float((b(root + h) - b(root - h)) / (2 * h)))
                bound = coefficients(problem, z).err / slope
                assert abs(float(z - root)) <= bound, (name, z, float(root), bound)


def test_real_zeros_accounted_by_disk_count(sine_well, box_barrier):
    for prob, interval in ((sine_well, (-5.0, 100.0)), (box_barrier, (-50.0, 1.0))):
        report = real_zero_scan(prob, interval, 400)
        r = max(abs(z) for z, _, _ in report.zeros) * 1.01 + 1.0
        total_mult = sum(m for _, m, _ in report.zeros)
        assert total_mult <= disk_zero_count(prob, r)


def test_zero_gap_exceeds_resolution(sine_well):
    report = real_zero_scan(sine_well, (-5.0, 100.0), 400)
    zs = sorted(z[0].real for z in report.zeros)
    gaps = np.diff(zs)
    assert gaps.min() >= 10 * 1e-6  # resolution window is 1e-6 scaled


def test_order_fit_windows(sine_well, box_barrier):
    radii = [1e2, 1e3, 1e4, 1e5]
    for prob in (sine_well, box_barrier):
        fit = order_fit(prob, radii)
        assert 0.45 <= fit.growth_exponent <= 0.55
        assert 0.45 <= fit.count_exponent <= 0.55
        assert all(a <= b for a, b in zip(fit.counts[:-1], fit.counts[1:]))


def test_order_fit_polynomial_seam_flattens():
    fit = order_fit_fn(lambda lams: lams * (lams - 1.0), [1e2, 1e3, 1e4, 1e5])
    assert fit.counts == (2, 2, 2, 2)
    assert abs(fit.count_exponent) <= 1e-6


def test_contour_doubling_keeps_the_old_nodes_bit_for_bit():
    for r in (1.0, 3e2, 1e5):
        n = 64
        while n < (1 << 17):
            assert np.array_equal(zeros._contour(r, 2 * n)[::2], zeros._contour(r, n))
            n *= 2
    assert np.array_equal(zeros._contour(2.5, 200)[::2], zeros._contour(2.5, 100))


def test_contour_nodes_are_exact_conjugate_pairs():
    for r in (1.0, 3e2, 1e5):
        for n in (64, 65, 100, 1 << 17):
            nodes, k = zeros._contour(r, n), np.arange(1, (n + 1) // 2)
            assert np.array_equal(nodes[n - k], nodes[k].conj())


def test_disk_count_evaluates_only_its_final_nodes():
    # l^20 settles on 128 nodes and l^60 from 100 nodes on 400: each
    # doubling evaluates only the new odd nodes
    f = Counting(lambda lams: lams**20)
    assert disk_zero_count_fn(f, 2.0) == 20
    assert f.sizes == [64, 64]
    f = Counting(lambda lams: lams**60)
    assert disk_zero_count_fn(f, 1.0, nodes=100) == 60
    assert f.sizes == [100, 100, 200]
    # a seed below one node is refused before f is read
    with pytest.raises(ValueError, match="nodes must be >= 1"):
        disk_zero_count_fn(f, 1.0, nodes=0)
    assert f.sizes == [100, 100, 200]


def test_order_fit_counts_from_its_own_nodes():
    # counts that settle within 256 nodes cost nothing beyond the fit grid
    for g, counts in ((lambda l: l * (l - 1.0), (2,) * 4), (lambda l: l**40, (40,) * 4)):
        f = Counting(g)
        fit = order_fit_fn(f, [1.5, 2.0, 3.0, 4.0])
        assert fit.counts == counts
        assert f.sizes == [256] * 4


def test_order_fit_evaluation_budget(engine_sizes):
    problem = catalog.ramp_well()
    engine_sizes.clear()
    fit = order_fit(problem, (1e2, 3e2, 1e3, 3e3))
    assert fit.counts == (3, 4, 7, 12)
    assert sum(engine_sizes) <= 4


def test_real_problem_evaluates_the_upper_half_of_each_circle(engine_calls, sine_well):
    # b(conj lam) = conj b(lam) for real u0: 33 of the 64 nodes are evaluated,
    # every phase certified at the phase tolerance
    assert zeros._disk_count(zeros._read_b(sine_well), 500.0, 64, True) == 7
    assert engine_calls == [(33, zeros._PHASE_RTOL)]


def test_fit_radius_is_one_phase_call_and_one_small_tight_call(engine_calls):
    problem = catalog.ramp_well()
    engine_calls.clear()
    fit = order_fit(problem, (1e2, 3e2, 1e3, 3e3))
    assert fit.counts == (3, 4, 7, 12)
    # the counts are Sturm differences, and the maximum is b(-r), one tight read
    assert engine_calls == [(1, zeros._CONTOUR_RTOL)] * 4


def _tight(problem):
    """b at _CONTOUR_RTOL as a plain callable: every node read at that rtol."""
    read = zeros._read_b(problem)
    return lambda lams: read(lams, zeros._CONTOUR_RTOL)[0]


def test_two_passes_change_no_count_and_no_maximum(corpus):
    # against an evaluation of every node at _CONTOUR_RTOL
    for name, problem in corpus:
        if not problem.ref.u0_is_real:
            problem = realify(problem)
        f = _tight(problem)
        for r in (170.0, 1.3e3, 1.1e4):
            want = _count_or_error(disk_zero_count_fn, f, r, conjugate_symmetric=True)
            assert _count_or_error(disk_zero_count, problem, r) == want, (name, r)
        radii = (1e2, 1e3, 1e4, 1e5)
        want = order_fit_fn(f, radii, conjugate_symmetric=True)
        fit = order_fit(problem, radii)
        assert fit.counts == want.counts, name
        assert np.allclose(fit.log_max_modulus, want.log_max_modulus, rtol=0, atol=1e-9), name


@pytest.mark.parametrize("offset", [5e-4, -5e-4])
def test_contour_near_a_zero_rereads_its_uncertified_nodes(engine_calls, offset):
    # ramp_well has a simple zero at 27.3155696...; a node next to it has an
    # error bound above 1e-3 |b| at the phase tolerance
    problem = catalog.ramp_well()
    r = 27.31556963932939 * (1.0 + offset)
    engine_calls.clear()
    count = zeros._disk_count(zeros._read_b(problem), r, 64, True)
    assert count == disk_zero_count_fn(_tight(problem), r, conjugate_symmetric=True)
    assert count == (2 if offset > 0 else 1)
    phase = [size for size, rtol in engine_calls if rtol == zeros._PHASE_RTOL]
    reread = [size for size, rtol in engine_calls if rtol == zeros._CONTOUR_RTOL]
    assert phase[0] == 33 and reread and reread[0] < 33


def _count_or_error(count, *args, **kwargs):
    try:
        return count(*args, **kwargs)
    except ContourCollisionError as err:
        return str(err)


def test_mirrored_contours_change_no_result(real_corpus):
    # the mirrored and the unfolded run of the same two-pass evaluation
    for name, problem in real_corpus:
        read = zeros._read_b(problem)
        for r in (170.0, 1.3e3, 1.1e4):
            unfolded = _count_or_error(zeros._disk_count, read, r, 64, False)
            assert _count_or_error(disk_zero_count, problem, r) == unfolded, (name, r)
        radii = (1e2, 1e3, 1e4, 1e5)
        unfolded = zeros._order_fit(read, radii, False)
        fit = order_fit(problem, radii)
        assert fit.counts == unfolded.counts, name
        assert np.allclose(fit.log_max_modulus, unfolded.log_max_modulus, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["delta_pair", "traveling_barrier"])
def test_complex_reference_evaluates_every_node(engine_sizes, name):
    problem = getattr(catalog, name)()
    f = Counting(_tight(problem))
    count = disk_zero_count_fn(f, 10.0)
    engine_sizes.clear()
    assert disk_zero_count(problem, 10.0) == count
    degeneracy = [80] if problem.V.has_spikes else []
    assert engine_sizes == degeneracy + f.sizes == degeneracy + [64]


def test_order_fit_validates_radii(sine_well, free_problem):
    with pytest.raises(ValueError):
        order_fit(sine_well, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        order_fit(sine_well, [4.0, 3.0, 2.0, 1.0])
    with pytest.raises(DegenerateFunctionError):
        order_fit(free_problem, [1e2, 1e3, 1e4, 1e5])


@pytest.mark.parametrize(
    "count, radius",
    [
        (lambda f: order_fit_fn(f, [1.0, 2.0, 3.0, 4.0]), "1"),
        (lambda f: disk_zero_count_fn(f, 2.5), "2.5"),
    ],
    ids=["order_fit_fn", "disk_zero_count_fn"],
)
def test_nan_on_a_contour_is_a_library_error(count, radius):
    # nan on the real axis: the count raises a ScatterError, on which the CLI
    # exits 3, before it forms a ratio of contour values (the test settings
    # turn numpy's RuntimeWarning into an error)
    def f(lams):
        return np.where(abs(lams.imag) < 1e-9, np.nan, lams**2)

    message = rf"^b is not finite on the contour \|lam\| = {radius}$"
    with pytest.raises(ContourCollisionError, match=message):
        count(f)


@pytest.mark.parametrize(
    "f, message",
    [
        (lambda z: 1.0 / z, r"^negative winding on \|lam\| = 1: unresolved phase$"),
        (lambda z: (z - 1.0) ** 2 - 1e-10,
         r"^zero within 1e-6\*r of the contour \|lam\| = 1; perturb the radius$"),
        (lambda z: np.exp(1e9j * z.real),
         r"^phase unwrapping did not settle on \|lam\| = 1; perturb the radius$"),
    ],
    ids=["pole", "zero-on-the-contour", "unresolved-phase"],
)
def test_unsettled_contours_raise(f, message):
    with pytest.raises(ContourCollisionError, match=message):
        disk_zero_count_fn(f, 1.0)


def test_disk_count_seam_exact_winding():
    assert disk_zero_count_fn(lambda l: l**3, 2.0) == 3
    assert disk_zero_count_fn(lambda l: (l - 1.0) * (l + 3.0), 2.0) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda p: real_zero_scan(p, (0.0, math.inf), 10),
        lambda p: real_zero_scan(p, (1.0, 0.0), 1),
        lambda p: disk_zero_count(p, -1.0),
        lambda p: disk_zero_count(p, math.nan),
        lambda p: order_fit(p, [1.0, 2.0]),
    ],
    ids=["infinite-interval", "reversed-interval-one-point", "negative-radius", "nan-radius",
         "two-radii"],
)
def test_arguments_are_checked_before_degeneracy(free_problem, call):
    """b vanishes identically on the free problem; bad arguments still raise."""
    with pytest.raises(ValueError):
        call(free_problem)


def test_refinement_out_of_rounds_reports_the_last_probe(monkeypatch):
    monkeypatch.setattr(zeros, "_MAX_ITERATIONS", 1)
    report = real_zero_scan_fn(lambda x: np.sin(x.real) - 0.3, (-1, 1), 11)
    ((lam, order, residual),) = report.zeros
    assert 0.2 <= lam.real <= 0.4 and lam.imag == 0.0
    assert order == 1 and residual > 0.0
