"""Zero location, disk counting and growth fitting."""

import math

import numpy as np
import pytest

from ccscatter import (
    ContourCollisionError,
    DegenerateFunctionError,
    RealificationRequiredError,
    catalog,
    disk_zero_count,
    disk_zero_count_fn,
    engine,
    is_identically_zero,
    order_fit,
    order_fit_fn,
    real_zero_scan,
    real_zero_scan_fn,
    realify,
    zeros,
)

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


@pytest.fixture
def engine_sizes(monkeypatch):
    """Sizes of the engine's coefficient calls made inside the test."""
    sizes = []
    inner = engine.transfer_matrices

    def counted(problem, lams, *args, **kwargs):
        sizes.append(int(np.size(lams)))
        return inner(problem, lams, *args, **kwargs)

    monkeypatch.setattr(engine, "transfer_matrices", counted)
    return sizes


@pytest.mark.parametrize(
    "interval, points",
    [((-300.0, 5.0), 57), ((-1000.0, 500.0), 301)],
    ids=["within_a_cell", "zero_on_the_grid"],
)
def test_scan_zeros_sharing_a_grid_cell(interval, points):
    # 0 and tan(1) lie in one grid cell, where b does not change sign; on
    # the second grid 0 is itself a grid point
    report = real_zero_scan(realify(catalog.delta_pair()), interval, points)
    found = sorted(z.real for z, _, _ in report.zeros)
    assert len(found) == 2
    assert abs(found[0]) <= 1e-12
    assert abs(found[1] - math.tan(1.0)) <= 1e-12


# synthetic scans on (-2, 2): zeros by location (6 digits) and order, and
# the most calls the scan may make
SYNTHETIC_SCANS = {
    "close_pair": (
        lambda x: (x - 0.30) * (x - 0.31) * (x + 1.7), 101,
        {0.3: 1, 0.31: 1, -1.7: 1}, 44,
    ),
    "double": (lambda x: (x - 0.31) ** 2 * (x + 1.0), 101, {0.31: 2, -1.0: 1}, 43),
    "quartic": (lambda x: (x - 0.37) ** 4 * (x + 1.5), 41, {0.37: 2, -1.5: 1}, 49),
    "seam": (lambda x: x**2 * (x - 1.0), 101, {0.0: 2, 1.0: 1}, 45),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC_SCANS))
def test_scan_seam_zeros_and_call_counts(case):
    g, points, expected, max_calls = SYNTHETIC_SCANS[case]
    f = Counting(lambda lams: g(np.real(lams)))
    report = real_zero_scan_fn(f, (-2.0, 2.0), points)
    assert {round(z.real, 6): m for z, m, _ in report.zeros} == expected
    assert len(f.sizes) <= max_calls


def test_dip_search_takes_parabolic_steps():
    # |f| is a parabola at a double zero, where parabolic steps converge in a
    # few rounds; golden-section steps alone make the scan take 36 calls
    g, points, _, _ = SYNTHETIC_SCANS["double"]
    f = Counting(lambda lams: g(np.real(lams)))
    real_zero_scan_fn(f, (-2.0, 2.0), points)
    assert len(f.sizes) <= 15


def test_scan_refines_all_brackets_in_few_engine_calls(engine_sizes):
    problem = catalog.ramp_well()
    engine_sizes.clear()  # building the problem evaluates lam = 0
    report = real_zero_scan(problem, (-5.0, 2000.0), 400)
    assert len(report.zeros) == 10
    assert len(engine_sizes) <= 12


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
    assert disk_zero_count(sine_well, 500.0, nodes=64) == 7
    assert disk_zero_count(sine_well, 500.0, nodes=128) == 7
    assert disk_zero_count(sine_well, 500.0, nodes=512) == 7


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


def test_disk_count_evaluates_only_its_final_nodes():
    # l^20 settles on 128 nodes and l^60 from 100 nodes on 400: each
    # doubling evaluates only the new odd nodes
    f = Counting(lambda lams: lams**20)
    assert disk_zero_count_fn(f, 2.0) == 20
    assert f.sizes == [64, 64]
    f = Counting(lambda lams: lams**60)
    assert disk_zero_count_fn(f, 1.0, nodes=100) == 60
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
    assert sum(engine_sizes) <= 1104


def test_order_fit_validates_radii(sine_well, free_problem):
    with pytest.raises(ValueError):
        order_fit(sine_well, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        order_fit(sine_well, [4.0, 3.0, 2.0, 1.0])
    with pytest.raises(DegenerateFunctionError):
        order_fit(free_problem, [1e2, 1e3, 1e4, 1e5])


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
