"""Iterated-kernel series: coefficients, bounds, certified evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from ccscatter import (
    M_constant,
    MeasureUnsupportedError,
    PotentialSpec,
    QuadraturePrecisionError,
    QuadratureSpec,
    build_problem,
    coefficients,
    evaluate_series,
    kernel,
    series_coefficients,
)
from ccscatter import catalog, engine, series
from ccscatter.engine import reference_states

PI = math.pi


def test_kernel_vanishes_on_diagonal(box_barrier):
    assert kernel(box_barrier, 0.3, 0.3) == 0.0
    assert kernel(box_barrier, 1.0, 1.0) == 0.0


def test_kernel_closed_form_flat_reference(box_barrier):
    # u0 = 1, v0 = -x gives K(x, t) = (x - t) V(t); the sign is pinned by
    # the brute-force second coefficient below
    assert kernel(box_barrier, 0.5, 0.2) == pytest.approx(0.3, abs=1e-12)
    assert kernel(box_barrier, 0.9, 0.1) == pytest.approx(0.8, abs=1e-12)


def test_kernel_zero_perturbation(free_problem):
    assert kernel(free_problem, 0.7, 0.1) == 0.0


def test_kernel_rejects_measures_and_bad_domain(box_barrier):
    from ccscatter import catalog

    with pytest.raises(MeasureUnsupportedError):
        kernel(catalog.delta_pair(), 0.5, 0.2)
    with pytest.raises(ValueError):
        kernel(box_barrier, 0.2, 0.5)


def test_second_coefficient_matches_brute_force_simplex(box_barrier):
    """b_2 = -iint_{t2<t1} u0 V K u0 via scipy dblquad, fixing the K sign."""
    oracle, _ = dblquad(lambda t2, t1: t1 - t2, 0.0, 1.0, 0.0, lambda t1: t1)
    exp = series_coefficients(box_barrier, 4)
    assert exp.b_coeffs[2] == pytest.approx(-oracle, abs=1e-12)
    assert -oracle == pytest.approx(-1.0 / 6.0, abs=1e-12)


def test_sine_well_first_coefficient(sine_well):
    exp = series_coefficients(sine_well, 6)
    # -int_0^1 sin^2(pi t) (-1) dt = 1/2
    assert exp.b_coeffs[1] == pytest.approx(0.5, abs=1e-12)
    assert exp.a_coeffs[0] == 1.0
    assert exp.b_coeffs[0] == 0.0


def test_flat_box_series_matches_taylor_of_closed_form(box_barrier):
    # b = -sqrt(l) sinh(sqrt(l)), a = cosh(sqrt(l)) - sqrt(l) sinh(sqrt(l))
    exp = series_coefficients(box_barrier, 8)
    assert exp.b_coeffs[1] == pytest.approx(-1.0, abs=1e-12)
    assert exp.b_coeffs[2] == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert exp.b_coeffs[3] == pytest.approx(-1.0 / 120.0, abs=1e-13)
    assert exp.a_coeffs[1] == pytest.approx(-0.5, abs=1e-12)
    assert exp.a_coeffs[2] == pytest.approx(-1.0 / 8.0, abs=1e-12)


def test_zero_perturbation_series_is_trivial(free_problem):
    exp = series_coefficients(free_problem, 5)
    assert np.abs(exp.a_coeffs[1:]).max() <= 1e-14
    assert np.abs(exp.b_coeffs[1:]).max() <= 1e-14


def test_first_coefficient_is_direct_quadrature(spike_free):
    for name, prob in spike_free:
        exp = series_coefficients(prob, 2)

        def integrand(t, part):
            u0, _, _, _ = reference_states(prob, np.array([t]))
            return part(u0[0] ** 2 * prob.V(t))

        re, _ = quad(integrand, 0.0, 1.0, args=(np.real,), limit=300)
        im, _ = quad(integrand, 0.0, 1.0, args=(np.imag,), limit=300)
        assert exp.b_coeffs[1] == pytest.approx(-complex(re, im), abs=1e-10), name


def test_coefficient_bounds_hold(spike_free):
    for name, prob in spike_free:
        exp = series_coefficients(prob, 12)
        for n in range(1, 13):
            bound = exp.coefficient_bound(n)
            slack = bound * 1e-9 + exp.b_quad_err[n]
            assert abs(exp.b_coeffs[n]) <= bound + slack, (name, n)
            a_bound = exp.coefficient_bound(n, leading=exp.Mv_bound)
            assert abs(exp.a_coeffs[n]) <= a_bound + a_bound * 1e-9 + exp.a_quad_err[n], (name, n)


def test_real_reference_gives_real_coefficients(spike_free):
    for name, prob in spike_free:
        if not prob.ref.u0_is_real:
            continue
        exp = series_coefficients(prob, 8)
        assert np.abs(np.imag(exp.a_coeffs)).max() <= 1e-13, name
        assert np.abs(np.imag(exp.b_coeffs)).max() <= 1e-13, name


def test_refinement_independence(sine_well):
    base = series_coefficients(sine_well, 10)
    fine = series_coefficients(
        sine_well, 10, QuadratureSpec(nodes_per_panel=12, panels_per_unit=16)
    )
    for n in range(11):
        tol = base.b_quad_err[n] + fine.b_quad_err[n]
        assert abs(base.b_coeffs[n] - fine.b_coeffs[n]) <= tol


def test_M_constant_known_values(sine_well, box_barrier):
    assert M_constant(sine_well) == pytest.approx(1.01, abs=1e-3)
    assert M_constant(box_barrier) == pytest.approx(1.01, abs=1e-3)


def test_M_constant_scales_with_reference_amplitude():
    base = build_problem(PotentialSpec.zero(), PotentialSpec.constant(1.0), (1.0, 0.0))
    scaled = build_problem(PotentialSpec.zero(), PotentialSpec.constant(1.0), (10.0, 0.0))
    assert M_constant(scaled) == pytest.approx(10.0 * M_constant(base), rel=1e-6)


def _dense_sup_constants(u0, v0):
    """(M, Mv) from the whole 513 x 513 table in complex arithmetic: the reference formula."""
    xs = np.linspace(0.0, 1.0, 513)
    cross = np.abs(u0[:, None] * v0[None, :] - v0[:, None] * u0[None, :])
    dx = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(dx, 1.0)
    ratio = cross / dx
    np.fill_diagonal(ratio, 1.0)  # the limit |W[u0, v0]| = 1
    m = max(float(np.abs(u0).max()), float(ratio.max()))
    return 1.01 * m, 1.01 * float(np.abs(v0).max())


def test_sup_constants_equal_the_dense_complex_table(spike_free):
    xs = np.linspace(0.0, 1.0, 513)
    for name, prob in spike_free:
        u0, _, v0, _ = reference_states(prob, xs)
        assert u0.dtype == complex
        assert series._sup_constants(u0, v0) == _dense_sup_constants(u0, v0), name


def test_sup_constants_hold_no_full_table():
    prob = catalog.traveling_barrier()  # a complex reference
    u0, _, v0, _ = reference_states(prob, np.linspace(0.0, 1.0, 513))
    tracemalloc.start()
    try:
        series._sup_constants(u0, v0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 513 * 513 * 16 // 2  # half of one complex 513 x 513 array


def test_reference_states_on_a_union_equal_separate_walks_bit_for_bit(corpus):
    for name, prob in corpus:
        sets = [
            series._Grid(prob, spec).nodes
            for spec in (QuadratureSpec(), QuadratureSpec().refined())
        ] + [np.linspace(0.0, 1.0, 513)]
        nodes = np.concatenate(sets)
        order = np.argsort(nodes, kind="stable")
        joint = np.empty((4, len(nodes)), dtype=complex)
        joint[:, order] = reference_states(prob, nodes[order])
        start = 0
        for xs in sets:
            alone = np.array(reference_states(prob, xs))
            assert joint[:, start : start + len(xs)].tobytes() == alone.tobytes(), name
            start += len(xs)


def test_series_coefficients_walk_the_reference_once(spike_free, monkeypatch):
    calls = []
    walk = engine.reference_states

    def counting(problem, xs):
        calls.append(len(xs))
        return walk(problem, xs)

    monkeypatch.setattr(engine, "reference_states", counting)
    for name, prob in spike_free:
        calls.clear()
        series_coefficients(prob)
        assert len(calls) == 1, name


def test_evaluate_at_zero_is_exact(sine_well):
    exp = series_coefficients(sine_well, 6)
    val = evaluate_series(exp, 0.0)
    assert val.a == 1.0 and val.b == 0.0 and val.err == 0.0


def test_evaluate_matches_propagation_within_certificate(sine_well):
    exp = series_coefficients(sine_well, 12)
    val = evaluate_series(exp, 1.0)
    ode = coefficients(sine_well, 1.0)
    assert abs(val.b - ode.b) <= val.err
    assert abs(val.a - ode.a) <= val.err
    assert val.method == "series" and ode.method == "ode"


def test_evaluate_far_outside_radius_is_flagged(box_barrier):
    exp = series_coefficients(box_barrier, 8)
    val = evaluate_series(exp, 1e6)
    assert not val.is_usable()
    assert val.err > 1.0


def test_series_ode_agreement_sample(spike_free):
    rng = np.random.default_rng(17)
    for name, prob in spike_free:
        exp = series_coefficients(prob, 16)
        for _ in range(4):
            lam = complex(rng.uniform(-20, 20), rng.uniform(-8, 8))
            lam *= min(1.0, 20.0 / abs(lam))
            sv = evaluate_series(exp, lam)
            ov = coefficients(prob, lam)
            assert abs(sv.b - ov.b) <= sv.err, (name, lam)
            assert abs(sv.a - ov.a) <= sv.err, (name, lam)


def test_crude_quadrature_raises_precision_error(sine_well):
    with pytest.raises(QuadraturePrecisionError):
        series_coefficients(
            sine_well, 8, QuadratureSpec(nodes_per_panel=2, panels_per_unit=1)
        )


def test_series_rejects_measures():
    from ccscatter import catalog

    with pytest.raises(MeasureUnsupportedError):
        series_coefficients(catalog.delta_pair(), 4)
