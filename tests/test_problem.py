"""Problem model: potentials, companion solutions, validated instances."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ccscatter import (
    InvalidProblemError,
    PotentialSpec,
    UnsupportedBackgroundError,
    build_problem,
    catalog,
    transfer_matrix,
    v0_from_u0,
    wronskian,
)
from ccscatter import engine
from ccscatter.engine import reference_states

PI = math.pi


def test_v0_from_u0_known_values():
    assert v0_from_u0((0.0, PI)) == pytest.approx((1.0 / PI, 0.0))
    assert v0_from_u0((1.0, 0.0)) == pytest.approx((0.0, -1.0))
    # least-squares solution of one linear equation in two unknowns,
    # frozen from the numpy.linalg.lstsq oracle
    v = v0_from_u0((1.0, 1j))
    assert v[0] == pytest.approx(-0.5j)
    assert v[1] == pytest.approx(-0.5 + 0.0j)


def test_v0_from_u0_matches_lstsq_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = complex(rng.normal(), rng.normal())
        up = complex(rng.normal(), rng.normal())
        mine = v0_from_u0((u, up))
        row = np.array([[up, -u]])
        oracle, *_ = np.linalg.lstsq(row, np.array([1.0 + 0j]), rcond=None)
        assert mine[0] == pytest.approx(oracle[0], abs=1e-13)
        assert mine[1] == pytest.approx(oracle[1], abs=1e-13)
        assert wronskian((u, up), mine) == pytest.approx(1.0, abs=1e-13)


def test_v0_from_u0_is_minimal_norm():
    u0 = (0.7 + 0.2j, -1.1 + 0.4j)
    v = v0_from_u0(u0)
    base = abs(v[0]) ** 2 + abs(v[1]) ** 2
    for t in (0.3, -0.8, 1j, 0.2 - 0.5j):
        shifted = (v[0] + t * u0[0], v[1] + t * u0[1])
        assert wronskian(u0, shifted) == pytest.approx(1.0, abs=1e-12)
        assert abs(shifted[0]) ** 2 + abs(shifted[1]) ** 2 >= base - 1e-12


def test_v0_from_u0_rejects_zero_data():
    with pytest.raises(InvalidProblemError):
        v0_from_u0((0.0, 0.0))


def test_build_problem_sine_reference():
    prob = build_problem(
        PotentialSpec.constant(-PI * PI), PotentialSpec.constant(-1.0), (0.0, PI)
    )
    assert prob.ref.u0_at_1[0] == pytest.approx(0.0, abs=1e-12)
    assert prob.ref.u0_at_1[1] == pytest.approx(-PI, abs=1e-12)


def test_build_problem_free_reference():
    prob = build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (1.0, 0.0))
    assert prob.ref.u0_at_1 == pytest.approx((1.0, 0.0))
    # v0 = -x from the minimal-norm choice
    assert prob.ref.v0_at_0 == pytest.approx((0.0, -1.0))
    assert prob.ref.v0_at_1 == pytest.approx((-1.0, -1.0))


def test_build_problem_traveling_reference():
    # constant-coefficient closed form u0 = e^{ix}, verified at tightened
    # tolerance
    prob = build_problem(
        PotentialSpec.constant(-1.0), PotentialSpec.zero(), (1.0, 1j)
    )
    assert prob.ref.u0_at_1[0] == pytest.approx(cmath.exp(1j), abs=1e-13)
    assert prob.ref.u0_at_1[1] == pytest.approx(1j * cmath.exp(1j), abs=1e-13)


def test_build_problem_rejects_bad_input():
    with pytest.raises(InvalidProblemError):
        build_problem(PotentialSpec.zero(), PotentialSpec.zero(), (0.0, 0.0))
    with pytest.raises(UnsupportedBackgroundError):
        build_problem(
            PotentialSpec.deltas([(0.5, 1.0)]), PotentialSpec.zero(), (1.0, 0.0)
        )


def test_build_problem_rejects_bad_v0_override(box_barrier):
    with pytest.raises(InvalidProblemError):
        build_problem(
            box_barrier.Q, box_barrier.V, (1.0, 0.0), v0_init=(1.0, 1.0)
        )


def test_wronskian_constancy_across_interval(corpus):
    for name, prob in corpus:
        xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        u0, u0p, v0, v0p = reference_states(prob, xs)
        w = u0p * v0 - u0 * v0p
        assert np.abs(w - 1.0).max() <= 1e-10, name


def test_build_problem_is_deterministic():
    def build():
        return build_problem(
            PotentialSpec.polynomial([1.0, -2.0]),
            PotentialSpec.polynomial([0.0, -3.0, 3.0]),
            (1.0, 0.5j),
        )

    a, b = build(), build()
    assert a == b
    assert a.ref.u0_at_1 == b.ref.u0_at_1  # bit-identical, not just approx


def _built_problems(corpus):
    yield from corpus
    for name in ("delta_pair", "traveling_barrier"):
        yield name + "(0.4)", getattr(catalog, name)(0.4)
    v = PotentialSpec.polynomial([0.0, -3.0, 3.0])
    yield "ramp, complex u0", build_problem(PotentialSpec.polynomial([1.0, -2.0]), v, (1.0, 0.5j))
    yield "explicit v0", build_problem(PotentialSpec.zero(), v, (1.0, 0.0), v0_init=(1.0, -1.0))


def test_build_problem_reads_the_zero_coupling_transfer_matrix(corpus):
    for name, prob in _built_problems(corpus):
        mat = transfer_matrix(prob, 0.0)
        ref = prob.ref
        got = (ref.u0_at_1, ref.v0_at_1)
        want = (mat.apply(ref.u0_at_0), mat.apply(ref.v0_at_0))
        assert repr(got) == repr(want), name  # bit for bit, signed zeros included


def test_build_problem_skips_the_error_bound(corpus, monkeypatch):
    calls = []
    bound = engine._rounding_bound

    def counting(*args):
        calls.append(args)
        return bound(*args)

    monkeypatch.setattr(engine, "_rounding_bound", counting)
    for name, prob in corpus:
        build_problem(prob.Q, prob.V, prob.ref.u0_at_0, k_tag=prob.ref.k_tag, tolerances=prob.tolerances)
        assert calls == [], name
    transfer_matrix(prob, 0.0)
    assert len(calls) == 1  # the counter sees the bound where it is read


def test_l1_norm_additive_under_segment_split():
    whole = PotentialSpec(((0.0, 1.0, (1.0, -2.0)),))
    split = PotentialSpec(
        ((0.0, 0.3, (1.0, -2.0)), (0.3, 1.0, (1.0 - 2.0 * 0.3, -2.0)))
    )
    assert split.l1_norm == pytest.approx(whole.l1_norm, abs=1e-12)


def test_l1_norm_against_quadrature_oracle():
    specs = [
        PotentialSpec.polynomial([1.0, -2.0]),       # sign change at 0.5
        PotentialSpec.polynomial([0.0, -3.0, 3.0]),
        PotentialSpec.from_samples([0.4, -0.2, 0.3, -0.6]),
    ]
    for spec in specs:
        oracle, _ = quad(lambda x: abs(spec(x)), 0.0, 1.0, limit=200)
        assert spec.l1_norm == pytest.approx(oracle, abs=1e-9)


def test_potential_validation_errors():
    with pytest.raises(InvalidProblemError):
        PotentialSpec(((0.0, 0.4, (1.0,)),))  # does not cover [0, 1]
    with pytest.raises(InvalidProblemError):
        PotentialSpec(((0.0, 0.6, (1.0,)), (0.5, 1.0, (1.0,))))  # overlap
    with pytest.raises(InvalidProblemError):
        PotentialSpec(((0.0, 0.4, (1.0,)), (0.6, 1.0, (1.0,))))  # gap
    with pytest.raises(InvalidProblemError):
        PotentialSpec.deltas([(0.7, 1.0), (0.2, 1.0)])  # order
    with pytest.raises(InvalidProblemError):
        PotentialSpec.deltas([(1.5, 1.0)])  # outside [0, 1]


def test_potential_rejects_empty_input():
    with pytest.raises(InvalidProblemError, match="at least one segment"):
        PotentialSpec(())
    for segments in (((0.0, 0.0, (1.0,)), (0.0, 1.0, (2.0,))),  # zero-width first
                     ((0.0, 1.0, (1.0,)), (1.0, 1.0, (2.0,)))):  # zero-width last
        with pytest.raises(InvalidProblemError, match="empty potential segment"):
            PotentialSpec(segments)
    with pytest.raises(InvalidProblemError, match="at least one value"):
        PotentialSpec.from_samples([])


def test_segment_coefficients_are_normalised():
    assert PotentialSpec(((0.0, 1.0, ()),)).segments[0][2] == (0.0,)
    poly = PotentialSpec.polynomial([1, 2, 0])
    assert poly.segments[0][2] == (1.0, 2.0)
    assert poly.max_degree == 1


def test_potential_evaluation():
    ramp = PotentialSpec.from_samples([1.0, -2.0])
    assert ramp(0.25) == 1.0
    assert ramp(0.75) == -2.0
    assert ramp.l1_norm == pytest.approx(1.5)
    poly = PotentialSpec.polynomial([0.0, 1.0])
    assert poly(0.3) == pytest.approx(0.3)
    assert poly.max_degree == 1


def test_segment_at_the_right_end_from_the_right():
    spec = PotentialSpec.from_samples([1.0, 2.0, 3.0])
    assert spec.segment_at(1.0, from_right=True) == spec.segments[-1] == (2 / 3, 1.0, (3.0,))


def test_reference_realness_flag(corpus):
    real = {n for n, p in corpus if p.ref.u0_is_real}
    assert "sine_well" in real and "box_barrier" in real
    assert "delta_pair" not in real and "traveling_barrier" not in real
