"""Propagation engine: closed forms, invariants, adaptivity."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import airy

from ccscatter import (
    IntegrationError,
    PotentialSpec,
    apply_delta,
    build_problem,
    catalog,
    coefficients,
    coefficients_batch,
    propagate,
    transfer_matrix,
)
from ccscatter import engine
from ccscatter.engine import (
    _MAX_SUBSTEPS,
    _matrix_scale,
    _node_values,
    _piece_states,
    _piece_transfer,
    _pieces,
    _step_matrices,
    _sweep_pair,
    _tree_product,
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


def test_transfer_matrix_has_unit_determinant(box_barrier):
    assert abs(transfer_matrix(box_barrier, 4.0).det - 1.0) <= 1e-12


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


def test_step_is_the_sixth_order_magnus_exponential():
    """The closed-form step equals expm of the three-node Magnus Omega.

    With one node row (a constant piece) it equals expm(h A).  Omega is built from 2x2 matrices and their commutators as Blanes, Casas
    and Ros (BIT 2000) write it, with alpha_1 = h A2,
    alpha_2 = (sqrt(15) h / 3)(A3 - A1), alpha_3 = (10 h / 3)(A3 - 2 A2 + A1).
    """
    def comm(x, y):
        return x @ y - y @ x

    rng = np.random.default_rng(11)
    for _ in range(20):
        h = rng.uniform(0.01, 0.5)
        c = rng.normal(0.0, 30.0, 3) + 1j * rng.normal(0.0, 10.0, 3)
        A1, A2, A3 = (np.array([[0.0, 1.0], [ci, 0.0]]) for ci in c)
        a1 = h * A2
        a2 = (math.sqrt(15.0) * h / 3.0) * (A3 - A1)
        a3 = (10.0 * h / 3.0) * (A3 - 2.0 * A2 + A1)
        c1 = comm(a1, a2)
        c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
        omega = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
        want = expm(omega)
        got = np.array(_step_matrices(c[:, None], h)).reshape(2, 2)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # one row: a constant coefficient, whose step is expm(h A) exactly
        want = expm(h * A2)
        got = np.array(_step_matrices(c[1:2, None], h)).reshape(2, 2)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_real_steps_match_the_complex_path():
    """Real c steps in real arithmetic and agrees with the complex step of c + 0j.

    One node row (a constant piece) and three (a varying one), each mixing
    s^2 < 0, s^2 = 0 and s^2 > 0 in one row.  c = 0 gives the free step
    exactly, and an overflowing step is non-finite where the complex one is.
    """
    rng = np.random.default_rng(29)
    h = 0.05
    one = np.array([[-4e4, -400.0, -1e-9, 0.0, 1e-9, 400.0, 4e4]])
    three = np.concatenate((
        rng.normal(0.0, 400.0, (3, 24)),  # rows whose nodes differ in sign
        -np.abs(rng.normal(0.0, 400.0, (3, 8))),
        np.abs(rng.normal(0.0, 400.0, (3, 8))),
        np.zeros((3, 1)),
    ), axis=1)
    for c in (one, three):
        real = _step_matrices(c, h)
        cplx = _step_matrices(c + 0j, h)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        scale = np.abs(cplx).max(axis=(0, 1))
        assert np.all(np.abs(real - cplx).max(axis=(0, 1)) <= 8 * np.finfo(float).eps * scale)
        free = _step_matrices(np.zeros((len(c), 1)), h)[..., 0]
        assert np.array_equal(free, [[1.0, h], [0.0, 1.0]])
        huge = np.concatenate((c, 1e9 * np.abs(c[:, :3])), axis=1)
        real, cplx = _step_matrices(huge, 1.0), _step_matrices(huge + 0j, 1.0)
        assert not np.isfinite(real).all()
        assert np.array_equal(np.isfinite(real), np.isfinite(cplx))


@pytest.mark.parametrize("name", ["ramp_well", "tilted_background"])
def test_tree_product_matches_sequential_product(name):
    """The pairwise tree of a piece's steps equals the step-by-step product.

    At n <= 3 and |lam| ~ 1e4 one sixth-order step overflows (Omega grows
    like h^3 |c|^2), so the step-by-step product is itself non-finite
    there; the tree must be non-finite at the same couplings, and both
    are compared where the step-by-step product is finite.  At lam = 0 the
    prefix states of _piece_states also equal the running step-by-step
    product after every step.
    """
    piece = _varying_piece(name)
    rng = np.random.default_rng(13)
    for L in (1, 16):
        radii = 10.0 ** rng.uniform(0.0, 4.0, L)
        complex_lams = radii * np.exp(2j * PI * rng.uniform(0.0, 1.0, L))
        for n in (1, 2, 3, 5, 7, 64, 4607):
            for lams in (complex_lams, complex_lams.real):
                q, v, h = _node_values(piece, n)
                coeffs = lams[:, None] * v[:, None, :] + q[:, None, :]
                raw = _step_matrices(coeffs, h)
                steps = _matrices_last(raw)  # (L, n, 2, 2)
                M = steps[:, 0]
                with np.errstate(over="ignore", invalid="ignore"):
                    for i in range(1, n):
                        M = steps[:, i] @ M
                    tree = _matrices_last(_tree_product(raw))
                finite = np.isfinite(M).all(axis=(1, 2))
                assert np.array_equal(np.isfinite(tree).all(axis=(1, 2)), finite), (L, n)
                diff = np.abs(tree[finite] - M[finite]).max(axis=(1, 2))
                assert np.all(diff <= 1e-12 * np.abs(M[finite]).max(axis=(1, 2))), (L, n)
    for n in (1, 2, 3, 5, 7, 64, 4607):
        q, _, h = _node_values(piece, n)
        steps = _matrices_last(_step_matrices(q, h))  # lam = 0: (n, 2, 2)
        running = np.empty_like(steps)
        running[0] = M = steps[0]
        for i in range(1, n):
            running[i] = M = steps[i] @ M
        states = _matrices_last(_piece_states(piece, n))
        diff = np.abs(states - running).max(axis=(1, 2))
        assert np.all(diff <= 1e-12 * np.abs(running).max(axis=(1, 2))), n


# the mixed walk's varying piece starts at x0 = 0.3, where the node offsets
# (x0 + h k) - x0 round
@pytest.mark.parametrize("name", ["ramp_well", "tilted_background", "mixed_walk"])
def test_sweep_pair_members_equal_unblocked_products_bit_for_bit(name):
    """Both members of _sweep_pair are the unblocked trees at n and 2n.

    The coarse member comes from steps at the fine length and 4c, rescaled
    by diag(1, 2), and both members are multiplied in blocks; neither may
    change a bit wherever the unblocked product is finite, and both are
    non-finite where it is.  L = 129 at n = 4097 runs hundreds of blocks.
    """
    piece = _varying_piece(name)
    rng = np.random.default_rng(31)
    for L in (1, 3, 16, 129):
        radii = 10.0 ** rng.uniform(0.0, 4.0, L)
        complex_lams = radii * np.exp(2j * PI * rng.uniform(0.0, 1.0, L))
        for n in (4, 5, 63, 64, 65, 269, 4097):
            for lams in (complex_lams, complex_lams.real):
                with np.errstate(over="ignore", invalid="ignore"):
                    members = _sweep_pair(piece, lams, n)
                for got, steps in zip(members, (n, 2 * n)):
                    want = _unblocked_product(piece, lams, steps)
                    assert got.dtype == want.dtype, (L, n)
                    finite = np.isfinite(want).all(axis=(0, 1))
                    assert np.array_equal(np.isfinite(got).all(axis=(0, 1)), finite), (L, steps)
                    assert np.array_equal(got[..., finite], want[..., finite]), (L, steps)


def test_sweep_pair_memory_stays_within_a_few_blocks():
    """129 complex couplings at n = 4096: the traced peak of one pair.

    The unit, 16 B x 4 x _BLOCK_ENTRIES, is one block's complex step
    matrices.  The block buffers, the kernel's temporaries and the node
    values take about 6 units, and finished blocks are merged as they
    come, so 8 units hold whatever n is; a stack of the 256 block products
    of both members would alone take 8.
    """
    piece = _varying_piece("ramp_well")
    lams = 1e3 * np.exp(2j * PI * (np.arange(129) + 0.5) / 129)
    _sweep_pair(piece, lams, 64)  # warm caches outside the trace
    tracemalloc.start()
    try:
        _sweep_pair(piece, lams, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * 4 * engine._BLOCK_ENTRIES, peak


def _matrices_last(x):
    """The engine's (2, 2, ...) matrices as (..., 2, 2), for matmul."""
    return np.moveaxis(x, (0, 1), (-2, -1))


def _varying_piece(name):
    problem = _mixed_walk_problem() if name == "mixed_walk" else getattr(catalog, name)()
    (piece,) = (p for p in _pieces(problem) if not p.is_constant)
    return piece


def _unblocked_product(piece, lams, n):
    """The n-step product of a piece as one unblocked pairwise tree, (2, 2, L).

    Couplings are taken 16 at a time, which keeps the arrays small and
    changes no bit: the tree is elementwise in the coupling.
    """
    q, v, h = _node_values(piece, n)
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(lams), 16):
            c = lams[i : i + 16, None] * v[:, None, :] + q[:, None, :]
            parts.append(_tree_product(_step_matrices(c, h)))
    return np.concatenate(parts, axis=-1)


def _counting_sweeps(monkeypatch):
    """Record the sub-step counts of both members of every pair the engine sweeps."""
    counts = []
    sweep_pair = engine._sweep_pair

    def counting(piece, lams, n):
        counts.extend((n, 2 * n))
        return sweep_pair(piece, lams, n)

    monkeypatch.setattr(engine, "_sweep_pair", counting)
    return counts


@pytest.mark.parametrize("name", ["ramp_well", "tilted_background"])
def test_refinement_meets_rtol_and_its_error_bound(name):
    """The accepted pair passes rtol, and its estimate bounds the step error.

    The reference is the unblocked product of _MAX_SUBSTEPS steps.  Its own rounding
    reaches about 2e-12 of the matrix scale at |lam| = 1e4, so the bound
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
                M, rel, _ = _piece_transfer(piece, lams, rtol)
                M_ref = _unblocked_product(piece, lams, _MAX_SUBSTEPS)
                scale = _matrix_scale(M) + 1.0
                assert np.all(rel <= rtol), (L, rtol)
                diff = _matrix_scale(M - M_ref)
                assert np.all(diff <= (rel + 1e-11) * scale), (L, rtol)


def test_predicted_step_count_needs_few_sweeps(monkeypatch):
    """ramp_well at lam = 98: pairs (9, 18) and (174, 348) (the fourth-order
    step needed 9, 18, 2101, 4202, and step doubling 9 -> 4608 in 10 sweeps)."""
    piece = _varying_piece("ramp_well")
    counts = _counting_sweeps(monkeypatch)
    _, rel, _ = _piece_transfer(piece, np.array([98.0 + 0j]), 1e-12)
    assert rel[0] <= 1e-12
    assert counts, "no sweep was recorded"
    assert len(counts) <= 4, counts
    assert sum(counts) <= 1000, counts


def test_failed_pair_steps_its_predicted_count(monkeypatch):
    """tilted_background on 101 real couplings over [-1e5, 1e5]: the pair
    (123, 246) fails and predicts n = 189, whose pair is swept next; the
    prediction already exceeds 1.1 n, so no floor at 2n is needed, and one
    would sweep (246, 492), recomputing the finer member."""
    counts = _counting_sweeps(monkeypatch)
    engine.transfer_matrices(catalog.tilted_background(), np.linspace(-1e5, 1e5, 101))
    assert counts == [4, 8, 23, 46, 123, 246, 189, 378]


def test_unreachable_rtol_exhausts_within_the_step_cap(monkeypatch):
    """A tolerance below rounding goes to the largest pair without creeping up."""
    piece = _varying_piece("ramp_well")
    counts = _counting_sweeps(monkeypatch)
    with pytest.raises(IntegrationError, match="step refinement exhausted"):
        _piece_transfer(piece, np.array([98.0 + 0j]), 1e-17)
    assert counts, "no sweep was recorded"
    assert max(counts) == _MAX_SUBSTEPS, counts
    assert sum(counts) <= 49179, counts  # 9, 18, then the pair (16384, 32768)


def test_first_pair_is_resolving_and_within_the_largest_pair(nine_root, monkeypatch):
    """The first pair's n is at most the resolving count, its fine member at most _MAX_SUBSTEPS.

    A first n guessed from the nine-root V's largest coefficient, 2.4e5 where
    max|V| = 1, was (24558, 49116) at lam = 1e4 and (32768, 65536) from 1e5
    on, 25x to 60x the resolving count; tilted_background at 3e9 started at
    (21214, 42428).  b still meets a reference at rtol 1e-11 within the two
    errs.
    """
    counts = _counting_sweeps(monkeypatch)
    cases = [(nine_root, lam) for lam in (1e3, 1e4, 1e5, 1e5j)]
    for prob, lam in cases + [(catalog.tilted_background(), 3e9)]:
        counts.clear()
        got = coefficients(prob, lam)
        (piece,) = _pieces(prob)
        assert counts[0] <= engine._resolving_substeps(piece, np.array([lam])), (lam, counts)
        assert counts[1] <= _MAX_SUBSTEPS, (lam, counts)
        if prob is nine_root:
            ref = coefficients(prob, lam, rtol=1e-11)
            assert abs(got.b - ref.b) <= got.err + ref.err, lam


@pytest.mark.parametrize("lam", [300.0, 1e3 * cmath.exp(0.7j)])
def test_pair_differences_fall_at_sixth_order(lam):
    """Each doubling of the step count divides the pair difference by ~64.

    A fourth-order step falls by about 16; dropping the commutator term
    -a h/12 from p or b/12 from r also fails the bound.
    """
    piece = _varying_piece("ramp_well")
    lams = np.array([complex(lam)])
    coarse, mid, fine = (_unblocked_product(piece, lams, n) for n in (128, 256, 512))
    ratio = _matrix_scale(mid - coarse)[0] / _matrix_scale(fine - mid)[0]
    assert ratio >= 50.0, ratio


@pytest.mark.parametrize("name", ["ramp_well", "tilted_background"])
def test_coefficients_at_coupling_1e5(name):
    """|lam| = 1e5 at the corpus tolerance, against a 2**16-step reference.

    The reference is formed in long double: in double, the rounding of
    2**16 near-identity steps reaches about 2e-12 of the scale.  The
    reported error bounds the difference with no slack, and stays within
    3e-11 of the scale.
    """
    prob = getattr(catalog, name)()
    (piece,) = _pieces(prob)
    lams = np.array([1e5, -1e5, 1e5j])
    q, v, h = _node_values(piece, 1 << 16)
    c = lams.astype(np.clongdouble)[:, None] * v[:, None, :] + q.astype(np.longdouble)[:, None, :]
    M = _tree_product(_step_matrices(c, h)).reshape(4, -1).astype(complex)
    (u0, u0p), (u1, u1p), (v1, v1p) = prob.ref.u0_at_0, prob.ref.u0_at_1, prob.ref.v0_at_1
    u, up = M[0] * u0 + M[1] * u0p, M[2] * u0 + M[3] * u0p
    want_a, want_b = v1 * up - v1p * u, u1p * u - u1 * up
    for lam, a, b in zip(lams, want_a, want_b):
        got = coefficients(prob, lam)
        scale = max(1.0, abs(a), abs(b))
        assert max(abs(got.a - a), abs(got.b - b)) <= got.err <= 3e-11 * scale, lam


def test_batch_with_a_large_coupling_returns():
    _, b, _ = coefficients_batch(catalog.ramp_well(), [1.0, 1e5])
    assert np.all(np.isfinite(b))


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


def test_overflow_on_a_varying_piece_raises_without_a_warning():
    """The sweep is checked for overflow before a pair difference is formed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="propagation overflowed"):
            coefficients(catalog.ramp_well(), -3e6)


@pytest.mark.parametrize(
    "name, lam",
    [
        ("sine_well", 1e6j),
        ("sine_well", 3e6 + 3e6j),
        ("traveling_barrier", 1e6j),
        ("traveling_barrier", 3e6 + 3e6j),
        ("noise_bed", 1e7),
        ("noise_bed", -1e7),
        ("noise_bed", 3e6 + 3e6j),
    ],
)
def test_overflow_in_the_walk_raises_without_a_warning(name, lam):
    """Non-finite steps or products raise before numpy warns about them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite"):
            coefficients_batch(getattr(catalog, name)(), [1.0, lam])


def _mixed_walk_problem():
    """Constant, varying and constant pieces, with spikes at 0, at the first cut and at 1."""
    Q = PotentialSpec(((0.0, 0.3, (2.0,)), (0.3, 0.7, (1.0, -4.0, 5.0)), (0.7, 1.0, (-3.0,))))
    V = PotentialSpec(
        ((0.0, 0.3, (-1.0,)), (0.3, 0.7, (0.5, 2.0)), (0.7, 1.0, (1.5,))),
        ((0.0, 0.4), (0.3, -0.7), (1.0, 0.25)),
    )
    return build_problem(Q, V, (1.0, 0.0))


def _sequential_walk(prob, lams):
    """Product, in walk order and by matmul, of each piece's matrix and the spike jumps."""

    def jump(weight):
        out = np.zeros((len(lams), 2, 2), dtype=complex)
        out[:, 0, 0] = out[:, 1, 1] = 1.0
        out[:, 1, 0] = lams * weight
        return out

    M = jump(0.0)
    for item in engine._layout(prob.Q, prob.V):
        if isinstance(item, engine._Piece):
            Mp, _, _ = _piece_transfer(item, lams, prob.tolerances.ode_rtol)
            M = _matrices_last(Mp) @ M
        else:
            M = jump(item) @ M
    return M


def test_walk_mixing_constant_and_varying_pieces():
    prob = _mixed_walk_problem()
    walk = engine._layout(prob.Q, prob.V)
    # spikes as their weights; pieces as whether they are constant
    kinds = [item.is_constant if isinstance(item, engine._Piece) else item for item in walk]
    assert kinds == [0.4, True, -0.7, False, True, 0.25]
    rng = np.random.default_rng(23)
    radii = 10.0 ** rng.uniform(0.0, 3.0, 12)
    lams = radii * np.concatenate((np.exp(2j * PI * rng.uniform(size=6)), [1, -1] * 3))
    M, bound = transfer_matrices(prob, lams)
    assert M.shape == bound.shape == (len(lams), 2, 2)
    assert np.all(np.abs(M - _sequential_walk(prob, lams)) <= bound)
    for lam in lams:
        M1, bound1 = transfer_matrices(prob, [lam])
        assert np.all(np.abs(M1 - _sequential_walk(prob, np.array([lam]))) <= bound1), lam


@pytest.mark.parametrize("name", ["noise_bed", "sine_well", "delta_pair"])
def test_constant_pieces_take_one_kernel_call(name, monkeypatch):
    calls = []
    step_matrices = engine._step_matrices

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return step_matrices(*args, **kwargs)

    monkeypatch.setattr(engine, "_step_matrices", counting)
    prob = getattr(catalog, name)()
    for lams in ([1.0], np.linspace(-50.0, 50.0, 16) + 2j):
        calls.clear()
        transfer_matrices(prob, lams)
        assert len(calls) == 1, calls


def test_reference_states_closed_form(sine_well):
    xs = np.linspace(0.0, 1.0, 7)
    u0, u0p, v0, v0p = reference_states(sine_well, xs)
    assert u0 == pytest.approx(np.sin(PI * xs), abs=1e-12)
    assert u0p == pytest.approx(PI * np.cos(PI * xs), abs=1e-12)
    assert v0 == pytest.approx(np.cos(PI * xs) / PI, abs=1e-12)


def test_reference_states_on_a_varying_piece_against_airy():
    """tilted_background at lam = 0: u'' = (1 - 2x) u, Airy in z = (1 - 2x) / 4^(1/3).

    Nodes: the 513-point grid, the sub-step grid of the accepted sweep and
    its midpoints, repeated nodes, and both ends.
    """
    prob = catalog.tilted_background()
    (piece,) = _pieces(prob)
    _, _, n = _piece_transfer(piece, np.zeros(1), prob.tolerances.ode_rtol)
    grid = np.arange(n + 1) / n
    xs = np.sort(np.concatenate((
        np.linspace(0.0, 1.0, 513), grid, grid[:-1] + 0.5 / n,
        [0.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, 0.5, 1.0, 1.0],
    )))
    k = 4.0 ** (-1.0 / 3.0)

    def airy_basis(x):  # (Ai, Bi) and their x-derivatives as columns
        ai, aip, bi, bip = airy(k * (1.0 - 2.0 * x))
        return np.moveaxis(np.array([[ai, bi], [-2.0 * k * aip, -2.0 * k * bip]]), -1, 0)

    init = np.array([prob.ref.u0_at_0, prob.ref.v0_at_0]).T
    want = airy_basis(xs) @ np.linalg.solve(airy_basis(np.array([0.0]))[0], init)
    u0, u0p, v0, v0p = reference_states(prob, xs)
    assert np.abs(u0 - want[:, 0, 0]).max() <= 1e-11
    assert np.abs(u0p - want[:, 1, 0]).max() <= 1e-11
    assert np.abs(v0 - want[:, 0, 1]).max() <= 1e-11
    assert np.abs(v0p - want[:, 1, 1]).max() <= 1e-11


def test_reference_states_sweep_each_piece_once(corpus, monkeypatch):
    calls = []
    piece_transfer = engine._piece_transfer

    def counting(piece, lams, rtol):
        calls.append(piece)
        return piece_transfer(piece, lams, rtol)

    monkeypatch.setattr(engine, "_piece_transfer", counting)
    for name, prob in corpus:
        calls.clear()
        reference_states(prob, np.linspace(0.0, 1.0, 513))
        assert calls == list(_pieces(prob)), name


def test_reference_states_reject_nodes_outside_the_interval():
    prob = catalog.ramp_well()
    for xs in ([0.25, math.nan], [math.nan, 0.5], [-0.5, 0.5], [0.5, 1.5]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"xs must lie in \[0, 1\]"):
                reference_states(prob, xs)


def test_reference_states_reject_two_dimensional_or_decreasing_nodes():
    prob = catalog.ramp_well()
    with pytest.raises(ValueError, match="one-dimensional"):
        reference_states(prob, [[0.25, 0.5]])
    with pytest.raises(ValueError, match="nondecreasing"):
        reference_states(prob, [0.5, 0.25])


def test_real_couplings_return_complex_results(corpus):
    """Real couplings step in real arithmetic, yet the results stay complex.

    Real input and the same input + 0j give bit-identical matrices.  A
    batch with one complex coupling steps its real members in complex
    arithmetic, and they agree with the all-real batch within the summed
    error bounds.
    """
    lams = np.array([-300.0, -1.0, 0.0, 2.5, 40.0, 1e3])
    for name, prob in corpus:
        M, bound = transfer_matrices(prob, lams)
        M0, bound0 = transfer_matrices(prob, lams + 0j)
        assert M.dtype == np.complex128, name
        assert np.array_equal(M, M0) and np.array_equal(bound, bound0), name
        a, b, err = coefficients_batch(prob, lams)
        assert a.dtype == b.dtype == np.complex128, name
        ac, bc, errc = (x[:-1] for x in coefficients_batch(prob, [*lams, 3.0 + 2.0j]))
        assert np.all(np.abs(a - ac) <= err + errc), name
        assert np.all(np.abs(b - bc) <= err + errc), name


def test_interior_spike_jump():
    prob = build_problem(
        PotentialSpec.zero(), PotentialSpec.deltas([(0.5, 2.0)]), (1.0, 0.0)
    )
    # u = 1 up to 0.5, where u' jumps by lam * 2 = 6; then u = 1 + 6 (x - 0.5)
    assert propagate(prob, 3.0, (1.0, 0.0)) == pytest.approx((4.0, 6.0))
