"""Propagation engine for -u'' + (Q + lam*V) u = 0 on [0, 1].

The interval is split at every polynomial breakpoint and spike position.
On each piece the coefficient c(x) = Q(x) + lam*V(x) is a single
polynomial and the first-order system (u, u') is advanced with the
three-point Gauss Magnus step of order six (Blanes, Casas and Ros, BIT
2000).  With A = [[0, 1], [c, 0]] at the nodes 1/2 -/+ sqrt(15)/10 and
1/2, its nested commutators are closed-form in c, so

    Omega = [[p, q], [r, -p]],
    exp(Omega) = cosh(s) I + sinh(s)/s * Omega,   s^2 = p^2 + q r,

is traceless and the step has unit determinant by construction: the
Wronskian of solution pairs is preserved to rounding no matter how coarse
the subdivision is.  The step is exact on constant-coefficient pieces.
Pieces with genuinely varying coefficients are swept with step pairs
(n, 2n) until the Richardson error estimate meets the problem tolerance; a
failed pair predicts the next n from the step's sixth order.  The members
of a pair step together.  Omega of a step of length 2h at c is Omega of a
step of length h at 4c conjugated by D = diag(1, 2), so the coarse step is
D^-1 E(h, 4c) D, and bit for bit: every product and sum in the step scales
by a power of two.  One kernel call at the fine length h steps both
members, which then share one pairwise tree, and each member is the
product that a sweep of its own would give.

Everything is vectorized over a batch of coupling values: the same
subdivision is applied to every lam in the batch.  Every 2x2 matrix is held
axes first, as a (2, 2, ...) array, and ``_mul`` is the one product; the
steps of a piece are multiplied by a pairwise reduction in log2(n) levels.
Every layer follows the dtype of the couplings: a batch of real couplings
steps in real arithmetic (``_cosh_sinhc``), and one complex coupling makes
the whole batch complex.

``_layout`` is the one place that decides how [0, 1] is walked: it returns the
walk from 0- to 1+, the pieces in order and each spike of nonzero weight as its
weight between the pieces it separates.  A spike contributes the jump
u' -> u' + lam * weight * u.  ``_walk`` steps that walk, and it has two
read-outs: the product with its bound (``transfer_matrices``), of which every
whole-interval quantity (coefficients, reflection, ``propagate``,
``transfer_matrix``) is a read-out, and the product alone (``_product``) of Q
and V, for ``build_problem``, which has no problem yet.  Spectral's phase count
walks the same layout, with the same step kernel, node values and pairwise
tree.  States inside a piece come from ``_piece_states``, the products of the
first k steps for every k, which ``reference_states`` reads at lam = 0, where
spikes are the identity.  A piece caches ``l1_norms`` (integrals of |Q|, |V|)
for the error bound and ``ranges`` ((min, max) of Q, V) for the tent floor and
``_resolving_substeps``, the one step count that resolves a varying piece.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IntegrationError
from .problem import Pair, PotentialSpec, ScatteringProblem, _segment_abs_integral

# Gauss-Legendre 3-point nodes of a unit step, as a column: 1/2 + (-1, 0, 1) sqrt(15)/10
_GAUSS_NODES = 0.5 + np.array([[-1.0], [0.0], [1.0]]) * (math.sqrt(15.0) / 10.0)
_MAX_SUBSTEPS = 1 << 15
_EPS = float(np.finfo(float).eps)
_BLOCK_ENTRIES = 1 << 13  # steps x couplings per kernel block, both members of a pair counted
_ROUNDING = 4.0  # the error bound's rounding, in units of eps (see _rounding_bound)
_IDENTITY = np.eye(2)[:, :, None]  # broadcasts over a batch


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 complex matrix propagating (u, u') across [0, 1] at one coupling.

    ``entries`` maps left data to right data *after* any spike at x = 1 has
    been applied.  The determinant equals 1 up to rounding.  ``err_estimate``
    is the largest entry of the error bound of ``transfer_matrices``.
    """

    entries: tuple[tuple[complex, complex], tuple[complex, complex]]
    lam: complex
    err_estimate: float

    @property
    def det(self) -> complex:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    def apply(self, state: Pair) -> Pair:
        (a, b), (c, d) = self.entries
        u, up = complex(state[0]), complex(state[1])
        return (a * u + b * up, c * u + d * up)


# ---------------------------------------------------------------------------
# piece decomposition


@dataclass(frozen=True)
class _Piece:
    x0: float
    x1: float
    q_coeffs: tuple[float, ...]  # local to x0
    v_coeffs: tuple[float, ...]  # local to x0

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    @property
    def is_constant(self) -> bool:
        return len(self.q_coeffs) == 1 and len(self.v_coeffs) == 1

    @functools.cached_property
    def l1_norms(self) -> tuple[float, ...]:  # exact integrals of |Q| and |V| over the piece
        return tuple(_segment_abs_integral(self.length, c) for c in (self.q_coeffs, self.v_coeffs))

    @functools.cached_property
    def ranges(self) -> tuple[tuple[float, float], ...]:  # (min, max) of Q and of V over the piece
        out = []  # from the ends and the real parts of the derivative's roots inside
        for c in (self.q_coeffs, self.v_coeffs):
            ts = npoly.polyroots(npoly.polyder(c)).real
            ys = npoly.polyval([0.0, self.length, *ts[(ts > 0.0) & (ts < self.length)]], c)
            out.append((float(ys.min()), float(ys.max())))
        return tuple(out)


def _local_coeffs(pot: PotentialSpec, x: float) -> tuple[float, ...]:
    """Coefficients in powers of (xi - x) of the segment of pot right of x."""
    lo, _, c = pot.segment_at(x, from_right=True)
    if len(c) == 1 or x == lo:
        return c
    shifted = np.polynomial.Polynomial(c)(np.polynomial.Polynomial([x - lo, 1.0]))
    return tuple(float(a) for a in shifted.coef)


@functools.lru_cache(maxsize=256)
def _layout(q: PotentialSpec, v: PotentialSpec) -> tuple[_Piece | float, ...]:
    """How [0, 1] is walked, from 0- to 1+: pieces, and spikes as their weights.

    Pieces are split at every breakpoint and spike position, so each spike
    of nonzero weight sits between the pieces it separates; one at 0 comes
    first, one at 1 last.
    """
    spikes = dict(v.spikes)
    cuts = sorted(set(q.breakpoints) | set(v.breakpoints) | set(spikes))
    cuts = [c for c in cuts if 0.0 <= c <= 1.0]
    if cuts[0] != 0.0:
        cuts.insert(0, 0.0)
    if cuts[-1] != 1.0:
        cuts.append(1.0)
    walk = [spikes.get(0.0, 0.0)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        walk += [_Piece(lo, hi, _local_coeffs(q, lo), _local_coeffs(v, lo)), spikes.get(hi, 0.0)]
    return tuple(item for item in walk if isinstance(item, _Piece) or item)


def _pieces(problem: ScatteringProblem) -> tuple[_Piece, ...]:
    return tuple(item for item in _layout(problem.Q, problem.V) if isinstance(item, _Piece))


# ---------------------------------------------------------------------------
# Magnus stepping (batched over couplings)


def _cosh_sinhc(s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh(s) and sinh(s)/s for s = sqrt(s2), in the dtype of s2, which is overwritten.

    Complex s comes from real functions of Re s and Im s.  Real s2 needs no
    complex number: with r = sqrt|s2|, s2 < 0 gives cos r and sin(r)/r, and
    s2 >= 0 gives cosh r and sinh(r)/r.
    """
    ch = np.empty_like(s2)
    shc = np.empty_like(s2)
    if np.iscomplexobj(s2):
        s = np.sqrt(s2, out=s2)
        chx, shx = np.cosh(s.real), np.sinh(s.real)
        cy, sy = np.cos(s.imag), np.sin(s.imag)
        np.multiply(chx, cy, out=ch.real)
        np.multiply(shx, sy, out=ch.imag)
        np.multiply(shx, cy, out=shc.real)
        np.multiply(chx, sy, out=shc.imag)
        del chx, shx, cy, sy
    else:
        grows = s2 >= 0.0
        s = np.sqrt(np.abs(s2, out=s2), out=s2)  # r = sqrt|s2|
        np.cosh(s, out=ch, where=grows)
        np.sinh(s, out=shc, where=grows)
        np.logical_not(grows, out=grows)
        np.cos(s, out=ch, where=grows)
        np.sin(s, out=shc, where=grows)
    shc /= s
    if not s.all():
        shc[s == 0.0] = 1.0  # the limit; the quotient is accurate for all s != 0
    return ch, shc


def _step_matrices(c: np.ndarray, h, out: np.ndarray | None = None) -> np.ndarray:
    """exp(Omega) for one sixth-order Magnus step, as a (2, 2, ...) array.

    ``c`` holds c = Q + lam*V at the step's Gauss nodes, one row per node:
    three rows c1, c2, c3 on a varying piece, one row on a constant piece.
    The result's trailing axes are a row's; ``h`` is the step length, a
    float or an array that broadcasts against a row.  The entries have the
    dtype of ``c``, real or complex, at least double, and are written into
    ``out`` if given.  With a = (sqrt(15)/3) h (c3 - c1) and
    b = (10/3) h (c3 - 2 c2 + c1), the Magnus exponent is
    Omega = [[p, q], [r, -p]] where

        p = a (h^3 c2/180 + h^2 b/7200 - h/12)
        q = h - h^2 b/180 + h^3 a^2/3600
        r = h c2 + b (1/12 + h^2 c2/180 + h b/3600) + h a^2 (h^2 c2/3600 - 1/120).

    On a constant piece a = b = 0, so Omega = h [[0, 1], [c, 0]] exactly,
    and those terms are not formed.  Intermediates are freed as soon as
    they are used and p, q, r are scaled in place.  Overflow at extreme
    couplings produces non-finite entries here; the callers detect them and
    raise IntegrationError, so warnings are suppressed rather than
    surfaced.
    """
    hh = h * h
    dtype = np.result_type(c, float)
    out = np.empty((2, 2) + c.shape[1:], dtype=dtype) if out is None else out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if len(c) == 1:
            ch, shc = _cosh_sinhc(np.multiply(c[0], hh, dtype=dtype))
            shc *= h
            out[0, 0] = out[1, 1] = ch
            out[0, 1] = shc
            np.multiply(shc, c[0], out=out[1, 0])
            return out
        c1, c2, c3 = c
        a = np.multiply(c3 - c1, (math.sqrt(15.0) / 3.0) * h, dtype=dtype)
        b = c3 + c1
        b -= 2.0 * c2
        b *= (10.0 / 3.0) * h
        a2 = a * a
        q = a2 * (hh * h / 3600.0)
        q -= (hh / 180.0) * b
        q += h
        r = (hh * h / 3600.0) * c2
        r -= h / 120.0
        r = a2 * r
        del a2
        t = (hh / 180.0) * c2
        t += (h / 3600.0) * b
        t += 1.0 / 12.0
        t *= b
        r += t
        r += h * c2
        t = (hh * h / 180.0) * c2
        t += (hh / 7200.0) * b
        t -= h / 12.0
        p = a * t
        del a, b, t
        s = p * p
        s += q * r
        ch, shc = _cosh_sinhc(s)
        del s
        p *= shc
        np.multiply(q, shc, out=out[0, 1])
        np.multiply(r, shc, out=out[1, 0])
        del q, r, shc
        np.add(ch, p, out=out[0, 0])
        np.subtract(ch, p, out=out[1, 1])
        return out


def _starts(piece: _Piece, h: float, k: np.ndarray) -> np.ndarray:
    """Where the sub-steps k of length h start, as offsets (x0 + h k) - x0 from x0."""
    return (piece.x0 + h * k) - piece.x0


def _node_values(
    piece: _Piece, n: int, lo: int = 0, hi: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Q and V at the Gauss nodes of sub-steps lo..hi - 1 of n equal ones: (q, v, h).

    ``q`` and ``v`` have one row per node, shape (3, hi - lo) on a varying
    piece and (1, hi - lo) on a constant one, where c is the same at every
    node; ``h`` is the sub-step length, and all n sub-steps by default.
    ``_piece_states`` and spectral's phase count (a block at a time) form
    c = Q + lam*V from them, and the sweep places both members' nodes on the
    same ``_starts``, so the coefficients, the states and the eigenvalue
    counts use one discretization.
    """
    h = piece.length / n
    xs = _starts(piece, h, np.arange(lo, n if hi is None else hi)) + _nodes(piece) * h
    return npoly.polyval(xs, piece.q_coeffs), npoly.polyval(xs, piece.v_coeffs), h


def _nodes(piece: _Piece) -> np.ndarray:
    """Gauss nodes of a unit step on this piece: the midpoint alone if it is constant."""
    return _GAUSS_NODES[1:2] if piece.is_constant else _GAUSS_NODES


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2x2 matrices stored axes first, (2, 2, ...): faster than matmul."""
    out = np.multiply(a[:, :1], b[None, 0], out=out)
    out += a[:, 1:] * b[None, 1]
    return out


def _tree_product(steps: np.ndarray, combine=_mul) -> np.ndarray:
    """Product over the last axis of (..., n) elements, as a pairwise tree.

    Each level combines neighbours, ``combine(later, earlier)``; an odd last
    element waits for the next level.  The result has the last axis removed.
    With the default ``_mul`` the elements are (2, 2, ..., n) matrices;
    spectral's phase count passes its product of lifted elements.
    """
    while steps.shape[-1] > 1:
        m = steps.shape[-1] // 2 * 2
        pairs = combine(steps[..., 1:m:2], steps[..., 0:m:2])
        steps = np.concatenate((pairs, steps[..., m:]), axis=-1) if m < steps.shape[-1] else pairs
    return steps[..., 0]


def _sweep_pair(piece: _Piece, lams: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices (2, 2, L) across a varying piece: (n steps, 2n steps).

    Q and V of both members are read in one pass, per node as (fine 2i,
    fine 2i + 1, coarse i) with 4Q and 4V in the coarse row, whose nodes lie
    2 G h past the start of fine step 2i: bit for bit those of n steps, as
    halving and doubling are exact.  So one kernel call at the fine length h
    steps a block of 2k fine and k coarse sub-steps; the coarse product is
    rescaled by diag(1, 2) at the end (see the module docstring).  After the
    fine tree's first level both members finish one pairwise tree as a batch
    of 2L.  k is a power of two and the block products join the tree as they
    come, in aligned runs (a binary counter), so blocking changes no rounding
    and costs no memory per block.  Every block reuses the same buffers.
    """
    h = piece.length / (2 * n)
    starts, nodes = _starts(piece, h, np.arange(2 * n)), _nodes(piece) * h
    xs = np.stack((starts[0::2] + nodes, starts[1::2] + nodes, starts[0::2] + 2.0 * nodes), 1)
    q, v = (npoly.polyval(xs, c) * [[1.0], [1.0], [4.0]] for c in (piece.q_coeffs, piece.v_coeffs))
    L = len(lams)
    # k >= 2: a block's product is then never a view of the buffer the next block reuses
    k = min(n, 1 << max(1, (_BLOCK_ENTRIES // (3 * max(1, L))).bit_length() - 1))
    dtype = np.result_type(lams, float)
    c_buffer = np.empty(9 * L * k, dtype=dtype)
    step_buffer = np.empty(16 * L * k, dtype=dtype)  # even, odd, coarse, fine pairs
    runs = []  # (length in blocks, product) of aligned runs of blocks, longest first
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, n, k):
            w = min(k, n - j)
            c = c_buffer[: 9 * L * w].reshape(3, 3, L, w)
            np.multiply(lams[:, None], v[:, :, None, j : j + w], out=c)
            c += q[:, :, None, j : j + w]
            steps = step_buffer[: 16 * L * w].reshape(2, 2, 4, L, w)
            _step_matrices(c, h, steps[:, :, :3])
            _mul(steps[:, :, 1], steps[:, :, 0], out=steps[:, :, 3])
            M, size = _tree_product(steps[:, :, 2:]), 1
            while runs and runs[-1][0] == size:
                M, size = _mul(M, runs.pop()[1]), 2 * size
            runs.append((size, M))
        M = runs.pop()[1]
        while runs:
            M = _mul(M, runs.pop()[1])
        M[0, 1, 0] *= 2.0
        M[1, 0, 0] *= 0.5
    return M[:, :, 0], M[:, :, 1]


def _piece_states(piece: _Piece, n: int) -> np.ndarray:
    """Products (2, 2, n) of the first k steps of a piece at lam = 0, k = 1..n.

    Recursive doubling builds them.  Their only reader is
    ``reference_states``, with n = 1 on a constant piece and, on a varying
    one, the n that ``_piece_transfer`` has accepted, so they are finite.
    """
    q, _, h = _node_values(piece, n)
    prefix = _step_matrices(q, h)
    span = 1
    while span < n:
        prefix[..., span:] = _mul(prefix[..., span:], prefix[..., :-span])
        span *= 2
    return prefix


def _matrix_scale(M: np.ndarray) -> np.ndarray:
    return np.abs(M).max(axis=(0, 1))


def _resolving_substeps(piece: _Piece, lams: np.ndarray) -> int:
    """Sub-steps that resolve a varying piece, the phase count's n: each under a quarter
    of the zero spacing pi/sqrt(c) at c = max|Q| + max|lam| max|V| from ``ranges``."""
    (q_lo, q_hi), (v_lo, v_hi) = piece.ranges
    c = max(-q_lo, q_hi) + float(np.abs(lams).max(initial=0.0)) * max(-v_lo, v_hi)
    return max(16, int(piece.length * (math.sqrt(c) + 1.0) * 4.0) + 1)


def _piece_transfer(
    piece: _Piece, lams: np.ndarray, rtol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Adaptive transfer over a varying piece: (matrices, relative errors, step count).

    The piece is swept with a pair (n, 2n) of step counts, both members in
    one ``_sweep_pair`` call: the coarse step of length 2h at c is the
    fine-length step at 4c conjugated by diag(1, 2), so one kernel call per
    block steps both, and they share the pairwise tree after the fine tree's
    first level.  A pair is accepted when the relative difference of its
    members, over 4, is at most rtol for every coupling; the finer member is
    returned.  The first n, L sqrt(c) / 2 with c from the largest
    coefficients, is at most ``_resolving_substeps``.  The difference falls as n**-6, so a failed pair
    with worst difference e predicts the next n as about 1.1 n (e/rtol)**(1/6).
    Every pair, the first included, is at most the largest pair allowed.
    Rounding sets a floor under the difference that more steps do not
    lower.  When rtol is below double rounding, or a failed pair's worst
    difference fell by less than 1/64 of what the order predicts (one
    doubling's worth), the next pair is the largest one, and its failure
    raises.
    """
    qmax, vmax = (max(map(abs, c)) for c in (piece.q_coeffs, piece.v_coeffs))
    cmax = qmax + float(np.abs(lams).max(initial=0.0)) * vmax  # loose where coefficients cancel
    guess = max(4, int(piece.length * math.sqrt(cmax) / 2.0) + 1)
    n, worst, want = 1, math.inf, min(guess, _resolving_substeps(piece, lams))
    while True:
        m = math.ceil(min(want, _MAX_SUBSTEPS // 2))
        expected, n = worst * (n / m) ** 6, m  # the order's worst difference; inf at first
        M, M2 = _sweep_pair(piece, lams, n)
        scale = _matrix_scale(M2) + 1.0
        if not np.all(np.isfinite(scale)):
            raise IntegrationError("propagation overflowed", piece.x0)
        # Richardson for 6th order would divide by 63; keep a safety margin
        rel = _matrix_scale(M2 - M) / (4.0 * scale)
        if np.all(rel <= rtol):
            return M2, rel, 2 * n
        if 2 * n >= _MAX_SUBSTEPS:
            raise IntegrationError("step refinement exhausted", piece.x0)
        worst = rel.max()
        if rtol < _EPS or worst > 64.0 * expected:
            want = _MAX_SUBSTEPS  # rounding dominates: only the largest pair is left
        else:
            # sixth order: pair differences fall as n**-6; aim 10 % past rtol
            want = 1.1 * n * (worst / rtol) ** (1 / 6)


def _rounding_bound(lams, scales, walk, prods) -> np.ndarray:
    """Entrywise bound (2, 2, L) on the rounding of the walk's product.

    The k-th matrix E_k of ``walk`` (2, 2, K, L), between the products B_k
    before it (``prods`` holds E_k .. E_0) and A_k after it, adds 4 eps
    |A_k| W_k |E_k| |B_k|.  W_k = (n_k + 1) I + [[0, h], [int |Q| + |lam|
    int |V|, 0]] over the piece (W = I at a spike), from ``scales`` (4, K).
    n_k + 1 counts the sub-step products and the step entries; the
    off-diagonal part bounds the Magnus exponent, whose rounding moves cosh
    and sinh, even in entries that pass zero.
    """
    n1, h, q_l1, v_l1 = (_ROUNDING * _EPS) * scales[..., None]
    x = np.abs(walk)
    x[:, :, 1:] = _mul(x[:, :, 1:], np.abs(prods[:, :, :-1]))
    y = n1 * x
    y[0] += h * x[1]
    y[1] += (q_l1 + np.abs(lams) * v_l1) * x[0]
    after = walk[:, :, 1:].copy()  # A_0 .. A_K-2, from the last
    for k in range(walk.shape[2] - 3, -1, -1):
        after[:, :, k] = _mul(after[:, :, k + 1], walk[:, :, k + 1])
    y[:, :, :-1] = _mul(np.abs(after), y[:, :, :-1])
    return y.sum(axis=2)


# ---------------------------------------------------------------------------
# public operations


def apply_delta(state: Pair, lam: complex, weight: float) -> Pair:
    """Jump condition of a point mass: u continuous, u' += lam*weight*u."""
    u, up = complex(state[0]), complex(state[1])
    return (u, up + complex(lam) * weight * u)


def _walk(Q: PotentialSpec, V: PotentialSpec, lams, tol: float):
    """The walk of ``transfer_matrices``: (lams, walk, prods E_k .. E_0, scales, rel_sum)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    if not lams.imag.any():  # then every layer steps in real arithmetic
        lams = lams.real.copy()
    if not np.isfinite(lams).all():
        raise ValueError(f"coupling must be finite, not {lams[~np.isfinite(lams)][0]}")
    items = _layout(Q, V)
    walk = np.empty((2, 2, len(items), len(lams)), dtype=lams.dtype)
    scales = np.zeros((4, len(items)))  # rounding scales: n + 1, h, int |Q|, int |V|
    rel_sum = np.zeros(lams.shape)
    constant = []
    for k, item in enumerate(items):
        if not isinstance(item, _Piece):  # a spike's jump
            walk[:, :, k] = _IDENTITY
            walk[1, 0, k] = lams * item
            scales[0, k] = 1.0
        elif item.is_constant:
            constant.append(k)
            scales[:, k] = (2, item.length, *item.l1_norms)
        else:
            walk[:, :, k], rel, n = _piece_transfer(item, lams, tol)
            rel_sum += rel
            scales[:, k] = (n + 1, item.length, *item.l1_norms)
    if constant:  # c = Q + lam*V of every constant piece, (K_c, L): one kernel call
        v = np.array([items[k].v_coeffs for k in constant])
        q = np.array([items[k].q_coeffs for k in constant])
        walk[:, :, constant] = _step_matrices((lams * v + q)[None], scales[1, constant, None])
    prods = walk.copy()  # E_k .. E_0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(items)):
            prods[:, :, k] = _mul(walk[:, :, k], prods[:, :, k - 1])
    if not np.isfinite(prods[:, :, -1]).all():
        raise IntegrationError("propagation produced non-finite values", 1.0)
    return lams, walk, prods, scales, rel_sum


def _product(Q: PotentialSpec, V: PotentialSpec, lams, tol: float) -> np.ndarray:
    """The matrices of ``transfer_matrices`` alone, without their bound."""
    return _walk(Q, V, lams, tol)[2][:, :, -1].transpose(2, 0, 1).astype(complex, copy=False)


def transfer_matrices(
    problem: ScatteringProblem, lams, *, rtol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices from 0- to 1+ for a batch of couplings.

    Walks the layout: the spike at 0, then each piece followed by the spike
    at its right end, as one (2, 2, K, L) stack of K matrices, real when
    every coupling is real.  All constant pieces take one kernel call.  A
    non-finite coupling raises ValueError.  Returns (complex matrices, error
    bounds), both (L, 2, 2): the library's one error model, which the
    read-outs only pass on.  It bounds each entry's distance from the exact
    product of the layout's matrices: truncation (the pieces' summed
    Richardson estimates times max-abs entry + 1) plus rounding
    (``_rounding_bound``).  It exceeds the true error of b by 11x-170x on
    tilted_background (Airy closed form, real lam 1e2 to 1e7) and by
    35x-270x on ramp_well (parabolic cylinder functions, 37 to 1e5).
    """
    tol = problem.tolerances.ode_rtol if rtol is None else rtol
    lams, walk, prods, scales, rel_sum = _walk(problem.Q, problem.V, lams, tol)
    M = prods[:, :, -1]
    bound = rel_sum * (_matrix_scale(M) + 1.0) + _rounding_bound(lams, scales, walk, prods)
    return M.transpose(2, 0, 1).astype(complex, copy=False), bound.transpose(2, 0, 1)


def propagate(problem: ScatteringProblem, lam: complex, init: Pair) -> Pair:
    """Propagate (u, u') from 0- to 1+ at coupling lam (spikes included)."""
    return transfer_matrix(problem, lam).apply(init)


def transfer_matrix(problem: ScatteringProblem, lam: complex) -> TransferMatrix:
    """Transfer matrix over [0, 1] at a single coupling value."""
    M, bound = transfer_matrices(problem, [lam])
    return TransferMatrix(
        entries=tuple(tuple(map(complex, row)) for row in M[0]),
        lam=complex(lam),
        err_estimate=float(bound[0].max()),
    )


def reference_states(
    problem: ScatteringProblem, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Values (u0, u0', v0, v0') of the reference solutions at sorted xs.

    Reference solutions solve the zero-coupling equation, where spikes are
    the identity.  Each varying piece is swept once, at the step count its
    refinement accepts, and a constant piece is one exact step.  A node is
    reached from the sub-step state at or before it by one partial Magnus
    step, and the next piece starts from the state after the last sub-step.
    ``xs`` must lie in [0, 1] and be nondecreasing.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs must be one-dimensional")
    if not np.all((xs >= -1e-12) & (xs <= 1.0 + 1e-12)):
        raise ValueError("xs must lie in [0, 1]")
    if np.any(np.diff(xs) < 0):
        raise ValueError("xs must be nondecreasing")
    xs = np.clip(xs, 0.0, 1.0)
    zero, rtol = np.zeros(1), problem.tolerances.ode_rtol
    pieces = _pieces(problem)
    # nodes of piece i: xs[edges[i]:edges[i + 1]], a cut going to the right
    edges = [0, *np.searchsorted(xs, [p.x0 for p in pieces[1:]]), len(xs)]
    (u, up), (v, vp) = problem.ref.u0_at_0, problem.ref.v0_at_0
    M = np.array([[[u], [v]], [[up], [vp]]], dtype=complex)  # (2, 2, 1), columns: u0, v0
    out = np.empty((2, 2, len(xs)), dtype=complex)
    for piece, lo, hi in zip(pieces, edges[:-1], edges[1:]):
        n = 1 if piece.is_constant else _piece_transfer(piece, zero, rtol)[2]
        states = np.concatenate((_IDENTITY, _piece_states(piece, n)), axis=-1)
        h = piece.length / n
        k = np.clip(np.floor((xs[lo:hi] - piece.x0) / h), 0, n).astype(int)
        part = xs[lo:hi] - piece.x0 - k * h  # from the state after k sub-steps
        c = npoly.polyval(k * h + _nodes(piece) * part, piece.q_coeffs)
        out[..., lo:hi] = _mul(_mul(_step_matrices(c, part), states[..., k]), M)
        M = _mul(states[..., -1:], M)
    return out[0, 0], out[1, 0], out[0, 1], out[1, 1]
