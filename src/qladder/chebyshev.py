"""Chebyshev time evolution of a stack of ladder matrices, numpy only.

A readout at one time needs no eigenvectors: :func:`chebyshev_propagate`
expands exp(-i H t) psi0 in Chebyshev polynomials of H (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)) in branch-major row order, plus slots first,
where a row of H x sums 4 products and one product holds both halves' rungs,
each step on views made once per call at a 16-element ufunc buffer, with
coefficients from Miller's recurrence (:func:`bessel_j`), so it loads no scipy.
The series is cut where its tail falls below the unit roundoff, and the
recurrence's own ratios bound that tail past its last order
(:func:`_chebyshev_series`, with the error bound of each state). It judges the
whole states it returns against the tolerances of :func:`~qladder.spectral.certify`.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import _UNIT_ROUNDOFF, _gamma, _judge_drift

__all__ = ["bessel_j", "chebyshev_propagate"]


def _chebyshev_series(x: float) -> tuple[int, np.ndarray, float, float]:
    """The series of exp(-i x y) for |y| <= 1 and x >= 0: its term count K,
    J_0(x) .. J_K(x), the tail bound and the a-priori bound on the error of
    each state :func:`chebyshev_propagate` evolves by it. K is the smallest
    order whose tail bound, on 2 sum_{k>K} |J_k(x)|, is at most the unit
    roundoff u; it is at least x, and computing the series takes O(x) steps.

    The Miller values run to L = ceil(x + 15 x^(1/3)) + 20, where
    :func:`bessel_j` already takes J as negligible, and the tail bound of
    each K is 2 sum_{K<k<=L} |J_k| plus 2 |J_L| q / (1 - q), q = x / (2 (L +
    1) - x) < 1, a bound on 2 sum_{k>L} |J_k|. Proof: the ratios r_k = J_k /
    J_{k-1} of the minimal solution J of the recurrence are the limits, as
    s grows, of the ratios r_k^(s) run down from r_{s+1}^(s) = 0 by r_k =
    x / (2k - x r_{k+1}) (Pincherle's theorem; Gautschi, SIAM Rev. 9, 24
    (1967)). For k >= x > 0, q_k = x / (2k - x) <= 1 falls as k grows, and
    if 0 <= r_{k+1}^(s) <= q_{k+1} <= 1, then 2k - x r_{k+1}^(s) >= 2k - x >
    0 and 0 <= r_k^(s) <= q_k; so by induction down from s, and in the
    limit, 0 <= J_k / J_{k-1} <= q_k for k > L >= x. Then |J_{L+j}| <= |J_L|
    q^j with q = q_{L+1}, and the tail past L sums to at most |J_L| q / (1 -
    q) = |J_L| x / (2 (L + 1 - x)); at x = 0 it is 0. The bound is taken at
    the Miller value of J_L.

    Each computed tail is at least the exact one. It sums at most L + 1
    nonnegative terms in at most L additions, one term within a factor 1 -
    gamma_3 of its own 3 operations, so it is at least 1 - gamma_{L+3} of
    the exact sum (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.3 and Sec. 4.2); times 1 + gamma_{L+6}, with that
    factor and the product each rounded, (1 - gamma_{L+3}) (1 + gamma_{L+6})
    (1 - u)^2 >= (1 - gamma_{L+3}) (1 + gamma_{L+4}) >= 1.

    The bound on |computed - exact| per state, with c_k = 2 (-i)^k J_k (c_0 =
    J_0) the coefficients and g = gamma_6, which covers a row's 4 products
    and a step's subtraction (gamma_5): a step rounds by at most g (2 |y|
    |phi_k| + |phi_{k-1}|) <= 3 g max |phi|, which is 6 g while |phi| <= 2;
    local errors propagate through U_{k-j-1}(y), of norm at most k - j, so
    |phi_k - T_k(y) psi0| <= 3 g k (k + 1), and these add sum_k |c_k| 3 g k
    (k + 1). Summing the terms adds gamma_{K+1} sum_k |c_k| (1 + 3 g k (k +
    1)), the Miller coefficients (K + 1) u sum_k |c_k|, rounding 2 H / a (H
    perturbed by at most u a) adds x u, and the truncation its tail bound.
    """
    last = math.ceil(x + 15 * x ** (1 / 3)) + 20
    bessel = bessel_j(x, last + 1)
    # tails[k] = 2 sum_{k<j<=L} |J_j| plus the bound beyond L, for k = 0 .. L
    tails = ((np.append(2 * np.cumsum(np.abs(bessel[:0:-1]))[::-1], 0.0)
              + abs(bessel[last]) * x / (last + 1 - x))
             * (1 + _gamma(last + 6)))
    terms = int(np.argmax(tails <= _UNIT_ROUNDOFF))
    tail, magnitudes = float(tails[terms]), 2 * np.abs(bessel[: terms + 1])  # |c_k|
    magnitudes[0] = abs(bessel[0])
    recurrence = 3 * _gamma(6) * np.arange(terms + 1.0) * np.arange(1.0, terms + 2.0)  # k (k + 1)
    bound = (math.fsum(magnitudes * recurrence)
             + _gamma(terms + 1) * math.fsum(magnitudes * (1 + recurrence))
             + (terms + 1) * _UNIT_ROUNDOFF * math.fsum(magnitudes) + x * _UNIT_ROUNDOFF + tail)
    return terms, bessel[: terms + 1], tail, bound


def bessel_j(x: float, count: int) -> np.ndarray:
    """J_0(x), ..., J_{count-1}(x) for x >= 0, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2k / x) J_k - J_{k+1} is run down in ratio
    form, r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}), from r_{s+1} = 0 at
    an order s above both ``count`` and x + 15 x^(1/3), where J_s(x) <
    1e-20, so no value overflows for any x; J_k = J_0 r_1 ... r_k, with J_0
    from 1 = J_0 + 2 sum_k J_2k.
    """
    start = max(count, math.ceil(x + 15 * x ** (1 / 3))) + 20
    ratios = [1.0] + [0.0] * (start + 1)
    for k in range(start, 0, -1):
        ratios[k] = x / (2 * k - x * ratios[k + 1])
    products = np.cumprod(ratios[: start + 1])  # 1, r_1, r_1 r_2, ...
    return products[:count] / (1.0 + 2 * math.fsum(products[2::2]))


def _aligned_zeros(*shape) -> np.ndarray:
    """A float64 array of zeros whose data starts on a 64-byte boundary."""
    size = math.prod(shape) * 8
    raw = np.zeros(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(np.float64).reshape(shape)


def _views(buffer, half: int) -> tuple:
    """The views of a (D, W) state that :func:`_ladder_apply` reads, made once."""
    halves = buffer.reshape(2, half, -1)
    return buffer, buffer[:-1], buffer[1:], halves, halves[::-1]


def _ladder_apply(ladder, state, out, scratch) -> np.ndarray:
    """H x into ``out`` for (D, W) states x in branch-major order, where the
    ``ladder`` of H is its diagonal and its only subdiagonals, the hoppings at
    offset 1 and the (1, N, W) rungs at offset N, one product for both halves
    of H x; ``state``, ``out`` and ``scratch`` are :func:`_views` of states."""
    diagonal, hoppings, rungs = ladder
    np.multiply(diagonal, state[0], out=out[0])
    np.multiply(hoppings, state[1], out=scratch[1])
    np.add(out[2], scratch[1], out=out[2])
    np.multiply(hoppings, state[2], out=scratch[1])
    np.add(out[1], scratch[1], out=out[1])
    np.multiply(rungs, state[4], out=scratch[3])
    np.add(out[3], scratch[3], out=out[3])
    return out[0]


def _to_ladder(fill, band, ladder, count) -> None:
    """``fill(source, out=rows)`` from the ``band`` of H into the first
    ``count`` columns of :func:`_ladder_apply`'s ``ladder``: the plus slots,
    then the minus slots, with a zero hopping at the junction between them."""
    half = ladder[2].shape[1]
    sources = (band[0][0::2], band[0][1::2], band[2][0::2], band[2][1::2], band[1][0::2])
    targets = (ladder[0][:half], ladder[0][half:], ladder[1][: half - 1], ladder[1][half:], ladder[2][0])
    for source, target in zip(sources, targets):
        fill(source, out=target[:, :count])


def chebyshev_propagate(band, psi0, points, counts):
    """The judged whole states exp(-i H_r t) psi0 of a stack of ladder matrices
    by their Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    ``band`` is the stack's band as :func:`~qladder.hamiltonian._ladder_band`
    lays it out, ``band[k]`` the (D - k, R) k-th subdiagonal, H_r[j + k, j] at
    [j, r] (an axis of length 1 is shared by the stack); another band is
    refused with ValueError. ``psi0`` holds the real unit start states, (D, R)
    or one (D, 1) column that every matrix evolves; another shape is refused
    with ValueError. The columns are the grid points' in turn: ``counts[p]``
    columns take ``points[p]`` = (a, series), a bound a on the spectral radius
    of each of their H_r and the series of x = a t, :func:`_chebyshev_series`
    (x), whose last entry bounds the error of each of their states. With y =
    H / a, exp(-i x y) = J_0(x) + 2 sum_{k>=1} (-i)^k J_k(x) T_k(y) on [-1,
    1], cut after that series' K terms. phi_k = T_k(y) psi0 is real, phi_{k+1}
    = 2 y phi_k - phi_{k-1}, so even terms add to the real part and odd ones
    to the imaginary part. The recurrence runs to the largest K of the stack,
    and a column gets zero weight past its own K: adding the +-0 products
    leaves its sums bitwise unchanged. Every operation is elementwise over the
    stack, so a realization gives bitwise the same state in any stack.
    Returns the real and imaginary parts, each (D, R). The rows run in
    branch-major order (:func:`_to_ladder`). A step is 11 array operations on
    views made once per call (:func:`_views`), H x 7 of them, at a 16-element
    ufunc buffer that the call restores as it returns or raises.

    The judge raises ArithmeticError when a matrix's Gershgorin radius, a
    bound on its spectral radius, exceeds its a ("Gershgorin radius ...
    exceeds ..."), when a tail bound exceeds u, and, as :func:`certify`
    measures, when a state's squared norm is off 1 by more than
    ``NORM_TOL`` or its energy is off psi0's by more than ``ENERGY_TOL``.
    """
    if len(band) != 3 or np.any(band[1][1::2]):
        raise ValueError("not a ladder's band: three diagonals, zeros between cells on the first")
    dim, count = band[0].shape
    if psi0.shape not in ((dim, 1), (dim, count)):
        raise ValueError(f"start states {psi0.shape} do not fit the band's ({dim}, {count})")
    half = dim // 2  # branch-major: the plus slots are rows :half, the minus ones half:
    point = np.repeat(np.arange(len(points)), counts)
    half_width = np.repeat([a for a, _ in points], counts)
    table = [series for _, series in points]
    # The buffers are one block, on which every row starts on a 64-byte cache
    # line (the stack axis padded with zero columns to a multiple of 8): an
    # aligned (60, 100) product took 3 us, a misaligned one 6 us, and malloc
    # aligns to 16 bytes only. As a dozen separate arrays, a warm default fig1
    # took about 7,600 minor faults, the worker's heap trimmed after every
    # grid point; as one block, about 10.
    width = -(-count // 8) * 8
    block = _aligned_zeros(8 * dim + half - 1, width)
    diagonal, hoppings, rungs, re, im, prev, cur, nxt, scratch = np.split(
        block, np.cumsum([dim, dim - 1, half] + [dim] * 5))
    ladder = (diagonal, hoppings, rungs[None])
    states, spare = [_views(buffer, half) for buffer in (prev, cur, nxt)], _views(scratch, half)
    # numpy sends a (W,) row broadcast over a (D, W) state, and the (1, N, W)
    # rungs over the halves, through its buffered iterator, 8,192 elements at a
    # time by default: at (60, 400) the weight product took 11.7 us, 6.8 us at
    # a 16-element buffer, 6.2 us with a same-shape operand. numpy 2 keeps the
    # size in a context variable, 1.24-1.26 per thread: no other thread sees it.
    bufsize = np.setbufsize(16)
    try:
        _to_ladder(np.abs, band, ladder, count)
        prev[:, :count] = 1.0
        radius = _ladder_apply(ladder, states[0], states[1], spare)[:, :count].max(axis=0)  # |H| 1s
        if not np.all(radius <= half_width):  # NaN fails too
            bad = np.flatnonzero(~(radius <= half_width))[0]
            raise ArithmeticError(f"Gershgorin radius {radius[bad]:.3e} exceeds "
                                  f"the half-width {half_width[bad]:.3e}")
        for _, _, tail, _ in table:
            if not tail <= _UNIT_ROUNDOFF:
                raise ArithmeticError(f"Chebyshev tail {tail:.3e} exceeds {_UNIT_ROUNDOFF:.3e}")
        terms = max(k for k, *_ in table)
        # real weights of phi_k per point, zero past its K: 2 J_k (-i)^k is 2 J_k,
        # -2i J_k, -2 J_k, 2i J_k for k = 0, 1, 2, 3 mod 4
        signs = np.array([1.0, -1.0, -1.0, 1.0])[np.arange(terms + 1) % 4]
        weights = np.zeros((terms + 1, len(points)))
        for column, (k, bessel, *_) in zip(weights.T, table):
            column[: k + 1] = 2 * bessel * signs[: k + 1]
            column[0] = bessel[0]
        _to_ladder(lambda source, out: np.multiply(source, 2.0 / half_width, out=out),  # 2 y
                   band, ladder, count)
        # each step's weight per column, from its point's column of the table; a
        # padding column takes the first point's, and its zeros stay zero
        row, columns = np.empty(width), np.zeros(width, dtype=np.intp)
        columns[:count] = point
        prev[:half, :count], prev[half:, :count] = psi0[0::2], psi0[1::2]
        weights[0].take(columns, out=row)  # the method: 1.0 us, np.take 1.9 us
        np.multiply(prev, row, out=re)
        _ladder_apply(ladder, states[0], states[1], spare)
        cur *= 0.5  # phi_1 = y psi0, exactly half of 2 y psi0
        p, c, n = 0, 1, 2  # phi_{k-1}, phi_k, phi_{k+1} are states[p], [c], [n]
        for k in range(1, terms + 1):
            if k > 1:
                _ladder_apply(ladder, states[c], states[n], spare)
                np.subtract(states[n][0], states[p][0], out=states[n][0])
                p, c, n = c, n, p
            weights[k].take(columns, out=row)
            np.multiply(states[c][0], row, out=scratch)
            part = (re, im)[k & 1]
            np.add(part, scratch, out=part)
        # the judge, on H's own entries, and the states back in band order, all
        # in the recurrence's buffers: two of its own are 0.38 MB at 400 columns
        _to_ladder(np.positive, band, ladder, count)  # a copy
        prev[:half, :count], prev[half:, :count] = psi0[0::2], psi0[1::2]
        energies = [np.einsum("dr,dr->r", state,
                              _ladder_apply(ladder, _views(state, half), states[2], spare))[:count]
                    for state in (re, im, prev)]
        norms = np.einsum("dr,dr->r", re, re) + np.einsum("dr,dr->r", im, im)
        _judge_drift(norms[:count], energies[0] + energies[1], energies[2])
        for state, out in ((re, prev), (im, cur)):
            out[0::2], out[1::2] = state[:half], state[half:]
    finally:
        np.setbufsize(bufsize)
    return prev[:, :count], cur[:, :count]
