"""Chebyshev time evolution of a stack of band matrices, numpy only.

A readout at one time needs no eigenvectors: :func:`chebyshev_propagate`
expands exp(-i H t) psi0 in Chebyshev polynomials of H (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)) on the band of H, with coefficients from
Miller's recurrence (:func:`bessel_j`), so it loads no scipy. The series is
cut where its tail falls below the unit roundoff, and the recurrence's own
ratios bound that tail past its last order (:func:`_chebyshev_series`). It
judges the whole states it returns against the tolerances of
:func:`~qladder.spectral.certify` and returns a bound on the error of each.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import _UNIT_ROUNDOFF, _gamma, _judge_drift

__all__ = ["bessel_j", "chebyshev_propagate"]


def _chebyshev_series(x: float) -> tuple[int, np.ndarray, float]:
    """The series of exp(-i x y) for |y| <= 1 and x >= 0: its term count K,
    J_0(x) .. J_K(x) and the tail bound. K is the smallest order whose tail
    bound, on 2 sum_{k>K} |J_k(x)|, is at most the unit roundoff u; it is at
    least x, and computing the series takes O(x) steps.

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
    """
    last = math.ceil(x + 15 * x ** (1 / 3)) + 20
    bessel = bessel_j(x, last + 1)
    # tails[k] = 2 sum_{k<j<=L} |J_j| plus the bound beyond L, for k = 0 .. L
    tails = ((np.append(2 * np.cumsum(np.abs(bessel[:0:-1]))[::-1], 0.0)
              + abs(bessel[last]) * x / (last + 1 - x))
             * (1 + _gamma(last + 6)))
    terms = int(np.argmax(tails <= _UNIT_ROUNDOFF))
    return terms, bessel[: terms + 1], float(tails[terms])


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


def _gershgorin_radii(diagonals, shape) -> np.ndarray:
    """Per matrix, the largest row sum of |H|: |H| applied to ones."""
    absolute = [np.abs(diagonal) for diagonal in diagonals]
    ones = np.ones(shape)
    return _band_apply(absolute, ones, np.empty(shape), np.empty(shape)).max(axis=0)


def _band_apply(diagonals, state, out, scratch) -> np.ndarray:
    """H x into ``out`` for (D, R) states x and the symmetric band whose
    k-th subdiagonal is ``diagonals[k]``; ``scratch`` is (D, R)."""
    np.multiply(diagonals[0], state, out=out)
    for k, off in enumerate(diagonals[1:], 1):
        product = scratch[:-k]
        np.multiply(off, state[:-k], out=product)
        out[k:] += product
        np.multiply(off, state[k:], out=product)
        out[:-k] += product
    return out


def chebyshev_propagate(diagonals, psi0, t: float, points, counts):
    """The whole states exp(-i H_r t) psi0_r of a stack of real symmetric
    band matrices by their Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)), judged, with a bound on their error per state.

    ``diagonals[k]`` is the (D - k, R) k-th subdiagonal, H_r[j + k, j] at
    [j, r] (an axis of length 1 is shared by the stack), ``psi0`` the (D, R)
    real unit start states and ``t`` >= 0. The columns are the grid points'
    in turn: ``counts[p]`` columns take ``points[p]`` = (a, series), a
    bound a on the spectral radius of each of their H_r and the series of
    x = a t, :func:`_chebyshev_series` (x). With y = H / a, exp(-i x y) =
    J_0(x) + 2 sum_{k>=1} (-i)^k J_k(x) T_k(y) on [-1, 1], cut after that
    series' K terms. phi_k = T_k(y) psi0 is real, phi_{k+1} = 2 y phi_k -
    phi_{k-1}, so even terms add to the real part and odd ones to the
    imaginary part. The recurrence runs to the largest K of the stack, and
    a column gets zero weight past its own K: adding the +-0 products leaves
    its sums bitwise unchanged. Every operation is elementwise over the
    stack, so a realization gives bitwise the same state in any stack.
    Returns the real and imaginary parts, each (D, R), and the (R,) error
    bounds, one per column, the same for the columns of a point.

    The judge raises ArithmeticError when a matrix's Gershgorin radius, a
    bound on its spectral radius, exceeds its a ("Gershgorin radius ...
    exceeds ..."), when a tail bound exceeds u, and, as :func:`certify`
    measures, when a state's squared norm is off 1 by more than
    ``NORM_TOL`` or its energy is off psi0's by more than ``ENERGY_TOL``.

    The bound on |computed - exact| per state, with c_k the coefficients and
    g = gamma_{m+1} for the m = 2 kd + 1 products of a band row: a step
    rounds by at most g (2 |y| |phi_k| + |phi_{k-1}|) <= 3 g max |phi|, which
    is 6 g while |phi| <= 2; local errors propagate through U_{k-j-1}(y), of
    norm at most k - j, so |phi_k - T_k(y) psi0| <= 3 g k (k + 1), and these
    add sum_k |c_k| 3 g k (k + 1). Summing the terms adds gamma_{K+1} sum_k
    |c_k| (1 + 3 g k (k + 1)), the Miller coefficients (K + 1) u sum_k
    |c_k|, rounding 2 H / a (H perturbed by at most u a) adds x u, and the
    truncation its tail bound.
    """
    dim, count = psi0.shape
    point = np.repeat(np.arange(len(points)), counts)
    half_width = np.repeat([a for a, _ in points], counts)
    table = [series for _, series in points]
    radius = _gershgorin_radii(diagonals, psi0.shape)
    if not np.all(radius <= half_width):  # NaN fails too
        bad = np.flatnonzero(~(radius <= half_width))[0]
        raise ArithmeticError(f"Gershgorin radius {radius[bad]:.3e} exceeds "
                              f"the half-width {half_width[bad]:.3e}")
    for _, _, tail in table:
        if not tail <= _UNIT_ROUNDOFF:
            raise ArithmeticError(f"Chebyshev tail {tail:.3e} exceeds {_UNIT_ROUNDOFF:.3e}")
    terms = max(k for k, _, _ in table)
    # real weights of phi_k per point, zero past its K: 2 J_k (-i)^k is 2 J_k,
    # -2i J_k, -2 J_k, 2i J_k for k = 0, 1, 2, 3 mod 4
    signs = np.array([1.0, -1.0, -1.0, 1.0])[np.arange(terms + 1) % 4]
    weights = np.zeros((terms + 1, len(points)))
    for column, (k, bessel, _) in zip(weights.T, table):
        column[: k + 1] = 2 * bessel * signs[: k + 1]
        column[0] = bessel[0]
    # The buffers are one block, on which every row starts on a 64-byte cache
    # line (the stack axis padded with zero columns to a multiple of 8): an
    # aligned (60, 100) product took 3 us, a misaligned one 6 us, and malloc
    # aligns to 16 bytes only. As a dozen separate arrays, a warm default fig1
    # took about 7,600 minor faults, the worker's heap trimmed after every
    # grid point; as one block, about 10.
    width = -(-count // 8) * 8
    block = _aligned_zeros(len(diagonals) + 6, dim, width)
    scaled = [rows[: dim - k] for k, rows in enumerate(block[: len(diagonals)])]
    for diagonal, rows in zip(diagonals, scaled):  # the diagonals of 2 y
        np.multiply(diagonal, 2.0 / half_width, out=rows[:, :count])
    re, im, prev, cur, nxt, scratch = block[len(diagonals):]
    # each step's weight per column, from its point's column of the table; a
    # padding column takes the first point's, and its zeros stay zero
    row = np.empty(width)
    columns = np.zeros(width, dtype=np.intp)
    columns[:count] = point
    prev[:, :count] = psi0
    np.take(weights[0], columns, out=row)
    np.multiply(prev, row, out=re)
    _band_apply(scaled, prev, cur, scratch)
    cur *= 0.5  # phi_1 = y psi0, exactly half of 2 y psi0
    for k in range(1, terms + 1):
        if k > 1:
            _band_apply(scaled, cur, nxt, scratch)
            np.subtract(nxt, prev, out=nxt)
            prev, cur, nxt = cur, nxt, prev
        np.take(weights[k], columns, out=row)
        np.multiply(cur, row, out=scratch)
        part = im if k % 2 else re
        np.add(part, scratch, out=part)
    # the judge works in the recurrence's buffers: two of its own are 0.38 MB at 400 columns
    re, im, applied, scratch = (part[:, :count] for part in (re, im, nxt, scratch))
    _band_apply(diagonals, re, applied, scratch)
    energies = np.einsum("dr,dr->r", re, applied)
    energies += np.einsum("dr,dr->r", im, _band_apply(diagonals, im, applied, scratch))
    energy0 = np.einsum("dr,dr->r", psi0, _band_apply(diagonals, psi0, applied, scratch))
    _judge_drift(np.einsum("dr,dr->r", re, re) + np.einsum("dr,dr->r", im, im), energies, energy0)

    bounds = np.empty(len(points))
    for p, (a, (k, _, tail)) in enumerate(points):
        magnitudes = np.abs(weights[: k + 1, p])
        steps = np.arange(k + 1.0)
        recurrence = 3 * _gamma(2 * len(diagonals)) * steps * (steps + 1)  # m + 1 = 2 kd + 2
        bounds[p] = (
            math.fsum(magnitudes * recurrence)
            + _gamma(k + 1) * math.fsum(magnitudes * (1 + recurrence))
            + (k + 1) * _UNIT_ROUNDOFF * math.fsum(magnitudes)
            + a * t * _UNIT_ROUNDOFF
            + tail
        )
    return re, im, bounds[point]
