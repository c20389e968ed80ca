"""Chebyshev time evolution of a stack of band matrices, numpy only.

A readout at one time needs no eigenvectors: :func:`chebyshev_propagate`
expands exp(-i H t) psi0 in Chebyshev polynomials of H (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)) on the band of H, with coefficients from
Miller's recurrence (:func:`bessel_j`), so it loads no scipy. It judges the
whole states it returns against the tolerances of
:func:`~qladder.spectral.certify` and returns a bound on their error.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spectral import _UNIT_ROUNDOFF, _gamma, _judge_drift

__all__ = ["chebyshev_terms", "bessel_j", "chebyshev_propagate"]


def chebyshev_terms(x: float) -> int:
    """Terms K of the Chebyshev expansion of exp(-i x y) for |y| <= 1 and
    x >= 0: the smallest K whose tail bound 2 sum_{k>K} |J_k(x)| is at most
    the unit roundoff u. K is at least x, and computing it takes O(x) steps."""
    return _chebyshev_series(x)[0]


@lru_cache(maxsize=8)
def _chebyshev_series(x: float) -> tuple[int, np.ndarray, float]:
    """K of :func:`chebyshev_terms`, J_0(x) .. J_K(x) and the tail bound.

    |J_k(x)| <= (x/2)^k / k!, so past the first order L where that bound's
    own tail is below u^2, the Miller values of J_{K+1} .. J_L and that
    bound make up the tail bound of each K.
    """
    last = math.ceil(x)
    while _factorial_tail(x, last) > _UNIT_ROUNDOFF**2:
        last += 1
    bessel = bessel_j(x, last + 1)
    # tails[k] = 2 sum_{k<j<=L} |J_j| plus the bound beyond L, for k = 0 .. L
    tails = np.append(2 * np.cumsum(np.abs(bessel[:0:-1]))[::-1], 0.0) + _factorial_tail(x, last)
    terms = int(np.argmax(tails <= _UNIT_ROUNDOFF))
    coefficients = bessel[: terms + 1]
    coefficients.setflags(write=False)
    return terms, coefficients, float(tails[terms])


def _factorial_tail(x: float, last: int) -> float:
    """2 sum_{k>last} (x/2)^k / k!, a bound on 2 sum_{k>last} |J_k(x)|, for
    last + 2 > x / 2 (inf where it is too large to be of use)."""
    if x == 0.0:
        return 0.0
    log_first = (last + 1) * math.log(x / 2) - math.lgamma(last + 2)
    if log_first > 700 or last + 2 <= x / 2:
        return math.inf
    return 2 * math.exp(log_first) / (1 - x / (2 * (last + 2)))


def bessel_j(x: float, count: int) -> np.ndarray:
    """J_0(x), ..., J_{count-1}(x) for x >= 0, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2k / x) J_k - J_{k+1} is run down in ratio
    form, r_k = J_k / J_{k-1} = x / (2k - x r_{k+1}), from r_{s+1} = 0 at
    an order s above both ``count`` and x + 15 x^(1/3), where J_s(x) <
    1e-20, so no value overflows for any x; J_k = J_0 r_1 ... r_k, with J_0
    from 1 = J_0 + 2 sum_k J_2k.
    """
    start = max(count, math.ceil(x + 15 * x ** (1 / 3))) + 20
    ratios = [0.0] * (start + 2)
    for k in range(start, 0, -1):
        ratios[k] = x / (2 * k - x * ratios[k + 1])
    products = [1.0]
    for ratio in ratios[1:start + 1]:
        products.append(products[-1] * ratio)
    return np.array(products[:count]) / (1.0 + 2 * math.fsum(products[2::2]))


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


def chebyshev_propagate(diagonals, psi0, t: float, half_width: float):
    """The whole states exp(-i H_r t) psi0_r of a stack of real symmetric
    band matrices by their Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)), judged, with a bound on their error.

    ``diagonals[k]`` is the (D - k, R) k-th subdiagonal, H_r[j + k, j] at
    [j, r] (an axis of length 1 is shared by the stack), ``psi0`` the (D, R)
    real unit start states, ``t`` >= 0 and ``half_width`` a bound a on every
    H_r's spectral radius. With x = a t and y = H / a, exp(-i x y) = J_0(x)
    + 2 sum_{k>=1} (-i)^k J_k(x) T_k(y) on [-1, 1], cut after K =
    :func:`chebyshev_terms` (x) terms. phi_k = T_k(y) psi0 is real, phi_{k+1}
    = 2 y phi_k - phi_{k-1}, so even terms add to the real part and odd ones
    to the imaginary part. Every operation is elementwise over the stack, so
    a realization gives bitwise the same state in any stack. Returns the real
    and imaginary parts, each (D, R), and the error bound, the same for every
    realization.

    The judge raises ArithmeticError when a matrix's Gershgorin radius, a
    bound on its spectral radius, exceeds a ("Gershgorin radius ... exceeds
    ..."), when the tail bound exceeds u, and, as :func:`certify` measures,
    when a state's squared norm is off 1 by more than ``NORM_TOL`` or its
    energy is off psi0's by more than ``ENERGY_TOL``.

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
    x = half_width * t
    terms, bessel, tail = _chebyshev_series(x)
    dim, count = psi0.shape
    radius = _gershgorin_radii(diagonals, psi0.shape)
    if not np.all(radius <= half_width):  # NaN fails too
        bad = radius[~(radius <= half_width)][0]
        raise ArithmeticError(f"Gershgorin radius {bad:.3e} exceeds the half-width {half_width:.3e}")
    if not tail <= _UNIT_ROUNDOFF:
        raise ArithmeticError(f"Chebyshev tail {tail:.3e} exceeds {_UNIT_ROUNDOFF:.3e}")
    # real weights of phi_k: 2 J_k (-i)^k is 2 J_k, -2i J_k, -2 J_k, 2i J_k for k = 0, 1, 2, 3 mod 4
    weights = 2 * bessel * np.array([1.0, -1.0, -1.0, 1.0])[np.arange(terms + 1) % 4]
    weights[0] = bessel[0]
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
    prev[:, :count] = psi0
    np.multiply(prev, weights[0], out=re)
    _band_apply(scaled, prev, cur, scratch)
    cur *= 0.5  # phi_1 = y psi0, exactly half of 2 y psi0
    for k in range(1, terms + 1):
        if k > 1:
            _band_apply(scaled, cur, nxt, scratch)
            np.subtract(nxt, prev, out=nxt)
            prev, cur, nxt = cur, nxt, prev
        np.multiply(cur, weights[k], out=scratch)
        part = im if k % 2 else re
        np.add(part, scratch, out=part)
    re, im = re[:, :count], im[:, :count]
    scratch = np.empty_like(psi0)
    applied = _band_apply(diagonals, re, np.empty_like(psi0), scratch)
    energies = np.einsum("dr,dr->r", re, applied)
    energies += np.einsum("dr,dr->r", im, _band_apply(diagonals, im, applied, scratch))
    energy0 = np.einsum("dr,dr->r", psi0, _band_apply(diagonals, psi0, applied, scratch))
    _judge_drift(np.einsum("dr,dr->r", re, re) + np.einsum("dr,dr->r", im, im), energies, energy0)

    magnitudes = np.abs(weights)
    steps = np.arange(terms + 1.0)
    recurrence = 3 * _gamma(2 * len(diagonals)) * steps * (steps + 1)  # m + 1 = 2 kd + 2
    bound = (
        math.fsum(magnitudes * recurrence)
        + _gamma(terms + 1) * math.fsum(magnitudes * (1 + recurrence))
        + (terms + 1) * _UNIT_ROUNDOFF * math.fsum(magnitudes)
        + x * _UNIT_ROUNDOFF
        + tail
    )
    return re, im, bound
