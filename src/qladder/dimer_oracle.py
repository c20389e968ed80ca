"""Closed-form dimer reduction of the uniform-detuning ladder.

When every cell has the same detuning ``delta`` and the same rung coupling
``gamma``, the ladder factorizes into independent two-level systems built on
the intra-leg normal modes: mode k of leg 1 couples only to mode k of leg 2,
with energies (lambda_k, lambda_k + delta) and coupling gamma. The total
occupation of one leg then follows a single Rabi formula, independent of the
intra-leg spectrum and of any leg-1-confined initial state. This module is
the analytic oracle for the numeric evolution engine.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["rabi_frequency", "uniform_leg_occupation"]


def rabi_frequency(delta: float, gamma: float) -> float:
    """Effective Rabi frequency sqrt(delta^2 + 4*gamma^2)."""
    return math.hypot(delta, 2.0 * gamma)


def uniform_leg_occupation(delta: float, gamma: float, t):
    """Closed-form occupation of the starting leg at time t.

    P(t) = 1 - 2*(gamma/Omega)^2 * (1 - cos(Omega t)), which reduces to
    cos^2(gamma t) on resonance (delta = 0) and to the constant 1 for
    decoupled legs (gamma = 0). Accepts a scalar or an array of times; the
    result stays within [1 - 4*gamma^2/Omega^2, 1].
    """
    t = np.asarray(t, dtype=np.float64)
    if gamma == 0.0:
        result = np.ones_like(t)
    else:
        omega = rabi_frequency(delta, gamma)
        ratio_sq = (gamma / omega) ** 2
        result = 1.0 - 2.0 * ratio_sq * (1.0 - np.cos(omega * t))
    if result.ndim == 0:
        return float(result)
    return result
