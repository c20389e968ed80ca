"""Ladder parameters, engineered couplings, and correlated disorder sampling.

Everything is dimensionless: the intra-leg hopping profile is normalized so
that its largest element is 1, and the disorder amplitudes ``disorder_w``
(global on-site) and ``detuning_delta`` (leg-2 detuning) are expressed in
units of that maximum hopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LadderParams",
    "DisorderRealization",
    "build_pst_couplings",
    "scale_disorder",
    "correlated_channel",
    "sample_realization",
    "effective_parameters",
    "uniform_ladder",
]


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# the largest N whose (2N)^2 dense matrix entries numpy can index (np.intp);
# a larger one is refused before any array is built
_MAX_SITES = math.isqrt(np.iinfo(np.intp).max) // 2


def build_pst_couplings(n_sites: int) -> np.ndarray:
    """Perfect-state-transfer hopping profile sqrt(n*(N-n)) for n = 1..N-1.

    The sequence is divided by its maximum, so the largest entry is exactly
    1.0 (the energy unit) and the profile is palindromic.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be at least 2 (sites per leg), got {n_sites}")
    n = np.arange(1, n_sites, dtype=np.float64)
    couplings = np.sqrt(n * (n_sites - n))
    return couplings / couplings.max()


@dataclass(frozen=True)
class LadderParams:
    """Static problem definition for a family of disordered two-leg ladders.

    ``disorder_w`` is the half-width W of the uniform on-site distribution,
    ``detuning_delta`` the half-width of the leg-2 detuning distribution.
    Like ``Generator.uniform``, a half-width whose range ``W - -W``
    overflows is refused.
    """

    n_sites: int
    disorder_w: float
    detuning_delta: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be at least 2 (sites per leg), got {self.n_sites}")
        if self.n_sites > _MAX_SITES:
            raise ValueError(f"n_sites must be at most {_MAX_SITES}, got {self.n_sites}")
        for name in ("disorder_w", "detuning_delta"):
            value = getattr(self, name)
            if not 0 <= value - -value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative with 2*{name} finite, got {value}")

    def couplings(self) -> np.ndarray:
        return build_pst_couplings(self.n_sites)


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One concrete draw of every disordered parameter of the ladder.

    Leg-2 energies are stored redundantly and must equal
    ``eps_leg1 + delta_n`` bitwise; this is checked at construction.
    """

    eps_leg1: np.ndarray
    eps_leg2: np.ndarray
    delta_n: np.ndarray
    gamma_n: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        for name in ("eps_leg1", "eps_leg2", "delta_n", "gamma_n", "couplings"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        n = self.eps_leg1.size
        if n < 1:
            raise ValueError("realization needs at least one cell")
        for name in ("eps_leg2", "delta_n", "gamma_n"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} must have {n} entries")
        if self.couplings.size != n - 1:
            raise ValueError(f"couplings must have {n - 1} entries, got {self.couplings.size}")
        if not np.array_equal(self.eps_leg2, self.eps_leg1 + self.delta_n):
            raise ValueError("eps_leg2 must equal eps_leg1 + delta_n exactly")
        for name in ("eps_leg1", "delta_n", "gamma_n", "couplings"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def n_sites(self) -> int:
        return self.eps_leg1.size


def scale_disorder(params: LadderParams, unit) -> tuple[np.ndarray, np.ndarray]:
    """``(eps_leg1, delta_n)`` of ``2N`` unit uniforms, one realization's
    ``(2N,)`` or an ``(R, 2N)`` stack's.

    Each draw is ``low + (high - low) * u``, bitwise what
    ``Generator.uniform(low, high)`` makes of the same ``u``, including its
    half-open convention (endpoint inclusion is measure-zero).
    """
    n = params.n_sites
    eps_leg1 = _uniform(params.disorder_w, unit[..., :n])
    return eps_leg1, _uniform(params.detuning_delta, unit[..., n:])


def _uniform(half_width: float, unit):
    return -half_width + (half_width - -half_width) * unit


def correlated_channel(eps_leg1, delta_n) -> tuple[np.ndarray, np.ndarray]:
    """``(eps_leg2, gamma_n)`` of drawn ``eps_leg1`` and ``delta_n`` under the
    correlated channel rule, for one realization or an (R, N) stack.

    Leg-2 energies are ``eps_leg1 + delta_n`` and the rung couplings are
    locked to ``gamma_n = eps_leg1``, so the antisymmetric branch sees
    fluctuations weighted only by Delta.
    """
    return eps_leg1 + delta_n, eps_leg1


def sample_realization(params: LadderParams, rng: np.random.Generator) -> DisorderRealization:
    """One checked :class:`DisorderRealization`: ``2N`` unit uniforms from
    ``rng`` scaled by :func:`scale_disorder`, leg-1 energies i.i.d.
    Uniform[-W, W] (the first N draws) and per-cell detunings i.i.d.
    Uniform[-Delta, Delta] (the next N), under :func:`correlated_channel`."""
    eps_leg1, delta_n = scale_disorder(params, rng.random(2 * params.n_sites))
    eps_leg2, gamma_n = correlated_channel(eps_leg1, delta_n)
    return DisorderRealization(
        eps_leg1=eps_leg1,
        eps_leg2=eps_leg2,
        delta_n=delta_n,
        gamma_n=gamma_n,
        couplings=params.couplings(),
    )


def effective_parameters(eps1, eps2, gamma):
    """Per-cell potentials and coupling of the ladder in the +/- basis.

    Returns ``(eps_plus, eps_minus, gamma_tilde)`` with
    eps_plus/minus = (eps1 + eps2)/2 +/- gamma and
    gamma_tilde = (eps1 - eps2)/2. Accepts scalars or arrays. An entry
    past the float range is inf, without a warning, for the finiteness
    check of the matrix to refuse.
    """
    eps1 = np.asarray(eps1, dtype=np.float64)
    eps2 = np.asarray(eps2, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    with np.errstate(over="ignore"):
        mid = (eps1 + eps2) / 2.0
        return mid + gamma, mid - gamma, (eps1 - eps2) / 2.0


def uniform_ladder(n_sites: int, delta: float, gamma: float) -> DisorderRealization:
    """Ladder with constant detuning and rung coupling on every cell, zero
    leg-1 energies and the perfect-state-transfer couplings.

    This bypasses the correlated sampling rule (``gamma_n`` is a free
    constant, not tied to the leg-1 energies); it is the configuration with a
    closed-form one-leg occupation, used to validate the evolution engine.
    Allows ``n_sites = 1`` (a bare dimer).
    """
    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    if n_sites > _MAX_SITES:
        raise ValueError(f"n_sites must be at most {_MAX_SITES}, got {n_sites}")
    for name, value in (("delta", delta), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    eps_leg1, delta_n = np.zeros(n_sites), np.full(n_sites, float(delta))
    return DisorderRealization(
        eps_leg1=eps_leg1,
        eps_leg2=eps_leg1 + delta_n,
        delta_n=delta_n,
        gamma_n=np.full(n_sites, float(gamma)),
        couplings=build_pst_couplings(n_sites) if n_sites >= 2 else np.zeros(0),
    )
