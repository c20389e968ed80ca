"""Ladder parameters, engineered couplings, and correlated disorder sampling.

Everything is dimensionless: the intra-leg hopping profile is normalized so
that its largest element is 1, and the disorder amplitudes ``disorder_w``
(global on-site) and ``detuning_delta`` (leg-2 detuning) are expressed in
units of that maximum hopping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CouplingScheme",
    "LadderParams",
    "DisorderRealization",
    "build_pst_couplings",
    "draw_disorder",
    "correlated_channel",
    "sample_realization",
    "effective_parameters",
    "uniform_ladder",
]


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def build_pst_couplings(n_sites: int) -> np.ndarray:
    """Perfect-state-transfer hopping profile sqrt(n*(N-n)) for n = 1..N-1.

    The sequence is divided by its maximum, so the largest entry is exactly
    1.0 (the energy unit) and the profile is palindromic.
    """
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites per leg, got {n_sites}")
    n = np.arange(1, n_sites, dtype=np.float64)
    couplings = np.sqrt(n * (n_sites - n))
    return couplings / couplings.max()


@dataclass(frozen=True)
class CouplingScheme:
    """Intra-leg hopping profile; build one via ``pst``, ``uniform`` or ``explicit``."""

    kind: str
    value: float = 1.0
    profile: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("pst", "uniform", "explicit"):
            raise ValueError(f"unknown coupling scheme {self.kind!r}")
        if self.kind == "uniform" and self.value == 0.0:
            raise ValueError("uniform coupling must be nonzero")
        if self.kind == "explicit":
            if len(self.profile) == 0:
                raise ValueError("explicit coupling profile is empty")
            if any(j == 0.0 for j in self.profile):
                raise ValueError("explicit couplings must all be nonzero")

    @classmethod
    def pst(cls) -> "CouplingScheme":
        return cls("pst")

    @classmethod
    def uniform(cls, value: float = 1.0) -> "CouplingScheme":
        return cls("uniform", value=float(value))

    @classmethod
    def explicit(cls, profile: Sequence[float]) -> "CouplingScheme":
        return cls("explicit", profile=tuple(float(j) for j in profile))

    def build(self, n_sites: int) -> np.ndarray:
        """Concrete N-1 hopping amplitudes for a ladder with N sites per leg."""
        if self.kind == "pst":
            return build_pst_couplings(n_sites)
        if self.kind == "uniform":
            return np.full(n_sites - 1, self.value)
        if len(self.profile) != n_sites - 1:
            raise ValueError(
                f"explicit profile has {len(self.profile)} entries, "
                f"need {n_sites - 1} for N={n_sites}"
            )
        return np.asarray(self.profile, dtype=np.float64)

    def describe(self):
        """JSON-ready description, used in output manifests."""
        if self.kind == "pst":
            return "pst"
        if self.kind == "uniform":
            return {"uniform": self.value}
        return {"explicit": list(self.profile)}


@dataclass(frozen=True)
class LadderParams:
    """Static problem definition for a family of disordered two-leg ladders.

    ``disorder_w`` is the half-width W of the uniform on-site distribution,
    ``detuning_delta`` the half-width of the leg-2 detuning distribution.
    The modeled regime keeps ``detuning_delta <= disorder_w``; pass
    ``allow_large_detuning=True`` to set the detuning independently.
    """

    n_sites: int
    disorder_w: float
    detuning_delta: float
    coupling_scheme: CouplingScheme = CouplingScheme.pst()
    allow_large_detuning: bool = False

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites per leg, got {self.n_sites}")
        if self.disorder_w < 0:
            raise ValueError("disorder_w must be nonnegative")
        if self.detuning_delta < 0:
            raise ValueError("detuning_delta must be nonnegative")
        if self.detuning_delta > self.disorder_w and not self.allow_large_detuning:
            raise ValueError(
                "detuning_delta exceeds disorder_w; pass allow_large_detuning=True "
                "to leave the modeled regime deliberately"
            )
        if self.coupling_scheme.kind == "explicit":
            self.coupling_scheme.build(self.n_sites)  # length check

    def couplings(self) -> np.ndarray:
        return self.coupling_scheme.build(self.n_sites)


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
    seed_tag: str = ""

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


def draw_disorder(
    params: LadderParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the disordered parameters of one realization as ``(eps_leg1, delta_n)``.

    Leg-1 energies are i.i.d. Uniform[-W, W] (N draws, consumed first), the
    per-cell detunings i.i.d. Uniform[-Delta, Delta] (N draws, consumed
    second); :func:`correlated_channel` derives the rest of the realization.
    The generator's half-open uniform convention is kept as-is; endpoint
    inclusion is measure-zero.
    """
    n = params.n_sites
    eps_leg1 = rng.uniform(-params.disorder_w, params.disorder_w, size=n)
    delta_n = rng.uniform(-params.detuning_delta, params.detuning_delta, size=n)
    return eps_leg1, delta_n


def correlated_channel(eps_leg1, delta_n) -> tuple[np.ndarray, np.ndarray]:
    """``(eps_leg2, gamma_n)`` of drawn ``eps_leg1`` and ``delta_n`` under the
    correlated channel rule, for one realization or an (R, N) stack.

    Leg-2 energies are ``eps_leg1 + delta_n`` and the rung couplings are
    locked to ``gamma_n = eps_leg1``, so the antisymmetric branch sees
    fluctuations weighted only by Delta.
    """
    return eps_leg1 + delta_n, eps_leg1


def sample_realization(
    params: LadderParams, rng: np.random.Generator, seed_tag: str = ""
) -> DisorderRealization:
    """One checked :class:`DisorderRealization` drawn by :func:`draw_disorder`
    under :func:`correlated_channel`."""
    eps_leg1, delta_n = draw_disorder(params, rng)
    eps_leg2, gamma_n = correlated_channel(eps_leg1, delta_n)
    return DisorderRealization(
        eps_leg1=eps_leg1,
        eps_leg2=eps_leg2,
        delta_n=delta_n,
        gamma_n=gamma_n,
        couplings=params.couplings(),
        seed_tag=seed_tag,
    )


def effective_parameters(eps1, eps2, gamma):
    """Per-cell potentials and coupling of the ladder in the +/- basis.

    Returns ``(eps_plus, eps_minus, gamma_tilde)`` with
    eps_plus/minus = (eps1 + eps2)/2 +/- gamma and
    gamma_tilde = (eps1 - eps2)/2. Accepts scalars or arrays.
    """
    eps1 = np.asarray(eps1, dtype=np.float64)
    eps2 = np.asarray(eps2, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    mid = (eps1 + eps2) / 2.0
    return mid + gamma, mid - gamma, (eps1 - eps2) / 2.0


def uniform_ladder(
    n_sites: int,
    delta: float,
    gamma: float,
    couplings=None,
    eps_leg1=None,
    seed_tag: str = "uniform",
) -> DisorderRealization:
    """Ladder with constant detuning and rung coupling on every cell.

    This bypasses the correlated sampling rule (``gamma_n`` is a free
    constant, not tied to the leg-1 energies); it is the configuration with a
    closed-form one-leg occupation, used to validate the evolution engine.
    Allows ``n_sites = 1`` (a bare dimer).
    """
    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    if eps_leg1 is None:
        eps_leg1 = np.zeros(n_sites)
    else:
        eps_leg1 = np.asarray(eps_leg1, dtype=np.float64)
    if couplings is None:
        couplings = build_pst_couplings(n_sites) if n_sites >= 2 else np.zeros(0)
    delta_n = np.full(n_sites, float(delta))
    return DisorderRealization(
        eps_leg1=eps_leg1,
        eps_leg2=eps_leg1 + delta_n,
        delta_n=delta_n,
        gamma_n=np.full(n_sites, float(gamma)),
        couplings=couplings,
        seed_tag=seed_tag,
    )
