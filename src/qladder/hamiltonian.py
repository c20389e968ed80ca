"""Single-excitation Hamiltonians of the two-leg ladder and basis changes.

Flat index convention (shared by both bases): cell n (1-based) occupies the
two adjacent slots 2*(n-1) and 2*(n-1)+1. Slot order is (leg 1, leg 2) in the
site basis and (+, -) in the per-cell symmetric/antisymmetric basis, where
|n,+-> = (|n, leg1> +- |n, leg2>) / sqrt(2).

Both bases' Hamiltonians are built as their band, realizations last
(:func:`_ladder_band`): the ensemble engine hands the +/- basis band of a
stack (:func:`effective_band`) to :func:`~qladder.spectral.diagonalize` as
is, and :func:`build_physical` and :func:`build_effective` expand one
realization's band into a dense :class:`HermitianOperator`, which checks
that it is exactly symmetric and finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import DisorderRealization, effective_parameters

__all__ = [
    "Basis",
    "Leg",
    "Branch",
    "BasisMismatchError",
    "HermitianOperator",
    "StateVector",
    "flat_index",
    "unit_state",
    "bell_minus_state",
    "build_physical",
    "build_effective",
    "effective_band",
    "to_plus_minus",
    "to_physical",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class Basis(enum.Enum):
    PHYSICAL = "physical"
    PLUS_MINUS = "plus_minus"


class Leg(enum.IntEnum):
    """Slot offsets of the two legs in the physical basis."""

    ONE = 0
    TWO = 1


class Branch(enum.IntEnum):
    """Slot offsets of the symmetric (+) and antisymmetric (-) branches."""

    PLUS = 0
    MINUS = 1


class BasisMismatchError(ValueError):
    """A state or operator carries a different basis tag than required."""


def flat_index(cell: int, slot: int, n_sites: int) -> int:
    """Flat index of (cell, slot) with 1-based cells and slot in {0, 1}."""
    if not 1 <= cell <= n_sites:
        raise ValueError(f"cell {cell} out of range 1..{n_sites}")
    if slot not in (0, 1):
        raise ValueError(f"slot must be 0 or 1, got {slot}")
    return 2 * (cell - 1) + slot


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Real symmetric operator on the 2N-dimensional single-excitation space."""

    entries: np.ndarray
    basis: Basis

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if entries.shape[0] % 2 or entries.shape[0] < 2:
            raise ValueError(f"dimension must be even and >= 2, got {entries.shape[0]}")
        if not np.array_equal(entries, entries.T):  # NaN fails too
            raise ValueError("entries must be exactly symmetric")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries contain non-finite values")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the single-excitation space, with basis tag."""

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size % 2 or amps.size < 2:
            raise ValueError(f"amplitudes must be a 1-d vector of even length, got shape {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def n_sites(self) -> int:
        return self.dim // 2

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def cell_pair(self, cell: int) -> tuple[complex, complex]:
        """Amplitudes of the two slots of one cell (leg 1/leg 2 or +/-)."""
        base = flat_index(cell, 0, self.n_sites)
        return complex(self.amplitudes[base]), complex(self.amplitudes[base + 1])


def unit_state(n_sites: int, cell: int, slot: int, basis: Basis) -> StateVector:
    """Basis state with amplitude 1 at (cell, slot)."""
    amps = np.zeros(2 * n_sites, dtype=np.complex128)
    amps[flat_index(cell, int(slot), n_sites)] = 1.0
    return StateVector(amps, basis)


def bell_minus_state(n_sites: int) -> StateVector:
    """The dual-rail encoded Bell pair on cell 1, (|1,leg1> - |1,leg2>)/sqrt(2) = |1,->."""
    return unit_state(n_sites, 1, Branch.MINUS, Basis.PLUS_MINUS)


def _ladder_band(diag0, diag1, rung, hopping) -> list[np.ndarray]:
    """The band of the 2N x 2N ladder matrices of (R, N) per-cell diagonals
    and rungs, realizations last: diagonal k of the three is (2N - k, R)
    and holds H_r[j + k, j] at [j, r]. A cell's two slots take ``diag0``
    and ``diag1`` and couple through its ``rung`` only; ``hopping`` is
    (N-1,), shared by the stack as an axis of length 1, or (R, N-1), and
    couples slot j to j + 2."""
    dim, count = 2 * diag0.shape[-1], diag0.shape[0]
    diag = np.empty((dim, count))
    diag[0::2], diag[1::2] = diag0.T, diag1.T
    rungs = np.zeros((dim - 1, count))
    rungs[0::2] = rung.T
    return [diag, rungs, np.repeat(np.atleast_2d(hopping).T, 2, axis=0)]


def _dense(band) -> np.ndarray:
    """The (R, D, D) stack of symmetric matrices whose band, realizations
    last, is ``band``."""
    dim, count = band[0].shape
    h = np.zeros((count, dim, dim))
    # entry (i, j) is flat[i * dim + j], so each diagonal is one strided slice:
    # (j + k, j) from k dim on and (j, j + k) from k, each a step of dim + 1
    flat = h.reshape(count, dim * dim)
    for k, diagonal in enumerate(band):
        span = (dim - k) * (dim + 1)
        flat[:, k * dim : k * dim + span : dim + 1] = diagonal.T
        flat[:, k : k + span : dim + 1] = diagonal.T
    return h


def build_physical(realization: DisorderRealization) -> HermitianOperator:
    """Site-basis Hamiltonian: on-site energies, intra-leg hoppings, rung couplings."""
    cells = (realization.eps_leg1, realization.eps_leg2, realization.gamma_n)
    band = _ladder_band(*(c[None] for c in cells), realization.couplings)
    return HermitianOperator(_dense(band)[0], Basis.PHYSICAL)


def build_effective(realization: DisorderRealization) -> HermitianOperator:
    """Hamiltonian in the +/- basis.

    Both branches keep the intra-leg hoppings; the on-site energies become
    (eps1 + eps2)/2 +- gamma and the branches couple through
    (eps1 - eps2)/2 on each cell.
    """
    cells = (realization.eps_leg1, realization.eps_leg2, realization.gamma_n)
    band = effective_band(*(c[None] for c in cells), realization.couplings)
    return HermitianOperator(_dense(band)[0], Basis.PLUS_MINUS)


def effective_band(eps_leg1, eps_leg2, gamma_n, couplings) -> list[np.ndarray]:
    """The band of the +/- basis Hamiltonians of (R, N) per-cell
    parameters, as :func:`_ladder_band` lays it out; ``couplings`` is
    (N-1,) or (R, N-1)."""
    return _ladder_band(*effective_parameters(eps_leg1, eps_leg2, gamma_n), couplings)


def _mix_cells(amplitudes: np.ndarray) -> np.ndarray:
    # the per-cell map ((a+b)/sqrt2, (a-b)/sqrt2) is its own inverse
    pairs = amplitudes.reshape(-1, 2)
    mixed = np.empty_like(pairs)
    mixed[:, 0] = (pairs[:, 0] + pairs[:, 1]) * _SQRT1_2
    mixed[:, 1] = (pairs[:, 0] - pairs[:, 1]) * _SQRT1_2
    return mixed.reshape(-1)


def to_plus_minus(state: StateVector) -> StateVector:
    """Re-express a site-basis state in the +/- basis."""
    if state.basis is not Basis.PHYSICAL:
        raise BasisMismatchError(f"expected a {Basis.PHYSICAL} state, got {state.basis}")
    return StateVector(_mix_cells(state.amplitudes), Basis.PLUS_MINUS)


def to_physical(state: StateVector) -> StateVector:
    """Re-express a +/- basis state in the site basis."""
    if state.basis is not Basis.PLUS_MINUS:
        raise BasisMismatchError(f"expected a {Basis.PLUS_MINUS} state, got {state.basis}")
    return StateVector(_mix_cells(state.amplitudes), Basis.PHYSICAL)
