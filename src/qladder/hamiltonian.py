"""Single-excitation Hamiltonians of the two-leg ladder and basis changes.

Flat index convention (shared by both bases): cell n (1-based) occupies the
two adjacent slots 2*(n-1) and 2*(n-1)+1. Slot order is (leg 1, leg 2) in the
site basis and (+, -) in the per-cell symmetric/antisymmetric basis, where
|n,+-> = (|n, leg1> +- |n, leg2>) / sqrt(2).
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
    "GuardError",
    "HermitianOperator",
    "StateVector",
    "flat_index",
    "unit_state",
    "bell_minus_state",
    "build_physical",
    "build_effective",
    "build_effective_stack",
    "raise_first_failure",
    "to_plus_minus",
    "to_physical",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)

_ASYMMETRIC = "entries must be exactly symmetric"
_NONFINITE = "entries contain non-finite values"


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


class GuardError(ArithmeticError):
    """A check failed on one member of a stack; ``row`` is its position in the stack."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def raise_first_failure(failed: np.ndarray, describe) -> None:
    """Raise :class:`GuardError` for the first row of ``failed`` holding a True entry.

    ``failed`` carries the stack on its first axis; ``describe(row)`` gives
    the message.
    """
    rows = np.flatnonzero(failed.reshape(failed.shape[0], -1).any(axis=1))
    if rows.size:
        row = int(rows[0])
        raise GuardError(row, describe(row))


def _entry_checks(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exactly symmetric, all finite) for one matrix or for each matrix of a stack."""
    symmetric = np.all(entries == np.swapaxes(entries, -1, -2), axis=(-2, -1))
    finite = np.all(np.isfinite(entries), axis=(-2, -1))
    return symmetric, finite


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
        symmetric, finite = _entry_checks(entries)
        if not symmetric:
            raise ValueError(_ASYMMETRIC)
        if not finite:
            raise ValueError(_NONFINITE)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_sites(self) -> int:
        return self.dim // 2


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


def bell_minus_state(n_sites: int, cell: int = 1) -> StateVector:
    """Dual-rail encoded Bell state (|cell,leg1> - |cell,leg2>)/sqrt(2) = |cell,->."""
    return unit_state(n_sites, cell, Branch.MINUS, Basis.PLUS_MINUS)


def _assemble_ladder(diag0, diag1, rung, hopping) -> np.ndarray:
    """Dense 2N x 2N ladder matrix from per-cell diagonals, rung and hoppings.

    Leading axes of the inputs are stack axes: (R, N) diagonals give an
    (R, 2N, 2N) stack of matrices.
    """
    n = diag0.shape[-1]
    h = np.zeros(diag0.shape[:-1] + (2 * n, 2 * n))
    slots0 = 2 * np.arange(n)
    slots1 = slots0 + 1
    h[..., slots0, slots0] = diag0
    h[..., slots1, slots1] = diag1
    h[..., slots0, slots1] = rung
    h[..., slots1, slots0] = rung
    cells = 2 * np.arange(n - 1)
    for off in (0, 1):
        h[..., cells + off, cells + 2 + off] = hopping
        h[..., cells + 2 + off, cells + off] = hopping
    return h


def build_physical(realization: DisorderRealization) -> HermitianOperator:
    """Site-basis Hamiltonian: on-site energies, intra-leg hoppings, rung couplings."""
    h = _assemble_ladder(
        realization.eps_leg1,
        realization.eps_leg2,
        realization.gamma_n,
        realization.couplings,
    )
    return HermitianOperator(h, Basis.PHYSICAL)


def build_effective(realization: DisorderRealization) -> HermitianOperator:
    """Hamiltonian in the +/- basis.

    Both branches keep the intra-leg hoppings; the on-site energies become
    (eps1 + eps2)/2 +- gamma and the branches couple through
    (eps1 - eps2)/2 on each cell.
    """
    return HermitianOperator(build_effective_stack([realization])[0], Basis.PLUS_MINUS)


def build_effective_stack(realizations) -> np.ndarray:
    """The :func:`build_effective` entries of equally sized realizations, as one
    (R, 2N, 2N) array.

    Every matrix passes the exact-symmetry and finiteness checks of
    :class:`HermitianOperator`; the first that fails raises :class:`GuardError`.
    """
    eps1, eps2, gamma, couplings = (
        np.stack([getattr(r, name) for r in realizations])
        for name in ("eps_leg1", "eps_leg2", "gamma_n", "couplings")
    )
    h = _assemble_ladder(*effective_parameters(eps1, eps2, gamma), couplings)
    symmetric, finite = _entry_checks(h)
    raise_first_failure(
        ~(symmetric & finite), lambda r: _NONFINITE if symmetric[r] else _ASYMMETRIC
    )
    return h


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
