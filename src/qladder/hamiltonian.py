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
    "HermitianOperator",
    "StateVector",
    "flat_index",
    "unit_state",
    "bell_minus_state",
    "build_physical",
    "build_effective",
    "assemble_effective",
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


def _check_entries(entries: np.ndarray) -> None:
    """Raise ValueError unless one matrix, or every matrix of a stack, is
    exactly symmetric and finite."""
    if not np.array_equal(entries, np.swapaxes(entries, -1, -2)):  # NaN fails too
        raise ValueError("entries must be exactly symmetric")
    if not np.all(np.isfinite(entries)):
        raise ValueError("entries contain non-finite values")


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
        _check_entries(entries)
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


def bell_minus_state(n_sites: int, cell: int = 1) -> StateVector:
    """Dual-rail encoded Bell state (|cell,leg1> - |cell,leg2>)/sqrt(2) = |cell,->."""
    return unit_state(n_sites, cell, Branch.MINUS, Basis.PLUS_MINUS)


def _assemble_ladder(diag0, diag1, rung, hopping) -> np.ndarray:
    """Dense 2N x 2N ladder matrix from per-cell diagonals, rung and hoppings.

    Leading axes of the inputs are stack axes: (R, N) diagonals give an
    (R, 2N, 2N) stack of matrices.
    """
    n = diag0.shape[-1]
    dim = 2 * n
    h = np.zeros(diag0.shape[:-1] + (dim, dim))
    # entry (i, j) is flat[i * dim + j], so each band is one strided slice:
    # (2k, 2k) at 2k (dim + 1), (2k+1, 2k+1) one row and column on, the rung
    # beside them, and the hopping (j, j + 2) at j (dim + 1) + 2
    flat = h.reshape(diag0.shape[:-1] + (dim * dim,))
    cell = 2 * (dim + 1)
    flat[..., 0::cell] = diag0
    flat[..., dim + 1 :: cell] = diag1
    flat[..., 1::cell] = rung
    flat[..., dim::cell] = rung
    hop = np.repeat(hopping, 2, axis=-1)
    flat[..., 2 : (dim - 2) * (dim + 1) : dim + 1] = hop
    flat[..., 2 * dim : 2 * dim + (dim - 2) * (dim + 1) : dim + 1] = hop
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
    cells = (realization.eps_leg1, realization.eps_leg2, realization.gamma_n)
    stack = assemble_effective(*(c[None] for c in cells), realization.couplings)
    return HermitianOperator(stack[0], Basis.PLUS_MINUS)


def assemble_effective(eps_leg1, eps_leg2, gamma_n, couplings) -> np.ndarray:
    """Stack of +/- basis Hamiltonians from (R, N) per-cell parameters.

    ``couplings`` is (N-1,), shared by the whole stack, or (R, N-1). Every
    matrix passes the exact-symmetry and finiteness checks of
    :class:`HermitianOperator`.
    """
    h = _assemble_ladder(*effective_parameters(eps_leg1, eps_leg2, gamma_n), couplings)
    _check_entries(h)
    return h


def effective_band(eps_leg1, eps_leg2, gamma_n, couplings) -> list[np.ndarray]:
    """The +/- basis Hamiltonians of (R, N) per-cell parameters as a band,
    realizations last: diagonal k of the three is (2N - k, R) and holds
    H_r[j + k, j] at [j, r], bitwise the entries :func:`assemble_effective`
    sets. ``couplings`` is (N-1,), shared by the stack as an axis of length
    1, or (R, N-1)."""
    eps_plus, eps_minus, gamma_tilde = effective_parameters(eps_leg1, eps_leg2, gamma_n)
    dim = 2 * eps_plus.shape[-1]
    diag = np.empty((dim, eps_plus.shape[0]))
    diag[0::2], diag[1::2] = eps_plus.T, eps_minus.T
    rung = np.zeros((dim - 1, eps_plus.shape[0]))
    rung[0::2] = gamma_tilde.T  # cells couple their own two slots only
    hop = np.repeat(np.atleast_2d(couplings).T, 2, axis=0)
    return [diag, rung, hop]


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
