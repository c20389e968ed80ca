"""Dense exact diagonalization and spectral time evolution.

Evolution goes through the full eigendecomposition: the matrices here are
small (2N <= a few hundred) and many evaluation times are needed per
realization, so U(t) = V exp(-i L t) V^T is both exact and fastest. One
kernel, :func:`propagate`, evolves a stack of eigensystems over a grid of
times at once; :func:`evolve` and :func:`evolve_series` are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    Basis,
    BasisMismatchError,
    HermitianOperator,
    StateVector,
    raise_first_failure,
)

__all__ = [
    "EigenSystem",
    "diagonalize",
    "eigendecompose",
    "propagate",
    "squared_norms",
    "evolve",
    "evolve_series",
    "expectation",
    "NORM_TOL",
]

# fixed, asserted in tests, not user-configurable
NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of an operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: Basis

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def diagonalize(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of one real
    symmetric matrix, or of each matrix of an (R, D, D) stack."""
    return np.linalg.eigh(entries)


def eigendecompose(operator: HermitianOperator) -> EigenSystem:
    """Full symmetric eigendecomposition, eigenvalues sorted ascending."""
    eigenvalues, eigenvectors = diagonalize(operator.entries)
    return EigenSystem(eigenvalues, eigenvectors, operator.basis)


def squared_norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """sum_d |psi_d|^2 of (R, D, T) real and imaginary parts, as an (R, T) array."""
    return np.einsum("rdt,rdt->rt", re, re) + np.einsum("rdt,rdt->rt", im, im)


def propagate(eigenvalues, eigenvectors, psi0, times) -> tuple[np.ndarray, np.ndarray]:
    """States exp(-i H_r t) psi0_r for a stack of eigensystems and every time at once.

    ``eigenvalues`` (R, D) and ``eigenvectors`` (R, D, D) are as returned by
    :func:`diagonalize`, ``psi0`` is (R, D), real or complex, and ``times`` is
    a 1-d grid. Returns the real and imaginary parts of the states, each
    (R, D, T), from two real matrix products per eigensystem. Where t == 0
    the state is psi0 itself, with no rounding through the eigenbasis. Every
    state is norm-checked: a drift above ``NORM_TOL`` raises
    :class:`GuardError` naming the first failing member.
    """
    times = np.asarray(times, dtype=np.float64)
    projector = np.swapaxes(eigenvectors, -1, -2)
    phase = eigenvalues[:, :, None] * times
    cos, sin = np.cos(phase), np.sin(phase)
    # eigenbasis coefficients a + ib of psi0; b = 0 for a real start state
    a = projector @ np.real(psi0)[:, :, None]
    b = projector @ np.imag(psi0)[:, :, None]
    re = eigenvectors @ (cos * a + sin * b)
    im = eigenvectors @ (cos * b - sin * a)
    at_zero = times == 0.0
    re[:, :, at_zero] = np.real(psi0)[:, :, None]
    im[:, :, at_zero] = np.imag(psi0)[:, :, None]
    drift = np.abs(squared_norms(re, im) - 1.0)
    raise_first_failure(
        ~(drift <= NORM_TOL),  # NaN fails too
        lambda r: f"norm drift {drift[r].max():.3e} exceeds {NORM_TOL}",
    )
    return re, im


def _validate_input(system: EigenSystem, state: StateVector):
    if state.basis is not system.basis:
        raise BasisMismatchError(
            f"state basis {state.basis} does not match eigensystem basis {system.basis}"
        )
    if state.dim != system.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, eigensystem {system.dim}")
    if abs(state.norm_sq() - 1.0) > NORM_TOL:
        raise ValueError(f"initial state is not normalized: |psi|^2 = {state.norm_sq()!r}")


def _propagate_one(system: EigenSystem, psi0: StateVector, times) -> np.ndarray:
    """(D, T) complex amplitudes of one state on a time grid."""
    _validate_input(system, psi0)
    re, im = propagate(
        system.eigenvalues[None], system.eigenvectors[None], psi0.amplitudes[None], times
    )
    return re[0] + 1j * im[0]


def evolve(system: EigenSystem, psi0: StateVector, t: float) -> StateVector:
    """Apply exp(-i H t) to a normalized state."""
    return StateVector(_propagate_one(system, psi0, [t])[:, 0], system.basis)


def evolve_series(system: EigenSystem, psi0: StateVector, times) -> list[StateVector]:
    """States exp(-i H t)|psi0> on an ascending time grid.

    The projection onto the eigenbasis is done once and shared by all times.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be a 1-d sequence")
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    block = _propagate_one(system, psi0, times)
    return [StateVector(block[:, k], system.basis) for k in range(times.size)]


def expectation(operator: HermitianOperator, state: StateVector) -> float:
    """Real quadratic form <psi|H|psi>."""
    if state.basis is not operator.basis:
        raise BasisMismatchError(
            f"state basis {state.basis} does not match operator basis {operator.basis}"
        )
    return float(np.real(state.amplitudes.conj() @ (operator.entries @ state.amplitudes)))
