"""Exact diagonalization of banded matrices and spectral time evolution.

Evolution here goes through the full eigendecomposition: the matrices are
small (2N <= a few hundred) and a trace reads many times per realization,
so U(t) = V exp(-i L t) V^T is both exact and fastest. The ladder couples
only neighbouring slots, so :func:`diagonalize` takes a stack as the band
it is built as and hands each matrix to LAPACK's band eigensolver
``dsbevd``, called through ``ctypes`` in the OpenBLAS that numpy bundles
(dense ``np.linalg.eigh`` without it); :func:`eigendecompose` gives it one
matrix's band. One kernel, :func:`propagate`, evolves a stack of
eigensystems over a grid of times at once, for only the state entries a
readout reads; :func:`evolve_series` is a stack of one, and :func:`evolve`
is :func:`evolve_series` at a single time. A readout at one time needs no
eigenvectors: :mod:`qladder.chebyshev` evolves such a state by a Chebyshev
expansion instead, which :func:`eigen_error_bound` lets this path audit.

Conservation is checked once per eigensystem and start state, not per
evolved state: :func:`certify` turns the eigensystem's orthonormality error
and eigen-residual into bounds on the norm and energy drift of the state
evolved from that start, at every time, and raises when a bound exceeds its
tolerance and the eigensystem is not accurate to rounding. Where only the
rounding of a large matrix (a large norm of H or a large dimension) puts a
bound over its tolerance, it measures the norm and energy of the whole
states at the readout times instead. The ensemble engine and
:func:`evolve_series` both judge the evolution they read out by one call to
:func:`certify`.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hamiltonian import BasisMismatchError, HermitianOperator, StateVector, _dense

__all__ = [
    "EigenSystem",
    "diagonalize",
    "certify",
    "eigen_error_bound",
    "eigendecompose",
    "propagate",
    "squared_norms",
    "evolve",
    "evolve_series",
    "expectation",
    "NORM_TOL",
    "ENERGY_TOL",
]

# drift tolerances along every evolved trajectory; fixed, asserted in tests,
# not user-configurable
NORM_TOL = 1e-10
ENERGY_TOL = 1e-9

_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the relative rounding of n floating-point operations."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of
    ``operator``, which :func:`evolve_series` certifies for the state it
    evolves."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    operator: HermitianOperator

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@cache
def _openblas():
    """The OpenBLAS that numpy bundles, as a ctypes library whose LAPACK
    ``scipy_dsbevd_64_`` and thread-count functions
    ``scipy_openblas_get_num_threads64_``/``scipy_openblas_set_num_threads64_``
    are set up for calls, or None where numpy bundles none (or one without
    all three). The one binding of it: the eigensolver calls it and the
    ensemble engine pins its thread count."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            dsbevd, get, set_ = (lib.scipy_dsbevd_64_, lib.scipy_openblas_get_num_threads64_,
                                 lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        # JOBZ, UPLO, N, KD, AB, LDAB, W, Z, LDZ, WORK, LWORK, IWORK, LIWORK,
        # INFO, then gfortran's hidden lengths of the two strings
        dsbevd.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 12 + [ctypes.c_size_t] * 2
        dsbevd.restype = None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


def diagonalize(band) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of each
    real symmetric matrix of a stack, given by its lower band as
    :func:`~qladder.hamiltonian._ladder_band` lays it out: ``band[k]`` is
    the (D - k, R) k-th subdiagonal, holding H_r[j + k, j] at [j, r], or
    (D - k, 1), shared by the stack. Returns (R, D) and (R, D, D) arrays.

    The ladder couples only neighbouring slots, so its band has three
    diagonals: half-bandwidth kd = 2. Each matrix goes to LAPACK's band
    solver ``dsbevd`` in numpy's bundled OpenBLAS with kd = len(band) - 1,
    which reads only the band, so a matrix gives bitwise the same
    eigensystem in any stack with as many diagonals. Without that library,
    ``np.linalg.eigh`` diagonalizes the dense stack instead.
    """
    lib = _openblas()
    if lib is None:
        return np.linalg.eigh(_dense(band))
    dim, count = band[0].shape
    width = len(band)
    # lower band storage, Fortran (width, D) per matrix: ab[r, j, k] = H[r, j + k, j]
    ab = np.zeros((count, dim, width))
    for k, diagonal in enumerate(band):
        ab[:, : dim - k, k] = diagonal.T
    eigenvalues = np.empty((count, dim))
    # Fortran's column-major eigenvector matrix Z is row-major Z^T
    vectors_t = np.empty((count, dim, dim))
    # workspaces of this call alone, so concurrent callers share nothing
    work = np.empty(1 + 5 * dim + 2 * dim * dim)
    iwork = np.empty(3 + 5 * dim, dtype=np.int64)
    info = ctypes.c_int64()
    n, kd, ldab, lwork, liwork = (
        ctypes.byref(ctypes.c_int64(v)) for v in (dim, width - 1, width, work.size, iwork.size)
    )
    ab_p, w, z, work_p, iwork_p = (
        array.ctypes.data for array in (ab, eigenvalues, vectors_t, work, iwork)
    )
    dsbevd = lib.scipy_dsbevd_64_
    for r in range(count):
        dsbevd(b"V", b"L", n, kd, ab_p + r * ab.strides[0], ldab, w + r * eigenvalues.strides[0],
               z + r * vectors_t.strides[0], n, work_p, lwork, iwork_p, liwork,
               ctypes.byref(info), 1, 1)
        if info.value:
            raise np.linalg.LinAlgError(f"dsbevd failed with info {info.value}")
    return eigenvalues, vectors_t.transpose(0, 2, 1)


def certify(entries, eigenvalues, eigenvectors, psi0, times) -> tuple:
    """Judge the norm and energy drift of the states evolved from ``psi0``.

    ``entries`` is an (R, D, D) stack of real symmetric matrices H, with the
    ``eigenvalues`` L and ``eigenvectors`` V that :func:`diagonalize` returned
    for its band, ``psi0`` the (R, D) stack of unit start states, real or complex,
    and ``times`` the 1-d grid the caller reads out. Returns a boolean array
    over the stack, True where both drift bounds are within ``NORM_TOL`` and
    ``ENERGY_TOL``, so no evolved state needs checking, and the arrays of e
    and r below and of max |L|, which :func:`eigen_error_bound` reads. False
    marks a matrix whose bound is over its tolerance although its
    eigensystem is accurate to rounding (backward stable: e <= max(D, 16) D
    u and r <= max(D, 16) D u h, the order of the worst-case backward error of a Householder-based
    symmetric eigensolver, with a floor for D < 16, where the e of
    ``dsbevd`` and of ``eigh`` alike exceeds D^2 u at D <= 4). Its bound is
    then loose by the rounding of a large H or D, so its whole states at
    ``times`` are propagated and measured, raising ArithmeticError ("norm
    drift ... exceeds ...", "energy drift ... exceeds ...") when one drifts
    from psi0 by more than a tolerance. Any other matrix raises ArithmeticError ("norm drift bound
    ... exceeds ...", "energy drift bound ... exceeds ..."). Each matrix is
    judged on its own, so a stack gives what each of its matrices would give
    alone.

    The bounds hold at every time t for the states :func:`propagate`
    computes, rounding included. With e and r the Frobenius norms (at least
    the spectral norms) of V^T V - I and of R = H V - V L, and a = V^T psi0,
    c = exp(-i L t) a, psi(t) = V c:

    - V V^T - I has the spectrum of V^T V - I, so |a|^2 and |V c|^2 / |c|^2
      lie in [1 - e, 1 + e], and |c| = |a|: the norm drifts by at most
      e (2 + e).
    - psi^* H psi = c^* V^T H V c with V^T H V = L + (V^T V - I) L + V^T R,
      where c^* L c = a^* L a at every t, and a^* L a - psi0^* H psi0 =
      psi0^* (H F - R V^T) psi0 with F = V V^T - I. So the energy drifts by
      at most sqrt(1 + e) (e |L a| + (2 + e) r) + e |H psi0|, where |H| <=
      h = (sqrt(1 + e) max |L| + r) / sqrt(1 - e), since H = (V L + R) V^-1
      (h = inf for e >= 1, where the norm bound e (2 + e) >= 3 fails anyway).
    - The evolution products round each entry by at most gamma_2D = 2Du /
      (1 - 2Du) of its absolute sum (u the unit roundoff), so the computed
      state is within p = 2 gamma_2D sqrt(D) (1 + e) of psi(t), for a real
      or complex psi0. That adds 2 (1 + e) p + p^2 to the norm bound and,
      as |H psi(t)| <= sqrt(1 + e) (|L a| + r), 2 p sqrt(1 + e) (|L a| + r)
      + h p^2 to the energy bound.

    At t = 0 :func:`propagate` returns psi0 itself, with no drift.
    """
    norm_bounds, energy_bounds, stable, e, r, spreads = _drift_bounds(entries, eigenvalues,
                                                                      eigenvectors, psi0)
    bounded = (norm_bounds <= NORM_TOL) & (energy_bounds <= ENERGY_TOL)  # NaN fails too
    failed = np.flatnonzero(~bounded & ~stable)
    if failed.size:
        norm_bound, energy_bound = norm_bounds[failed[0]], energy_bounds[failed[0]]
        if not norm_bound <= NORM_TOL:
            raise ArithmeticError(f"norm drift bound {norm_bound:.3e} exceeds {NORM_TOL}")
        raise ArithmeticError(f"energy drift bound {energy_bound:.3e} exceeds {ENERGY_TOL}")
    if not bounded.all():
        unsure = ~bounded
        states = propagate(eigenvalues[unsure], eigenvectors[unsure], psi0[unsure], times)
        _measure_drift(entries[unsure], psi0[unsure], *states)
    return bounded, e, r, spreads


def _drift_bounds(entries, eigenvalues, eigenvectors, psi0):
    """Per matrix of the stack: the norm and energy drift bounds of
    :func:`certify`, whether the eigensystem is backward stable, e, r and max |L|."""
    dim = entries.shape[-1]
    spreads = np.max(np.abs(eigenvalues), axis=-1)
    gamma = _gamma(2 * dim)
    stable_tol = max(dim, 16) * dim * _UNIT_ROUNDOFF
    bounds = []
    # a product past the float range is inf or NaN, and its bound fails
    with np.errstate(over="ignore", invalid="ignore"):
        lam_as = np.linalg.norm(eigenvalues * (psi0[:, None, :] @ eigenvectors)[:, 0], axis=-1)
        h_psi0s = np.linalg.norm((entries @ psi0[..., None])[..., 0], axis=-1)
        # one matrix at a time: (D, D) temporaries stay in cache, where (R, D, D)
        # ones slowed the whole fig1 loop by more than the products cost
        for matrix, vecs, vals, m, lam_a, h_psi0 in zip(
            entries, eigenvectors, eigenvalues, spreads.tolist(), lam_as.tolist(), h_psi0s.tolist()
        ):
            e, r = _eigen_errors(matrix, vals, vecs)
            p = 2 * gamma * math.sqrt(dim) * (1 + e)
            h = (math.sqrt(1 + e) * m + r) / math.sqrt(1 - e) if e < 1 else math.inf
            bounds.append((
                e * (2 + e) + p * (2 * (1 + e) + p),
                math.sqrt(1 + e) * (e * lam_a + (2 + e) * r + 2 * p * (lam_a + r))
                + e * h_psi0
                + h * p * p,
                e <= stable_tol and r <= stable_tol * h, e, r,
            ))
    return (*(np.array(column) for column in zip(*bounds)), spreads)


def _eigen_errors(matrix, eigenvalues, eigenvectors) -> tuple[float, float]:
    """Frobenius norms e of V^T V - I and r of H V - V L for one eigensystem."""
    gram = eigenvectors.T @ eigenvectors
    gram.flat[:: matrix.shape[-1] + 1] -= 1.0
    residual = matrix @ eigenvectors - eigenvectors * eigenvalues
    return math.sqrt(np.vdot(gram, gram)), math.sqrt(np.vdot(residual, residual))


def eigen_error_bound(e, r, spread, dim: int, t) -> np.ndarray:
    """A bound on the distance between the state :func:`propagate` computes
    at time t >= 0 from a unit start and the exact exp(-i H t) psi0, per
    entry of the errors e and r and the spreads max |L| that :func:`certify`
    returned for (D, D) eigensystems, D = ``dim``.

    eps(t) = V exp(-i L t) V^T psi0 - exp(-i H t) psi0 starts at |(V V^T -
    I) psi0| <= e and obeys i eps' = H eps - R exp(-i L t) V^T psi0, so
    |eps(t)| <= e + t r sqrt(1 + e). The computed phase factors are off
    exp(-i L_j t) by d_j: L_j t is rounded once, by at most max |L| t u,
    which moves a factor by as much, and numpy's float64 cos and sin are
    taken to be within one ulp, at most 2u on [-1, 1] (numpy's own accuracy
    tests allow 1 ulp for both), which adds at most 2 sqrt(2) u. As |V| <=
    sqrt(1 + e) and |V^T psi0| <= sqrt(1 + e), they move the state by |V
    diag(d) V^T psi0| <= (1 + e) (max |L| t + 2 sqrt(2)) u. The rounding of
    the products adds p = 2 gamma_2D sqrt(D) (1 + e).
    """
    return (e + t * r * np.sqrt(1 + e) + (1 + e) * (spread * t + 2 * math.sqrt(2)) * _UNIT_ROUNDOFF
            + 2 * _gamma(2 * dim) * math.sqrt(dim) * (1 + e))


def _measure_drift(entries, psi0, re, im) -> None:
    """Raise ArithmeticError when a state, with (R, D, T) parts ``re`` and
    ``im`` evolved from the (R, D) unit ``psi0`` under ``entries``, is off
    unit norm by more than ``NORM_TOL`` or off psi0's energy by more than
    ``ENERGY_TOL``."""
    energy0 = _energies(entries, np.real(psi0)[..., None], np.imag(psi0)[..., None])
    _judge_drift(squared_norms(re, im), _energies(entries, re, im), energy0)


def _judge_drift(norms, energies, energy0) -> None:
    """Raise ArithmeticError when a squared norm is off 1 by more than
    ``NORM_TOL`` or an energy is off its start ``energy0`` by more than
    ``ENERGY_TOL``."""
    drift = np.abs(norms - 1.0)
    if not np.all(drift <= NORM_TOL):  # NaN fails too
        raise ArithmeticError(f"norm drift {drift.max():.3e} exceeds {NORM_TOL}")
    drift = np.abs(energies - energy0)
    if not np.all(drift <= ENERGY_TOL):
        raise ArithmeticError(f"energy drift {drift.max():.3e} exceeds {ENERGY_TOL}")


def _energies(entries, re, im) -> np.ndarray:
    """psi^* H psi = re^T H re + im^T H im of (R, D, T) parts, as an (R, T) array."""
    return np.einsum("rdt,rdt->rt", re, entries @ re) + np.einsum("rdt,rdt->rt", im, entries @ im)


def _band(matrix) -> list[np.ndarray]:
    """The band of one symmetric matrix as a stack of one, as
    :func:`diagonalize` takes it, up to its last nonzero subdiagonal."""
    rows, cols = np.nonzero(matrix)
    kd = int(np.max(rows - cols, initial=0))
    return [np.diagonal(matrix, -k)[:, None] for k in range(kd + 1)]


def eigendecompose(operator: HermitianOperator) -> EigenSystem:
    """Full symmetric eigendecomposition, eigenvalues sorted ascending."""
    eigenvalues, eigenvectors = diagonalize(_band(operator.entries))
    return EigenSystem(eigenvalues[0], eigenvectors[0], operator)


def squared_norms(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """sum_d |psi_d|^2 of (R, D, T) real and imaginary parts, as an (R, T) array."""
    return np.einsum("rdt,rdt->rt", re, re) + np.einsum("rdt,rdt->rt", im, im)


def propagate(
    eigenvalues, eigenvectors, psi0, times, rows=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Entries ``rows`` of the states exp(-i H_r t) psi0_r for a stack of
    eigensystems and every time at once.

    ``eigenvalues`` (R, D) and ``eigenvectors`` (R, D, D) are as returned by
    :func:`diagonalize`, ``psi0`` is (R, D), real or complex, ``times`` is a
    1-d grid and ``rows`` indexes the K state entries to compute (all by
    default). The eigenbasis weights a = V^T psi0 are folded into the
    eigenvector rows asked for, so each part is one real (K, D) @ (D, T)
    product per eigensystem: Re psi[rows] = (V[rows] a) @ cos(L t) for a real
    start. Returns the real and imaginary parts, each (R, K, T). Where
    t == 0 the entries are psi0's own, with no rounding through the
    eigenbasis. :func:`certify` bounds the drift of every state an
    eigensystem can evolve; checked here is only what no bound covers, a
    phase L t past the float range ("phase L t overflows ...").
    """
    times = np.asarray(times, dtype=np.float64)
    # no |L t| exceeds max |L| max |t|, and rounding keeps that order
    spread = float(np.max(np.abs(eigenvalues)))
    span = float(np.max(np.abs(times), initial=0.0))
    if not math.isfinite(spread * span):  # NaN fails too
        raise ArithmeticError(f"phase L t overflows: |L| {spread:.3e} at t {span:.3e}")
    phase = eigenvalues[:, :, None] * times
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)  # one (R, D, T) buffer fewer
    basis_rows = eigenvectors[:, rows]
    # eigenbasis weights a + ib of psi0, as (R, 1, D) rows; b = 0 for a real start
    weights = basis_rows * (np.real(psi0)[:, None, :] @ eigenvectors)
    re = weights @ cos
    im = -weights @ sin
    if np.iscomplexobj(psi0):
        weights = basis_rows * (np.imag(psi0)[:, None, :] @ eigenvectors)
        re += weights @ sin
        im += weights @ cos
    at_zero = times == 0.0
    re[:, :, at_zero] = np.real(psi0)[:, rows, None]
    im[:, :, at_zero] = np.imag(psi0)[:, rows, None]
    return re, im


def evolve(system: EigenSystem, psi0: StateVector, t: float) -> StateVector:
    """Apply exp(-i H t) to a normalized state."""
    return evolve_series(system, psi0, [t])[0]


def evolve_series(system: EigenSystem, psi0: StateVector, times) -> list[StateVector]:
    """States exp(-i H t)|psi0> on an ascending time grid.

    The projection onto the eigenbasis is done once and shared by all times.
    The drift of the states is judged for ``psi0`` by :func:`certify`.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError("times must be a 1-d sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    basis = system.operator.basis
    if psi0.basis is not basis:
        raise BasisMismatchError(
            f"state basis {psi0.basis} does not match eigensystem basis {basis}"
        )
    if psi0.dim != system.dim:
        raise ValueError(f"dimension mismatch: state {psi0.dim}, eigensystem {system.dim}")
    if abs(psi0.norm_sq() - 1.0) > NORM_TOL:
        raise ValueError(f"initial state is not normalized: |psi|^2 = {psi0.norm_sq()!r}")
    entries, start = system.operator.entries[None], psi0.amplitudes[None]
    eigenvalues, eigenvectors = system.eigenvalues[None], system.eigenvectors[None]
    certify(entries, eigenvalues, eigenvectors, start, times)
    re, im = propagate(eigenvalues, eigenvectors, start, times)
    return [StateVector(re[0, :, k] + 1j * im[0, :, k], basis) for k in range(times.size)]


def expectation(operator: HermitianOperator, state: StateVector) -> float:
    """Real quadratic form <psi|H|psi>."""
    if state.basis is not operator.basis:
        raise BasisMismatchError(
            f"state basis {state.basis} does not match operator basis {operator.basis}"
        )
    return float(np.real(state.amplitudes.conj() @ (operator.entries @ state.amplitudes)))
