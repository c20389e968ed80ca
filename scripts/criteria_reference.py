#!/usr/bin/env python3
"""Reference sizes of acceptance criteria 5-7 and of the 1/W leakage check.

Every check runs at N = 30 and master seed 42. This script pools 2,000
realizations at each of the seeds 1, 2, 3, 7 and 1234, so each size a check
asserts is compared with values it did not produce:

  criterion 5  the paired gain C(W=10) - C(W=0.2) of the end-cell
               concurrence at Delta = 0.2 and t = tau = pi*N/4
  criterion 6  the saturated C(tau) at W = 10 for Delta in {0.05, 0.1, 0.2}
               and the paired gaps C(0.05) - C(0.1) and C(0.1) - C(0.2)
  criterion 7  the late-window minus-branch occupation p_- (the mean over
               t >= 5 tau of a 200-point grid on [0, 10 tau]) at Delta = 0.2,
               W = 0.2 and 10, and its paired difference p_-(10) - p_-(0.2)
  1/W leak     the late-window leak 1 - p_- at Delta = 0.2 and W in
               {10, 20, 40, 80}: the least-squares slope of log mean leak
               against log W, and the level W * leak at W = 10

Grid points that share a seed share realization streams, so gaps and
differences are paired. Every realization is evaluated on two paths:

  engine  one transfer_sweep over Delta in {0.05, 0.1, 0.2} x W in {0.2, 10}
          and one leakage_trace at W in {0.2, 10, 20, 40, 80}, as the checks
          call them
  expm    build_physical + scipy.linalg.expm on the site-basis Bell state
          (|1,leg1> - |1,leg2>)/sqrt(2): C = 2|f1 f2| read off the last rung
          at the four (W, Delta) points the criteria read; p_- = sum_n
          |psi_n1 - psi_n2|^2 / 2, from expm(-i t H) psi0 at the window's
          first time, then stepped by expm(-i dt H) over its times

The script prints each seed's means on both paths and the largest
per-realization deviation between them, then one pooled block, and exits 1
if the deviation exceeds PATH_TOL. Each pooled value is a mean of
per-realization values or paired differences over all seeds, with the
sample standard deviation over sqrt(count) as its standard error; the
slope's standard error is the delta method over the 4 x 4 covariance of the
four paired mean leaks. Run it on one core:

    python scripts/criteria_reference.py
"""

import os
import sys
import time

# A BLAS thread pool slows 60 x 60 expm down: 12 ms against 0.5 ms on one
# thread (2-vCPU VM, OpenBLAS 0.3.31). Set before numpy loads; an explicit
# setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from qladder.ensemble import derive_stream  # noqa: E402
from qladder.experiments import leakage_trace, transfer_sweep  # noqa: E402
from qladder.hamiltonian import build_physical  # noqa: E402
from qladder.model import LadderParams, sample_realization  # noqa: E402
from qladder.observables import transfer_time  # noqa: E402

N_SITES = 30
TAU = transfer_time(N_SITES)
DELTAS = (0.05, 0.1, 0.2)  # criterion 6; criteria 5 and 7 and the leak run at 0.2
W_LOW, W_HIGH = 0.2, 10.0
C_W = (W_LOW, W_HIGH)
# the (W, Delta) points whose C(tau) the criteria read: criterion 5's two, then criterion 6's
C_POINTS = ((W_LOW, 0.2), (W_HIGH, 0.05), (W_HIGH, 0.1), (W_HIGH, 0.2))
LEAK_W = (10.0, 20.0, 40.0, 80.0)
TRACE_W = (W_LOW, *LEAK_W)  # criterion 7 reads the first two
TIMES = np.linspace(0.0, 10.0 * TAU, 200)  # criterion 7's grid
LATE = TIMES >= 5.0 * TAU  # its late window
SEEDS = (1, 2, 3, 7, 1234)  # the checks run at 42
REALIZATIONS_PER_SEED = 2000
PATH_TOL = 1e-10


def _site_hamiltonian(w: float, delta: float, master_seed: int, index: int) -> np.ndarray:
    params = LadderParams(n_sites=N_SITES, disorder_w=w, detuning_delta=delta)
    return build_physical(sample_realization(params, derive_stream(master_seed, index))).entries


def _site_bell() -> np.ndarray:
    psi0 = np.zeros(2 * N_SITES, dtype=np.complex128)
    psi0[0], psi0[1] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    return psi0


def expm_concurrence(h: np.ndarray) -> float:
    """C(tau) of one site-basis Hamiltonian by dense propagation."""
    psi = expm(-1j * TAU * h) @ _site_bell()
    return 2.0 * abs(psi[-2]) * abs(psi[-1])


def expm_late_p_minus(h: np.ndarray) -> float:
    """The mean p_- over the late window of one site-basis Hamiltonian."""
    late = TIMES[LATE]
    psi = expm(-1j * late[0] * h) @ _site_bell()
    step = expm(-1j * (late[1] - late[0]) * h)  # the grid is uniform
    occupations = []
    for k in range(late.size):
        if k:
            psi = step @ psi
        occupations.append(0.5 * float(np.sum(np.abs(psi[0::2] - psi[1::2]) ** 2)))
    return float(np.mean(occupations))


def expm_realization(master_seed: int, index: int) -> tuple[list[float], list[float]]:
    """C(tau) at C_POINTS and the late-window p_- at TRACE_W of one realization,
    each (W, Delta) Hamiltonian built once."""
    points = {*C_POINTS, *((w, 0.2) for w in TRACE_W)}
    h = {point: _site_hamiltonian(*point, master_seed, index) for point in points}
    return ([expm_concurrence(h[point]) for point in C_POINTS],
            [expm_late_p_minus(h[w, 0.2]) for w in TRACE_W])


def run_seed(master_seed: int, n_realizations: int):
    """Engine and expm values of one seed, as (engine, expm) pairs: C(tau)
    of shape (4, n_realizations) in C_POINTS order, and the late-window p_-
    of shape (5, n_realizations) in TRACE_W order."""
    sweep = transfer_sweep(N_SITES, DELTAS, C_W, n_realizations, master_seed, keep_raw=True)
    conc = np.stack([sweep[delta][C_W.index(w)].per_realization for w, delta in C_POINTS])
    trace = leakage_trace(N_SITES, 0.2, TRACE_W, TIMES, n_realizations, master_seed,
                          keep_raw=True)
    p_minus = np.stack([trace[w].per_realization[:, LATE].mean(axis=1) for w in TRACE_W])
    direct = [expm_realization(master_seed, i) for i in range(n_realizations)]
    direct_conc = np.array([c for c, _ in direct]).T
    direct_p_minus = np.array([p for _, p in direct]).T
    return (conc, direct_conc), (p_minus, direct_p_minus)


def leak_slope(leak: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log mean leak against log W over LEAK_W, one
    row of paired per-realization leaks per W, and its standard error."""
    x = np.log(LEAK_W)
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    means = leak.mean(axis=1)
    gradient = weights / means  # d slope / d mean leak
    covariance = np.cov(leak) / leak.shape[1]
    return float(weights @ np.log(means)), float(np.sqrt(gradient @ covariance @ gradient))


def _pooled(values: np.ndarray) -> str:
    return f"{values.mean():.6f} +- {values.std(ddof=1) / np.sqrt(values.size):.6f}"


def main() -> int:
    start = time.perf_counter()
    concs, p_minuses = [], []
    worst = 0.0
    print(f"N={N_SITES}; C(tau) at (W, delta) in {C_POINTS}; "
          f"late-window p_- at delta=0.2, W in {TRACE_W}")
    print("seed  path    C(.2,.2) C(10,.05) C(10,.1) C(10,.2)  p_-(0.2) p_-(10)  p_-(20)  "
          "p_-(40)  p_-(80)")
    for seed in SEEDS:
        (conc, direct_conc), (p_minus, direct_p_minus) = run_seed(seed, REALIZATIONS_PER_SEED)
        deviation = max(float(np.max(np.abs(conc - direct_conc))),
                        float(np.max(np.abs(p_minus - direct_p_minus))))
        worst = max(worst, deviation)
        for name, values in (("engine", (conc, p_minus)), ("expm", (direct_conc, direct_p_minus))):
            means = " ".join(f"{m:.5f} " for m in np.concatenate([v.mean(axis=1) for v in values]))
            print(f"{seed:<5d} {name:<7s} {means}")
        print(f"{seed:<5d} max |engine - expm| = {deviation:.1e}")
        concs.append(conc)
        p_minuses.append(p_minus)

    conc, p_minus = np.concatenate(concs, axis=1), np.concatenate(p_minuses, axis=1)
    low, sat = conc[0], dict(zip(DELTAS, conc[1:]))
    leak = 1.0 - p_minus[1:]
    slope, slope_se = leak_slope(leak)
    print(f"pooled over {conc.shape[1]} realizations (seeds {' '.join(str(s) for s in SEEDS)}; "
          f"max |engine - expm| {worst:.1e}; {time.perf_counter() - start:.0f} s)")
    print(f"criterion 5: gain C(W=10) - C(W=0.2) at delta=0.2: {_pooled(sat[0.2] - low)}")
    for delta, values in sat.items():
        print(f"criterion 6: mean C(tau) at W=10, delta={delta}: {_pooled(values)}")
    print(f"criterion 6: gap C(0.05) - C(0.1): {_pooled(sat[0.05] - sat[0.1])}")
    print(f"criterion 6: gap C(0.1) - C(0.2): {_pooled(sat[0.1] - sat[0.2])}")
    for w, values in zip(TRACE_W[:2], p_minus):
        print(f"criterion 7: late-window p_- at W={w}: {_pooled(values)}")
    print(f"criterion 7: difference p_-(W=10) - p_-(W=0.2): {_pooled(p_minus[1] - p_minus[0])}")
    for w, values in zip(LEAK_W, leak):
        print(f"1/W leak: late-window 1 - p_- at W={w}: {_pooled(values)}, "
              f"W * leak {w * values.mean():.4f}")
    print(f"1/W leak: log-log slope over W in {LEAK_W}: {slope:.4f} +- {slope_se:.4f}")
    print(f"1/W leak: W * leak at W=10: {_pooled(LEAK_W[0] * leak[0])}")
    if worst > PATH_TOL:
        print(f"engine and expm disagree by {worst:.1e} > {PATH_TOL:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
