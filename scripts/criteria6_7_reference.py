#!/usr/bin/env python3
"""Reference sizes of acceptance criteria 6 and 7, from seeds other than 42.

Criterion 6 orders the saturated mean C(tau) at W = 10 by the detuning
Delta in {0.05, 0.1, 0.2}; criterion 7 compares the late-window minus-branch
occupation p_- (the mean over t >= 5 tau of a 200-point grid on [0, 10 tau])
at W = 0.2 and W = 10, Delta = 0.2. Both run at N = 30 and seed 42. This
script estimates the sizes behind those directions from many realizations at
master seeds other than 42, so each criterion's sample is checked against
values it did not produce:

  criterion 6  the three saturated means and the two paired gaps
               C(0.05) - C(0.1) and C(0.1) - C(0.2) (the detunings share
               realization streams)
  criterion 7  the late-window mean p_- at both W and their paired
               difference p_-(W=10) - p_-(W=0.2) (the W values share streams)

Every realization is evaluated on two paths:

  engine  transfer_sweep and leakage_trace, as the criteria call them
  expm    build_physical + scipy.linalg.expm on the site-basis Bell state
          (|1,leg1> - |1,leg2>)/sqrt(2): C = 2|f1 f2| read off the last rung;
          p_- = sum_n |psi_n1 - psi_n2|^2 / 2, from expm(-i t H) psi0 at the
          window's first time, then stepped by expm(-i dt H) over its times

The script prints each seed's values on both paths and the largest
per-realization deviation between them, and exits 1 if that exceeds
PATH_TOL. Pooled values are means of the per-realization values (or paired
differences) over all seeds; each standard error is the sample standard
deviation over sqrt(count). Run it on one core:

    python scripts/criteria6_7_reference.py
"""

import os
import sys
import time

# A BLAS thread pool slows 60 x 60 expm down (see criterion5_reference.py).
# Set before numpy loads; an explicit setting wins.
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
C6_W, C6_DELTAS = 10.0, (0.05, 0.1, 0.2)
C7_DELTA, C7_W = 0.2, (0.2, 10.0)
TAU = transfer_time(N_SITES)
TIMES = np.linspace(0.0, 10.0 * TAU, 200)  # criterion 7's grid
LATE = TIMES >= 5.0 * TAU  # its late window
SEEDS = (1, 2, 3, 7, 1234)  # criteria 6 and 7 run at 42
REALIZATIONS_PER_SEED = 2000
PATH_TOL = 1e-10


def _site_hamiltonian(w: float, delta: float, master_seed: int, index: int) -> np.ndarray:
    params = LadderParams(n_sites=N_SITES, disorder_w=w, detuning_delta=delta)
    return build_physical(sample_realization(params, derive_stream(master_seed, index))).entries


def _site_bell() -> np.ndarray:
    psi0 = np.zeros(2 * N_SITES, dtype=np.complex128)
    psi0[0], psi0[1] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    return psi0


def expm_saturation(master_seed: int, index: int) -> list[float]:
    """C(tau) of one realization at W = 10 for each of criterion 6's detunings."""
    values = []
    for delta in C6_DELTAS:
        psi = expm(-1j * TAU * _site_hamiltonian(C6_W, delta, master_seed, index)) @ _site_bell()
        values.append(2.0 * abs(psi[-2]) * abs(psi[-1]))
    return values


def expm_late_leak(w: float, master_seed: int, index: int) -> float:
    """The mean p_- over criterion 7's late window of one realization at W."""
    h = _site_hamiltonian(w, C7_DELTA, master_seed, index)
    late = TIMES[LATE]
    psi = expm(-1j * late[0] * h) @ _site_bell()
    step = expm(-1j * (late[1] - late[0]) * h)  # the grid is uniform
    occupations = []
    for k in range(late.size):
        if k:
            psi = step @ psi
        occupations.append(0.5 * float(np.sum(np.abs(psi[0::2] - psi[1::2]) ** 2)))
    return float(np.mean(occupations))


def run_seed(master_seed: int, n_realizations: int):
    """Engine and expm values of one seed: criterion 6's C(tau), shape (3,
    n_realizations) in C6_DELTAS order, and criterion 7's late-window p_-,
    shape (2, n_realizations) in C7_W order, as (engine, expm) pairs."""
    sweep = transfer_sweep(N_SITES, C6_DELTAS, [C6_W], n_realizations, master_seed, keep_raw=True)
    saturation = np.stack([sweep[delta][0].per_realization for delta in C6_DELTAS])
    trace = leakage_trace(N_SITES, C7_DELTA, C7_W, TIMES, n_realizations, master_seed,
                          keep_raw=True)
    leak = np.stack([trace[w].per_realization[:, LATE].mean(axis=1) for w in C7_W])
    direct_saturation = np.array([expm_saturation(master_seed, i) for i in range(n_realizations)]).T
    direct_leak = np.array([[expm_late_leak(w, master_seed, i) for i in range(n_realizations)]
                            for w in C7_W])
    return (saturation, direct_saturation), (leak, direct_leak)


def _pooled(values: np.ndarray) -> str:
    return f"{values.mean():.6f} +- {values.std(ddof=1) / np.sqrt(values.size):.6f}"


def main() -> int:
    start = time.perf_counter()
    saturations, leaks = [], []
    worst = 0.0
    print(f"N={N_SITES}; criterion 6: W={C6_W}, delta in {C6_DELTAS}, t=tau; "
          f"criterion 7: delta={C7_DELTA}, W in {C7_W}, mean p_- over t >= 5 tau")
    print("seed  path    C(0.05)  C(0.1)   C(0.2)   p_-(0.2) p_-(10)")
    for seed in SEEDS:
        (saturation, direct_saturation), (leak, direct_leak) = run_seed(seed, REALIZATIONS_PER_SEED)
        deviation = max(float(np.max(np.abs(saturation - direct_saturation))),
                        float(np.max(np.abs(leak - direct_leak))))
        worst = max(worst, deviation)
        for name, values in (("engine", (saturation, leak)), ("expm", (direct_saturation, direct_leak))):
            means = " ".join(f"{m:.5f}" for m in np.concatenate([v.mean(axis=1) for v in values]))
            print(f"{seed:<5d} {name:<7s} {means}")
        print(f"{seed:<5d} max |engine - expm| = {deviation:.1e}")
        saturations.append(saturation)
        leaks.append(leak)

    saturation, leak = np.concatenate(saturations, axis=1), np.concatenate(leaks, axis=1)
    count = saturation.shape[1]
    print(f"pooled over {count} realizations (seeds {' '.join(str(s) for s in SEEDS)}; "
          f"max |engine - expm| {worst:.1e}; {time.perf_counter() - start:.0f} s)")
    for delta, values in zip(C6_DELTAS, saturation):
        print(f"criterion 6: mean C(tau) at W={C6_W}, delta={delta}: {_pooled(values)}")
    print(f"criterion 6: gap C(0.05) - C(0.1): {_pooled(saturation[0] - saturation[1])}")
    print(f"criterion 6: gap C(0.1) - C(0.2): {_pooled(saturation[1] - saturation[2])}")
    for w, values in zip(C7_W, leak):
        print(f"criterion 7: late-window p_- at W={w}: {_pooled(values)}")
    print(f"criterion 7: difference p_-(W=10) - p_-(W=0.2): {_pooled(leak[1] - leak[0])}")
    if worst > PATH_TOL:
        print(f"engine and expm disagree by {worst:.1e} > {PATH_TOL:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
