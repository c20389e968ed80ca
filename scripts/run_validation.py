#!/usr/bin/env python3
"""Quick validation sweep: ordered baseline plus the dimer closed-form grid.

Exits nonzero if any check fails. Useful as a smoke test after changes.
"""

import sys

from qladder.cli import BASELINE_TOL, ORACLE_TOL
from qladder.experiments import oracle_check, ordered_baseline


def run() -> int:
    failures = 0

    for n_sites in (2, 4, 30):
        report = ordered_baseline(n_sites)
        ok = report.concurrence_at_tau >= 1.0 - BASELINE_TOL
        failures += not ok
        print(f"baseline N={n_sites:3d}: C(tau) = {report.concurrence_at_tau:.12f} "
              f"{'ok' if ok else 'FAIL'}")

    for delta in (0.0, 0.5, 2.0):
        for gamma in (0.2, 1.0):
            for n_sites in (1, 5, 10):
                deviation = oracle_check(delta, gamma, n_sites)
                ok = deviation < ORACLE_TOL
                failures += not ok
                print(f"dimer delta={delta:3.1f} gamma={gamma:3.1f} N={n_sites:2d}: "
                      f"max deviation {deviation:.3e} {'ok' if ok else 'FAIL'}")

    print("all checks passed" if failures == 0 else f"{failures} checks FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
