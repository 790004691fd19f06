#!/usr/bin/env python3
"""Survey the measure over random product and Haar states.

For each qubit count this samples both ensembles, reports the measure's
range, and counts separability verdicts, confirming the gap the rank-1
criterion relies on.  Example:

    python scripts/separability_scan.py --modes 2 3 4 5 --samples 200
"""

import argparse
import time

import numpy as np

from qsegre import generalized_concurrence, is_fully_separable
from qsegre.sampling import default_rng, random_haar_state, random_product_state
from qsegre.segre import DEFAULT_TOL


def scan(rng, m, samples, tol):
    dims = [2] * m
    rows = []
    for label, sampler in (("product", random_product_state), ("haar", random_haar_state)):
        values, separable = [], 0
        t0 = time.perf_counter()
        for _ in range(samples):
            s = sampler(rng, dims)
            values.append(generalized_concurrence(s).value)
            separable += is_fully_separable(s, tol)
        dt = time.perf_counter() - t0
        v = np.array(values)
        rows.append((m, label, v.min(), float(np.median(v)), v.max(), separable, dt))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modes", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = default_rng(args.seed)
    print(f"{'m':>2} {'ensemble':>8} {'min':>12} {'median':>12} {'max':>12} {'sep':>5} {'secs':>6}")
    for m in args.modes:
        for m_, label, lo, med, hi, sep, dt in scan(rng, m, args.samples, args.tol):
            print(f"{m_:>2} {label:>8} {lo:>12.3e} {med:>12.3e} {hi:>12.3e} {sep:>5d} {dt:>6.2f}")


if __name__ == "__main__":
    main()
