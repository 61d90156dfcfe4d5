"""Geometric vs random FSAI patterns inside the block preconditioner.

Runs ``covfield precond`` at its defaults: solves the regularized kernel
system (K + tau^2 I) z = b on 1000 standard-normal points in R^3 three ways:
plain CG, the block preconditioner with a random sparsity pattern for the
Schur-complement inverse factor, and the same preconditioner with the
distance-thresholded pattern (pairs within 2 sigma - exactly where the
posterior covariance field says the dominant Schur entries live).  The
geometric pattern uses *less* fill and converges an order of magnitude
faster; the right-hand side is unit-norm so the absolute tolerance reads as
a relative one.
"""

import os
import sys

import numpy as np

from covfield import bandwidth_percentile, cli, generate_gaussian_cloud

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

X = generate_gaussian_cloud(1000, 3, 42)
sigma = bandwidth_percentile(X, 2)
print(f"n = {X.n}, d = {X.d}, bandwidth (2nd percentile of pairwise distances) = {sigma:.4f}")
print(f"nugget tau = {cli.PRECOND_DEFAULT_TAU} (the system solved is K + tau^2 I), "
      f"landmarks r = 200\n")

path = os.path.join(OUT, "precond_table.csv")
if code := cli.run(["precond", "--out", path, "--no-timestamp"]):
    sys.exit(code)
table = np.genfromtxt(path, delimiter=",", names=True)

labels = {1: "plain CG", 2: "random-pattern FSAI", 3: "geometric-pattern FSAI"}
print(f"{'method':<24} {'iterations':>10} {'rel err':>10} {'residual':>10} {'FSAI nnz':>9}")
for r in table:
    nnz = "-" if np.isnan(r["fsai_nnz_fraction"]) else f"{100 * r['fsai_nnz_fraction']:.2f}%"
    print(f"{labels[int(r['method'])]:<24} {int(r['iterations']):>10} "
          f"{r['rel_err']:>10.2e} {r['residual']:>10.2e} {nnz:>9}")
print(f"\n-> {path}")
