"""Low-rank vs low-rank-plus-sparse kernel approximation at equal storage.

Runs ``covfield lrsp``.  On 1000 standard-normal points in R^3 with
sigma = 0.5, a plain landmark approximation barely improves in the max norm
as its rank grows (the residual is dominated by close point pairs away from
the landmarks), while spending the same storage on an exact sparse
correction over distance-thresholded pairs cuts the max-norm error by orders
of magnitude.
"""

import os
import sys

import numpy as np

from covfield import cli

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

path = os.path.join(OUT, "lrsp_error_curves.csv")
if code := cli.run(["lrsp", "--delta-sweep", "2:10:1", "--rank-sweep", "100:660:80",
                    "--out", path, "--no-timestamp"]):
    sys.exit(code)
table = np.loadtxt(path, delimiter=",", skiprows=1)
radius_rows = table[~np.isnan(table[:, 2])]   # rank rows carry no LRSP error

print(f"{'delta':>6} {'equiv rank':>10} {'LR max':>10} {'LRSP max':>10} {'LR 2-norm':>10} {'LRSP 2-norm':>11}")
for mult, (k, lr_max, lrsp_max, lr_two, lrsp_two) in enumerate(radius_rows, start=2):
    print(f"{mult:>5}s {k:>10.1f} {lr_max:>10.3e} {lrsp_max:>10.3e} {lr_two:>10.3e} {lrsp_two:>11.3e}")

flat = table[np.isnan(table[:, 2]), 1]
print(f"\nplain low-rank max-norm error across ranks 100..660: "
      f"{min(flat):.3e} .. {max(flat):.3e} (flat within x{max(flat)/min(flat):.2f})")
print(f"-> {path}")
