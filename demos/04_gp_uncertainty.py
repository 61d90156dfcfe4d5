"""Gaussian-process regression with estimated uncertainty bands.

Runs ``covfield gp-demo``: f(x) = cos(25 x^2) through 15 seeded random
observations with trained hyperparameters, comparing the exact posterior
standard deviation with the O(r) estimate (wide gaps use the distance
formula, narrow gaps scale the exact variance at the midpoint reference
points).  Both vanish exactly at the observations.
"""

import os
import sys

import numpy as np

from covfield import KernelConfig, PointSet, cli, fit

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

path = os.path.join(OUT, "gp_uncertainty.csv")
if code := cli.run(["gp-demo", "--out", path, "--no-timestamp"]):
    sys.exit(code)
table = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")
obs, curve = table[table["kind"] == "obs"], table[table["kind"] == "curve"]
sx, fx = obs["x"], obs["mean_or_value"]
true_std, est_std = curve["true_std"], curve["est_std"]

S = PointSet(sx[:, None])
model = fit(S, KernelConfig(sigma=cli.GP_DEMO_SIGMA, beta=cli.GP_DEMO_BETA))
interp_err = np.abs(model.mean(fx, S) - fx).max()
std_mae = np.abs(true_std - est_std).mean()
gaps = np.diff(sx)
print(f"observations: {len(sx)} points, widest gap {gaps.max():.3f}, narrowest {gaps.min():.3f}")
print(f"mean interpolates the data to {interp_err:.1e}")
print(f"mean absolute error of the estimated std band: {std_mae:.4f}")
print(f"largest true std {true_std.max():.3f} vs estimated {est_std.max():.3f}")
print(f"-> {path}")
