"""Pattern curves against the exact field slice |R(x, y*)|.

Runs ``covfield bounds`` at y* = 0.15 over the uniform preset and compares
the rescaled curves in the three regimes: small bandwidth far from y*
(kernel-plus-tail curve), small bandwidth near y* (kernel-minus-tail curve),
and large bandwidth (distance-to-observations curve).  Each curve is
rescaled so its maximum over its region matches the exact slice's maximum
there; the interesting part is whether the argmax lands in the right place.
"""

import os
import sys

import numpy as np

from covfield import cli

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

cases = [
    (1, "upper", "small sigma, dist(x, y*) > 3 sigma"),
    (2, "lower", "small sigma, dist(x, y*) < 3 sigma"),
    (3, "distance", "large sigma, whole domain"),
]

for condition, kind, label in cases:
    path = os.path.join(OUT, f"curves_condition{condition}.csv")
    if code := cli.run(["bounds", "--condition", str(condition), "--grid", "1001",
                        "--out", path, "--no-timestamp"]):
        sys.exit(code)
    table = np.genfromtxt(path, delimiter=",", names=True)
    xs, exact, curve = table["x"], table["exact_abs"], table[f"{kind}_curve"]
    outside = np.isnan(curve)
    k_true = int(np.argmax(np.where(outside, -np.inf, exact)))
    k_est = int(np.argmax(np.where(outside, -np.inf, curve)))
    print(f"condition {condition} ({label}), curve '{kind}':")
    print(
        f"  exact argmax x = {xs[k_true]:.3f}, curve argmax x = {xs[k_est]:.3f} "
        f"({abs(k_true - k_est)} grid cells apart); shared max = {np.nanmax(curve):.4e}"
    )
    print(f"  -> {path}")
