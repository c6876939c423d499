"""Uncertainty products sigma_x * sigma_p across the coherent-state families.

The half-line states are never minimum-uncertainty at small |z| (the wall
squeezes position and inflates momentum), but the annihilation-eigenstate
family relaxes to the 1/2 floor as |z| grows.  The linearised-lowering
family shows a genuine sigma_x = sigma_p crossing near |z| = 1, where the
squeezing direction flips.
"""

import numpy as np

from truncosc import Family, uncertainty_scan


def show(family, label, zs, truncation):
    print(f"\n{label}")
    print(f"  {'|z|':>5}  {'sigma_x':>10}  {'sigma_p':>10}  {'product':>10}")
    flip = None
    prev = None
    for rec in uncertainty_scan(family, zs, truncation=truncation):
        print(f"  {rec.z_modulus:5.2f}  {rec.sigma_x:10.6f}  "
              f"{rec.sigma_p:10.6f}  {rec.product:10.6f}")
        sign = np.sign(rec.sigma_x - rec.sigma_p)
        if prev is not None and sign != prev and sign != 0:
            flip = rec.z_modulus
        prev = sign
    if flip is not None:
        print(f"  -> sigma_x and sigma_p cross between grid points "
              f"just below |z| = {flip:.2f}")


ZS = np.linspace(0.25, 5.0, 20)
show(Family.LOWERING, "annihilation-eigenstate family (truncated oscillator)",
     ZS, truncation=64)
show(Family.LIN_LOWERING, "linearised-lowering family (the label spreads the "
     "state faster, so the scan stops at |z| = 2)",
     np.linspace(0.25, 2.0, 8), truncation=96)

recs = uncertainty_scan(Family.LOWERING, ZS, truncation=64)
floor = min(r.product for r in recs)
print(f"\nMinimum product over the scan: {floor:.6f} "
      f"(never below the 1/2 bound; approaches it from above as |z| grows)")
