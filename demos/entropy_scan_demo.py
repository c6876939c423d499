"""Beam-splitter entanglement of half-line coherent states.

Feeds a coherent state into one port of a two-mode beam splitter (vacuum
in the other port) and computes the linear entropy of one output mode.
On the half line the modes overlap non-trivially, so even a "classical"
coherent state entangles.  The truncated-oscillator curve is nearly flat
in |z| at the balanced setting; the two-level tower of new partner
states sits close to S = 0.5 and saturates as |z| grows.
"""

import math

from truncosc import BeamSplitterSetting, Family, entropy_scan

ZS = [0.0, 0.5, 1.0, 1.5, 2.0]
BALANCED = BeamSplitterSetting(math.pi / 2, 0.0)


def show(records, label):
    print(f"\n{label}")
    print(f"  {'|z|':>5}  {'linear entropy':>14}  {'refined':>10}  converged")
    for rec in records:
        print(f"  {rec.z_abs:5.2f}  {rec.entropy:14.9f}  "
              f"{rec.entropy_refined:10.6f}  {rec.converged}")
    spread = max(r.entropy for r in records) - min(r.entropy for r in records)
    print(f"  spread over the scan: {spread:.3e}")


show(entropy_scan(Family.LOWERING, ZS, cutoff=64, n_terms=24,
                  setting=BALANCED),
     "truncated oscillator, balanced splitter (theta = pi/2)")

show(entropy_scan(Family.LOWERING, ZS, cutoff=64, n_terms=24,
                  setting=BeamSplitterSetting(1.0, 0.0)),
     "truncated oscillator, unbalanced splitter (theta = 1.0)")

show(entropy_scan(Family.SUSY_NEW, ZS, cutoff=80, setting=BALANCED),
     "two-level tower of new partner states, balanced splitter")

trivial = entropy_scan(Family.LOWERING, [0.7], cutoff=32, n_terms=12,
                       setting=BeamSplitterSetting(0.0, 0.0))[0]
print(f"\ntheta = 0 sanity check (splitter off): S = {trivial.entropy:.2e}")
print("Each scan re-runs at 1.5x the mode cutoff; 'converged' means the")
print("refined entropy moved by less than 5e-3.")
