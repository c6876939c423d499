"""Position densities of coherent states on the half line.

Builds annihilation-eigenstate coherent states for the truncated
oscillator and for both towers of its fourth-order partner, then prints
where each density peaks and a coarse text profile.  The wall at x = 0
keeps every density pinned to zero there; growing |z| pushes the bulk of
the state outward.
"""

import numpy as np

from truncosc import Basis, Family, build_cs, susy_cs
from truncosc.fock import rows

X = np.linspace(0.02, 12.0, 600)
BAR_WIDTH = 48


def density_of(cs):
    amps = cs.amplitudes
    return np.abs(amps @ rows(cs.basis, amps.size, X, weighted=False)[0]) ** 2


def trunc_density(z):
    return density_of(build_cs(Family.LOWERING, z, truncation=48))


def susy_density(basis, z):
    return density_of(susy_cs(basis, z, truncation=48))


def sparkline(density):
    blocks = " .:-=+*#%@"
    scaled = density / density.max() * (len(blocks) - 1)
    idx = np.clip(scaled[:: len(density) // BAR_WIDTH], 0, len(blocks) - 1)
    return "".join(blocks[int(i)] for i in idx[:BAR_WIDTH])


def report(label, density):
    peak = X[np.argmax(density)]
    norm = np.trapezoid(density, X)
    print(f"  {label:<18} peak at x = {peak:5.2f}   "
          f"integral = {norm:.6f}   |{sparkline(density)}|")


print("truncated oscillator, annihilation-eigenstate family")
for z in (0.0, 0.5, 1.5, 3.0):
    report(f"|z| = {z}", trunc_density(z))

print("\npartner Hamiltonian, isospectral tower")
for z in (0.0, 0.5, 1.5):
    report(f"|z| = {z}", susy_density(Basis.SUSY_ISO, z))

print("\npartner Hamiltonian, two-level tower of new bound states")
for z in (0.0, 1.0, 10.0):
    report(f"|z| = {z}", susy_density(Basis.SUSY_NEW, z))

print("\nThe new-state densities interpolate between the two bound levels;")
print("large |z| weights the upper level and its extra node shows up as a")
print("second hump.  All profiles vanish at the wall.")
