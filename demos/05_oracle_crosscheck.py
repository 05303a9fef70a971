"""Cross-check: Gaussian engine vs a brute-force number-basis propagator.

The covariance-matrix engine is exact for these linear dynamics, but exactness
claims deserve an independent witness.  Here the same half-period evolution is
run in a truncated Fock basis that knows nothing about Gaussian states, and
every observable is compared.  Kept to low photon number (r = 3 means about
0.56 photons per mode) so the truncated basis stays small.
"""

import numpy as np

from ionlight import crosscheck

r = 3.0
check = crosscheck(r)
obs = check.observables
print(f"coupling ratio r = {r}, truncation dims = {check.dims}")
print(f"truncation leakage = {obs.leakage:.2e}")
print()
print(f"{'observable':<18} {'gaussian':>14} {'fock':>14} {'|diff|':>10}")
for name, g_val, f_val in check.rows:
    print(f"{name:<18} {g_val:>14.9f} {f_val:>14.9f} {abs(g_val - f_val):>10.2e}")
print()

# The number-basis run also exposes what the Gaussian picture only implies:
# photons appear strictly in pairs, one per mode.
joint = obs.joint_photon_distribution
print("joint photon distribution (cav1 rows, cav2 columns, first 5x5):")
with np.printoptions(precision=6, suppress=True):
    print(joint[:5, :5])
print("off-diagonal weight:", joint.sum() - np.trace(joint))
