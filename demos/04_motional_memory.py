"""Sequential pulses: the ion motion as a quantum memory.

A single cavity mode is used twice.  The first pulse entangles light with the
motion; after the light has left, a second pulse of the right area swaps the
stored motional state back onto the cavity.  The two emitted pulses are then
entangled with each other and the motion is clean.
"""

import math

from ionlight import coupling_constants, run_sequential
from ionlight.cli import bundled_config_path, read_run_config

cfg = read_run_config(bundled_config_path())
chi1 = abs(coupling_constants(cfg.params).chi1)

print("ideal extraction (delay >> 1/kappa):")
result = run_sequential(cfg.params, t1=1.0 / chi1, kappa_t12=math.inf)
print("  E_N cavity|motion after pulse 1 =", result.stage_a_entanglement)
print("  E_N pulse1|pulse2 after swap    =", result.final_entanglement)
print("  motion residual correlations    =", result.motion_residual_norm)
print()

# With a finite delay part of pulse 1 is still in the cavity when the swap
# fires, so the handed-over entanglement falls short of the stored amount.
print("finite delays (kappa * T12):")
for kt12 in (1.0, 2.0, 5.0, 10.0):
    r = run_sequential(cfg.params, t1=1.0 / chi1, kappa_t12=kt12)
    print(f"  kappa*T12 = {kt12:>4g}:  E_N pulse1|pulse2 = {r.final_entanglement:.6f}")
print()

# A full-cycle exchange pulse (area pi instead of pi/2) undoes itself: the
# memory stays in the motion and the second pulse carries nothing.
result = run_sequential(cfg.params, t1=1.0 / chi1, kappa_t12=math.inf,
                        swap_area=math.pi)
print("swap area pi (full cycle): E_N pulse1|pulse2  =", result.final_entanglement)
print("                           E_N pulse1|motion  =",
      result.pulse1_motion_entanglement)
