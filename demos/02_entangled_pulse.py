"""One entangling pulse, start to finish.

Evolves vacuum cavity modes and a thermal motional state through one
half-period of the driven dynamics, then inspects the result: the two cavity
modes end up in a two-mode squeezed state while the motion walks away
uncorrelated, no matter how hot it started.
"""

import dataclasses

from ionlight import run_simultaneous, tmss
from ionlight.cli import bundled_config_path, read_run_config

import numpy as np

cfg = read_run_config(bundled_config_path())

result = run_simultaneous(cfg.params, ratio=cfg.ratio)
d = result.diagnostics
print("pulse length t_pi        =", result.couplings.t_pi * 1e6, "us")
print("photons per cavity mode  =", d["n_cav1"])
print("log negativity           =", d["log_negativity"])
print("EPR variance (X1 - X2)   =", d["epr_x"], " (2 would be shot noise)")
print("EPR variance (P1 + P2)   =", d["epr_p"])
print("motion-field correlation =", d["motion_decorrelation"])
print()

# The same run with the ion starting 5 phonons hot: the cavity state is
# bit-for-bit the same because the motion enters and leaves as a spectator.
hot = dataclasses.replace(cfg.params, nbar_motion=5.0)
hot_result = run_simultaneous(hot, ratio=cfg.ratio)
cold_cav = result.state.reduced(("cav1", "cav2"))
hot_cav = hot_result.state.reduced(("cav1", "cav2"))
print("cavity-state difference cold vs hot motion:",
      np.max(np.abs(cold_cav.cov - hot_cav.cov)))

# The closed-form target state is the same object.
target = tmss(result.couplings.r, result.couplings.beta)
print("difference from the closed-form squeezed state:",
      np.max(np.abs(cold_cav.cov - target.cov)))
print()

print("final covariance, modes (cav1, cav2, motion), quadratures (X, P) each:")
with np.printoptions(precision=4, suppress=True, linewidth=120):
    print(result.state.cov)
