"""Local noiseless filtering against transmission loss.

After the lossy channel each party runs its mode through the heralded
filter G(g) = (g-1)n + 1 and keeps only jointly successful rounds.  The
filter re-weights the surviving two-photon component against the one-photon
and vacuum backgrounds, pushing the critical transmission far below the
unfiltered value; repeated applications push it down roughly exponentially.
"""

import numpy as np

from cvbell import (
    apply_filters,
    filter_operator,
    filtered_critical_transmission,
    log_linear_fit,
    lossy_psi2,
)
from cvbell.local_amp import filtered_chsh

# --- what the filter does -----------------------------------------------------
print("filter diagonal entries (g-1)n + 1:")
for g in (1.0, 2.0, 3.0):
    print(f"  g = {g}: {np.diag(filter_operator(g, 4).matrix)}")

eta = 0.5
rho = lossy_psi2(eta)
filtered = apply_filters(rho, 2.0)
b = rho.basis
i20, i02 = b.index_of((2, 0)), b.index_of((0, 2))
before = (rho.matrix[i20, i20] + rho.matrix[i02, i02]).real
after = (filtered.matrix[i20, i20] + filtered.matrix[i02, i02]).real
print(f"\ntwo-photon weight at eta_t = {eta}: {before:.3f} -> {after:.3f} after g = 2 filters")

# --- critical transmissions ------------------------------------------------------
print("\ncritical transmission with per-party filters (eta_d = 1):")
for g in (1.0, 2.0, 3.0):
    thr = filtered_critical_transmission(g)
    print(f"  g = {g}: eta_t* = {thr:.4f}")

# --- repeated filtering ------------------------------------------------------------
curve = [(m, filtered_critical_transmission(2.0, m)) for m in range(1, 6)]
print("\nrepeated g = 2 filters:")
for m, thr in curve:
    print(f"  {m} applications: eta_t* = {thr:.4f}")
slope, intercept, r2 = log_linear_fit(curve)
print(f"log-linear fit: threshold ~ exp({slope:.3f} m), R^2 = {r2:.4f}")

# --- a realistic operating point ------------------------------------------------------
delta, value = filtered_chsh(0.8, 2.0, 2, eta_d=0.8)
print(f"\nat eta_t = eta_d = 0.8 with two g = 2 filter passes: CHSH = {value:.4f}")
