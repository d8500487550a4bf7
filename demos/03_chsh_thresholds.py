"""CHSH violations with hybrid measurements, and the loss thresholds.

Each party measures either the binned quadrature X or the photodetector N.
Diagonalizing the Bell operator on the two-photon subspace gives the most
loss-tolerant entangled state for any given efficiencies; bisection on the
efficiency locates the violation threshold.
"""

from cvbell import (
    BellScenario,
    PartyConditions,
    critical_efficiency,
    optimal_state,
    optimize_delta,
    psi2_state,
)

# --- the reference two-photon state ----------------------------------------------
unit = PartyConditions()
delta, value = optimize_delta(unit, unit, state=psi2_state())
print(f"(|20> + |02>)/sqrt(2), no losses: CHSH = {value:.4f} at delta = {delta:.3f}")

delta, value = optimize_delta(unit, unit)
print(f"best two-photon-subspace state:   CHSH = {value:.4f} at delta = {delta:.3f}")

# --- optimal states under loss -----------------------------------------------------
scen = BellScenario.symmetric(eta_t=0.81, delta=0.59)
state, chsh = optimal_state(scen)
b = state.basis
coeffs = {occ: state.amplitudes[b.index_of(occ)].real for occ in ((0, 0), (2, 0), (0, 2))}
print(f"\nnear the symmetric transmission threshold (eta_t = 0.81):")
print("optimal state:",
      " + ".join(f"{c:+.3f}|{o[0]}{o[1]}>" for o, c in coeffs.items()),
      f" with CHSH = {chsh:.4f}")
print("a little vacuum buys loss tolerance")

# --- critical efficiencies -----------------------------------------------------------
print("\ncritical efficiencies (optimized state and binning):")
print(f"  symmetric transmission, eta_d=1: {critical_efficiency('eta_t', 'symmetric'):.4f}")
print(f"  detection, eta_t=1:              {critical_efficiency('eta_d', 'symmetric'):.4f}")
print(f"  asymmetric transmission:         {critical_efficiency('eta_t', 'asymmetric'):.4f}")
print(f"  fixed two-photon state, eta_d=1: {critical_efficiency('eta_t', 'symmetric', state=psi2_state()):.4f}")

# --- a slice of the violation region ---------------------------------------------------
grid = [0.85, 0.9, 0.95, 1.0]
print("\nviolation region boundary (optimal states):")
for e in grid:
    print(f"  eta_d = {e:.2f}: eta_t* = {critical_efficiency('eta_t', 'symmetric', eta_d=e):.4f}")
