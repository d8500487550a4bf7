"""The heralded amplified photon-pair source.

A weak two-mode squeezed state feeds a quantum-scissor amplifier on one arm;
a click pattern on the scissor's detectors heralds a noiselessly amplified
pair, which after recombination carries exactly the vacuum / two-photon
balance the hybrid Bell test wants.
"""

import math

import numpy as np

from cvbell import (
    ModeBasis,
    SourceConfig,
    StateVector,
    amplified_source,
    fidelity,
    herald_probabilities,
    qscissor_amplify,
    solve_source_params,
)
from cvbell.source_amp import dominant_component

# --- the scissor on a weak beam --------------------------------------------------
basis = ModeBasis((1,))
weak = StateVector(basis, np.array([1.0, 0.3], complex)).normalize()
t = 0.2
out = qscissor_amplify(weak, t)
vec, _ = dominant_component(out.state)
gain = math.sqrt((1 - t) / t)
print(f"scissor at t = {t} (gain {gain:.2f}) on |0> + 0.3|1>:")
print(f"  output amplitude ratio {abs(vec.amplitudes[1] / vec.amplitudes[0]):.4f}"
      f"  vs 0.3 x gain = {0.3 * gain:.4f}")
print(f"  heralding probability {out.success_probability:.4f} (about t)")

# --- the full source ---------------------------------------------------------------
lam = 0.12
config = SourceConfig(squeezing=lam, amp_transmission=t)
outcome = amplified_source(config)
vec, weight = dominant_component(outcome.state)
b = outcome.state.basis
print(f"\nsource at squeezing {lam}, t = {t}:")
for occ in ((0, 0), (2, 0), (0, 2)):
    amp = vec.amplitudes[b.index_of(occ)].real
    print(f"  <{occ[0]}{occ[1]}|psi> = {amp:+.4f}")
print(f"  two-photon/vacuum ratio {-vec.amplitudes[b.index_of((2, 0))].real / vec.amplitudes[b.index_of((0, 0))].real:.4f}"
      f"  vs lam sqrt((1-t)/t)/sqrt(2) = {lam * gain / math.sqrt(2):.4f}")
print(f"  success probability {outcome.success_probability:.4f}")

probs = herald_probabilities(config)
print("  herald pattern distribution:",
      {k: round(v, 4) for k, v in probs.items()})

# --- hitting a requested state -------------------------------------------------------
target = StateVector(ModeBasis((2, 2)), np.zeros(9, complex))
target.amplitudes[target.basis.index_of((0, 0))] = 0.22
target.amplitudes[target.basis.index_of((2, 0))] = -0.69
target.amplitudes[target.basis.index_of((0, 2))] = -0.69
target = target.normalize()
params = solve_source_params(target)
print(f"\ninverting the source for a balanced target state:")
print(f"  high-gain limit r = lam^2/t = {params.r:.4f}")
# The limit is reached as t -> 0 along lam^2 = r t; check one finite point.
lam = 0.02
t = lam**2 / params.r
outcome = amplified_source(SourceConfig(squeezing=lam, amp_transmission=t))
b = outcome.state.basis
vec = np.zeros(b.dimension, complex)
for occ in ((0, 0), (2, 0), (0, 2)):
    vec[b.index_of(occ)] = target.amplitudes[target.basis.index_of(occ)]
print(f"  squeezing {lam}, t = {t:.2e},"
      f" full-circuit fidelity {fidelity(outcome.state, StateVector(b, vec)):.6f}")

imbalanced = StateVector(ModeBasis((2, 2)), np.zeros(9, complex))
imbalanced.amplitudes[imbalanced.basis.index_of((0, 0))] = 0.13
imbalanced.amplitudes[imbalanced.basis.index_of((2, 0))] = -0.86
imbalanced.amplitudes[imbalanced.basis.index_of((0, 2))] = -0.49
print(f"  imbalanced target: reachable = {solve_source_params(imbalanced.normalize()).reachable}"
      "  (the recombined arms always carry equal two-photon weight)")
