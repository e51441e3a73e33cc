"""Walk through the basic objects: chain graph, parent Hamiltonian, spectrum,
and the two equivalent constructions of the thermal state.

Run:  python3 demos/01_spectrum_and_thermal_states.py
"""

import numpy as np

from thermalcluster import (
    build_graph_state,
    gibbs_state,
    linear_graph,
    p_from_temperature,
    thermal_state_model,
    verify_spectrum,
)

g = linear_graph(3)
print(f"graph: {g.n_vertices} qubits, edges {sorted(g.edges)}")

# The parent Hamiltonian H = -(gap/2) sum_i X_i (x) Z_neighbors has the
# graph state as its unique ground state. Energies come in equally spaced
# levels -(gap/2)(N - 2k) with binomial multiplicities.
rep = verify_spectrum(g, gap=1.0)
print("\nspectrum of the parent Hamiltonian (gap = 1):")
for e, m in zip(rep.levels, rep.multiplicities):
    print(f"  E = {e:+.1f}   multiplicity {m}")
print(f"ground state unique: {rep.ground_unique}, spectral gap: {rep.gap}")

psi = build_graph_state(g)
print("\ncluster state amplitudes (components of (|+0+> + |-1->)/sqrt(2)):")
print(np.round(psi, 4))

# Two independent routes to the same thermal state:
#   1. exponentiate the Hamiltonian:  rho = exp(-H/T) / Z
#   2. dephase each qubit of the pure cluster with p = 2/(1 + e^(1/T))
print("\nGibbs route vs local-dephasing route:")
for t in (0.25, 0.5, 1.0, 2.0):
    p = p_from_temperature(t)
    via_gibbs = gibbs_state(g, t)
    via_channel = thermal_state_model(g, p, np.pi)
    diff = np.abs(via_gibbs - via_channel).max()
    print(f"  T/Delta = {t:4.2f}  (p = {p:.4f})   max difference = {diff:.2e}")

print("\nThe agreement at machine precision is the point: heating the chain")
print("is operationally identical to dephasing each qubit independently.")
