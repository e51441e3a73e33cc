"""Negativities across the three cuts as the chain heats up, and the window
where the state is entangled yet positive under every partial transpose.

Run:  python3 demos/02_bound_entanglement_sweep.py
"""

import numpy as np

from thermalcluster import (
    classify,
    linear_graph,
    negativity,
    p_from_temperature,
    thermal_state_model,
    transition_points,
)

ALPHA = 0.84 * np.pi  # imperfect entangling phase, the experimentally fitted value
g = linear_graph(3)

print("cut labels: A_p = qubit 0, B_s = qubit 1 (middle), B_p = qubit 2")
print(f"phase-gate angle alpha = 0.84 pi\n")

print("  T/Delta    N_Ap      N_Bs      N_Bp     class")
for t in np.arange(0.2, 3.01, 0.2):
    rho = thermal_state_model(g, p_from_temperature(t), ALPHA)
    n_ap = negativity(rho, (0,))
    n_bs = negativity(rho, (1,))
    n_bp = negativity(rho, (2,))
    klass = classify(rho).klass
    print(f"  {t:5.2f}    {n_ap:.4f}    {n_bs:.4f}    {n_bp:.4f}    {klass}")

# The end-qubit negativities die first; while only the middle cut stays
# negative the entanglement is bound: present, but not distillable across
# any bipartition.
tp = transition_points(ALPHA)
print(f"\nend-cut negativities vanish at    T/Delta = {tp.t_free_to_bound:.4f}")
print(f"middle-cut negativity vanishes at T/Delta = {tp.t_bound_to_ppt:.4f}  (machine tolerance)")

tp_err = transition_points(ALPHA, tol=0.02)
print(f"with 0.02 error bars it is unresolvable from T/Delta = {tp_err.t_bound_to_ppt:.4f}")

print(f"\nbound window (machine tolerance): "
      f"{tp.t_free_to_bound:.3f} < T/Delta < {tp.t_bound_to_ppt:.3f}")
