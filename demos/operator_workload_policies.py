"""
Request regions for an attention-limited operator
=================================================

A human operator logs a target's position on request, but the more requests
arrive in the recent past, the likelier each new one is ignored. The channel
state counts recent requests (0 through 4) with ignore probabilities rising
from 0.1 to 0.9. Solving the same unstable-source problem as in the energy
demo shows when asking is worth the workload it builds up: at low counts the
policy requests outside a narrow error band, while at high counts it goes
quiet entirely and lets the workload decay.
"""

import numpy as np

from remest.channel import workload_chain_fsm
from remest.dp_symmetric import SolverSettings, solve_and_extract
from remest.process import PlantModel

plant = PlantModel(a=1.1, sigma2=1.0, x0=0.0, horizon=20)
fsm = workload_chain_fsm(window=4, drop_probs=[0.1, 0.3, 0.5, 0.7, 0.9])

result = solve_and_extract(plant, fsm, SolverSettings(num_points=2001))
tau = result.threshold_policy.intervals[..., 1]

print(f"optimal expected cost from a clean start: {result.table.value_at_origin():.4f}")
print(f"threshold witnesses: {len(result.witnesses)} (every slice is an error band)")

print("\nrequest band half-width by stage (rows) and workload count (cols);")
print("'silent' marks states where the optimum never requests")
print("stage " + "".join(f"   q={q}    " for q in fsm.states()))
for n in range(1, plant.horizon + 1):
    cells = []
    for q in fsm.states():
        t = tau[n - 1, q]
        cells.append(f"{t:9.3f}" if np.isfinite(t) else "   silent")
    print(f"{n:5d} " + "".join(cells))

# the busy half of the chain is silent at almost every stage: requesting
# there would push the count toward the 0.7 / 0.9 ignore rates, and the
# recursion prices that future in
silent = [(n, q) for (n, q) in sorted(result.reachable)
          if not np.isfinite(tau[n - 1, q])]
print(f"\nreachable silent pairs: {len(silent)} "
      f"(first few: {silent[:6]})")
