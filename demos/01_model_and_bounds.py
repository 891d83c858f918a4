#!/usr/bin/env python3
"""Walk through the core model on two tiny hand-built instances.

Shows per-port loads, effective sizes, the LP lower bound, and the exact
optimum from the brute-force oracle, including the case where a
bottleneck-size heuristic picks a strictly worse order.
"""

from coflowsched import (
    effective_size,
    lp_lower_bound,
    oracle_opt,
    port_loads,
    total_weighted_completion,
    varys,
)
from coflowsched.verify import blocking_pair_fixture, equal_bottleneck_fixture

inst = equal_bottleneck_fixture()
print("three coflows on a 2x2 switch, all with bottleneck load 1:")
for k, cf in enumerate(inst.coflows):
    src, dst = port_loads(cf.demands, inst.n_ports)
    print(f"  coflow {k}: demands={dict(cf.demands)}")
    print(f"    source loads={src}"
          f" dest loads={dst}"
          f" effective size={effective_size(cf, inst.n_ports)}")

sched = varys(inst)
print(f"\nbottleneck-first heuristic total: {total_weighted_completion(sched, inst):.0f}"
      f"  (completions {sched.completions.tolist()})")
opt = oracle_opt(inst)
print(f"exact optimum (brute force):      {opt.optimal_value:.0f}"
      f"  after exploring {opt.explored_states} states")
print(f"LP lower bound:                   {lp_lower_bound(inst):.0f}")
print("the heuristic cannot tell the three coflows apart, so it may serve the")
print("port-spanning coflow first and block both singles.\n")

inst = blocking_pair_fixture()
print("same story with unequal sizes (bottlenecks 2, 3, 3):")
sched = varys(inst)
print(f"  heuristic total: {total_weighted_completion(sched, inst):.0f}")
print(f"  exact optimum:   {oracle_opt(inst).optimal_value:.0f}")
print(f"  LP lower bound:  {lp_lower_bound(inst):.0f}")
print("serving the two big singles in parallel first wins: 3+3+5 beats 2+5+5.")
