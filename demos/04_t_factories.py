"""
T factories
===========

T states are produced by distillation pipelines running next to the
algorithm.  The search chains rounds of a unit (15 noisy inputs to 1
cleaner output by default) until the required fidelity is reached, then
the fleet is sized so supply covers demand within the runtime.
"""

from ftqc_estimator import (
    DEFAULT_15_TO_1,
    FLOQUET_CODE,
    TFactoryConstraints,
    load_profile,
    required_t_state_error,
    search_pipeline,
    size_fleet,
)

maj = load_profile("qubit_maj_ns_e4").qubit_params

# one round takes the raw non-Clifford error 0.05 down to 35 * 0.05^3
plan = search_pipeline((DEFAULT_15_TO_1,), FLOQUET_CODE, maj, maj.t_gate_error_rate, 1e-2)
print(f"{len(plan.rounds)} round reaches:", f"{plan.output_error_rate:.3e}")

# a billion T states under a 3.3e-5 distillation budget need much better
demand = 10**9
target = required_t_state_error(1e-4 / 3, demand)
plan = search_pipeline((DEFAULT_15_TO_1,), FLOQUET_CODE, maj, maj.t_gate_error_rate, target)
print(f"\ntarget per T state: {target:.3e}")
for k, r in enumerate(plan.rounds, start=1):
    print(
        f"round {k}: {r.num_parallel_units:3d} x {r.unit_name} at distance {r.code_distance}"
    )
print("output error:", f"{plan.output_error_rate:.3e}")
print("qubits per copy:", plan.physical_qubits_per_copy)
print("run duration (ns):", f"{plan.duration_per_run:.0f}")

# size the fleet against a 10-second runtime
sized, slowdown = size_fleet(plan, demand, 10e9)
print("\ncopies:", sized.num_copies, " runs each:", sized.runs_per_copy)
print("factory qubits:", sized.factory_physical_qubits)

# capping the copies forces a slowdown instead
capped, slowdown = size_fleet(
    plan,
    demand,
    10e9,
    TFactoryConstraints(max_t_factory_copies=sized.num_copies // 2,
                        max_logical_cycle_slowdown=4.0),
)
print(
    f"\nwith half the copies: {capped.num_copies} copies, "
    f"slowdown {slowdown:.2f}, factory qubits {capped.factory_physical_qubits}"
)
