"""
Counting a gate-event trace
===========================

A quantum program arrives as a flat stream of allocation, gate, and
measurement events.  Counting it yields the circuit width and the
pre-layout logical resource tallies, including the rotation depth.
"""

from ftqc_estimator import LogicalCounts, TraceEvent, count_trace

# a small program on three qubits
trace = [
    TraceEvent("alloc", (0, 1, 2)),
    TraceEvent("t", (0,)),          # explicit T gate
    TraceEvent("rz", (0,)),         # rotation, blocked by the T on qubit 0
    TraceEvent("rz", (1,)),         # rotation on an untouched qubit
    TraceEvent("clifford", (0, 1)),  # Clifford gates are free in this model
    TraceEvent("ccz", (0, 1, 2)),
    TraceEvent("measure", (0,)),
    TraceEvent("release", (0, 1, 2)),
]

counts = count_trace(trace)
print("width (peak live qubits):", counts.num_qubits)
print("T gates:", counts.t_count)
print("rotations:", counts.rotation_count)
# rz[0] waits for the T gate, rz[1] does not, so the rotations sit in two
# different dependency layers
print("rotation depth:", counts.rotation_depth)
print("CCZ gates:", counts.ccz_count)
print("measurements:", counts.measurement_count)

# programs with known tallies can skip the trace entirely
direct = LogicalCounts.from_mapping(
    {"numQubits": 2048, "tCount": 10**9, "rotationCount": 10**4, "rotationDepth": 5000}
)
print("direct input:", direct)
