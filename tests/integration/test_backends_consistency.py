"""Cross-cutting consistency: every backend view of one program agrees."""

from repro.algorithms import bernstein_vazirani, grover, period_finding
from repro.backends.qasm3 import parse_qasm3
from repro.sim import interpret_module, run_circuit


def test_bv_consistent_across_all_representations():
    kernel = bernstein_vazirani("10011")
    expected = [1, 0, 0, 1, 1]

    result = kernel.compile()
    # 1. Raw flattened circuit.
    assert list(run_circuit(result.circuit)[0]) == expected
    # 2. Peephole-optimized circuit.
    assert list(run_circuit(result.optimized_circuit)[0]) == expected
    # 3. Selinger-decomposed circuit.
    assert list(run_circuit(result.decomposed_circuit)[0]) == expected
    # 4. OpenQASM 3 round trip.
    parsed = parse_qasm3(result.qasm3())
    parsed.output_bits = result.optimized_circuit.output_bits
    assert list(run_circuit(parsed)[0]) == expected
    # 5. Interpreted QCircuit IR (the QIR-unrestricted view).
    assert interpret_module(result.qcircuit_module, num_qubits=12) == expected
    # 6. Interpreted no-opt module (callables view).
    noopt = kernel.compile(pipeline="no-opt")
    assert interpret_module(noopt.qcircuit_module, num_qubits=12) == expected


def test_grover_decomposed_still_finds_item():
    # 400 shots with a 90% threshold is ~4 sigma below the ~94.5%
    # success probability, robust under any correctly-sampling backend.
    result = grover(3).compile()
    results = run_circuit(result.decomposed_circuit, shots=400, seed=5)
    hits = sum(1 for r in results if r == (1, 1, 1))
    assert hits >= 360


def test_period_finding_decomposed_samples_valid():
    result = period_finding(3).compile()
    for seed in range(8):
        (sample,) = run_circuit(result.decomposed_circuit, seed=seed)
        value = int("".join(str(b) for b in sample), 2)
        assert value % 2 == 0
