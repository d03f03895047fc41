"""Teleportation under realistic noise (docs/noise.md walkthrough).

Builds a noise model — depolarizing noise on every gate, amplitude
damping on the entangling CNOTs' qubits, and a readout confusion
matrix — and executes the teleportation circuit three ways:

1. ``density_matrix``: the exact reference — rho evolves through every
   Kraus channel, one evolution regardless of shot count;
2. ``statevector``: stochastic Kraus unraveling on the shot-batched
   trajectory engine (all shots in one vectorized sweep);
3. the same model through the ``@qpu`` kernel entry points
   (``kernel.histogram(noise_model=...)``).

Ideally the teleported qubit reads 1 with probability sin^2(0.35)
~= 0.118; noise pulls the distribution toward 50/50, and the fidelity
table at the end quantifies the decay per noise strength.

Run:  python examples/noisy_teleportation.py
"""

import math
from collections import Counter

from repro import (
    NoiseModel,
    ReadoutError,
    amplitude_damping,
    bit,
    depolarizing,
    qpu,
    standard_noise_model,
)
from repro.stats import classical_fidelity
from repro.qcircuit.examples import teleport_circuit
from repro.sim import DensityMatrixBackend, run_circuit_with_info


def build_noise_model() -> NoiseModel:
    """A hardware-flavoured model: uniform depolarizing background,
    extra T1 damping wherever a CNOT touches, and biased readout."""
    return (
        NoiseModel()
        .add_channel(depolarizing(0.02))
        .add_channel(amplitude_damping(0.03), gates=("x",))
        .add_readout_error(ReadoutError.asymmetric(0.01, 0.04))
    )


def main() -> None:
    circuit = teleport_circuit()  # rx(0.7) secret, conditioned fixes
    model = build_noise_model()
    shots = 4096
    ideal_one = math.sin(0.35) ** 2

    reference = DensityMatrixBackend()
    exact_ideal = reference.output_distribution(circuit)
    exact_noisy = reference.output_distribution(circuit, model)
    print("teleporting an rx(0.7) qubit, P(measure 1):")
    print(f"  analytic ideal:        {ideal_one:.4f}")
    print(f"  density matrix, ideal: {exact_ideal[(1,)]:.4f}")
    print(f"  density matrix, noisy: {exact_noisy[(1,)]:.4f}")
    assert abs(exact_ideal[(1,)] - ideal_one) < 1e-9
    assert exact_ideal[(1,)] < exact_noisy[(1,)] < 0.5, (
        "noise must pull the outcome toward the uniform mixture"
    )

    # Stochastic Kraus unraveling: all 4096 trajectories evolve as ONE
    # batched sweep (RunInfo.evolutions == 1), each drawing its own
    # Kraus operators; the density matrix above is the exact
    # distribution they converge to.
    results, info = run_circuit_with_info(
        circuit, shots=shots, seed=7,
        backend="statevector", noise_model=model,
    )
    sampled_one = Counter(results)[(1,)] / shots
    print(f"\nunraveled trajectories ({shots} shots): "
          f"P(1) = {sampled_one:.4f}")
    print(f"  RunInfo: {info.evolutions} batched sweep(s), "
          f"{info.channel_applications} channel applications, "
          f"{info.readout_applications} noisy readouts")
    assert info.batched and info.evolutions == 1
    assert abs(sampled_one - exact_noisy[(1,)]) < 0.05

    # The same model drives @qpu kernels through histogram()/__call__.
    @qpu
    def coin() -> bit:
        return 'p' | std.measure  # noqa: F821

    fair = coin.histogram(shots=2048, seed=1)
    rigged = coin.histogram(
        shots=2048, seed=1,
        noise_model=NoiseModel().add_readout_error(
            ReadoutError.asymmetric(0.0, 0.9)
        ),
    )
    print(f"\n@qpu Hadamard coin, ideal:          {dict(fair)}")
    print(f"@qpu coin, 90% one-sided misread:   {dict(rigged)}")
    assert rigged["0"] > fair["0"]

    # Fidelity-vs-strength sweep from the exact reference (the same
    # metric evaluation.noisy_execution_report tabulates).
    print("\nfidelity vs depolarizing strength (exact, teleport):")
    for strength in (0.0, 0.02, 0.05, 0.1, 0.2):
        noisy = reference.output_distribution(
            circuit, standard_noise_model(strength)
        )
        fidelity = classical_fidelity(noisy, exact_ideal)
        bar = "#" * round(40 * fidelity)
        print(f"  p={strength:<5g} fidelity={fidelity:.4f} {bar}")

    print("\nsee docs/noise.md for the channel zoo and attachment rules")


if __name__ == "__main__":
    main()
