"""The paper's evaluation harness (§8): Table 1 and Figs. 11-12.

Methodology (paper §8.3): (1) generate circuits from all five
benchmarks in all four toolchains at each oracle input size; (2)
optimize every output with the shared transpiler substitute; (3) feed
the result to the surface-code resource estimator, reporting estimated
runtime (Fig. 11) and physical qubit count (Fig. 12).  Table 1 counts
QIR callable intrinsics for Q#, ASDF without inlining, and ASDF with
inlining (§8.2).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.algorithms import (
    alternating_secret,
    bernstein_vazirani,
    deutsch_jozsa,
    grover,
    period_finding,
    simon,
)
from repro.backends.qir import count_callable_intrinsics
from repro.baselines import build_baseline, transpile_o3
from repro.baselines.qsharp_qir import qsharp_callable_counts
from repro.qcircuit.circuit import Circuit
from repro.resources import PhysicalEstimate, estimate_physical_resources
from repro.stats import (  # noqa: F401  (re-exported report vocabulary)
    classical_fidelity,
    distribution_of,
    distribution_tvd,
)

ALGORITHMS = ("bv", "dj", "grover", "simon", "period")
COMPILERS = ("asdf", "qiskit", "quipper", "qsharp")
PAPER_SIZES = (16, 32, 64, 128)


def _simon_secret(n: int):
    # The alternating secret 1010... (nonzero, as the paper requires),
    # matching the baseline circuits in repro.baselines.circuits.
    return alternating_secret(n)


@functools.lru_cache(maxsize=64)
def asdf_kernel(algorithm: str, n: int):
    """The Qwerty program for one benchmark at size ``n``.

    Memoized per ``(algorithm, n)``: parsing the kernel costs about a
    millisecond, and the service resolves one per request.  The kernel
    is shared, so treat it as read-only.
    """
    if algorithm == "bv":
        return bernstein_vazirani(alternating_secret(n))
    if algorithm == "dj":
        return deutsch_jozsa(n)
    if algorithm == "grover":
        return grover(n)
    if algorithm == "simon":
        return simon(_simon_secret(n))
    if algorithm == "period":
        return period_finding(n)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def compiled_circuit(algorithm: str, compiler: str, n: int) -> Circuit:
    """One benchmark through one compiler, post shared transpile."""
    if compiler == "asdf":
        result = asdf_kernel(algorithm, n).compile(
            pipeline="default", cache=True
        )
        return result.decomposed_circuit
    baseline = build_baseline(algorithm, compiler, n)
    return transpile_o3(baseline, style=compiler)


@dataclass(frozen=True)
class EvaluationRow:
    """One point of Fig. 11 / Fig. 12."""

    algorithm: str
    compiler: str
    input_size: int
    estimate: PhysicalEstimate

    @property
    def runtime_seconds(self) -> float:
        return self.estimate.runtime_seconds

    @property
    def physical_kiloqubits(self) -> float:
        return self.estimate.physical_kiloqubits


def evaluate(
    algorithms: Iterable[str] = ALGORITHMS,
    compilers: Iterable[str] = COMPILERS,
    sizes: Iterable[int] = PAPER_SIZES,
    progress: Callable[[str], None] | None = None,
) -> list[EvaluationRow]:
    """Run the full Fig. 11/12 sweep."""
    rows = []
    for algorithm in algorithms:
        for compiler in compilers:
            for n in sizes:
                if progress:
                    progress(f"{algorithm}/{compiler}/n={n}")
                circuit = compiled_circuit(algorithm, compiler, n)
                estimate = estimate_physical_resources(circuit)
                rows.append(
                    EvaluationRow(algorithm, compiler, n, estimate)
                )
    return rows


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1 (QIR callable intrinsics)."""

    algorithm: str
    qsharp_create: int
    qsharp_invoke: int
    asdf_noopt_create: int
    asdf_noopt_invoke: int
    asdf_opt_create: int
    asdf_opt_invoke: int


def table1(n: int = 4) -> list[Table1Row]:
    """Reproduce Table 1: callable counts per compiler configuration."""
    rows = []
    for algorithm in ALGORITHMS:
        kernel = asdf_kernel(algorithm, n)
        noopt = kernel.compile(pipeline="no-opt")
        noopt_counts = count_callable_intrinsics(noopt.qir("unrestricted"))
        opt = kernel.compile(pipeline="default", cache=True)
        opt_counts = count_callable_intrinsics(opt.qir("unrestricted"))
        qsharp = qsharp_callable_counts(algorithm)
        rows.append(
            Table1Row(
                algorithm,
                qsharp[0],
                qsharp[1],
                noopt_counts[0],
                noopt_counts[1],
                opt_counts[0],
                opt_counts[1],
            )
        )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    """Render Table 1 in the paper's layout."""
    lines = [
        "            Q#           Asdf (No Opt)  Asdf (Opt)",
        "          create  inv.   create  inv.   create  inv.",
    ]
    names = {
        "bv": "B-V",
        "dj": "D-J",
        "grover": "Grover",
        "period": "Period",
        "simon": "Simon",
    }
    for row in rows:
        lines.append(
            f"{names[row.algorithm]:<10}"
            f"{row.qsharp_create:>4}  {row.qsharp_invoke:>4}   "
            f"{row.asdf_noopt_create:>4}  {row.asdf_noopt_invoke:>4}   "
            f"{row.asdf_opt_create:>4}  {row.asdf_opt_invoke:>4}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ShotExecutionRow:
    """Timing of one (benchmark, backend) shot-execution run.

    ``evolutions`` counts statevector evolution sweeps — the vectorized
    backend's terminal-measurement fast path does exactly one per run,
    independent of ``shots``; the batched trajectory engine
    (``batched`` True) does one batched sweep per memory-envelope
    chunk, usually 1.  ``gates_fused`` comes straight from
    :class:`~repro.sim.backend.RunInfo`: gates eliminated by the
    compile-time fusion pass (docs/performance.md).
    """

    algorithm: str
    input_size: int
    backend: str
    shots: int
    seconds: float
    evolutions: int
    fast_path: bool
    batched: bool = False
    gates_fused: int = 0


def _timed_shot_row(
    label: str, input_size: int, circuit: Circuit, shots: int, seed: int
) -> ShotExecutionRow:
    """Run ``circuit`` on the default backend, timed, as one row."""
    from repro.sim.backend import DEFAULT_BACKEND, get_backend

    start = time.perf_counter()
    _, info = get_backend(DEFAULT_BACKEND).run_array_with_info(
        circuit, shots, seed
    )
    elapsed = time.perf_counter() - start
    return ShotExecutionRow(
        label,
        input_size,
        DEFAULT_BACKEND,
        shots,
        elapsed,
        info.evolutions,
        info.fast_path,
        info.batched,
        gates_fused=info.gates_fused,
    )


def shot_execution_report(
    algorithms: Iterable[str] = ("bv", "grover"),
    sizes: Iterable[int] = (5,),
    shots: int = 256,
    seed: int = 0,
) -> list[ShotExecutionRow]:
    """Execute compiled benchmark circuits on the ``statevector``
    backend, timed.

    The evaluation harness's analogue of the paper's shot runs (§7):
    every circuit goes through the same compiled artifact and samples
    ``shots`` shots with the same seed.  Sizes must stay within the
    dense-simulation qubit limit.

    Each row runs its compile's ``execution_circuit`` (the ``default``
    pipeline's fused execution form — docs/performance.md), so the
    rows' ``gates_fused`` column reports the compile-time fusion
    pass's savings.
    """
    return [
        _timed_shot_row(
            algorithm,
            n,
            asdf_kernel(algorithm, n).compile(
                pipeline="default", cache=True
            ).execution_circuit,
            shots,
            seed,
        )
        for algorithm in algorithms
        for n in sizes
    ]


def trajectory_execution_report(
    circuits: "dict[str, Circuit] | None" = None,
    shots: int = 1024,
    seed: int = 0,
) -> list[ShotExecutionRow]:
    """Time *non-terminal* circuits (mid-circuit measurement, classical
    conditioning, mid-evolution reset) on the ``statevector`` backend.

    These are the workloads the terminal-measurement fast path cannot
    touch; they run on the batched trajectory engine (one sweep over
    all shots).  ``circuits`` maps a label to a flat circuit; the
    default set is teleportation, the conditioned fan-out, and the
    Fig. 12-style qubit-reuse loop from :mod:`repro.qcircuit.examples`.
    """
    from repro.qcircuit.examples import (
        conditioned_fanout_circuit,
        qubit_reuse_circuit,
        teleport_circuit,
    )

    if circuits is None:
        circuits = {
            "teleport": teleport_circuit(),
            "cond-fanout": conditioned_fanout_circuit(),
            "qubit-reuse": qubit_reuse_circuit(),
        }
    return [
        _timed_shot_row(label, circuit.num_qubits, circuit, shots, seed)
        for label, circuit in circuits.items()
    ]


#: Backends compared by the noisy-execution benchmarks: the exact
#: density-matrix reference and the stochastic Kraus-unraveling
#: trajectory engine behind the vectorized backend.
NOISY_BACKENDS = ("density_matrix", "statevector")


@dataclass(frozen=True)
class NoisyExecutionRow:
    """Timing + accuracy of one (workload, backend, noise strength) run.

    ``fidelity`` is the classical fidelity (squared Bhattacharyya
    overlap) between the *exact* noisy output distribution and the
    exact ideal one — a property of the noise model, shared by every
    backend at that strength.  ``sampling_tvd`` is the total-variation
    distance between this backend's sampled histogram and the exact
    noisy distribution — the per-backend convergence measure (the
    density-matrix backend samples from the exact distribution, so its
    TVD reflects shot noise only; the unraveling engines add trajectory
    noise).  ``channel_applications`` / ``readout_applications`` come
    straight from :class:`~repro.sim.backend.RunInfo`.
    """

    workload: str
    backend: str
    strength: float
    shots: int
    seconds: float
    evolutions: int
    channel_applications: int
    readout_applications: int
    fidelity: float
    sampling_tvd: float


def noisy_execution_report(
    circuits: "dict[str, Circuit] | None" = None,
    strengths: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    shots: int = 2048,
    seed: int = 0,
    backends: Sequence[str] = NOISY_BACKENDS,
) -> list[NoisyExecutionRow]:
    """Execute workloads under increasing noise on each noisy backend.

    For every (workload, strength) pair the exact output distribution
    comes from the density-matrix reference
    (:meth:`~repro.sim.density.DensityMatrixBackend.output_distribution`);
    each backend then samples ``shots`` noisy shots, timed, and the row
    records its distance to the exact distribution plus the
    fidelity-vs-ideal of the noise level itself.  The default workloads
    are teleportation and the conditioned fan-out (both non-terminal —
    the circuits whose unraveling is genuinely per-shot) plus a
    terminal GHZ preparation; the default noise is
    :func:`repro.noise.standard_noise_model` (depolarizing on every
    gate qubit + symmetric readout).
    """
    from repro.noise import standard_noise_model
    from repro.qcircuit.circuit import CircuitGate, Measurement
    from repro.qcircuit.examples import (
        conditioned_fanout_circuit,
        teleport_circuit,
    )
    from repro.sim.backend import get_backend
    from repro.sim.density import DensityMatrixBackend

    if circuits is None:
        ghz = Circuit(num_qubits=3, num_bits=3)
        ghz.add(CircuitGate("h", (0,)))
        ghz.add(CircuitGate("x", (1,), controls=(0,)))
        ghz.add(CircuitGate("x", (2,), controls=(1,)))
        for qubit in range(3):
            ghz.add(Measurement(qubit, qubit))
        circuits = {
            "teleport": teleport_circuit(),
            "cond-fanout": conditioned_fanout_circuit(),
            "ghz": ghz,
        }

    reference = DensityMatrixBackend()
    rows = []
    for label, circuit in circuits.items():
        ideal = reference.output_distribution(circuit)
        for strength in strengths:
            model = standard_noise_model(strength)
            exact = reference.output_distribution(
                circuit, noise_model=model
            )
            fidelity = classical_fidelity(exact, ideal)
            for name in backends:
                backend = get_backend(name)
                start = time.perf_counter()
                results, info = backend.run_with_info(
                    circuit, shots, seed, noise_model=model
                )
                elapsed = time.perf_counter() - start
                rows.append(
                    NoisyExecutionRow(
                        label,
                        name,
                        strength,
                        shots,
                        elapsed,
                        info.evolutions,
                        info.channel_applications,
                        info.readout_applications,
                        fidelity,
                        distribution_tvd(
                            distribution_of(results), exact
                        ),
                    )
                )
    return rows


def format_noisy_report(rows: Iterable[NoisyExecutionRow]) -> str:
    """Render a noisy-execution report as an aligned table."""
    lines = [
        f"{'workload':<14}{'backend':<16}{'p':>6}{'shots':>7}"
        f"{'seconds':>10}{'evol':>6}{'chans':>7}{'readout':>8}"
        f"{'fidelity':>10}{'tvd':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<14}{row.backend:<16}{row.strength:>6.3f}"
            f"{row.shots:>7}{row.seconds:>10.4f}{row.evolutions:>6}"
            f"{row.channel_applications:>7}{row.readout_applications:>8}"
            f"{row.fidelity:>10.4f}{row.sampling_tvd:>8.4f}"
        )
    return "\n".join(lines)


def format_shot_report(rows: Iterable[ShotExecutionRow]) -> str:
    """Render a shot-execution report as an aligned table."""
    lines = [
        f"{'algorithm':<12}{'n':>4}  {'backend':<14}{'shots':>7}"
        f"{'seconds':>12}{'evolutions':>12}  {'fast_path':<11}"
        f"{'batched':<9}{'fused':>6}"
    ]
    for row in rows:
        lines.append(
            f"{row.algorithm:<12}{row.input_size:>4}  {row.backend:<14}"
            f"{row.shots:>7}{row.seconds:>12.4f}{row.evolutions:>12}"
            f"  {str(row.fast_path):<11}{str(row.batched):<9}"
            f"{row.gates_fused:>6}"
        )
    return "\n".join(lines)


def format_series(
    rows: list[EvaluationRow], metric: str
) -> dict[str, dict[str, list[tuple[int, float]]]]:
    """Group rows into {algorithm: {compiler: [(n, value), ...]}}."""
    out: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for row in rows:
        value = getattr(row, metric)
        out.setdefault(row.algorithm, {}).setdefault(row.compiler, []).append(
            (row.input_size, value)
        )
    return out
