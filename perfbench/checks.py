"""Output checks for the benchmark's programs.

Every check compares an output with what the algorithm guarantees (or,
for noisy runs, with the exact density-matrix distribution), never with
another run of the compiler under test.  Each function returns ``None``
when the output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import math


def alternating_secret(n: int) -> str:
    """The suite's Bernstein-Vazirani and Simon secret, ``1010...``."""
    return "".join("1" if i % 2 == 0 else "0" for i in range(n))


def _dot(a: str, b: str) -> int:
    return sum(int(x) & int(y) for x, y in zip(a, b)) % 2


def check_counts(kernel: str, n: int, counts: dict, secret=None):
    """Check an ideal (noise-free) histogram of suite kernel ``kernel``.

    ``secret`` overrides the suite's alternating secret for
    Bernstein-Vazirani kernels sent as ``source``.
    """
    if not counts:
        return "empty histogram"
    if any(len(outcome) != n for outcome in counts):
        return f"outcome width differs from n={n}"
    if kernel == "bv":
        want = secret or alternating_secret(n)
        wrong = sorted(set(counts) - {want})
        if wrong:
            return f"BV returned {wrong[0]} instead of its secret {want}"
    elif kernel == "dj":
        if "0" * n in counts:
            return "balanced DJ returned all zeros"
    elif kernel == "grover":
        best = max(counts, key=lambda key: (counts[key], key))
        if best != "1" * n:
            return f"Grover's most frequent outcome is {best}, not {'1' * n}"
    elif kernel == "simon":
        s = alternating_secret(n)
        wrong = [y for y in counts if _dot(y, s)]
        if wrong:
            return f"Simon outcome {wrong[0]} is not orthogonal to {s}"
    elif kernel == "period":
        # f(x) = x & 011..1 has period r = 2^(n-1) over Z_(2^n), so the
        # QFT can only return y with y * r = 0 (mod 2^n).
        r = 1 << (n - 1)
        wrong = [y for y in counts if (int(y, 2) * r) % (1 << n)]
        if wrong:
            return f"period-finding outcome {wrong[0]} is not a multiple of 2^n/r"
    else:
        return f"no check for kernel {kernel!r}"
    return None


def tvd_threshold(shots: int, outcomes: int, delta: float = 1e-6) -> float:
    """One-sided TVD margin of ``shots`` samples against an exact
    distribution over ``outcomes`` outcomes: the expected distance
    ``sqrt(k / 4n)`` plus a McDiarmid tail term at failure probability
    ``delta`` (the rule the repository's statistical tests use)."""
    return math.sqrt(outcomes / (4.0 * shots)) + math.sqrt(
        math.log(1.0 / delta) / (2.0 * shots)
    )


def check_noisy(counts: dict, exact: dict):
    """Check a noisy histogram against the exact outcome distribution
    (``exact`` maps outcome strings to probabilities)."""
    shots = sum(counts.values())
    if not shots:
        return "empty histogram"
    support = set(counts) | set(exact)
    distance = 0.5 * sum(
        abs(counts.get(key, 0) / shots - exact.get(key, 0.0))
        for key in support
    )
    threshold = tvd_threshold(shots, len(support))
    if distance >= threshold:
        return (
            f"TVD {distance:.4f} from the exact distribution exceeds "
            f"{threshold:.4f} ({shots} shots, {len(support)} outcomes)"
        )
    return None


def check_decomposed(circuit):
    """A decomposed circuit may hold only single-qubit gates and CX.

    SWAP, which the QFT's bit reversal leaves behind, is allowed as the
    three CX it stands for (perfbench/README.md, findings).
    """
    for inst in circuit.instructions:
        targets = getattr(inst, "targets", None)
        if targets is None:
            continue  # measurement or reset
        controls = inst.controls
        if inst.name == "swap" and not controls:
            continue
        if len(targets) != 1:
            return f"{inst.name} acts on {len(targets)} targets"
        if controls and (
            inst.name != "x" or len(controls) != 1 or inst.ctrl_states != (1,)
        ):
            return f"controlled {inst.name} with {len(controls)} controls"
    return None
