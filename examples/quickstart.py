"""Quickstart: Bernstein-Vazirani in Qwerty (paper Fig. 1).

The program recovers a secret bit string with a single oracle query.
The oracle is *classical* code (``@classical``); ASDF synthesizes its
reversible sign embedding, and the relaxed peephole optimization melts
it into multi-controlled Z gates with no ancilla.

The sampling demo at the end shows the vectorized simulation backend:
``simulate_kernel(kernel, shots=1024, backend="statevector")`` evolves
the statevector once and draws all 1024 shots from |psi|^2 in a single
vectorized sample, so shot count is a near-constant cost (see
docs/simulators.md).

Run:  python examples/quickstart.py [secret-bits]
"""

import sys
from collections import Counter

from repro import bit, cfunc, classical, qpu, simulate_kernel, N


def make_bv(secret):
    """Build the Bernstein-Vazirani kernel for a ``bit[N]`` secret.

    ``f`` is the oracle f(x) = secret . x (mod 2) as ordinary classical
    code; the kernel queries its sign embedding once between two basis
    changes and measures in the standard basis.
    """

    @classical[N](secret)
    def f(secret_str: bit[N], x: bit[N]) -> bit:
        return (secret_str & x).xor_reduce()

    @qpu[N](f)
    def kernel(f: cfunc[N, 1]) -> bit[N]:
        return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure  # noqa

    return kernel


def main() -> None:
    text = sys.argv[1] if len(sys.argv) > 1 else "110101"
    secret = bit.from_str(text)
    kernel = make_bv(secret)

    # One shot suffices: B-V is deterministic.
    measured = kernel()
    print(f"secret:   {secret}")
    print(f"measured: {measured}")
    assert measured == secret, "Bernstein-Vazirani must recover the secret"
    print("recovered the secret with one oracle query")

    # Worked shots example: 1024 shots through the vectorized backend.
    # The circuit has only terminal measurements, so the backend
    # performs ONE statevector evolution and samples all shots at once.
    # (kernel.histogram(shots=1024, backend="statevector") wraps
    # this same call when only the counts are needed.)  Every shot
    # agrees here because the distribution is a point mass.
    results = simulate_kernel(kernel, shots=1024, backend="statevector")
    counts = Counter(str(shot) for shot in results)
    print(f"1024-shot histogram (statevector backend): {dict(counts)}")
    assert counts == {str(secret): 1024}


if __name__ == "__main__":
    main()
