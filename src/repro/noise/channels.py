"""Kraus-channel primitives and the readout-error confusion matrix.

A :class:`KrausChannel` is a completely-positive trace-preserving (CPTP)
map given by operators :math:`\\{K_i\\}` with
:math:`\\sum_i K_i^\\dagger K_i = I`; it acts on a density matrix as
:math:`\\rho \\mapsto \\sum_i K_i \\rho K_i^\\dagger`.  The constructor
*validates* the completeness relation, so a channel object is CPTP by
construction everywhere downstream — the density-matrix backend applies
the sum exactly, and the trajectory engines unravel it stochastically
(draw operator ``i`` with probability :math:`\\|K_i|\\psi\\rangle\\|^2`).

The channel zoo covers the standard single-qubit noise processes
(depolarizing, bit/phase/bit-phase flip, amplitude and phase damping)
plus an ``n``-qubit depolarizing channel; anything else can be built by
passing raw operators to :class:`KrausChannel` directly.  See
docs/noise.md.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from repro.errors import NoiseError

#: Operators whose largest entry is below this are dropped (e.g. the
#: X/Y/Z legs of ``depolarizing(0.0)``), keeping unraveling free of
#: zero-probability draws; the completeness relation is re-checked on
#: what remains.
_NEGLIGIBLE = 1e-12

#: Tolerance for the CPTP completeness check sum(K^dag K) == I.
_CPTP_ATOL = 1e-9


class KrausChannel:
    """A validated CPTP channel: named Kraus operators on ``num_qubits``.

    ``operators`` are ``(2^k, 2^k)`` complex matrices sharing one shape;
    the constructor checks the completeness relation and freezes them
    (they are shared by every simulator that applies the channel).
    Equality compares the operator tuples elementwise, so two separately
    constructed ``bit_flip(0.1)`` channels compare equal.
    """

    def __init__(
        self, name: str, operators: Sequence[np.ndarray]
    ) -> None:
        ops = [np.array(op, dtype=complex) for op in operators]
        if not ops:
            raise NoiseError(f"channel {name!r} has no Kraus operators")
        shape = ops[0].shape
        for op in ops:
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise NoiseError(
                    f"channel {name!r}: Kraus operators must be square "
                    f"matrices, got shape {op.shape}"
                )
            if op.shape != shape:
                raise NoiseError(
                    f"channel {name!r}: Kraus operators disagree on shape "
                    f"({shape} vs {op.shape})"
                )
        dim = shape[0]
        num_qubits = dim.bit_length() - 1
        if dim < 2 or 2**num_qubits != dim:
            raise NoiseError(
                f"channel {name!r}: operator dimension {dim} is not a "
                f"power of two"
            )
        kept = [op for op in ops if np.abs(op).max() > _NEGLIGIBLE]
        if not kept:
            # All-negligible set (e.g. every coefficient 0): keep the
            # first so the completeness check reports the real problem.
            kept = ops[:1]
        completeness = sum(op.conj().T @ op for op in kept)
        if not np.allclose(completeness, np.eye(dim), atol=_CPTP_ATOL):
            raise NoiseError(
                f"channel {name!r} is not trace-preserving: "
                f"sum(K^dag K) deviates from the identity by "
                f"{np.abs(completeness - np.eye(dim)).max():.3e}"
            )
        for op in kept:
            op.setflags(write=False)
        stack = np.array(kept)
        gram = np.einsum("iba,ibc->iac", stack.conj(), stack)
        gram.setflags(write=False)
        self.name = name
        self.operators: tuple[np.ndarray, ...] = tuple(kept)
        #: Each operator's ``K_i^dag K_i``, stacked: ``||K_i |psi>||^2``
        #: is ``<psi| gram[i] |psi>``, the unraveling's selection weight.
        self.gram = gram
        self.num_qubits = num_qubits
        self.dim = dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The channel's exact action on a ``(2^k, 2^k)`` density matrix."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise NoiseError(
                f"channel {self.name!r} acts on {self.dim}x{self.dim} "
                f"density matrices, got shape {rho.shape}"
            )
        return sum(op @ rho @ op.conj().T for op in self.operators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KrausChannel):
            return NotImplemented
        return (
            self.name == other.name
            and len(self.operators) == len(other.operators)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.operators, other.operators)
            )
        )

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits, len(self.operators)))

    def __repr__(self) -> str:
        return (
            f"KrausChannel({self.name!r}, {len(self.operators)} operators, "
            f"{self.num_qubits} qubit(s))"
        )


def _check_probability(name: str, label: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise NoiseError(
            f"{name}: {label} must lie in [0, 1], got {value!r}"
        )
    return float(value)


_PAULIS = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def bit_flip(p: float) -> KrausChannel:
    """X with probability ``p``, identity otherwise."""
    p = _check_probability("bit_flip", "p", p)
    return KrausChannel(
        f"bit_flip({p:g})",
        [math.sqrt(1.0 - p) * _PAULIS["i"], math.sqrt(p) * _PAULIS["x"]],
    )


def phase_flip(p: float) -> KrausChannel:
    """Z with probability ``p``, identity otherwise."""
    p = _check_probability("phase_flip", "p", p)
    return KrausChannel(
        f"phase_flip({p:g})",
        [math.sqrt(1.0 - p) * _PAULIS["i"], math.sqrt(p) * _PAULIS["z"]],
    )


def bit_phase_flip(p: float) -> KrausChannel:
    """Y with probability ``p``, identity otherwise."""
    p = _check_probability("bit_phase_flip", "p", p)
    return KrausChannel(
        f"bit_phase_flip({p:g})",
        [math.sqrt(1.0 - p) * _PAULIS["i"], math.sqrt(p) * _PAULIS["y"]],
    )


def depolarizing(p: float, num_qubits: int = 1) -> KrausChannel:
    """The ``num_qubits``-qubit depolarizing channel of strength ``p``.

    With probability ``p`` the state is replaced by the maximally mixed
    state: :math:`\\rho \\mapsto (1-p)\\rho + p\\, I/2^n`.  In Kraus
    form, every non-identity Pauli string carries weight
    :math:`p/4^n` and the identity the rest.
    """
    p = _check_probability("depolarizing", "p", p)
    if num_qubits < 1 or num_qubits > 3:
        raise NoiseError(
            "depolarizing supports 1 to 3 qubits (the Pauli basis has "
            f"4^n operators), got num_qubits={num_qubits}"
        )
    pauli_weight = p / 4**num_qubits
    identity_weight = 1.0 - p + pauli_weight
    operators = []
    for labels in itertools.product("ixyz", repeat=num_qubits):
        matrix = _PAULIS[labels[0]]
        for label in labels[1:]:
            matrix = np.kron(matrix, _PAULIS[label])
        weight = (
            identity_weight
            if all(label == "i" for label in labels)
            else pauli_weight
        )
        operators.append(math.sqrt(weight) * matrix)
    name = (
        f"depolarizing({p:g})"
        if num_qubits == 1
        else f"depolarizing({p:g}, {num_qubits}q)"
    )
    return KrausChannel(name, operators)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Energy relaxation |1> -> |0> with probability ``gamma`` (T1)."""
    gamma = _check_probability("amplitude_damping", "gamma", gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel(f"amplitude_damping({gamma:g})", [k0, k1])


def phase_damping(lam: float) -> KrausChannel:
    """Pure dephasing: off-diagonals shrink by sqrt(1 - lambda) (T2)."""
    lam = _check_probability("phase_damping", "lambda", lam)
    k0 = np.array([[1, 0], [0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel(f"phase_damping({lam:g})", [k0, k1])


class ReadoutError:
    """A classical confusion matrix on one measured bit.

    ``matrix[i][j]`` is the probability of *recording* ``j`` when the
    true measurement outcome was ``i``; each row must be a probability
    distribution.  The post-measurement quantum state always follows
    the true outcome — only the recorded classical bit (and anything
    conditioned on it) is corrupted.
    """

    def __init__(self, matrix) -> None:
        confusion = np.array(matrix, dtype=float)
        if confusion.shape != (2, 2):
            raise NoiseError(
                f"readout confusion matrix must be 2x2, got shape "
                f"{confusion.shape}"
            )
        if np.any(confusion < 0.0) or np.any(confusion > 1.0):
            raise NoiseError(
                "readout confusion entries must lie in [0, 1]"
            )
        if not np.allclose(confusion.sum(axis=1), 1.0, atol=1e-9):
            raise NoiseError(
                "readout confusion rows must each sum to 1 "
                f"(got row sums {confusion.sum(axis=1)})"
            )
        confusion.setflags(write=False)
        self.matrix = confusion

    @classmethod
    def symmetric(cls, p: float) -> "ReadoutError":
        """Both outcomes misread with the same probability ``p``."""
        p = _check_probability("ReadoutError.symmetric", "p", p)
        return cls([[1.0 - p, p], [p, 1.0 - p]])

    @classmethod
    def asymmetric(cls, p01: float, p10: float) -> "ReadoutError":
        """``p01`` = P(record 1 | true 0), ``p10`` = P(record 0 | true 1)."""
        p01 = _check_probability("ReadoutError.asymmetric", "p01", p01)
        p10 = _check_probability("ReadoutError.asymmetric", "p10", p10)
        return cls([[1.0 - p01, p01], [p10, 1.0 - p10]])

    @property
    def p01(self) -> float:
        return float(self.matrix[0, 1])

    @property
    def p10(self) -> float:
        return float(self.matrix[1, 0])

    @property
    def trivial(self) -> bool:
        """Whether this is the identity (never misreads)."""
        return self.p01 == 0.0 and self.p10 == 0.0

    def apply_to_distribution(self, probabilities) -> np.ndarray:
        """Transform a length-2 true-outcome distribution into the
        recorded-outcome distribution (``p @ matrix``)."""
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (2,):
            raise NoiseError(
                "expected a length-2 outcome distribution, got shape "
                f"{probabilities.shape}"
            )
        return probabilities @ self.matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadoutError):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(tuple(self.matrix.reshape(-1)))

    def __repr__(self) -> str:
        return f"ReadoutError(p01={self.p01:g}, p10={self.p10:g})"
