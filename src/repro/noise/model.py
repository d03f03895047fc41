"""The :class:`NoiseModel`: attach channels to a circuit's execution.

A noise model is a list of *attachment rules* — each rule binds one
:class:`~repro.noise.channels.KrausChannel` to a gate-name filter
and/or a qubit filter — plus per-qubit (or default) readout confusion
matrices.  Execution engines consult :meth:`NoiseModel.channels_for`
after applying each gate and :meth:`NoiseModel.readout_error_for` at
each measurement; the model itself never touches a state, so the same
model drives the exact density-matrix backend and the stochastic
trajectory engines identically.

Attachment semantics (docs/noise.md has the full rules):

- A **single-qubit channel** is applied once to *every qubit the gate
  touches* (controls and targets) that passes the qubit filter.
- A **multi-qubit channel** is applied once, on the gate's qubits in
  ``controls + targets`` order, to gates whose total qubit count equals
  the channel arity (and whose qubits all pass the filter); gates of a
  different arity are unaffected.
- Rules apply in insertion order, after the gate's unitary.
- Readout errors corrupt the *recorded* classical bit at measurement;
  the post-measurement state follows the true outcome, and gates
  classically conditioned on the bit see the corrupted value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import NoiseError
from repro.noise.channels import KrausChannel, ReadoutError
from repro.qcircuit.circuit import KNOWN_GATES, CircuitGate


@dataclass
class NoiseStats:
    """Mutable telemetry accumulator shared by the execution engines.

    ``channel_applications`` counts channel-application *events* the
    engine actually performed: per batched sweep (one masked Kraus
    draw covers every shot) for the batched trajectory engine, and per
    evolved branch for the exact density-matrix backend.
    ``readout_applications`` counts measurements whose recorded bit
    went through a confusion matrix: per sweep for the batched engine
    (one vectorized flip draw covers every shot), and per
    ``Measurement`` instruction for the density-matrix backend (the
    confusion is folded into the exact distribution once, however many
    branches are live).
    """

    channel_applications: int = 0
    readout_applications: int = 0


@dataclass(frozen=True)
class _ChannelRule:
    channel: KrausChannel
    gates: Optional[frozenset]
    qubits: Optional[frozenset]


class NoiseModel:
    """Channels per gate name, per qubit, or globally, plus readout.

    Attachment methods return ``self`` so models compose fluently::

        model = (
            NoiseModel()
            .add_channel(depolarizing(0.01))                  # every gate
            .add_channel(amplitude_damping(0.05), gates=("h",))
            .add_channel(phase_flip(0.02), qubits=(0, 1))
            .add_readout_error(ReadoutError.symmetric(0.03))
        )
    """

    def __init__(self) -> None:
        self._rules: list[_ChannelRule] = []
        self._readout: dict[int, ReadoutError] = {}
        self._default_readout: Optional[ReadoutError] = None

    # ------------------------------------------------------------------
    # Attachment.
    # ------------------------------------------------------------------
    def add_channel(
        self,
        channel: KrausChannel,
        gates: Optional[Iterable[str]] = None,
        qubits: Optional[Iterable[int]] = None,
    ) -> "NoiseModel":
        """Attach ``channel`` after matching gate applications.

        ``gates=None`` matches every gate name; ``qubits=None`` matches
        every qubit.  Unknown gate names raise (catching typos beats
        silently simulating less noise than requested).
        """
        if not isinstance(channel, KrausChannel):
            raise NoiseError(
                f"add_channel expects a KrausChannel, got "
                f"{type(channel).__name__}"
            )
        gate_filter = None
        if gates is not None:
            gate_filter = frozenset(gates)
            unknown = gate_filter - KNOWN_GATES
            if unknown:
                raise NoiseError(
                    f"unknown gate name(s) in noise rule: "
                    f"{', '.join(sorted(unknown))} (known gates: "
                    f"{', '.join(sorted(KNOWN_GATES))})"
                )
        qubit_filter = None
        if qubits is not None:
            qubit_filter = frozenset(int(q) for q in qubits)
            if any(q < 0 for q in qubit_filter):
                raise NoiseError("qubit filters must be non-negative")
        self._rules.append(
            _ChannelRule(channel, gate_filter, qubit_filter)
        )
        return self

    def add_readout_error(
        self,
        error: ReadoutError,
        qubits: Optional[Iterable[int]] = None,
    ) -> "NoiseModel":
        """Attach a confusion matrix to measurements of ``qubits``
        (``None`` = the default for every qubit; a per-qubit entry wins
        over the default)."""
        if not isinstance(error, ReadoutError):
            raise NoiseError(
                f"add_readout_error expects a ReadoutError, got "
                f"{type(error).__name__}"
            )
        if qubits is None:
            self._default_readout = error
        else:
            for qubit in qubits:
                self._readout[int(qubit)] = error
        return self

    # ------------------------------------------------------------------
    # Lookup (the engines' interface).
    # ------------------------------------------------------------------
    def channels_for(
        self, gate: CircuitGate
    ) -> list[tuple[KrausChannel, tuple[int, ...]]]:
        """The ``(channel, qubits)`` applications due after ``gate``,
        in rule-insertion order."""
        applications: list[tuple[KrausChannel, tuple[int, ...]]] = []
        for rule in self._rules:
            if rule.gates is not None and gate.name not in rule.gates:
                continue
            if rule.channel.num_qubits == 1:
                for qubit in gate.qubits:
                    if rule.qubits is None or qubit in rule.qubits:
                        applications.append((rule.channel, (qubit,)))
            else:
                if len(gate.qubits) != rule.channel.num_qubits:
                    continue
                if rule.qubits is not None and not set(
                    gate.qubits
                ) <= rule.qubits:
                    continue
                applications.append((rule.channel, gate.qubits))
        return applications

    def readout_error_for(self, qubit: int) -> Optional[ReadoutError]:
        """The confusion matrix for measurements of ``qubit``, if any."""
        error = self._readout.get(qubit, self._default_readout)
        if error is not None and error.trivial:
            return None
        return error

    @property
    def has_noise(self) -> bool:
        """Whether the model attaches any channel or *non-trivial*
        readout error.  Identity confusion matrices don't count: a
        model carrying only those is effectively noiseless, and
        engines must keep their ideal fast paths."""
        if self._rules:
            return True
        if (
            self._default_readout is not None
            and not self._default_readout.trivial
        ):
            return True
        return any(not error.trivial for error in self._readout.values())

    @property
    def channel_rules(
        self,
    ) -> tuple[tuple[KrausChannel, Optional[frozenset], Optional[frozenset]], ...]:
        """The attachment rules, read-only (for reports and repr)."""
        return tuple(
            (rule.channel, rule.gates, rule.qubits)
            for rule in self._rules
        )

    def __repr__(self) -> str:
        readout = len(self._readout) + (
            1 if self._default_readout is not None else 0
        )
        return (
            f"NoiseModel({len(self._rules)} channel rule(s), "
            f"{readout} readout error(s))"
        )


def effective_noise_model(noise_model):
    """``noise_model`` if it actually attaches noise, else ``None``.

    The one normalization every engine applies before branching on
    "is this run noisy": an absent model and a model with no
    (non-trivial) attachments take identical — ideal — code paths.
    """
    if noise_model is not None and noise_model.has_noise:
        return noise_model
    return None


def standard_noise_model(
    p: float, readout: Optional[float] = None
) -> NoiseModel:
    """A one-knob model for benchmarks and examples: depolarizing ``p``
    on every gate qubit plus a symmetric readout error (``p / 2`` unless
    given).  ``p = 0`` yields a model with no attachments at all, so
    ``has_noise`` is False and engines take their ideal paths."""
    from repro.noise.channels import depolarizing

    model = NoiseModel()
    if p > 0.0:
        model.add_channel(depolarizing(p))
    readout_p = p / 2.0 if readout is None else readout
    if readout_p > 0.0:
        model.add_readout_error(ReadoutError.symmetric(readout_p))
    return model
