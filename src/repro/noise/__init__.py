"""Noise modeling: Kraus channels, readout errors, and noise models.

The fifth-layer scenario axis of the reproduction: every circuit the
compiler emits can execute under a :class:`NoiseModel`, either exactly
(the ``density_matrix`` backend evolves :math:`\\rho` through each
channel's Kraus sum) or stochastically (the ``statevector`` backend
unravels each channel into per-trajectory Kraus draws).  See
docs/noise.md for the channel zoo, attachment rules, and the
memory/accuracy trade-offs between the two executions.
"""

from repro.noise.channels import (
    KrausChannel,
    ReadoutError,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    phase_flip,
)
from repro.noise.model import (
    NoiseModel,
    NoiseStats,
    effective_noise_model,
    standard_noise_model,
)

__all__ = [
    "KrausChannel",
    "NoiseModel",
    "NoiseStats",
    "ReadoutError",
    "amplitude_damping",
    "bit_flip",
    "bit_phase_flip",
    "depolarizing",
    "effective_noise_model",
    "phase_damping",
    "phase_flip",
    "standard_noise_model",
]
