"""The execution service's wire protocol: JSON lines, validated.

One request per line, one response per line, both UTF-8 JSON objects —
trivially scriptable (``nc``, ``asyncio.open_connection``, a browser
behind any JSON bridge) and streaming-friendly (responses may
interleave across in-flight requests; match them by ``id``).

Request fields (``op: "run"``, the default)::

    {"id": 1, "op": "run",
     "kernel": "bv",            # evaluation-suite algorithm name, or
     "source": "...",           # Python source defining one @qpu kernel
     "n": 8,                    # dims for algorithm kernels
     "preset": "default",       # compile pipeline preset
     "backend": "statevector",  # simulation backend name (optional)
     "noise": {"depolarizing": 0.01},   # channel name -> parameter
     "shots": 256, "seed": 0,
     "priority": 5,             # lower runs sooner
     "deadline": 10.0,          # seconds, capped by the server
     "workers": 2}              # shot-sharding workers, <= MAX_WORKERS

``op: "health"`` and ``op: "stats"`` take no other fields.  Responses
are ``{"id", "ok": true, "result": {...}}`` or ``{"id", "ok": false,
"error": {"code", "message", "retryable", "rendered"}}`` where
``code`` is the stable ``QWnnn`` diagnostic code (``QW601`` shed,
``QW602`` deadline, ``QW603`` retry budget, ``QW604`` bad request,
``QW605`` draining — see docs/diagnostics.md) and ``rendered`` is the
full rustc-style caret rendering when one exists.

Validation happens here, once, for both transports (TCP and the
in-process :class:`~repro.service.service.ServiceClient`): a malformed
payload becomes a :class:`~repro.errors.BadRequestError` before any
queueing or compute is spent on it.  ``source`` kernels are exec'd
with the full ``repro`` DSL namespace — the service trusts its
clients (it is an internal execution tier, not a public sandbox), and
docs/service.md says so explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import BadRequestError, QwertyError
from repro.sim.backend import available_backends
from repro.sim.batched import MAX_STATEVECTOR_QUBITS

#: Operations the service understands.  ``metrics`` returns the
#: process-wide registry as Prometheus text exposition
#: (docs/observability.md).
OPS = ("run", "health", "stats", "metrics")

#: Hard ceiling on per-request shots (one request must never occupy
#: the executor for unbounded time; split larger sweeps client-side).
MAX_SHOTS = 1 << 20

#: Hard ceiling on per-request shot-sharding workers.  The worker count
#: sizes a process pool, and each distinct count caches one more pool
#: for the life of the server, so it must not be client-unbounded.
MAX_WORKERS = 32

#: Noise-channel vocabulary: request ``noise`` keys map to the
#: single-parameter constructors in :mod:`repro.noise`.
NOISE_CHANNELS = (
    "bit_flip",
    "phase_flip",
    "bit_phase_flip",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
)


@dataclass
class RunRequest:
    """One validated ``op: "run"`` request."""

    id: Any = None
    kernel: Optional[str] = None
    source: Optional[str] = None
    n: int = 4
    preset: str = "default"
    backend: Optional[str] = None
    noise: Optional[Mapping[str, float]] = None
    shots: int = 256
    seed: int = 0
    priority: int = 5
    deadline: Optional[float] = None
    workers: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunRequest":
        request = cls(
            id=payload.get("id"),
            kernel=payload.get("kernel"),
            source=payload.get("source"),
            n=_int_field(payload, "n", 4, minimum=1),
            preset=str(payload.get("preset", "default")),
            backend=payload.get("backend"),
            noise=payload.get("noise"),
            shots=_int_field(payload, "shots", 256, minimum=1),
            seed=_int_field(payload, "seed", 0, minimum=0),
            priority=_int_field(payload, "priority", 5),
            deadline=_float_field(payload, "deadline"),
            workers=_opt_int_field(payload, "workers", minimum=1),
        )
        if (request.kernel is None) == (request.source is None):
            raise BadRequestError(
                "a run request names exactly one of 'kernel' (an "
                "evaluation-suite algorithm) or 'source' (Python source "
                "defining one @qpu kernel)"
            )
        if request.source is not None and not isinstance(request.source, str):
            raise BadRequestError(
                f"'source' must be a string of Python source, got "
                f"{type(request.source).__name__}"
            )
        if request.backend is not None and not isinstance(request.backend, str):
            raise BadRequestError(
                f"'backend' must be a backend name or null, got "
                f"{type(request.backend).__name__}"
            )
        if (
            request.backend is not None
            and request.backend not in available_backends()
        ):
            raise BadRequestError(
                f"unknown backend {request.backend!r} (known: "
                f"{', '.join(available_backends())})"
            )
        if request.kernel is not None and request.n > MAX_STATEVECTOR_QUBITS:
            # Every suite kernel needs at least n qubits: reject before
            # compiling what the engine could never simulate.
            raise BadRequestError(
                f"n={request.n} exceeds the {MAX_STATEVECTOR_QUBITS}-qubit "
                f"statevector limit"
            )
        if request.shots > MAX_SHOTS:
            raise BadRequestError(
                f"shots={request.shots} exceeds the per-request ceiling "
                f"of {MAX_SHOTS}; split the sweep across requests"
            )
        if request.workers is not None and request.workers > MAX_WORKERS:
            raise BadRequestError(
                f"workers={request.workers} exceeds the per-request "
                f"ceiling of {MAX_WORKERS}"
            )
        if request.noise is not None:
            if not isinstance(request.noise, Mapping):
                raise BadRequestError(
                    "'noise' must be an object of channel-name -> "
                    "parameter, e.g. {\"depolarizing\": 0.01}"
                )
            for name in request.noise:
                if name not in NOISE_CHANNELS:
                    raise BadRequestError(
                        f"unknown noise channel {name!r} (known: "
                        f"{', '.join(NOISE_CHANNELS)})"
                    )
        return request


def _int_field(payload, key, default, minimum=None) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadRequestError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _opt_int_field(payload, key, minimum=None) -> Optional[int]:
    if payload.get(key) is None:
        return None
    return _int_field(payload, key, None, minimum=minimum)


def _float_field(payload, key) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        # json.loads accepts NaN and Infinity, and a NaN deadline
        # compares false against every elapsed time.
        raise BadRequestError(f"{key!r} must be finite, got {value}")
    if number <= 0:
        raise BadRequestError(f"{key!r} must be > 0, got {value}")
    return number


def parse_request(line: "str | bytes") -> dict:
    """One wire line -> payload dict (``BadRequestError`` on garbage)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise BadRequestError(
            f"request is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise BadRequestError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op", "run")
    if op not in OPS:
        raise BadRequestError(
            f"unknown op {op!r} (known: {', '.join(OPS)})"
        )
    return payload


def ok_response(request_id: Any, result: Mapping[str, Any]) -> dict:
    return {"id": request_id, "ok": True, "result": dict(result)}


def error_response(request_id: Any, error: Exception) -> dict:
    """The structured error envelope for any exception.

    :class:`QwertyError` subclasses keep their stable code and caret
    rendering; anything else (a genuine bug) is reported as QW000 so
    the client still gets a well-formed response — and the server log,
    not the wire, carries the traceback.
    """
    if isinstance(error, QwertyError):
        payload = {
            "code": error.code,
            "message": error.message,
            "retryable": bool(getattr(error, "retryable", False)),
            "rendered": error.render(),
        }
    else:
        payload = {
            "code": "QW000",
            "message": f"internal error: {type(error).__name__}: {error}",
            "retryable": False,
            "rendered": "",
        }
    return {"id": request_id, "ok": False, "error": payload}


def encode_response(response: Mapping[str, Any]) -> bytes:
    """One response dict -> one wire line (newline-terminated JSON)."""
    return (json.dumps(response, sort_keys=True) + "\n").encode()


def counts_of(results) -> dict[str, int]:
    """Sampled shots -> {"0101": count} histogram for the wire.

    ``results`` is the executor's ``(shots, bits)`` array, or any
    sequence of equal-width bit tuples.  Each row packs into one key,
    ``np.unique`` counts the keys, and each distinct outcome is
    stringified once.  Any width works: up to 64 bits a key is an
    unsigned integer, wider rows are opaque byte strings, and a
    zero-bit register counts as ``{"": shots}``.  Keys keep the order
    in which outcomes were first drawn.
    """
    bits = np.asarray(results, dtype=np.uint8)
    shots = len(bits)
    if shots == 0:
        return {}
    bits = bits.reshape(shots, -1)
    width = bits.shape[1]
    if width == 0:
        return {"": shots}
    nbytes = -(-width // 8)
    if nbytes <= 8:
        # np.unique sorts integer keys far faster than opaque bytes
        # (2^20 8-bit shots: 23 ms against 360 ms), so registers up to
        # 64 bits pad to a 1-, 2-, 4- or 8-byte integer.
        nbytes = 1 << (nbytes - 1).bit_length()
    padded = np.zeros((shots, 8 * nbytes), dtype=np.uint8)
    padded[:, :width] = bits
    keys = np.packbits(padded.reshape(-1)).view(
        f"u{nbytes}" if nbytes <= 8 else f"V{nbytes}"
    )
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    digits = np.ascontiguousarray(padded[first[order], :width])
    text = (digits + ord("0")).view(f"S{width}").ravel().astype(str)
    return dict(zip(text.tolist(), counts[order].tolist()))
