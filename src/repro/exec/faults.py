"""Deterministic, seed-driven fault injection for the execution stack.

Crash recovery, retry budgets, and cache-corruption handling are only
trustworthy if their paths run on purpose, in CI, on every commit —
not the first time a production worker segfaults.  This module is the
one switchboard those paths consult:

- ``worker_crash`` — a chunk execution fails (raises
  :class:`~repro.errors.FaultInjectedError`), and the retry layer runs
  it again;
- ``worker_hang`` — a chunk sleeps ``hang_seconds`` before running,
  long enough to outlast a short service deadline;
- ``diskcache_corrupt`` — a persistent compile-cache read sees a
  truncated blob, exercising the real corrupt-entry path (counted,
  deleted, treated as a miss);
- ``compile_error`` — :func:`repro.pipeline.compile_kernel` fails with
  a coded diagnostic before doing any work.

Determinism contract: whether a site fires is a pure function of the
plan's ``(seed, kind, site key)`` — **no RNG state, no wall clock** —
so a red chaos run reproduces bit-identically.  Chunk sites key on
``(run seed, chunk index, attempt)``: a chunk that crashed on attempt 0
draws a fresh decision on attempt 1, which is exactly how a real
transient fault behaves and what lets retry tests converge.

Activation is layered: :func:`inject_faults` sets a contextvar for the
enclosing block (tests, benchmarks); the ``REPRO_FAULTS`` environment
variable (``"worker_crash=0.05,worker_hang=0.01"``, with
``REPRO_FAULTS_SEED`` / ``REPRO_FAULTS_HANG_SECONDS``) covers whole
processes (the CI service-smoke job).  The chunk dispatcher reads the
active plan once per run and carries it on each chunk task, so the
service's executor threads see the plan of the request they run.  See
docs/service.md.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.errors import FaultInjectedError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

_INJECTED = _metrics.counter(
    "repro_faults_injected_total",
    "Faults actually fired by kind",
    labels=("kind",),
)


def _note_injection(kind: str, **attrs: object) -> None:
    """One bookkeeping point for every fired fault: a counter bump and
    a zero-duration trace event at the injection site."""
    _INJECTED.inc(kind=kind)
    _trace.event("fault.inject", kind=kind, **attrs)


#: The recognized fault kinds; unknown kinds are rejected at plan
#: construction so a typo cannot silently disable a chaos test.
FAULT_KINDS = (
    "worker_crash",
    "worker_hang",
    "diskcache_corrupt",
    "compile_error",
)

#: Environment knobs (documented in docs/service.md).
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
FAULTS_HANG_SECONDS_ENV = "REPRO_FAULTS_HANG_SECONDS"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable description of what to inject.

    ``rates`` maps fault kind to a probability in ``[0, 1]``;
    ``seed`` derandomizes every decision; ``hang_seconds`` bounds the
    injected hang (a chunk must always wake up eventually — an
    unbounded sleep would hold its thread past the test run).
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    hang_seconds: float = 0.25

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} "
                    f"(known: {', '.join(FAULT_KINDS)})"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(
                    f"fault rate for {kind!r} must be in [0, 1], "
                    f"got {rate!r}"
                )

    def should(self, kind: str, key: object) -> bool:
        """Whether the site identified by ``key`` fires for ``kind``.

        A pure function of ``(seed, kind, key)``: the key string is
        hashed to a uniform draw in ``[0, 1)`` and compared against the
        configured rate.  Identical in every process and on every
        re-run — the anchor of the chaos determinism contract.
        """
        rate = float(self.rates.get(kind, 0.0))
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        payload = f"{self.seed}\x00{kind}\x00{key}".encode()
        digest = hashlib.sha256(payload).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        return draw < rate


# ----------------------------------------------------------------------
# The active plan: contextvar first, environment second.
# ----------------------------------------------------------------------
_ACTIVE: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro_fault_plan", default=None
)

#: Per-process, per-kind invocation counters for sites without a
#: natural cross-process key (compile calls, disk-cache reads).  Chunk
#: sites use (run seed, chunk index, attempt) instead and never touch
#: these.
_COUNTERS: dict[str, int] = {}


def plan_from_env(environ: Optional[Mapping[str, str]] = None) -> (
    Optional[FaultPlan]
):
    """Parse ``REPRO_FAULTS`` (``"kind=rate,kind=rate"``) or ``None``."""
    environ = os.environ if environ is None else environ
    spec = environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    rates: dict[str, float] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        kind, _, rate = entry.partition("=")
        rates[kind.strip()] = float(rate)
    return FaultPlan(
        rates=rates,
        seed=int(environ.get(FAULTS_SEED_ENV, "0")),
        hang_seconds=float(environ.get(FAULTS_HANG_SECONDS_ENV, "0.25")),
    )


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan chaos-aware code consults: contextvar, else env, else
    ``None`` (the production configuration — zero overhead beyond this
    lookup)."""
    plan = _ACTIVE.get()
    if plan is not None:
        return plan
    return plan_from_env()


@contextmanager
def inject_faults(
    plan: Optional[FaultPlan] = None,
    *,
    seed: int = 0,
    hang_seconds: float = 0.25,
    **rates: float,
):
    """Activate fault injection for the enclosing block.

    Either pass a prebuilt :class:`FaultPlan` or name rates directly::

        with inject_faults(worker_crash=0.05, seed=7):
            service_runs_with_5pct_chunk_crashes()
    """
    if plan is None:
        plan = FaultPlan(rates=rates, seed=seed, hang_seconds=hang_seconds)
    elif rates:
        raise ValueError("pass a FaultPlan or keyword rates, not both")
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)


def reset_counters() -> None:
    """Zero the per-process site counters (test isolation)."""
    _COUNTERS.clear()


def draw(kind: str, salt: object = "") -> bool:
    """Consult the active plan at an auto-counted in-process site.

    For sites whose invocations have no natural cross-process identity
    (a compile call, a cache read): each call advances a per-kind
    counter, so the decision sequence is deterministic for a fixed call
    order yet successive calls draw independently.  Returns ``False``
    (for free) when no plan is active.
    """
    plan = active_fault_plan()
    if plan is None:
        return False
    index = _COUNTERS.get(kind, 0) + 1
    _COUNTERS[kind] = index
    return plan.should(kind, f"{salt}\x00{index}")


def chunk_fault_key(seed: int, index: int, attempt: int) -> str:
    """The site key for one chunk-execution attempt.

    Keyed on the chunk's stream, ``(run seed, chunk index)``, plus the
    attempt number: the stream identifies the work unit across
    processes and re-runs, and folding in the attempt lets a retried
    chunk draw a fresh decision (a transient fault, not a curse).
    """
    return f"{seed}/{index}@{attempt}"


def fires_on_first_attempt(plan: FaultPlan, seed: int, chunks: int) -> bool:
    """Whether ``plan`` can inject anything into a compile-cache hit
    followed by first attempts of a run's ``chunks`` chunks, seeded
    ``seed``.

    Chunk sites are pure functions of ``(seed, chunk index,
    attempt)``, so the answer is exact for crashes and hangs.  A memory
    hit reads no disk, so ``diskcache_corrupt`` cannot fire.  Any other
    kind with a rate counts as firing: ``compile_error`` sites draw from
    a per-process counter.  When this is false, running under the plan
    is the same as running without it.
    """
    chunk_kinds = ("worker_hang", "worker_crash")
    if any(
        float(rate) > 0.0
        and kind not in chunk_kinds
        and kind != "diskcache_corrupt"
        for kind, rate in plan.rates.items()
    ):
        return True
    return any(
        plan.should(kind, chunk_fault_key(seed, index, 0))
        for index in range(chunks)
        for kind in chunk_kinds
    )


def maybe_inject_chunk_fault(
    plan: Optional[FaultPlan], seed: int, index: int, attempt: int
) -> None:
    """The chunk runner's injection site (crash and hang).

    Called at the top of every chunk execution with the plan carried on
    the chunk task.  A hang sleeps ``plan.hang_seconds`` and then
    *continues normally*: the chunk completes with the same bits, only
    later.  A crash raises :class:`FaultInjectedError`, which the retry
    layer absorbs.
    """
    if plan is None:
        return
    key = chunk_fault_key(seed, index, attempt)
    if plan.should("worker_hang", key):
        _note_injection(
            "worker_hang", seed=seed, chunk=index, attempt=attempt,
            hang_seconds=plan.hang_seconds,
        )
        time.sleep(plan.hang_seconds)
    if plan.should("worker_crash", key):
        _note_injection(
            "worker_crash", seed=seed, chunk=index, attempt=attempt,
        )
        raise FaultInjectedError(
            f"injected worker_crash (seed {seed}, chunk {index}, "
            f"attempt {attempt})"
        )


def maybe_corrupt_blob(digest: str, blob: bytes) -> bytes:
    """The disk cache's injection site: truncate the blob so the real
    corrupt-entry path (failed unpickle -> counted, deleted, miss)
    runs, rather than simulating its outcome."""
    if draw("diskcache_corrupt", salt=digest):
        _note_injection("diskcache_corrupt", digest=digest)
        return blob[: len(blob) // 2]
    return blob


def maybe_inject_compile_error(kernel_name: str) -> None:
    """The compiler's injection site (:func:`repro.pipeline.compile_kernel`)."""
    if draw("compile_error", salt=kernel_name):
        _note_injection("compile_error", kernel=kernel_name)
        raise FaultInjectedError(
            f"injected compile_error while compiling {kernel_name!r}"
        )
