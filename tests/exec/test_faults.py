"""Deterministic fault injection (repro.exec.faults) and the recovery
machinery above it (repro.exec.retry, the one chunk dispatcher).

The load-bearing assertions are the determinism contracts:

- a ``FaultPlan`` decision is a pure function of ``(seed, kind, key)``
  — same answer in every process and on every re-run;
- a run that absorbed injected crashes, hangs, or a genuinely broken
  process pool returns results **bit-identical** to the same-seed
  fault-free run, because retries change only the fault-decision key
  (``seed/chunk@attempt``), never the chunk's random stream;
- exhausting the retry budget is a coded ``QW603`` diagnostic, and
  genuine (non-injected) chunk errors propagate immediately instead of
  burning the budget.
"""

import dataclasses
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.errors import FaultInjectedError, RetryBudgetExhaustedError
from repro.exec import faults as faults_mod
from repro.exec import parallel as parallel_mod
from repro.exec.faults import (
    FAULT_KINDS,
    FaultPlan,
    active_fault_plan,
    chunk_fault_key,
    fires_on_first_attempt,
    inject_faults,
    maybe_inject_chunk_fault,
    plan_from_env,
)
from repro.exec.parallel import chunk_plan, parallel_run_with_info
from repro.exec.retry import (
    RetryPolicy,
    backoff_delay,
    execute_with_retry,
)
from repro.pipeline import compile_kernel
from repro.qcircuit.examples import teleport_circuit
from repro.sim.backend import run_circuit_with_info
from repro.sim.statevector import run_circuit


@pytest.fixture(autouse=True)
def _isolated_fault_state(monkeypatch):
    monkeypatch.delenv(faults_mod.FAULTS_ENV, raising=False)
    faults_mod.reset_counters()
    yield
    faults_mod.reset_counters()


def _circuit(n=5):
    return compile_kernel(
        bernstein_vazirani(alternating_secret(n))
    ).execution_circuit


#: A mid-circuit-measurement circuit: every chunk evolves its shots on
#: the batched engine, drawing from its chunk stream.
_TELEPORT = teleport_circuit()


def _crash_seed(circuit, shots, seed, workers, rate=0.5):
    """A plan seed whose crashes all clear on the first retry.

    Searching instead of hard-coding keeps the test independent of the
    hash function's exact output while still guaranteeing that at
    least one fault fires and that no chunk needs a third attempt.
    """
    chunks = len(chunk_plan(shots, workers))
    for plan_seed in range(2000):
        plan = FaultPlan({"worker_crash": rate}, seed=plan_seed)
        first = [
            plan.should("worker_crash", chunk_fault_key(seed, i, 0))
            for i in range(chunks)
        ]
        second = [
            plan.should("worker_crash", chunk_fault_key(seed, i, 1))
            for i in range(chunks)
        ]
        if any(first) and not any(second):
            return plan_seed
    raise AssertionError("no suitable fault seed in range")


# ----------------------------------------------------------------------
# FaultPlan: validation and the pure decision function.
# ----------------------------------------------------------------------
def test_plan_decisions_are_pure_and_seed_sensitive():
    plan = FaultPlan({"worker_crash": 0.5}, seed=1)
    twin = FaultPlan({"worker_crash": 0.5}, seed=1)
    keys = [chunk_fault_key(s, s % 3, 0) for s in range(200)]
    decisions = [plan.should("worker_crash", k) for k in keys]
    assert decisions == [twin.should("worker_crash", k) for k in keys]
    assert any(decisions) and not all(decisions)
    other = FaultPlan({"worker_crash": 0.5}, seed=2)
    assert decisions != [other.should("worker_crash", k) for k in keys]


def test_plan_rate_extremes_skip_hashing():
    plan = FaultPlan({"worker_crash": 1.0, "worker_hang": 0.0})
    assert plan.should("worker_crash", "anything")
    assert not plan.should("worker_hang", "anything")
    assert not plan.should("compile_error", "unconfigured kind")


def test_plan_rejects_unknown_kind_bad_rate_bad_mode():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan({"worker_crahs": 0.1})
    with pytest.raises(ValueError, match="must be in"):
        FaultPlan({"worker_crash": 1.5})
    with pytest.raises(ValueError, match="crash_mode"):
        FaultPlan({}, crash_mode="segfault")


def test_plan_rate_roughly_matches_empirical_frequency():
    plan = FaultPlan({"worker_crash": 0.25}, seed=3)
    hits = sum(
        plan.should("worker_crash", chunk_fault_key(s, 0, 0))
        for s in range(2000)
    )
    assert 0.20 < hits / 2000 < 0.30


# ----------------------------------------------------------------------
# Activation: contextvar, environment, precedence.
# ----------------------------------------------------------------------
def test_active_plan_defaults_to_none():
    assert active_fault_plan() is None


def test_inject_faults_scopes_the_plan():
    with inject_faults(worker_crash=0.1, seed=9) as plan:
        assert active_fault_plan() is plan
        assert plan.rates == {"worker_crash": 0.1}
    assert active_fault_plan() is None


def test_inject_faults_rejects_plan_plus_rates():
    with pytest.raises(ValueError, match="not both"):
        with inject_faults(FaultPlan({}), worker_crash=0.1):
            pass


def test_plan_from_env_parses_spec_and_knobs(monkeypatch):
    monkeypatch.setenv(
        faults_mod.FAULTS_ENV, "worker_crash=0.05, worker_hang=0.01"
    )
    monkeypatch.setenv(faults_mod.FAULTS_SEED_ENV, "42")
    monkeypatch.setenv(faults_mod.FAULTS_HANG_SECONDS_ENV, "0.5")
    monkeypatch.setenv(faults_mod.FAULTS_CRASH_MODE_ENV, "exit")
    plan = plan_from_env()
    assert plan.rates == {"worker_crash": 0.05, "worker_hang": 0.01}
    assert (plan.seed, plan.hang_seconds, plan.crash_mode) == (
        42, 0.5, "exit",
    )
    assert active_fault_plan() == plan  # env reaches the ambient lookup


def test_env_plan_yields_to_contextvar(monkeypatch):
    monkeypatch.setenv(faults_mod.FAULTS_ENV, "worker_crash=1.0")
    with inject_faults(worker_hang=0.5) as scoped:
        assert active_fault_plan() is scoped


def test_counted_draw_advances_per_kind(monkeypatch):
    with inject_faults(compile_error=0.5, seed=11):
        first = [faults_mod.draw("compile_error", "k") for _ in range(64)]
    faults_mod.reset_counters()
    with inject_faults(compile_error=0.5, seed=11):
        again = [faults_mod.draw("compile_error", "k") for _ in range(64)]
    assert first == again  # counter sequence is deterministic
    assert any(first) and not all(first)


# ----------------------------------------------------------------------
# The chunk site.
# ----------------------------------------------------------------------
def test_first_attempt_prediction_matches_the_injection_sites():
    seed, chunks = 11, 2
    outcomes = set()
    for plan_seed in range(40):
        plan = FaultPlan(
            {"worker_crash": 0.3, "worker_hang": 0.1},
            seed=plan_seed,
            hang_seconds=0.0,
        )
        fired = []
        for index in range(chunks):
            try:
                maybe_inject_chunk_fault(plan, seed, index, 0)
            except FaultInjectedError:
                fired.append(index)
            else:
                fired += [index] if plan.should(
                    "worker_hang", chunk_fault_key(seed, index, 0)
                ) else []
        predicted = fires_on_first_attempt(plan, seed, chunks)
        assert predicted == bool(fired)
        outcomes.add(predicted)
    assert outcomes == {False, True}
    # Compile sites draw from a per-process counter: any rate fires;
    # disk reads never happen on a memory hit.
    assert fires_on_first_attempt(
        FaultPlan({"compile_error": 1e-9}), seed, chunks
    )
    assert not fires_on_first_attempt(
        FaultPlan({"diskcache_corrupt": 1.0}), seed, chunks
    )


def test_chunk_crash_raises_coded_fault():
    plan = FaultPlan({"worker_crash": 1.0})
    with pytest.raises(FaultInjectedError) as excinfo:
        maybe_inject_chunk_fault(plan, seed=7, index=0, attempt=0)
    assert excinfo.value.code == "QW510"


def test_chunk_exit_mode_raises_outside_pool_workers():
    # In the parent process os._exit must never run; "exit" mode falls
    # back to the exception so a misconfigured test cannot kill pytest.
    plan = FaultPlan({"worker_crash": 1.0}, crash_mode="exit")
    with pytest.raises(FaultInjectedError):
        maybe_inject_chunk_fault(plan, seed=7, index=0, attempt=0)


def test_chunk_hang_sleeps_then_continues():
    import time

    plan = FaultPlan({"worker_hang": 1.0}, hang_seconds=0.05)
    start = time.monotonic()
    # Returns normally.
    maybe_inject_chunk_fault(plan, seed=7, index=0, attempt=0)
    assert time.monotonic() - start >= 0.05


def test_no_plan_is_a_no_op():
    maybe_inject_chunk_fault(None, seed=7, index=0, attempt=0)


# ----------------------------------------------------------------------
# Recovery: chaos runs are bit-identical to clean runs.
# ----------------------------------------------------------------------
def test_inprocess_crash_recovery_is_bit_identical():
    circuit = _circuit()
    clean, clean_info = parallel_run_with_info(
        circuit, 96, seed=5, workers=2, use_processes=False,
        retry=RetryPolicy(),
    )
    plan_seed = _crash_seed(circuit, 96, 5, 2)
    with inject_faults(worker_crash=0.5, seed=plan_seed):
        chaos, info = parallel_run_with_info(
            circuit, 96, seed=5, workers=2, use_processes=False,
            retry=RetryPolicy(),
        )
    assert np.array_equal(chaos, clean)
    assert info.retries >= 1
    assert info.faults_injected >= 1
    assert (clean_info.retries, clean_info.faults_injected) == (0, 0)
    assert not info.degraded


@settings(max_examples=25, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.just(2**64 - 1)),
    workers=st.sampled_from([2, 3]),
    shots=st.integers(3, 300),
)
def test_recovered_chaos_runs_equal_clean_runs(seed, workers, shots):
    # Whatever the seed and plan, a chunk's retry draws from the same
    # (seed, chunk index) stream, so recovering changes no bit.
    circuit = _TELEPORT
    clean, clean_info = parallel_run_with_info(
        circuit, shots, seed, workers=workers, use_processes=False,
        retry=RetryPolicy(),
    )
    plan_seed = _crash_seed(circuit, shots, seed, workers)
    with inject_faults(worker_crash=0.5, seed=plan_seed):
        chaos, info = parallel_run_with_info(
            circuit, shots, seed, workers=workers, use_processes=False,
            retry=RetryPolicy(),
        )
    assert np.array_equal(chaos, clean)
    assert info.retries >= 1 and info.faults_injected >= 1
    assert dataclasses.replace(
        info, retries=0, faults_injected=0
    ) == clean_info


def test_hang_recovery_is_bit_identical_and_bounded():
    circuit = _circuit()
    clean, _ = parallel_run_with_info(
        circuit, 96, seed=5, workers=2, use_processes=False,
        retry=RetryPolicy(),
    )
    # Serial path: the injected hang is bounded by hang_seconds and the
    # chunk then completes normally — no retry needed, same bits.
    with inject_faults(worker_hang=1.0, seed=0, hang_seconds=0.01):
        hung, info = parallel_run_with_info(
            circuit, 96, seed=5, workers=2, use_processes=False,
            retry=RetryPolicy(timeout=5.0),
        )
    assert np.array_equal(hung, clean)


@pytest.mark.slow
def test_pooled_exit_crash_recovery_is_bit_identical():
    circuit = _circuit()
    clean, _ = parallel_run_with_info(
        circuit, 96, seed=5, workers=2, use_processes=True,
    )
    plan_seed = _crash_seed(circuit, 96, 5, 2)
    plan = FaultPlan(
        {"worker_crash": 0.5}, seed=plan_seed, crash_mode="exit"
    )
    try:
        with inject_faults(plan):
            chaos, info = parallel_run_with_info(
                circuit, 96, seed=5, workers=2, use_processes=True,
                retry=RetryPolicy(timeout=60.0),
            )
    finally:
        parallel_mod.shutdown_pools()
    assert np.array_equal(chaos, clean)
    assert info.retries >= 1


def test_budget_exhaustion_is_a_coded_diagnostic():
    circuit = _circuit()
    with inject_faults(worker_crash=1.0):
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            parallel_run_with_info(
                circuit, 64, seed=5, workers=2, use_processes=False,
                retry=RetryPolicy(max_attempts=2, budget=3),
            )
    assert excinfo.value.code == "QW603"
    assert excinfo.value.retryable
    rendered = excinfo.value.render()
    assert "max_attempts=2" in rendered
    assert "injected fault" in rendered


def test_genuine_chunk_errors_propagate_unretried(monkeypatch):
    circuit = _circuit()
    calls = []

    def explode(task):
        calls.append(task)
        raise ValueError("a deterministic backend bug")

    monkeypatch.setattr(parallel_mod, "_run_chunk", explode)
    tasks = [
        parallel_mod._ChunkTask(circuit, size, 5, index, None, None)
        for index, size in enumerate(chunk_plan(64, 2))
    ]
    with pytest.raises(ValueError, match="deterministic backend bug"):
        execute_with_retry(
            tasks, 2, RetryPolicy(), use_processes=False
        )
    assert len(calls) == 1  # failed once, never retried


def test_cancel_event_stops_between_waves():
    import concurrent.futures

    circuit = _circuit()
    event = threading.Event()
    event.set()
    with pytest.raises(concurrent.futures.CancelledError):
        parallel_run_with_info(
            circuit, 64, seed=5, workers=2, use_processes=False,
            retry=RetryPolicy(), cancel_event=event,
        )


def test_backoff_is_deterministic_bounded_and_decorrelated():
    policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.5)
    def delays(seed, index):
        return [backoff_delay(policy, seed, index, a) for a in range(6)]

    assert delays(123, 0) == delays(123, 0)
    assert all(0.0 <= d <= 0.5 for d in delays(123, 0))
    assert delays(123, 0) != delays(124, 0)
    assert delays(123, 0) != delays(123, 1)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(budget=-1)


# ----------------------------------------------------------------------
# The compile site and the narrowed pool dispatch (satellite fixes).
# ----------------------------------------------------------------------
def test_compile_error_injection_is_coded_and_scoped():
    kernel = bernstein_vazirani(alternating_secret(4))
    with inject_faults(compile_error=1.0):
        with pytest.raises(FaultInjectedError) as excinfo:
            compile_kernel(kernel)
    assert excinfo.value.code == "QW510"
    assert compile_kernel(kernel).circuit is not None  # scope ended


def test_pool_startup_failure_degrades_to_serial(monkeypatch):
    def no_pool(workers):
        raise OSError("no process spawning here")

    monkeypatch.setattr(parallel_mod, "_get_pool", no_pool)
    circuit = _circuit()
    clean = parallel_run_with_info(
        circuit, 64, seed=5, workers=2, use_processes=False
    )[0]
    pooled, _ = parallel_run_with_info(
        circuit, 64, seed=5, workers=2, use_processes=True
    )
    assert np.array_equal(pooled, clean)


def test_genuine_pool_dispatch_errors_propagate(monkeypatch):
    # Only injected faults, BrokenProcessPool and hung waves are
    # retried; a genuine error a pooled chunk raises must surface, not
    # be masked by a retry or a serial re-run.
    class AngryPool:
        def submit(self, fn, task):
            future = Future()
            future.set_exception(RuntimeError("a genuine dispatch bug"))
            return future

    monkeypatch.setattr(
        parallel_mod, "_get_pool", lambda workers: AngryPool()
    )
    circuit = _circuit()
    with pytest.raises(RuntimeError, match="genuine dispatch bug"):
        parallel_run_with_info(
            circuit, 64, seed=5, workers=2, use_processes=True
        )


def test_library_run_recovers_from_injected_crashes():
    # Library calls share the service's dispatcher, so an injected
    # crash is retried instead of raised, and the recovered run is
    # bit-identical to a clean one.
    circuit = _circuit()
    clean = run_circuit(circuit, 96, seed=5)
    plan_seed = _crash_seed(circuit, 96, 5, 1)
    with inject_faults(worker_crash=0.5, seed=plan_seed):
        recovered, info = run_circuit_with_info(circuit, 96, seed=5)
    assert recovered == clean
    assert info.faults_injected >= 1
    assert info.retries >= 1


def test_runinfo_merge_tolerates_old_pickles_missing_counters():
    from repro.sim.backend import RunInfo

    modern = RunInfo(
        backend="statevector", shots=32, evolutions=1, fast_path=False,
        retries=2, faults_injected=1, degraded=True,
    )
    legacy = RunInfo(
        backend="statevector", shots=32, evolutions=1, fast_path=False,
    )
    for name in ("retries", "faults_injected", "degraded"):
        object.__delattr__(legacy, name)  # as unpickled from format v1
    merged = RunInfo.merge([modern, legacy])
    assert merged.shots == 64
    assert merged.retries == 2
    assert merged.faults_injected == 1
    assert merged.degraded is True


def test_fault_kinds_is_the_closed_vocabulary():
    assert set(FAULT_KINDS) == {
        "worker_crash",
        "worker_hang",
        "diskcache_corrupt",
        "compile_error",
    }
