"""Concurrent misses of one compile-cache key share one compile.

Eight threads released together by a barrier compile the same cold
kernel with ``cache=True``.  The first becomes the owner of an
in-flight compile; the owner's compile is held until every thread has
missed the LRU, so without single-flight each of them would compile.
"""

import threading
import time

import pytest

from repro import pipeline
from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.errors import QwertyTypeError
from repro.exec import diskcache
from repro.obs import metrics
from repro.pipeline import clear_compile_cache, compile_cache_info, compile_kernel

THREADS = 8

_COMPILES = metrics.counter(
    "repro_compile_kernels_total", labels=("provenance",)
)
_LOOKUPS = metrics.counter(
    "repro_cache_lookups_total", labels=("layer", "outcome")
)


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(diskcache.DISK_CACHE_ENV, raising=False)
    clear_compile_cache(disk=True)
    yield
    clear_compile_cache(disk=True)


def _memory_misses() -> float:
    return _LOOKUPS.value(layer="memory", outcome="miss")


def _wait_for_misses(target: float, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while _memory_misses() < target and time.monotonic() < deadline:
        time.sleep(0.001)


def _run_threads(kernel):
    """Compile ``kernel`` from THREADS threads; (results, errors)."""
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS
    errors = [None] * THREADS

    def worker(index):
        barrier.wait()
        try:
            results[index] = compile_kernel(kernel, cache=True)
        except Exception as error:  # noqa: BLE001 — inspected below
            errors[index] = error

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def test_concurrent_cold_requests_compile_once(cold_cache, monkeypatch):
    kernel = bernstein_vazirani(alternating_secret(7))
    misses = _memory_misses()
    real_build = pipeline._compile_uncached

    def held_build(kernel, options):
        # Hold the compile until every thread has missed the LRU.
        _wait_for_misses(misses + THREADS)
        return real_build(kernel, options)

    monkeypatch.setattr(pipeline, "_compile_uncached", held_build)
    compiled = _COMPILES.value(provenance="compiled")

    results, errors = _run_threads(kernel)

    assert errors == [None] * THREADS
    assert _COMPILES.value(provenance="compiled") - compiled == 1
    assert all(result is results[0] for result in results)
    assert _memory_misses() - misses == THREADS
    assert compile_cache_info()["entries"] == 1
    assert pipeline._IN_FLIGHT == {}


def test_failed_compile_reaches_every_waiter_and_is_not_cached(
    cold_cache, monkeypatch
):
    kernel = bernstein_vazirani(alternating_secret(6))
    misses = _memory_misses()
    release = threading.Event()
    failure = QwertyTypeError("injected frontend failure")
    real_frontend = pipeline._build_qwerty_module
    calls = []

    def failing_once(kernel):
        calls.append(kernel)
        if len(calls) == 1:
            release.wait(timeout=10)
            raise failure
        return real_frontend(kernel)

    monkeypatch.setattr(pipeline, "_build_qwerty_module", failing_once)

    releaser = threading.Thread(
        target=lambda: (_wait_for_misses(misses + THREADS), release.set())
    )
    releaser.start()
    results, errors = _run_threads(kernel)
    releaser.join(timeout=10)

    assert results == [None] * THREADS
    assert all(error is failure for error in errors)
    assert len(calls) == 1
    assert compile_cache_info()["entries"] == 0
    assert pipeline._IN_FLIGHT == {}

    compiled = _COMPILES.value(provenance="compiled")
    again = compile_kernel(kernel, cache=True)
    assert again.provenance == "compiled"
    assert _COMPILES.value(provenance="compiled") - compiled == 1
    assert len(calls) == 2
