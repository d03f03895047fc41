"""The compile-cache miss path runs with the cyclic collector paused.

The owner of a miss runs its disk load, its build and its disk store
with ``gc`` disabled, so the collections a compile's allocations (and
the pickling of its artifact) would trigger do not walk every object
the memory cache retains.  These tests pin that the collector's state
always comes back — after a hit, a miss, a disk load and a failed
build — that waiters are released before the store, that a caller's
own ``gc.disable()``
survives, that hits and waiters never pause, and that overlapping
compiles on two threads keep it off until both have returned.
"""

import gc
import threading

import pytest

from repro import pipeline
from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.errors import QwertyTypeError
from repro.exec import diskcache
from repro.pipeline import clear_compile_cache, compile_kernel


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(diskcache.DISK_CACHE_ENV, raising=False)
    clear_compile_cache(disk=True)
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    clear_compile_cache(disk=True)
    if not was_enabled:
        gc.disable()


@pytest.fixture
def pauses(monkeypatch):
    """How many times the miss path entered the pause."""
    entered = []
    real_pause = pipeline._collector_paused

    def counting_pause():
        entered.append(threading.get_ident())
        return real_pause()

    monkeypatch.setattr(pipeline, "_collector_paused", counting_pause)
    return entered


def _kernel(n=5):
    return bernstein_vazirani(alternating_secret(n))


def test_cold_miss_builds_paused_and_restores(cold_cache, monkeypatch):
    seen = []
    real_build = pipeline._compile_uncached

    def build(kernel, options):
        seen.append(gc.isenabled())
        return real_build(kernel, options)

    monkeypatch.setattr(pipeline, "_compile_uncached", build)
    result = compile_kernel(_kernel(), cache=True)
    assert result.provenance == "compiled"
    assert seen == [False]
    assert gc.isenabled()


def test_cold_miss_stores_paused_after_releasing_waiters(
    cold_cache, monkeypatch
):
    kernel = _kernel()
    options = pipeline.CompileOptions.preset("default")
    key = pipeline._cache_key(kernel, options)
    seen = []
    real_store = diskcache.store

    def store(digest, result):
        with pipeline._CACHE_LOCK:
            # The artifact is already served from memory and no miss
            # waits on its compile any more.
            seen.append(
                (
                    gc.isenabled(),
                    key in pipeline._IN_FLIGHT,
                    pipeline._COMPILE_CACHE.get(key) is result,
                )
            )
        return real_store(digest, result)

    monkeypatch.setattr(diskcache, "store", store)
    result = compile_kernel(kernel, cache=True)
    assert result.provenance == "compiled"
    assert seen == [(False, False, True)]
    assert gc.isenabled()
    assert pipeline._GC_PAUSES == 0
    # The store really wrote: a memory-cleared lookup is a disk hit.
    clear_compile_cache()
    assert compile_kernel(kernel, cache=True).provenance == "disk"


def test_memory_hit_never_pauses(cold_cache, pauses):
    compile_kernel(_kernel(), cache=True)
    assert len(pauses) == 1
    again = compile_kernel(_kernel(), cache=True)
    assert again.provenance == "memory"
    assert len(pauses) == 1
    assert gc.isenabled()


def test_disk_hit_loads_paused_and_restores(cold_cache, monkeypatch):
    compile_kernel(_kernel(), cache=True)
    clear_compile_cache()  # memory only: the entry stays on disk
    seen = []
    real_load = diskcache.load

    def load(digest):
        seen.append(gc.isenabled())
        return real_load(digest)

    monkeypatch.setattr(diskcache, "load", load)
    result = compile_kernel(_kernel(), cache=True)
    assert result.provenance == "disk"
    assert seen == [False]
    assert gc.isenabled()


def test_failed_build_restores(cold_cache, monkeypatch):
    def failing_build(kernel, options):
        assert not gc.isenabled()
        raise QwertyTypeError("injected build failure")

    monkeypatch.setattr(pipeline, "_compile_uncached", failing_build)
    with pytest.raises(QwertyTypeError, match="injected"):
        compile_kernel(_kernel(), cache=True)
    assert gc.isenabled()
    assert pipeline._GC_PAUSES == 0


def test_a_callers_disable_survives_a_compile(cold_cache):
    gc.disable()
    try:
        compile_kernel(_kernel(), cache=True)
        assert not gc.isenabled()
        compile_kernel(_kernel(6), cache=True)
        assert not gc.isenabled()
    finally:
        gc.enable()


def _start(target):
    thread = threading.Thread(target=target)
    thread.start()
    return thread


def _gated_build(monkeypatch, kernels):
    """Hold each kernel's build until its gate opens.  Returns
    ``(gates, entered)``, both one event per kernel, in order; an
    ``entered`` event is set once that kernel's build has started."""
    gates = [threading.Event() for _ in kernels]
    entered = [threading.Event() for _ in kernels]
    index = {id(kernel): i for i, kernel in enumerate(kernels)}
    real_build = pipeline._compile_uncached

    def build(kernel, options):
        i = index[id(kernel)]
        entered[i].set()
        assert gates[i].wait(timeout=30)
        return real_build(kernel, options)

    monkeypatch.setattr(pipeline, "_compile_uncached", build)
    return gates, entered


def _wait_for_misses(target: float) -> None:
    for _ in range(10_000):
        misses = pipeline._CACHE_LOOKUPS.value(layer="memory", outcome="miss")
        if misses >= target:
            return
        threading.Event().wait(0.001)


def test_overlapping_compiles_resume_when_the_last_leaves(
    cold_cache, monkeypatch
):
    kernels = [_kernel(5), _kernel(6)]
    gates, entered = _gated_build(monkeypatch, kernels)
    threads = [
        _start(lambda k=kernel: compile_kernel(k, cache=True))
        for kernel in kernels
    ]
    try:
        assert all(event.wait(timeout=30) for event in entered)
        assert not gc.isenabled()
        gates[0].set()
        threads[0].join(timeout=60)
        assert not threads[0].is_alive()
        assert not gc.isenabled()  # the second compile is still building
        gates[1].set()
        threads[1].join(timeout=60)
        assert not threads[1].is_alive()
        assert gc.isenabled()
    finally:
        for gate in gates:
            gate.set()
        for thread in threads:
            thread.join(timeout=60)


def test_waiters_never_pause(cold_cache, monkeypatch, pauses):
    kernel = _kernel()
    (gate,), (entered,) = _gated_build(monkeypatch, [kernel])
    misses = pipeline._CACHE_LOOKUPS.value(layer="memory", outcome="miss")
    results = []

    def run():
        results.append(compile_kernel(kernel, cache=True))

    threads = [_start(run)]
    try:
        assert entered.wait(timeout=30)
        threads.append(_start(run))
        # Release the owner only once the waiter has missed too.
        _wait_for_misses(misses + 2)
        gate.set()
    finally:
        gate.set()
        for thread in threads:
            thread.join(timeout=60)
    assert len(results) == 2 and results[0] is results[1]
    assert len(pauses) == 1
    assert gc.isenabled()
