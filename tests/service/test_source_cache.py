"""The service's cache of exec'd ``source`` kernels.

A ``source`` request is exec'd once per distinct text while that text
is cached (keyed by its sha256, bounded like the compile cache).
Sources that fail to exec are never cached, and a text's ``linecache``
entry lives exactly as long as its cache entry.
"""

import asyncio
import hashlib
import linecache

import pytest

from repro.pipeline import COMPILE_CACHE_MAX_ENTRIES_ENV
from repro.service import ExecutionService, ServiceClient, ServiceConfig
from repro.service import service as service_module

BV_SOURCE = '''\
from repro.frontend.decorators import Bits, N, bit, cfunc, classical, qpu

SECRET = Bits.from_str("{secret}")


@classical[N](SECRET)
def f(secret: bit[N], x: bit[N]) -> bit:
    return (secret & x).xor_reduce()


@qpu[N](f)
def kernel(f: cfunc[N, 1]) -> bit[N]:
    return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
'''

TYPE_ERROR_SOURCE = (
    "from repro import qpu\n"
    "\n"
    "@qpu\n"
    "def too_narrow() -> \"bit[2]\":\n"
    "    return '0' | std[2].measure\n"
)


def _filename(source: str) -> str:
    digest = hashlib.sha256(source.encode()).hexdigest()
    return service_module._source_filename(digest)


@pytest.fixture
def exec_calls(monkeypatch):
    """An empty source cache, and the texts ``_exec_source`` runs."""

    def empty():
        for digest in list(service_module._SOURCE_KERNELS):
            linecache.cache.pop(service_module._source_filename(digest), None)
        service_module._SOURCE_KERNELS.clear()

    empty()
    calls = []
    real = service_module._exec_source

    def counting(source, filename):
        calls.append(source)
        return real(source, filename)

    monkeypatch.setattr(service_module, "_exec_source", counting)
    yield calls
    empty()


def _run_all(*payloads):
    async def scenario():
        config = ServiceConfig(
            parallel_workers=2, executors=1
        )
        async with ExecutionService(config) as service:
            client = ServiceClient(service)
            return [
                await client.run(id=index, shots=16, seed=1, **payload)
                for index, payload in enumerate(payloads)
            ]

    return asyncio.run(scenario())


def test_same_text_is_exec_once_and_one_byte_changes_the_kernel(exec_calls):
    first_text = BV_SOURCE.format(secret="10110")
    changed_text = BV_SOURCE.format(secret="10111")
    first, again, changed = _run_all(
        {"source": first_text},
        {"source": first_text},
        {"source": changed_text},
    )
    assert first["ok"] and again["ok"] and changed["ok"]
    assert first["result"]["counts"] == {"10110": 16}
    assert again["result"]["counts"] == {"10110": 16}
    assert again["result"]["info"]["compile_cache"] == "memory"
    assert changed["result"]["counts"] == {"10111": 16}
    assert exec_calls == [first_text, changed_text]
    assert len(service_module._SOURCE_KERNELS) == 2


def test_failing_source_is_answered_qw604_and_never_cached(exec_calls):
    bad = "raise RuntimeError('exec-time failure')\n"
    first, second = _run_all({"source": bad}, {"source": bad})
    for response in (first, second):
        assert not response["ok"]
        assert response["error"]["code"] == "QW604"
        assert "exec-time failure" in response["error"]["message"]
    assert exec_calls == [bad, bad]
    assert len(service_module._SOURCE_KERNELS) == 0
    assert _filename(bad) not in linecache.cache


def test_source_without_exactly_one_kernel_is_not_cached(exec_calls):
    empty = "X = 1\n"
    first, second = _run_all({"source": empty}, {"source": empty})
    assert first["error"]["code"] == second["error"]["code"] == "QW604"
    assert exec_calls == [empty, empty]
    assert len(service_module._SOURCE_KERNELS) == 0
    assert _filename(empty) not in linecache.cache


def test_eviction_past_the_bound_drops_the_linecache_entry(
    exec_calls, monkeypatch
):
    monkeypatch.setenv(COMPILE_CACHE_MAX_ENTRIES_ENV, "2")
    texts = [BV_SOURCE.format(secret=s) for s in ("101", "110", "011")]
    responses = _run_all(*({"source": text} for text in texts))
    assert all(response["ok"] for response in responses)
    assert len(service_module._SOURCE_KERNELS) == 2
    assert _filename(texts[0]) not in linecache.cache
    assert _filename(texts[1]) in linecache.cache
    assert _filename(texts[2]) in linecache.cache
    # The evicted text is exec'd again when it comes back.
    (back,) = _run_all({"source": texts[0]})
    assert back["result"]["counts"] == {"101": 16}
    assert exec_calls == texts + [texts[0]]
    assert _filename(texts[1]) not in linecache.cache


def test_cached_source_with_a_type_error_still_renders_against_its_text(
    exec_calls,
):
    first, second = _run_all(
        {"source": TYPE_ERROR_SOURCE}, {"source": TYPE_ERROR_SOURCE}
    )
    assert exec_calls == [TYPE_ERROR_SOURCE]
    for response in (first, second):
        assert not response["ok"]
        rendered = response["error"]["rendered"]
        assert _filename(TYPE_ERROR_SOURCE) in rendered
        assert "5 |     return '0' | std[2].measure" in rendered
        assert "^^^" in rendered
