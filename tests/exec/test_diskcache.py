"""The persistent on-disk compile cache (repro.exec.diskcache) and the
hit/miss/eviction accounting of the in-memory LRU layered above it.

Every test points ``REPRO_CACHE_DIR`` at a private tmpdir, so nothing
here touches (or depends on) the developer's real ``~/.cache/repro``.
"""

import pickle

import pytest

from repro.algorithms import alternating_secret, bernstein_vazirani
from repro.exec import diskcache
from repro.pipeline import (
    COMPILE_CACHE_MAX_ENTRIES_ENV,
    clear_compile_cache,
    compile_cache_info,
    compile_cache_max_entries,
    compile_kernel,
)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(diskcache.DISK_CACHE_ENV, raising=False)
    clear_compile_cache(disk=True)
    yield tmp_path
    clear_compile_cache(disk=True)


def _kernel(n=4):
    return bernstein_vazirani(alternating_secret(n))


def _entries(cache_dir):
    compile_root = cache_dir / "compile"
    if not compile_root.exists():
        return []
    return sorted(compile_root.glob("*.pkl"))


# ----------------------------------------------------------------------
# Provenance transitions: compiled -> memory -> disk.
# ----------------------------------------------------------------------
def test_cold_compile_writes_one_disk_entry(cache_dir):
    result = compile_kernel(_kernel(), cache=True)
    assert result.provenance == "compiled"
    assert len(_entries(cache_dir)) == 1
    disk = compile_cache_info()["disk"]
    assert disk["enabled"] is True
    assert disk["writes"] == 1
    assert disk["corrupt"] == 0


def test_memory_hit_never_touches_disk(cache_dir):
    compile_kernel(_kernel(), cache=True)
    before = compile_cache_info()["disk"]
    again = compile_kernel(_kernel(), cache=True)
    assert again.provenance == "memory"
    after = compile_cache_info()["disk"]
    assert after["hits"] == before["hits"]
    assert after["writes"] == before["writes"]


def test_disk_hit_survives_memory_clear(cache_dir):
    cold = compile_kernel(_kernel(), cache=True)
    clear_compile_cache()  # memory only — the disk entry stays
    warm = compile_kernel(_kernel(), cache=True)
    assert warm.provenance == "disk"
    assert compile_cache_info()["disk"]["hits"] == 1
    # The rehydrated result is equivalent to the compiled one.
    assert warm.circuit.instructions == cold.circuit.instructions
    assert warm.circuit.output_bits == cold.circuit.output_bits
    # ... and warms the in-memory layer for the next lookup.
    assert compile_kernel(_kernel(), cache=True).provenance == "memory"


def test_corrupt_entry_is_detected_deleted_and_recompiled(cache_dir):
    compile_kernel(_kernel(), cache=True)
    clear_compile_cache()
    [entry] = _entries(cache_dir)
    entry.write_bytes(b"not a pickle")
    result = compile_kernel(_kernel(), cache=True)
    assert result.provenance == "compiled"
    disk = compile_cache_info()["disk"]
    assert disk["corrupt"] == 1
    # The bad file was removed and replaced by the fresh compile's.
    [replacement] = _entries(cache_dir)
    assert pickle.loads(replacement.read_bytes())


def test_truncated_entry_reads_as_a_miss(cache_dir):
    compile_kernel(_kernel(), cache=True)
    clear_compile_cache()
    [entry] = _entries(cache_dir)
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    result = compile_kernel(_kernel(), cache=True)
    assert result.provenance == "compiled"
    assert compile_cache_info()["disk"]["corrupt"] == 1


def test_wrong_payload_type_is_rejected(cache_dir):
    compile_kernel(_kernel(), cache=True)
    clear_compile_cache()
    [entry] = _entries(cache_dir)
    entry.write_bytes(pickle.dumps({"not": "a CompileResult"}))
    assert compile_kernel(_kernel(), cache=True).provenance == "compiled"


def test_no_tmpfile_residue_after_stores(cache_dir):
    for n in (3, 4, 5):
        compile_kernel(_kernel(n), cache=True)
    assert len(_entries(cache_dir)) == 3
    assert list(cache_dir.rglob("*.tmp")) == []


def test_clear_disk_true_empties_the_store(cache_dir):
    compile_kernel(_kernel(), cache=True)
    assert _entries(cache_dir)
    clear_compile_cache(disk=True)
    assert _entries(cache_dir) == []
    assert compile_kernel(_kernel(), cache=True).provenance == "compiled"


def test_disk_cache_env_kill_switch(cache_dir, monkeypatch):
    monkeypatch.setenv(diskcache.DISK_CACHE_ENV, "0")
    result = compile_kernel(_kernel(), cache=True)
    assert result.provenance == "compiled"
    assert _entries(cache_dir) == []
    assert compile_cache_info()["disk"]["enabled"] is False
    clear_compile_cache()
    # Nothing on disk to rescue the lookup: a full recompile.
    assert compile_kernel(_kernel(), cache=True).provenance == "compiled"


def test_key_digest_is_deterministic_and_key_sensitive(cache_dir):
    key_a = ("kernel-a", 4)
    assert diskcache.key_digest(key_a) == diskcache.key_digest(key_a)
    assert diskcache.key_digest(key_a) != diskcache.key_digest(("b", 4))


def test_version_salt_folds_in_source_fingerprint(cache_dir):
    salt = diskcache.version_salt()
    assert str(diskcache.CACHE_FORMAT_VERSION) in salt
    assert salt == diskcache.version_salt()


# ----------------------------------------------------------------------
# In-memory LRU accounting: counters, eviction order, env bound.
# ----------------------------------------------------------------------
def test_hit_miss_counters(cache_dir):
    compile_kernel(_kernel(), cache=True)
    compile_kernel(_kernel(), cache=True)
    compile_kernel(_kernel(5), cache=True)
    info = compile_cache_info()
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["evictions"] == 0


def test_lru_evicts_least_recently_used_not_oldest(cache_dir, monkeypatch):
    monkeypatch.setenv(COMPILE_CACHE_MAX_ENTRIES_ENV, "2")
    compile_kernel(_kernel(3), cache=True)  # A
    compile_kernel(_kernel(4), cache=True)  # B
    key_a = compile_cache_info()["keys"][0]
    compile_kernel(_kernel(3), cache=True)  # touch A -> B is now LRU
    compile_kernel(_kernel(5), cache=True)  # C evicts B, not A
    info = compile_cache_info()
    assert info["entries"] == 2
    assert info["evictions"] == 1
    assert key_a in info["keys"]
    # A survives in memory; B fell out and would re-enter via disk.
    assert compile_kernel(_kernel(3), cache=True).provenance == "memory"
    assert compile_kernel(_kernel(4), cache=True).provenance == "disk"


def test_max_entries_env_override(cache_dir, monkeypatch):
    from repro import pipeline as pipeline_module

    default = pipeline_module.COMPILE_CACHE_MAX_ENTRIES
    assert compile_cache_max_entries() == default
    monkeypatch.setenv(COMPILE_CACHE_MAX_ENTRIES_ENV, "7")
    assert compile_cache_max_entries() == 7
    assert compile_cache_info()["max_entries"] == 7
    # Invalid or non-positive values fall back to the module default.
    monkeypatch.setenv(COMPILE_CACHE_MAX_ENTRIES_ENV, "bogus")
    assert compile_cache_max_entries() == default
    monkeypatch.setenv(COMPILE_CACHE_MAX_ENTRIES_ENV, "0")
    assert compile_cache_max_entries() == default


# ----------------------------------------------------------------------
# Robustness: tmpfile sweeping, injected corruption, format version.
# ----------------------------------------------------------------------
def test_stale_tmpfiles_are_swept_on_cache_open(cache_dir):
    import os

    compile_kernel(_kernel(), cache=True)  # creates compile/
    orphan = cache_dir / "compile" / "deadbeef.tmp"
    orphan.write_bytes(b"half a pickle")
    old = 7200.0
    os.utime(orphan, (orphan.stat().st_atime, orphan.stat().st_mtime - old))
    fresh = cache_dir / "compile" / "cafebabe.tmp"
    fresh.write_bytes(b"a live writer's file")
    diskcache.reset_stats()  # re-arm the once-per-process sweep
    clear_compile_cache()  # memory only; disk entry stays
    compile_kernel(_kernel(), cache=True)  # first cache use -> sweep
    assert not orphan.exists()  # older than the TTL: swept
    assert fresh.exists()  # seconds old: a concurrent writer's, kept
    assert compile_cache_info()["disk"]["tmp_swept"] == 1


def test_sweep_ttl_env_override(cache_dir):
    fresh = cache_dir / "compile"
    fresh.mkdir(parents=True, exist_ok=True)
    (fresh / "young.tmp").write_bytes(b"x")
    assert diskcache.sweep_stale_tmpfiles(ttl_seconds=-1) == 1
    assert list(fresh.glob("*.tmp")) == []


def test_injected_corruption_drives_the_real_corrupt_path(cache_dir):
    from repro.exec.faults import inject_faults, reset_counters

    compile_kernel(_kernel(), cache=True)
    clear_compile_cache()  # force the next lookup to the disk layer
    reset_counters()
    with inject_faults(diskcache_corrupt=1.0):
        result = compile_kernel(_kernel(), cache=True)
    # The truncated blob failed to unpickle: counted, deleted, and the
    # caller recompiled — exactly the organic corrupt-entry behavior.
    assert result.provenance == "compiled"
    disk = compile_cache_info()["disk"]
    assert disk["corrupt"] == 1
    reset_counters()
    # The rewritten entry reads back fine once injection stops.
    clear_compile_cache()
    assert compile_kernel(_kernel(), cache=True).provenance == "disk"


def test_format_version_bump_salts_every_key(cache_dir, monkeypatch):
    key = ("kernel", 4)
    before = diskcache.key_digest(key)
    monkeypatch.setattr(diskcache, "CACHE_FORMAT_VERSION", 99)
    assert diskcache.key_digest(key) != before


def test_format_version_is_v2_for_runinfo_counters(cache_dir):
    # v1 pickles predate RunInfo's retries/faults_injected
    # fields; the bump keeps them from resurfacing via the disk cache.
    assert diskcache.CACHE_FORMAT_VERSION >= 2
