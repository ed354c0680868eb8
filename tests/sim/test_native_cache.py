"""Native-kernel compile cache hygiene and degradation logging."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.common import faults
from repro.obs import log as obs_log
from repro.sim import _native


@pytest.fixture(autouse=True)
def fresh_loader(monkeypatch, tmp_path):
    """Isolate each test from the module-level compile cache."""
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_tried", False)
    monkeypatch.setattr(_native, "_cache_dirs", lambda tag: iter([tmp_path]))
    monkeypatch.delenv(_native.NATIVE_ENV_VAR, raising=False)
    yield
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_tried", False)


def has_compiler():
    return shutil.which("cc") or shutil.which("gcc")


@pytest.mark.skipif(not has_compiler(), reason="needs a C compiler")
def test_stale_tmp_reaped_before_compile(tmp_path):
    stale = tmp_path / "_lru_dead.4194297.tmp"
    stale.write_bytes(b"half a shared library")
    assert _native._compile() is not None
    assert not stale.exists()


@pytest.mark.skipif(not has_compiler(), reason="needs a C compiler")
def test_compile_failure_logged_under_debug(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "broken.c"
    bad.write_text("int main( {")
    monkeypatch.setattr(_native, "_SOURCE", bad)
    monkeypatch.setenv(obs_log.DEBUG_ENV_VAR, "1")
    assert _native._compile() is None
    err = capsys.readouterr().err
    assert "compile failed" in err
    assert "error" in err           # the compiler's own stderr is included
    assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())


def test_compile_failure_silent_without_debug(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_native, "_SOURCE", tmp_path / "missing.c")
    monkeypatch.delenv(obs_log.DEBUG_ENV_VAR, raising=False)
    assert _native._compile() is None
    assert capsys.readouterr().err == ""


def test_compile_fail_fault_degrades_to_numpy(monkeypatch, capsys):
    monkeypatch.setenv(obs_log.DEBUG_ENV_VAR, "1")
    faults.configure("compile_fail:1.0", seed=0)
    assert _native._compile() is None
    assert not _native.available()
    assert "injected compile_fail" in capsys.readouterr().err


@pytest.mark.skipif(not has_compiler(), reason="needs a C compiler")
def test_live_writer_tmp_spared(tmp_path):
    live = tmp_path / f"_lru_other.{os.getpid()}.tmp"
    live.write_bytes(b"concurrent compile in flight")
    assert _native._compile() is not None
    assert live.exists()
