"""ctypes ABI guard for the compiled kernels.

ctypes cannot see a C prototype: a wrapper whose ``argtypes`` list is
one entry short, or passes an integer where the kernel reads a pointer,
is undefined behaviour rather than an error.  These tests read every
exported ``repro_*`` definition in ``_lru_kernel.c`` and check that
:func:`repro.sim._native._load` declares the same number of arguments
with the same pointer-vs-integer kinds and integer widths, and the same
return width.  The source must also compile cleanly with
``-Wall -Wextra -Werror`` wherever a C compiler exists.
"""

from __future__ import annotations

import ctypes
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.sim import _native

SOURCE = _native._SOURCE.read_text()

#: Byte width of each integer type the exported signatures use.
C_INT_WIDTH = {"int": 4, "int32_t": 4, "int64_t": 8, "uint8_t": 1,
               "int8_t": 1}

#: ``<return type> repro_<name>(<params>) {`` at the start of a line:
#: exported definitions only (static helpers are not ``repro_*``).
DEFINITION = re.compile(r"^(\w+)\s+(repro_\w+)\(([^)]*)\)\s*\{", re.M)


def exported():
    """``{name: (return type, [(param type, is_pointer)])}``."""
    kernels = {}
    for ret, name, params in DEFINITION.findall(SOURCE):
        parsed = []
        for param in params.split(","):
            words = param.replace("*", " * ").split()
            pointer = "*" in words
            ctype = [w for w in words if w not in ("const", "*")][0]
            parsed.append((ctype, pointer))
        kernels[name] = (ret, parsed)
    return kernels


def test_parser_sees_every_kernel():
    kernels = exported()
    # Every kernel the wrappers call is defined, and every definition is
    # wrapped.
    called = set(re.findall(r"lib\.(repro_\w+)",
                            Path(_native.__file__).read_text()))
    assert set(kernels) == called
    assert len(kernels) == 6
    _, params = kernels["repro_page_aggregates"]
    assert [pointer for _, pointer in params] == [
        True, False, False, True, False, True, False,
        True, True, True, True]


@pytest.mark.skipif(not _native.available(),
                    reason="no C compiler for the kernel")
@pytest.mark.parametrize("name", sorted(exported()))
def test_argtypes_match_the_c_signature(name):
    ret, params = exported()[name]
    function = getattr(_native._load(), name)
    argtypes = function.argtypes
    assert argtypes is not None, f"{name}: argtypes never set"
    assert len(argtypes) == len(params), name
    for i, ((ctype, pointer), argtype) in enumerate(zip(params, argtypes)):
        where = f"{name} argument {i} ({ctype}{' *' if pointer else ''})"
        if pointer:
            assert argtype is ctypes.c_void_p, where
        else:
            assert argtype is not ctypes.c_void_p, where
            assert ctypes.sizeof(argtype) == C_INT_WIDTH[ctype], where
    assert ctypes.sizeof(function.restype) == C_INT_WIDTH[ret], name


@pytest.mark.skipif(not (shutil.which("cc") or shutil.which("gcc")),
                    reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    compiler = shutil.which("cc") or shutil.which("gcc")
    result = subprocess.run(
        [compiler, "-O3", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
         str(_native._SOURCE), "-o", str(tmp_path / "kernel.so")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
