"""The compiled march of ``_march.c``: built on first use, loaded with ctypes.

``library()`` compiles ``_march.c`` once into a shared library cached next
to the package's bytecode (``xvapde/__pycache__``, or a private directory
under the system temporary directory when that one is not writable),
named by a CRC of the source, the compiler, the flags and the machine, so
a changed source builds anew. It returns None when no compiler, no build
or no load works; the solver then marches each row in numpy, one sub-step
at a time (``solver._march_numpy``), which gives the same bits. One call of
its ``march_rows`` marches every row of a stack on one grid; every array it
reads is writable, since ``address`` refuses a read-only one.

The flags keep the order of operations: ``-ffp-contract=off`` stops the
compiler from fusing a*b + c into one rounding, and there is no
``-ffast-math`` and no ``-march=native`` (a cached library may be loaded
on another CPU; the source picks AVX2 at load time where it exists).
``FLAGS`` is their one home: CI also compiles the source with them and
``-Wall -Wextra -Werror``.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
import zlib

SOURCE = os.path.join(os.path.dirname(__file__), "_march.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

# private switches: the solver marches with numpy when ``enabled`` is False;
# ``_compiler`` and ``_cache_dir`` (None: the default places) redirect a build
enabled = True
_compiler = "cc"
_cache_dir: str | None = None
_loaded: list = []  # [library or None] once the first load was tried

_P, _L, _D = ctypes.c_void_p, ctypes.c_long, ctypes.c_double


def library():
    """The loaded kernel, or None when it cannot be built or is switched off."""
    if not enabled:
        return None
    if not _loaded:
        _loaded.append(_load())
    return _loaded[0]


def _load():
    try:
        with open(SOURCE, "rb") as f:
            source = f.read()
        key = zlib.crc32(source + " ".join((_compiler, *FLAGS, os.uname().machine)).encode())
        path = os.path.join(_directory(), f"_march-{key:08x}.so")
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
    except (OSError, AttributeError):  # AttributeError: no os.uname or os.getuid here
        return None
    lib.march_rows.restype = None
    lib.march_rows.argtypes = [_L, _L, _P, _L, _L, _D, _P, _P, _P, _P, _P, _P, _P, _P, _P,
                               _P, _L, _L, _P]
    return lib


def address(array) -> int:
    """The address of a writable, nonempty, C-contiguous numpy array's data, at
    a third of ``array.ctypes.data``'s cost; a read-only array raises TypeError."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _directory() -> str:
    """Where the library lives: ``_cache_dir``, else the package's bytecode
    directory, else a directory under the system temporary one that only
    this user can write."""
    if _cache_dir is not None:
        return _cache_dir
    here = os.path.join(os.path.dirname(__file__), "__pycache__")
    try:
        os.makedirs(here, exist_ok=True)
        if os.access(here, os.W_OK):
            return here
    except OSError:
        pass
    uid = os.getuid()
    mine = os.path.join(tempfile.gettempdir(), f"xvapde-{uid}")
    os.makedirs(mine, mode=0o700, exist_ok=True)
    st = os.stat(mine)
    if st.st_uid != uid or st.st_mode & 0o022:  # never load what others could plant
        raise OSError(f"{mine} is not private")
    return mine


def _build(path: str) -> None:
    """Compile into a temporary file next to ``path``, then rename it there,
    so that processes building at once each load a whole library."""
    import subprocess

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run([_compiler, *FLAGS, "-o", tmp, SOURCE, "-lm"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True)
        os.chmod(tmp, 0o644)  # mkstemp makes it private to its builder
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as exc:
        os.unlink(tmp)
        raise OSError(f"cannot build {SOURCE}") from exc
