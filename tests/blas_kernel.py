"""The OpenBLAS kernel class numpy runs its matrix products on.

numpy's wheels bundle one OpenBLAS built for every x86-64 kernel class
(SkylakeX, Haswell, Sandybridge, ...), and it picks one for the CPU at
load time. The golden digests in test_golden.py depend on that choice,
so their failures name it, and CI prints it before the tests run:

    python3 tests/blas_kernel.py
"""

import ctypes
import glob
import os

import numpy


def openblas_corename():
    """The kernel name the bundled OpenBLAS reports, or "unknown" where
    numpy bundles no OpenBLAS that reports one."""
    name = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            name = corename().decode()
    return name


if __name__ == "__main__":
    print(openblas_corename())
