"""The BLAS/LAPACK kernels that ``galerkin`` loads from scipy's compiled
modules are scipy's own: every output byte and every ``info`` equals what
``scipy.linalg.blas`` and ``scipy.linalg.lapack`` give, whichever of the two
is imported first.  This module imports ``scipy.linalg`` only inside its
tests, so a fresh process can import it to reach ``kernel_outputs`` before
that package is loaded."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rothe_hvi import galerkin

SIZES = (1, 2, 65, 1025)
BANDWIDTHS = (1, 3)  # tridiagonal, factored by dpttrf; wider, by dpbtrf
STACK = 3  # right-hand sides of a stacked solve


def _bits(value):
    """``value`` as comparable exact data: an array by its shape, dtype and
    bytes, a tuple item by item, anything else as it is."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _band(rng: np.random.Generator, n: int, u: int, definite: bool) -> np.ndarray:
    """Upper band (u + 1, n) of a symmetric matrix, diagonally dominant, or
    with one negative diagonal entry when not ``definite``."""
    ab = rng.uniform(-1.0, 1.0, size=(u + 1, n))
    ab[u] = 2.0 * u + 1.0 + rng.uniform(size=n)
    if not definite:
        ab[u, n // 2] = -1.0
    return np.asfortranarray(ab)


def _in_place(call, operand: np.ndarray):
    """Bits of ``call`` on a copy of the operand it overwrites, and whether
    the array it returned is that copy."""
    operand = operand.copy()
    value = call(operand)
    out = value[0] if isinstance(value, tuple) else value
    return _bits(value), np.shares_memory(out, operand)


def kernel_outputs(blas, lapack) -> dict:
    """Bits of the seven kernels the program calls, in every call form a
    step makes, from the modules ``blas`` and ``lapack``, keyed by kernel
    and case, on data drawn from one seed.  The overwriting forms (daxpy
    with each weight a step adds with, dpttrs and dpbtrs overwriting a 1-d
    right-hand side) also record whether the operand was written."""
    rng = np.random.default_rng(2024)
    out = {}
    for n in SIZES:
        x, y = rng.normal(size=(2, n))
        stack = np.asfortranarray(rng.normal(size=(n, STACK)))
        out[f"ddot n={n}"] = _bits(blas.ddot(x, y))
        for alpha in (1.0, 4.0 / 3.0, -1.0 / 3.0, -0.7):
            out[f"daxpy alpha={alpha!r} n={n}"] = _in_place(lambda z: blas.daxpy(x, z, n, alpha), y)
        for u in BANDWIDTHS:
            for definite in (True, False):
                case = f"n={n} u={u} {'definite' if definite else 'indefinite'}"
                ab = _band(rng, n, u, definite)
                out[f"dsbmv {case}"] = _bits(blas.dsbmv(u, 1.0, ab, x))
                c, _ = factor = lapack.dpbtrf(ab)
                out[f"dpbtrf {case}"] = _bits(factor)
                out[f"dpbtrs {case}"] = _bits(lapack.dpbtrs(c, x))
                out[f"dpbtrs overwrite {case}"] = _in_place(lambda z: lapack.dpbtrs(c, z, overwrite_b=1), x)
                out[f"dpbtrs stack {case}"] = _bits(lapack.dpbtrs(c, stack))
                if u == 1 and n > 1:  # galerkin's _tridiagonal: dpttrf needs n >= 2
                    d, e, _ = factor = lapack.dpttrf(ab[1], ab[0, 1:])
                    out[f"dpttrf {case}"] = _bits(factor)
                    out[f"dpttrs {case}"] = _bits(lapack.dpttrs(d, e, x))
                    out[f"dpttrs overwrite {case}"] = _in_place(lambda z: lapack.dpttrs(d, e, z, overwrite_b=1), x)
                    out[f"dpttrs stack {case}"] = _bits(lapack.dpttrs(d, e, stack))
    return out


def test_the_loaded_kernels_give_the_bits_of_scipy_linalg():
    from scipy.linalg import blas, lapack

    ours = kernel_outputs(galerkin.blas, galerkin.lapack)
    assert ours == kernel_outputs(blas, lapack)
    # every overwriting call wrote into its operand, and gave the bits of
    # the call that returns a new array
    overwritten = {key: bits for key, bits in ours.items()
                   if key.startswith("daxpy") or "overwrite" in key}
    assert len(overwritten) == 4 * 4 + 4 * 2 * 2 + 3 * 2  # daxpy, dpbtrs, dpttrs
    assert all(shared for _, shared in overwritten.values())
    for key, (bits, _) in overwritten.items():
        if "trs overwrite" in key:
            assert bits == ours[key.replace(" overwrite", "")], key
    # an indefinite band's factorization stops at its negative diagonal entry
    infos = {key: bits[-1] for key, bits in ours.items() if "trf" in key}
    assert len(infos) == 4 * 2 * 2 + 3 * 2  # dpbtrf: sizes x widths x kinds; dpttrf
    for key, info in infos.items():
        n = int(re.search(r"n=(\d+)", key).group(1))
        assert info == (n // 2 + 1 if "indefinite" in key else 0), key


def test_importing_scipy_linalg_later_keeps_the_bits():
    # a fresh process: the kernels run before scipy.linalg is imported, and
    # again, with scipy.linalg's own, after
    src = Path(galerkin.__file__).resolve().parents[1]
    script = f"""
import sys
sys.path[:0] = [{str(src)!r}, {str(Path(__file__).resolve().parent)!r}]
from rothe_hvi import galerkin
from test_kernels import kernel_outputs
before = kernel_outputs(galerkin.blas, galerkin.lapack)
assert "scipy.linalg" not in sys.modules
from scipy.linalg import blas, lapack
assert kernel_outputs(blas, lapack) == before
assert kernel_outputs(galerkin.blas, galerkin.lapack) == before
print(len(before))
"""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) == len(kernel_outputs(galerkin.blas, galerkin.lapack))


def test_a_directory_without_the_extensions_raises_import_error_naming_it(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        galerkin._load_extensions(str(tmp_path), "_fblas")
