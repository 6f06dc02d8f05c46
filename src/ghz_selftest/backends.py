"""NumPy/LAPACK kernels behind :mod:`ghz_selftest.linalg`.

The hot inner loops of this package are Kronecker products, of single
matrices or of stacks of them, and Hermitian eigendecompositions of small
(dim <= 128) matrices. Kronecker products of real factors stay real.
Eigenvalue-only solves of a stack with no imaginary part run as real
symmetric problems (LAPACK ``dsyevd`` in place of ``zheevd``); full
decompositions stay complex.
"""

import numpy as np


def kron_chain(mats):
    """Kronecker product of a sequence of square matrices, taken left to right;
    factors ``(..., k, k)`` broadcast their leading axes, giving a stack of
    products. Real factors give a float64 product, any complex factor a
    complex128 one."""
    if len(mats) == 0:
        raise ValueError("kron_chain needs at least one factor")
    mats = [np.asarray(m) for m in mats]
    dtype = complex if any(np.iscomplexobj(m) for m in mats) else float
    out, *rest = [m.astype(dtype, copy=False) for m in mats]
    for m in rest:
        d = out.shape[-1] * m.shape[-1]
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (d, d))
    return out


def eigh(m):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix,
    or of every matrix in a ``(..., d, d)`` stack."""
    m = np.asarray(m, dtype=complex)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        return _eigh_retry(m)


def _eigh_retry(m):
    """Matrix-by-matrix ``eigh``, solving each matrix that LAPACK's
    divide-and-conquer ``zheevd`` fails on (it can, for witnesses with highly
    degenerate spectra) in the basis of the unitary DFT matrix instead."""
    w = np.empty(m.shape[:-1])
    v = np.empty_like(m)
    d = m.shape[-1]
    q = np.fft.fft(np.eye(d)) / np.sqrt(d)
    for i in np.ndindex(m.shape[:-2]):
        try:
            w[i], v[i] = np.linalg.eigh(m[i])
        except np.linalg.LinAlgError:
            w[i], rotated = np.linalg.eigh(q.conj().T @ m[i] @ q)
            v[i] = q @ rotated
    return w, v


def real_if_real(m):
    """``m`` as a complex array, or as a real one when no entry of the whole
    stack has an imaginary part: the one test behind every real solve."""
    m = np.asarray(m)
    if np.iscomplexobj(m) and m.imag.any():
        return m
    return np.ascontiguousarray(m.real, dtype=float)


def eigvalsh(m):
    """Eigenvalues (ascending) of a Hermitian matrix, or of every matrix in a
    ``(..., d, d)`` stack; a stack with no imaginary part solves as real
    symmetric."""
    return np.linalg.eigvalsh(real_if_real(m))
