"""NumPy/LAPACK kernels behind :mod:`ghz_selftest.linalg`.

The hot inner loops of this package are Kronecker products, of single
matrices or of stacks of them, and Hermitian eigendecompositions of small
(dim <= 128) complex matrices.
"""

import numpy as np


def kron_chain(mats):
    """Kronecker product of a sequence of square complex matrices; factors
    ``(..., k, k)`` broadcast their leading axes, giving a stack of products."""
    if len(mats) == 0:
        raise ValueError("kron_chain needs at least one factor")
    out, *rest = [np.asarray(m, dtype=complex) for m in mats]
    for m in rest:
        d = out.shape[-1] * m.shape[-1]
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (d, d))
    return out


def eigh(m):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""
    return np.linalg.eigh(np.asarray(m, dtype=complex))


def eigvalsh(m):
    """Eigenvalues (ascending) of a Hermitian matrix."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))
