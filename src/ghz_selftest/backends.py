"""NumPy/LAPACK kernels behind :mod:`ghz_selftest.linalg`.

The hot inner loops of this package are Kronecker products and Hermitian
eigendecompositions of small (dim <= 128) complex matrices.
"""

from functools import reduce

import numpy as np


def kron_chain(mats):
    """Kronecker product of a sequence of square complex matrices."""
    if len(mats) == 0:
        raise ValueError("kron_chain needs at least one factor")
    return reduce(np.kron, [np.asarray(m, dtype=complex) for m in mats])


def eigh(m):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""
    return np.linalg.eigh(np.asarray(m, dtype=complex))


def eigvalsh(m):
    """Eigenvalues (ascending) of a Hermitian matrix."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))
