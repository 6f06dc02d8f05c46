"""Dense linear algebra substrate.

Plain ``numpy.ndarray`` carries all operators: complex128 in general,
float64 where an operator is real by construction (the robustness sweep's
operators, the GHZ channel images); :func:`tensor` of real factors stays
real. Matrices here are small (dimension at most 2**7 = 128); Kronecker
products and Hermitian eigensolves run through NumPy/LAPACK in
:mod:`ghz_selftest.backends`, with one exception: ``robustness._margins``
calls ``np.linalg.eigvalsh`` on a complex copy of its real stack because
:func:`herm_eigvals` would solve it as real and round the n = 2 margin that
is exactly 0 at angles (0, 0) to -5e-17.
:func:`herm_eigvals` gates, symmetrizes and solves a stack with no imaginary
part in real arithmetic (for a real ``m``, ``|m - m^dag|`` is ``|m - m^T|``,
so the gate's verdict is the same); :func:`herm_eig` always solves complex.
:func:`contract_slot` is the one slot contraction: traced slot by slot, an
operator against a Kronecker product of 2x2 factors never needs the product
(``scenario.product_traces``, ``robustness.avg_fidelity``).
"""

from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import InvalidInput, NotHermitian

HERMITIAN_ATOL = 1e-10
SQRT2 = np.sqrt(2)

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# rotated Pauli pair used by the robustness channels
SIGMA_A = (SIGMA_X + SIGMA_Z) / SQRT2
SIGMA_B = (SIGMA_X - SIGMA_Z) / SQRT2

# entries of one stacked (points, d, d) complex array worked on at a time
CHUNK_ELEMENTS = 2**14
# the larger budget of the loops whose per-call overhead dominates: entries of
# the largest per-restart stack one see-saw block may hold (4 MB of
# complex128: 8 GHZ restarts at n = 5, one from n = 6 on), and of the POVM
# elements one ``robustness.avg_fidelity`` chunk contracts
BLOCK_ENTRIES = 2**18


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition: ascending eigenvalues, orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(m) -> np.ndarray:
    """Adjoint of a matrix, or of every matrix in a ``(..., d, d)`` stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex array (a float array stays real), raising
    NotHermitian if ``m - m^dagger`` exceeds ``HERMITIAN_ATOL`` times
    ``max(1, largest |entry|)``; a ``(..., d, d)`` stack passes only if
    every matrix in it does."""
    m = np.asarray(m)
    if m.dtype != float:
        m = m.astype(complex, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if off_hermitian(m).any():
        raise NotHermitian(f"matrix is not Hermitian within {HERMITIAN_ATOL:g}")
    return m


def off_hermitian(m: np.ndarray) -> np.ndarray:
    """Per matrix of a ``(..., d, d)`` stack: whether :func:`require_hermitian`
    refuses it."""
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    return np.abs(m - dagger(m)).max(axis=(-2, -1)) > HERMITIAN_ATOL * scale


def chunks(count: int, entries: int, budget: int | None = None) -> list:
    """Slices over ``count`` points of ``entries`` array entries each, every
    slice holding at most ``budget`` entries (``CHUNK_ELEMENTS`` by default)
    and at least one point."""
    size = max(1, (CHUNK_ELEMENTS if budget is None else budget) // entries)
    return [slice(i, i + size) for i in range(0, count, size)]


def tensor(factors) -> np.ndarray:
    """Kronecker product of the factors, leftmost = most significant index;
    stacked factors ``(..., k, k)`` give the stack of per-point products."""
    factors = list(factors)
    if not factors:
        raise InvalidInput("tensor needs at least one factor")
    return backends.kron_chain(factors)


def contract_slot(t, w) -> np.ndarray:
    """Contract the leading qubit of operators ``t`` ``(..., 2h, 2h)`` against
    2x2 weights ``w`` ``(..., 2, 2)``, leading axes broadcast: ``out[..., i, k]
    = sum_{x,y} w[..., x, y] t[..., x*h + i, y*h + k]``. Applied slot by slot,
    it gives ``Tr(t (x)_j w_j^T)``."""
    h = t.shape[-1] // 2
    blocks = t.reshape(t.shape[:-2] + (2, h, 2, h)).swapaxes(-3, -2)
    out = w.reshape(w.shape[:-2] + (1, 4)) @ blocks.reshape(blocks.shape[:-4] + (4, h * h))
    return out.reshape(out.shape[:-2] + (h, h))


def herm_eig(m) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending; a
    ``(..., d, d)`` stack gives stacked values and vector columns.

    The input is symmetrized before the solve so that accumulated
    floating-point asymmetry (within the Hermiticity gate) cannot leak
    into the spectrum.
    """
    m = require_hermitian(np.asarray(m, dtype=complex))
    w, v = backends.eigh((m + dagger(m)) / 2)
    return EigenSystem(values=w, vectors=v)


def herm_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (or of a stack of them);
    a stack with no imaginary part is gated and solved as real symmetric."""
    m = require_hermitian(backends.real_if_real(m))
    return backends.eigvalsh((m + dagger(m)) / 2)


def op_norm(m) -> float:
    """Maximum (signed) eigenvalue of a Hermitian matrix."""
    return float(herm_eigvals(m)[-1])


def partial_transpose(m, subsystem_dims, target: int) -> np.ndarray:
    """Transpose on one tensor factor of a multipartite operator, or of every
    operator of a ``(..., d, d)`` stack.

    ``subsystem_dims`` lists the local dimensions in tensor order and
    ``target`` indexes (0-based) the factor to transpose. Involutive and
    trace-preserving.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in subsystem_dims]
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if int(np.prod(dims)) != m.shape[-1]:
        raise InvalidInput(f"subsystem dims {dims} do not multiply to {m.shape[-1]}")
    if not 0 <= target < len(dims):
        raise InvalidInput(f"target {target} out of range for {len(dims)} subsystems")
    lead, k = m.ndim - 2, len(dims)
    t = m.reshape(m.shape[:-2] + tuple(dims + dims))
    t = np.swapaxes(t, lead + target, lead + k + target)
    return t.reshape(m.shape)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rescale ``v`` so its first non-negligible entry is real and positive;
    stacked vectors ``(..., d)`` are rescaled one by one."""
    big = np.abs(v) > 1e-12
    c = np.take_along_axis(v, big.argmax(axis=-1)[..., None], axis=-1)
    c = np.where(big.any(axis=-1, keepdims=True), c, 1)
    # hypot rounds like the scalar abs() of a single entry
    return v * (c.conj() / np.hypot(c.real, c.imag))


def projector(vec) -> np.ndarray:
    """Rank-1 projector onto a (normalized copy of a) state vector; stacked
    vectors ``(..., d)`` give stacked projectors."""
    v = np.asarray(vec, dtype=complex)
    # row times column: the dot products np.linalg.norm takes of one vector
    re, im = v.real[..., None, :], v.imag[..., None, :]
    norm = np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]
    if (norm == 0).any():
        raise InvalidInput("cannot project onto the zero vector")
    v = v / norm
    return v[..., :, None] * v[..., None, :].conj()
