"""Dense linear algebra substrate.

Plain ``numpy.ndarray`` carries all operators: complex128 in general,
float64 where an operator is real by construction (the robustness sweep's
operators, the GHZ channel images); :func:`tensor` of real factors stays
real. Matrices here are small (dimension at most 2**7 = 128); Kronecker
products and Hermitian eigensolves run through NumPy/LAPACK in
:mod:`ghz_selftest.backends`.
:func:`herm_eigvals` gates, symmetrizes and solves a stack with no imaginary
part in real arithmetic (for a real ``m``, ``|m - m^dag|`` is ``|m - m^T|``,
so the gate's verdict is the same); :func:`herm_eig` always solves complex.
:func:`contract_slot` is the one slot contraction: traced slot by slot, an
operator against a Kronecker product of 2x2 factors never needs the product.
``scenario.probability_table`` contracts the POVM with each context's
states a chunk at a time, slot 1 once for all contexts;
``robustness.avg_fidelity`` contracts ``Re M_s`` against four factor sets at
once; the see-saw's state steps (``optimize._effective_qubit_operator``)
contract a signed element sum, or the three-input game's effect, against
every sender's messages but the one updated. :func:`chunks` sizes every loop
that streams a stack (witness solves, POVM validation, the probability
table, the margin sweep, the average fidelity, the see-saw's restart blocks
and the slices of strategy-file text ``arraytext`` writes and reads) from
the one budget ``BLOCK_ENTRIES``, which no other module reads.
"""

from collections.abc import Iterator
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

# entries one chunk of :func:`chunks` may hold (4 MB of complex128): 16
# matrices at n = 7, a see-saw block of 8 GHZ restarts at n = 5
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


def chunks(count: int, entries: int) -> Iterator[slice]:
    """Slices over ``count`` points of ``entries`` array entries each, every
    slice holding at most ``BLOCK_ENTRIES`` entries and at least one point,
    yielded in order as they are asked for."""
    size = max(1, BLOCK_ENTRIES // entries)
    return (slice(i, i + size) for i in range(0, count, size))


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


def normalized(vec) -> np.ndarray:
    """A unit-norm copy of a state vector; stacked vectors ``(..., d)`` are
    normalized one by one."""
    v = np.asarray(vec, dtype=complex)
    # row times column: the dot products np.linalg.norm takes of one vector
    re, im = v.real[..., None, :], v.imag[..., None, :]
    norm = np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]
    if (norm == 0).any():
        raise InvalidInput("cannot project onto the zero vector")
    return v / norm


def outer(v: np.ndarray) -> np.ndarray:
    """``v v^dag`` for a vector, or for every vector of a ``(..., d)`` stack."""
    return v[..., :, None] * v[..., None, :].conj()


def projector(vec) -> np.ndarray:
    """Rank-1 projector onto a (normalized copy of a) state vector; stacked
    vectors ``(..., d)`` give stacked projectors."""
    return outer(normalized(vec))


def pairings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re sum_ij a[..., m, i, j] b[..., k, i, j]``, that is ``Re Tr(a_m
    b_k^T)``, for stacks ``a`` ``(..., m, d, d)`` and ``b`` ``(..., k, d,
    d)``: shape ``(..., m, k)``. One matmul of the flattened matrices, which
    are views of contiguous stacks."""
    m, d = a.shape[-3:-1]
    flat = b.reshape(b.shape[:-2] + (d * d,))
    return (a.reshape(a.shape[:-3] + (m, d * d)) @ np.swapaxes(flat, -1, -2)).real


def basis_pairings(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`pairings` of the rank-1 elements ``q_m q_m^dag`` with ``s``, read
    from the rows: ``Re q_m^T s_k conj(q_m)`` for rows ``q`` ``(..., m, d)``
    and operators ``s`` ``(..., k, d, d)``, shape ``(..., m, k)``. Leading
    axes give each stack the bits it has alone."""
    return np.einsum("...mi,...kim->...mk", q, s @ dagger(q)[..., None, :, :]).real
