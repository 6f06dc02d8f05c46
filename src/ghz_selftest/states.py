"""Constructors for message states, reference states, GHZ vectors and POVMs.

Outcome convention
------------------
A receiver outcome is an n-bit word ``s = (s_1, ..., s_n)`` where bit ``s_j``
belongs to sender ``j`` and ``s_1`` fixes the sign of the GHZ superposition.
Outcomes are carried as integers ``m`` with ``s_j = (m >> (j-1)) & 1``
(``s_1`` is the least significant bit); POVM element ``m`` of a strategy is
the effect for outcome ``m``. String forms list ``s_1`` first: ``"10"`` means
``s_1 = 1, s_2 = 0``.

Qubit order inside operators: sender 1 occupies the most significant tensor
factor, i.e. ``tensor([A1, A2, ...])``.

Outcome ``s`` labels the GHZ vector ``xi_s = (|a_s> + (-1)^{s_1} |b_s>) /
sqrt(2)`` with ``a_s = 0 s_2..s_n`` and ``b_s = 1 ~s_2..~s_n``. This module
is the one place both rules are computed for arrays: :func:`outcome_table`
holds the bits of every outcome, :func:`ghz_kets` maps bit rows to the ket
rows ``(a_s, b_s)`` and :func:`basis_index` maps a ket row to its
computational-basis index. The GHZ vectors here, the witness sign and orbit
tables of :mod:`ghz_selftest.scenario`, the channelled GHZ projectors of
:mod:`ghz_selftest.robustness` and the computational reference strategy all
read them. :func:`outcome_bits`, :func:`outcome_index` and
:func:`outcome_label` parse one outcome given by a user.
"""

import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import backends
from .errors import InvalidBloch, InvalidInput
from .linalg import I2, PAULIS, chunks, dagger, normalized, outer, pairings, projector
from .rng import make_rng

COS8 = np.cos(np.pi / 8)
SIN8 = np.sin(np.pi / 8)

STATE_ATOL = 1e-10  # a message state's Hermiticity, trace and least eigenvalue
POVM_ATOL = 1e-9  # a POVM element's Hermiticity, and the elements' sum
POVM_PSD_ATOL = 1e-10  # a POVM element's least eigenvalue


def outcome_bits(s, n: int) -> tuple:
    """Normalize an outcome given as int, ``s_1``-first string, or bit list."""
    if isinstance(s, (int, np.integer)):
        if not 0 <= s < 2**n:
            raise InvalidInput(f"outcome {s} out of range for n={n}")
        return tuple((int(s) >> (j - 1)) & 1 for j in range(1, n + 1))
    if isinstance(s, str):
        if len(s) != n or any(c not in "01" for c in s):
            raise InvalidInput(f"outcome string {s!r} is not a {n}-bit word")
        return tuple(int(c) for c in s)
    try:
        entries = list(s)
    except TypeError:
        raise InvalidInput(f"outcome {s!r} is not an integer, a bit string or a bit list") from None
    # checked before int(), which would truncate 0.5 to 0 and 1.9 to 1
    if len(entries) != n or not all(
        isinstance(b, (numbers.Real, np.bool_)) and b in (0, 1) for b in entries
    ):
        raise InvalidInput(f"outcome {s!r} is not a {n}-bit word")
    return tuple(int(b) for b in entries)


def outcome_index(s, n: int) -> int:
    """Integer form of an outcome (``s_1`` = least significant bit)."""
    bits = outcome_bits(s, n)
    return sum(b << j for j, b in enumerate(bits))


def outcome_label(s, n: int) -> str:
    """String form of an outcome, ``s_1`` first."""
    return "".join(str(b) for b in outcome_bits(s, n))


def bloch_to_state(v) -> np.ndarray:
    """Qubit state ``(I + v . sigma)/2`` from a Bloch vector; pure iff |v| = 1."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise InvalidInput("Bloch vector must have three components")
    norm = np.linalg.norm(v)
    if not norm <= 1 + 1e-12:  # a NaN norm is refused too
        raise InvalidBloch(f"Bloch vector norm {norm:.6f} is not at most 1")
    rho = I2.copy() / 2
    for c, p in zip(v, PAULIS):
        rho += c * p / 2
    return rho


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector of a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([float(np.trace(rho @ p).real) for p in PAULIS])


def _first_failure(*failed):
    """``(element, check)`` for the first element that fails any of the
    per-element masks ``failed`` (one per check, in the order the checks
    apply), with the first check it fails; None when every element passes."""
    failed = np.array(failed)
    if not failed.any():
        return None
    k = int(failed.any(axis=0).argmax())
    return k, int(failed[:, k].argmax())


def _first_non_finite(m: np.ndarray):
    """Index of the first matrix of the stack ``m`` with a NaN or infinite
    entry, or None. Runs before any solve: LAPACK fails on such a matrix."""
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True)
class SenderStates:
    """One sender's four message states, ``rho[a, x]`` of shape (2, 2, 2, 2)."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (2, 2, 2, 2):
            raise InvalidInput(f"SenderStates.rho must have shape (2,2,2,2), got {rho.shape}")
        object.__setattr__(self, "rho", rho)

    def validate(self) -> None:
        m = backends.real_if_real(self.rho.reshape(4, 2, 2))  # row 2a + x
        k = _first_non_finite(m)
        if k is not None:
            raise InvalidInput(f"state ({k // 2}|{k % 2}) has a non-finite entry")
        # in halves, so no difference or trace of finite entries overflows;
        # halving is exact, so the verdicts are those of m - m^dag and Tr m
        half = m / 2
        half_traces = np.trace(half, axis1=1, axis2=2).real
        failed = _first_failure(
            np.abs(half - dagger(half)).max(axis=(1, 2)) > STATE_ATOL / 2,
            abs(half_traces - 0.5) > STATE_ATOL / 2,
            backends.eigvalsh(m)[:, 0] < -STATE_ATOL,
        )
        if failed is not None:
            k, check = failed
            # a Python product: a trace above the float range reads inf
            reason = ("is not Hermitian", f"has trace {2 * float(half_traces[k])}",
                      "is not positive semidefinite")[check]
            raise InvalidInput(f"state ({k // 2}|{k % 2}) {reason}")


class Povm:
    """Positive operators ``elements[k]`` summing to the identity, held in
    one of two forms.

    ``Povm(elements)`` holds the dense ``(k, d, d)`` stack. The basis form,
    :meth:`from_basis`, holds a rank-1 measurement ``M_m = q_m q_m^dag`` as
    its square stack of rows ``q_m`` alone, as :func:`ghz_povm` builds the
    GHZ basis. It builds ``elements``, ``linalg.outer`` of the rows, on the
    first read and keeps it read-only. The reads of the certify path,
    :meth:`validate`, :meth:`traces`, :meth:`pairings` and
    :meth:`expectations`, take the rows directly, so certifying a basis
    never builds the ``2**n x d x d`` stack. Only this class reads
    ``basis``, which is None in the dense form.
    """

    __slots__ = ("basis", "_elements")

    def __init__(self, elements):
        el = np.asarray(elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise InvalidInput(f"Povm.elements must have shape (k, d, d), got {el.shape}")
        self.basis = None
        self._elements = el

    @classmethod
    def from_basis(cls, rows) -> "Povm":
        """The rank-1 POVM of the rows ``q_m`` of a square ``(d, d)`` stack,
        which it holds as a read-only copy."""
        q = np.array(rows, dtype=complex, order="C")
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InvalidInput(f"Povm.from_basis needs a square (d, d) stack of rows, "
                               f"got {q.shape}")
        q.flags.writeable = False
        povm = cls.__new__(cls)
        povm.basis, povm._elements = q, None
        return povm

    @property
    def elements(self) -> np.ndarray:
        """The ``(k, d, d)`` stack, which a basis builds on this first read."""
        if self._elements is None:
            with np.errstate(all="ignore"):  # an infinite row entry: validate names it
                self._elements = outer(self.basis)
            self._elements.flags.writeable = False
        return self._elements

    @property
    def dim(self) -> int:
        return (self._elements if self.basis is None else self.basis).shape[-1]

    def __len__(self) -> int:
        return (self._elements if self.basis is None else self.basis).shape[0]

    def traces(self) -> np.ndarray:
        """``Re Tr M_m`` of every element: ``||q_m||^2`` in the basis form."""
        if self.basis is None:
            return np.trace(self.elements, axis1=1, axis2=2).real
        return (self.basis * self.basis.conj()).real.sum(axis=1)

    def pairings(self, s: np.ndarray) -> np.ndarray:
        """``Re Tr(M_m S_k^T)`` for operators ``s`` ``(K, d, d)``, shape ``(len,
        K)``: :func:`linalg.pairings` of the stack, or ``Re q_m^T S_k
        conj(q_m)`` from the rows."""
        if self.basis is None:
            return pairings(self.elements, s)
        q = self.basis
        return np.einsum("mi,kim->mk", q, s @ q.conj().T).real

    def expectations(self, v: np.ndarray) -> np.ndarray:
        """``<v_m| M_m |v_m>`` for every column ``v_m`` of ``v`` ``(d, len)``:
        ``|<v_m, q_m>|^2`` in the basis form."""
        if self.basis is None:
            return np.einsum("im,mij,jm->m", v.conj(), self.elements, v).real
        z = np.einsum("im,mi->m", v.conj(), self.basis)
        return z.real**2 + z.imag**2

    def validate(self) -> None:
        """Raise InvalidInput naming the first element that has a non-finite
        entry, else the first that has an entry no valid element can hold,
        is not Hermitian (within ``POVM_ATOL``) or has a least eigenvalue
        below ``-POVM_PSD_ATOL``, or if the elements do not sum to the
        identity (within ``POVM_ATOL``), as :meth:`SenderStates.validate`
        orders its checks.

        The magnitude check bounds ``H = (M + M^dag)/2`` of each of the ``k``
        elements on dimension ``d``. If every ``H_j >= -delta I`` (``delta =
        POVM_PSD_ATOL``) and their sum is ``I + F`` with ``|F_ab| <= eps =
        POVM_ATOL`` entrywise, so ``||F||_2 <= d eps``, then ``H_j = I + F -
        sum_{i != j} H_i <= (1 + d eps + (k - 1) delta) I``, and every entry
        obeys ``|H_ab| <= ||H_j||_2 <= 1 + d eps + k delta``. An entry of
        ``H`` above ``1 + 2 (d eps + k delta)`` (the allowance doubled for the
        rounding of the checks) therefore proves that the elements are not
        positive semidefinite operators summing to the identity; the message
        names the element and the entry. The eigenvalue rule cannot name
        that defect: at entries near 1e308 its rounding alone exceeds
        ``delta``. An anti-Hermitian defect leaves ``H``, and this check, as
        it was.

        The non-finite check reads the whole stack, so no message depends on
        the chunk size; the finite elements are then checked a chunk at a
        time. Two screens prove a chunk valid without an eigensolve. The
        rank-1 screen (:func:`_rank_one_clears`, O(d**2) per element) clears
        a chunk of rank-1 elements, such as a projective basis measurement,
        before the other checks: the entries of a cleared element are at
        most ``1 + eps + delta``, within the magnitude bound. Any other chunk
        that passes the magnitude check and the Hermiticity gate is screened
        by one Cholesky factorization (:func:`_cholesky_clears`). A chunk
        neither screen clears is decided by the least eigenvalue of
        ``(m + m^dag)/2`` from ``eigvalsh``, exactly as without the screens,
        so they change neither a verdict nor a message.

        A basis is first screened from its rows (:func:`_basis_clears`); one
        the screen does not clear is decided by the rules above on
        ``elements``, so every refusal gives the dense form's message.
        """
        if self.basis is not None and _basis_clears(self.basis):
            return
        k = _first_non_finite(self.elements)
        if k is not None:
            raise InvalidInput(f"POVM element {k} has a non-finite entry")
        bound = 1 + 2 * (self.dim * POVM_ATOL + len(self) * POVM_PSD_ATOL)
        for part in chunks(len(self), self.dim**2):
            m = backends.real_if_real(self.elements[part])
            if _rank_one_clears(m):
                continue
            # in halves, as for sender states: m/2 - m^dag/2 and the
            # symmetrization m/2 + m^dag/2 never overflow
            half = m / 2
            herm = half + dagger(half)
            with np.errstate(over="ignore"):  # |re + i im| above the float range
                size = np.abs(herm)
            too_large = size.max(axis=(1, 2)) > bound
            not_hermitian = np.abs(half - dagger(half)).max(axis=(1, 2)) > POVM_ATOL / 2
            if not (too_large.any() or not_hermitian.any()) and _cholesky_clears(half):
                continue
            failed = _first_failure(
                too_large,
                not_hermitian,
                backends.eigvalsh(herm)[:, 0] < -POVM_PSD_ATOL,
            )
            if failed is not None:
                k, check = failed
                if check == 0:
                    i, j = np.unravel_index(size[k].argmax(), size[k].shape)
                    raise InvalidInput(
                        "POVM elements do not sum to the identity as positive semidefinite "
                        f"operators: element {part.start + k} has an entry of magnitude "
                        f"{size[k, i, j]:.6g} at ({i}, {j}) in its Hermitian part, above the "
                        f"{bound:.12g} that bounds every entry of such elements")
                reason = ("Hermitian", "positive semidefinite")[check - 1]
                raise InvalidInput(f"POVM element {part.start + k} is not {reason}")
        # a sum of huge entries may overflow to inf, which the check refuses
        with np.errstate(over="ignore"):
            total = self.elements.sum(axis=0)
        if np.abs(total - np.eye(self.dim)).max() > POVM_ATOL:
            raise InvalidInput("POVM elements do not sum to the identity")


def _basis_clears(q: np.ndarray) -> bool:
    """True when the rows ``q_m`` of the square stack ``q`` are finite and
    ``r = fl(|Q^T conj(Q) - I|)`` is at most ``POVM_ATOL - 4 (d + 2) eps``
    entrywise, which proves that the rules of :meth:`Povm.validate` accept
    the elements ``fl(q_m q_m^dag)``; False leaves the verdict to them.

    ``P = Q^T conj(Q) = sum_m q_m q_m^dag`` is the elements' exact sum. With
    ``u = eps/2`` and ``gamma_k = k u / (1 - k u)``, a complex product is off
    by ``sqrt(2) gamma_2`` relatively and a sum of ``d`` terms by
    ``gamma_{d-1}`` of their magnitudes (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, sec. 3.1 and 3.6). So both ``fl(P)`` and the
    elements' computed sum ``S`` lie within ``gamma_{d+2} sum_m |q_ma|
    |q_mb| <= gamma_{d+2} sqrt(P_aa P_bb)`` (Cauchy-Schwarz) of ``P``, and
    ``P_aa <= 1 + POVM_ATOL`` up to that rounding. The sum rule's ``|S -
    I|`` is then below ``r + 2.1 gamma_{d+2}`` times ``1 + 3u`` for the
    roundings of the two differences and moduli, which the allowance keeps
    under ``POVM_ATOL``. Every entry ``|q_ma|^2 <= P_aa`` is at most about
    ``1 + POVM_ATOL``, so each element passes the magnitude bound, is
    Hermitian to ``6u`` entrywise and is within ``3u ||q_m||^2`` in
    Frobenius norm of the positive ``q_m q_m^dag``, with ``||q_m||^2 <= 1 +
    d POVM_ATOL``: its least eigenvalue and ``eigvalsh``'s own rounding
    stay far below ``POVM_PSD_ATOL``, as for :func:`_rank_one_clears`.
    Overflowing rows give an infinite or NaN ``r``, which fails the test
    without a warning.
    """
    if not np.isfinite(q).all():
        return False
    d = len(q)
    with np.errstate(all="ignore"):
        r = np.abs(q.T @ q.conj() - np.eye(d)).max()
    return bool(r <= POVM_ATOL - 4 * (d + 2) * np.finfo(float).eps)


def _rank_one_clears(m: np.ndarray) -> bool:
    """True when every matrix ``M`` of the finite stack ``m`` is within
    ``POVM_PSD_ATOL/2``, in Frobenius norm, of a Hermitian rank-1 ``v v^dag``,
    which proves it Hermitian within ``POVM_ATOL`` and ``(M + M^dag)/2`` of
    least eigenvalue at or above ``-POVM_PSD_ATOL/2``; False leaves the
    verdict to the Hermiticity gate and the screens after it.

    ``v`` is the pivot column ``M[:, p] / sqrt(M_pp)``, ``p`` the largest
    diagonal entry, which must be at most ``1 + POVM_ATOL`` (true of every
    valid element). For the exact residual ``R = M - v v^dag`` of the
    computed ``v``, ``(M + M^dag)/2 = v v^dag + (R + R^dag)/2`` has least
    eigenvalue at least ``-||R||_F`` (Weyl), and ``|M - M^dag| = |R - R^dag|
    <= 2 ||R||_F`` entrywise. The diagonal bound keeps ``||v||^2 <= d (1 +
    POVM_ATOL) + sqrt(d) ||R||_F``, so ``eigvalsh``'s own rounding stays far
    below ``POVM_PSD_ATOL/2`` and the eigenvalue rule passes the element too.

    Each ``||R||_F`` is at most the norm of the whole stack of residuals,
    which the screen bounds. It takes ``u = eps/2``, ``gamma_k = k u / (1 -
    k u)``, ``eta = 2**-1074`` (gradual underflow) and ``N`` real numbers in
    the stack (``count d**2``, twice that if complex). With ``P = fl(v
    v^dag)``, ``r = fl(||fl(M - P)||_F)`` and ``w = fl(sum ||v||^2)`` over
    the stack:

    - a sum of ``k <= N`` squares is off by at most ``gamma_k`` relatively
      plus ``k eta``, and a square root by ``u`` relatively;
    - the subtraction rounds each entry once: ``||M - P||_F <=
      ||fl(M - P)||_F / (1 - u)``;
    - a product rounds each component at most twice (Higham, "Accuracy and
      Stability of Numerical Algorithms", 2002, sec. 3.6): ``||P - v
      v^dag||_F <= sqrt(2) gamma_2 sum ||v||^2 + 2 N eta``.

    So, for ``N u <= 1e-3`` (any stack that fits in memory), ``||R||_F <= (1
    + (N + 4) u) r + 4 u w + 2 sqrt(N eta)``. The screen tests ``beta = (1 +
    2 (N + 4) u) r + 8 u w + 4 sqrt(N eta) <= POVM_PSD_ATOL/2``: doubled
    allowances cover the few roundings of evaluating ``beta``. On the
    package's projective measurements ``r`` is at most 1.7e-15 and ``beta``
    at most 6e-14, against 5e-11. A zero pivot or an overflow makes ``beta``
    NaN or infinite, which fails the test without a warning; an element of
    rank 2 or more is refused by its residual's diagonal before the O(d**2)
    pass.
    """
    count = len(m)
    rows = np.arange(count)
    diag = np.diagonal(m, axis1=1, axis2=2).real
    p = diag.argmax(axis=1)
    pivot = diag[rows, p]
    if not pivot.max() <= 1 + POVM_ATOL:
        return False
    with np.errstate(all="ignore"):
        v = m[rows, :, p] / np.sqrt(pivot)[:, None]
        v_sq = (v * v.conj()).real
        # the residual's diagonal alone refuses a higher rank in O(d)
        if not np.abs(diag - v_sq).max() <= POVM_PSD_ATOL / 2:
            return False
        residual = outer(v)
        np.subtract(m, residual, out=residual)
        parts = residual.reshape(-1).view(float)
        u, n = np.finfo(float).eps / 2, len(parts)
        eta = np.finfo(float).smallest_subnormal
        beta = ((1 + 2 * (n + 4) * u) * np.sqrt(parts @ parts) + 8 * u * v_sq.sum()
                + 4 * np.sqrt(n * eta))
    return bool(beta <= POVM_PSD_ATOL / 2)


def _cholesky_clears(half: np.ndarray) -> bool:
    """True when a Cholesky factorization proves that every matrix of the
    Hermitian stack ``m``, given as ``half = m / 2``, has ``(m + m^dag)/2``
    with least eigenvalue above ``-POVM_PSD_ATOL``; False leaves the verdict
    to the eigenvalue rule.

    With ``H = (m + m^dag)/2`` and ``tau = POVM_PSD_ATOL``, a factorization of
    ``H + (tau/2) I`` that runs to completion in floating point proves the
    least eigenvalue of ``H`` at least ``-tau/2 - gamma_{d+1} tr(H)``
    (S. M. Rump, "Verification of positive definiteness", BIT 46, 2006).
    The screen runs only where that rounding term,
    ``<= (d+1) eps d (1 + POVM_ATOL)`` for diagonals at most ``1 + POVM_ATOL``
    (true of every valid element), stays below ``tau/2``: up to d = 256,
    and at d = 128 it is 3.7e-12 against 5e-11.
    """
    d = half.shape[-1]
    if not (d + 1) * np.finfo(float).eps * d * (1 + POVM_ATOL) < POVM_PSD_ATOL / 2:
        return False
    if np.diagonal(half, axis1=1, axis2=2).real.max() > (1 + POVM_ATOL) / 2:
        return False
    shifted = half + dagger(half)
    shifted.reshape(len(half), d * d)[:, :: d + 1] += POVM_PSD_ATOL / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class Strategy:
    """Senders' states plus the receiver's measurement, for the game ``task`` names."""

    n: int
    senders: tuple
    povm: Povm
    task: str = "ghz"
    observables: np.ndarray | None = field(default=None)  # partial Bell's stacked mx, mz

    def __post_init__(self):
        object.__setattr__(self, "senders", tuple(self.senders))
        if self.observables is not None:
            object.__setattr__(self, "observables", np.asarray(self.observables, dtype=complex))

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidInput(f"need at least two senders, got n={self.n}")
        if len(self.senders) != self.n:
            raise InvalidInput(f"expected {self.n} senders, got {len(self.senders)}")
        for j, st in enumerate(self.senders, 1):
            try:
                st.validate()
            except InvalidInput as exc:
                raise InvalidInput(f"sender {j}: {exc}") from None
        self.povm.validate()
        self.require(self.task)

    def require(self, task: str) -> None:
        """Raise InvalidInput unless this plays ``task`` in its shape; the scores call it."""
        if self.task != task:
            raise InvalidInput(f"strategy task is {self.task!r}, not {task!r}")
        if task == "ghz":
            if self.n < 2:
                raise InvalidInput(f"need at least two senders, got n={self.n}")
            if len(self.povm) != 2**self.n or self.povm.dim != 2**self.n:
                raise InvalidInput(
                    f"GHZ task needs 2**n POVM elements on dim 2**n, got "
                    f"{len(self.povm)} elements on dim {self.povm.dim}"
                )
        elif task == "partial_bell":
            if self.n != 2 or len(self.povm) != 3 or self.povm.dim != 4:
                raise InvalidInput("partial Bell task needs n=2 and a 3-element POVM on dim 4")
            if self.observables is None or self.observables.shape != (2, 2, 2):
                raise InvalidInput("partial Bell task needs two binary observables")
        else:
            raise InvalidInput(f"unknown task {task!r}")


def ideal_sender_states(j: int, n: int) -> SenderStates:
    """Reference message states for sender ``j`` of ``n``.

    Sender 1 sends the four pi/8-rotated projectors; the others send the
    computational pair for x=0 and the Hadamard pair for x=1.
    """
    if not 1 <= j <= n:
        raise InvalidInput(f"sender index {j} out of range for n={n}")
    rho = np.zeros((2, 2, 2, 2), dtype=complex)
    if j == 1:
        beta_p = np.array([COS8, SIN8])
        beta_m = np.array([SIN8, -COS8])
        alpha_p = np.array([SIN8, COS8])
        alpha_m = np.array([COS8, -SIN8])
        rho[0, 0] = projector(beta_p)
        rho[1, 0] = projector(beta_m)
        rho[0, 1] = projector(alpha_p)
        rho[1, 1] = projector(alpha_m)
    else:
        rho[0, 0] = projector([1, 0])
        rho[1, 0] = projector([0, 1])
        rho[0, 1] = projector([1, 1])
        rho[1, 1] = projector([1, -1])
    return SenderStates(rho)


def aligned_sender_states(j: int, n: int) -> SenderStates:
    """Reference states whose difference operators sit in the canonical frame.

    For sender 1 this coincides with :func:`ideal_sender_states`. For the
    others the two inputs are swapped relative to it, so that
    ``rho[0,x] - rho[1,x]`` is ``sigma_X`` for x=0 and ``sigma_Z`` for x=1 --
    the frame in which the witness's top eigenvector is the plain GHZ vector.
    """
    if not 1 <= j <= n:
        raise InvalidInput(f"sender index {j} out of range for n={n}")
    if j == 1:
        return ideal_sender_states(1, n)
    base = ideal_sender_states(j, n).rho
    return SenderStates(base[:, ::-1].copy())


@cache
def outcome_table(n: int) -> np.ndarray:
    """Read-only ``(2**n, n)`` table of outcome bits: row ``m`` is ``(s_1,
    ..., s_n)`` with ``s_j = (m >> (j-1)) & 1``."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    bits.flags.writeable = False
    return bits


def ghz_kets(bits) -> tuple:
    """Bit rows ``(a, b)`` of the two computational kets of ``xi_s`` for
    outcome bit rows ``bits`` ``(..., n)``: ``a = 0 s_2..s_n`` and ``b = 1
    ~s_2..~s_n``, column 0 being qubit 1, the most significant."""
    a = np.array(bits)
    a[..., 0] = 0
    return a, 1 - a


def basis_index(rows: np.ndarray) -> np.ndarray:
    """Computational-basis index of ket bit rows ``(..., n)``, column 0 the
    most significant bit."""
    return rows @ (1 << np.arange(rows.shape[-1])[::-1])


def ghz_basis_state(s, n: int) -> np.ndarray:
    """GHZ basis vector ``(|0 s2..sn> + (-1)^{s1} |1 ~s2..~sn>)/sqrt(2)``,
    built from the bits of ``s`` alone, in O(2**n) memory."""
    if n < 1:
        raise InvalidInput("n must be positive")
    bits = np.array(outcome_bits(s, n))
    a, b = ghz_kets(bits)
    c = 1 / np.sqrt(2)
    v = np.zeros(2**n, dtype=complex)
    v[basis_index(a)] = c
    v[basis_index(b)] = -c if bits[0] else c
    return v


def ghz_basis(n: int) -> np.ndarray:
    """Unitary whose column ``m`` is :func:`ghz_basis_state` ``(m, n)``."""
    if n < 1:
        raise InvalidInput("n must be positive")
    bits = outcome_table(n)
    a, b = ghz_kets(bits)
    m = np.arange(2**n)
    c = 1 / np.sqrt(2)
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[basis_index(a), m] = c
    u[basis_index(b), m] = np.where(bits[:, 0], -c, c)
    return u


def ghz_povm(n: int) -> Povm:
    """Rank-1 projective measurement onto the 2**n GHZ basis vectors, in the
    basis form of :class:`Povm`: its rows are the normalized GHZ vectors, so
    its ``elements`` are the bytes of :func:`linalg.projector` of the
    vectors."""
    # rows normalized as a contiguous copy, as projector(ghz_basis(n).T.copy())
    # normalized them, so the elements keep its bits
    return Povm.from_basis(normalized(ghz_basis(n).T.copy()))


def random_projectors(rng, count: int) -> np.ndarray:
    """``count`` Haar-random pure qubit states, drawn one after another: two
    real parts, then two imaginary parts, per state."""
    z = rng.normal(size=(count, 2, 2))
    return projector(z[:, 0] + 1j * z[:, 1])


def random_messages(n: int, seed: int) -> np.ndarray:
    """The messages of :func:`random_strategy`, ``rho[j, a, x]`` of shape
    ``(n, 2, 2, 2, 2)``, without drawing its POVM."""
    return random_projectors(make_rng(seed), 4 * n).reshape(n, 2, 2, 2, 2)


def random_strategy(n: int, seed: int) -> Strategy:
    """Haar-random pure messages plus a random rank-1 projective POVM."""
    if n < 2:
        raise InvalidInput(f"need at least two senders, got n={n}")
    rng = make_rng(seed)
    senders = [SenderStates(r) for r in random_projectors(rng, 4 * n).reshape(n, 2, 2, 2, 2)]
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    _, vecs = backends.eigh((g + g.conj().T) / 2)
    v = vecs.T.copy()  # v[k] is eigenvector k; contiguous rows, contiguous elements
    return Strategy(n=n, senders=tuple(senders), povm=Povm(outer(v)))


def random_antipodal_strategy(n: int, seed: int) -> Strategy:
    """Like :func:`random_strategy` but each input's two messages orthogonal."""
    base = random_strategy(n, seed)
    rho = np.stack([st.rho for st in base.senders])  # [j, a, x]
    _, v = backends.eigh(rho[:, 0])
    rho[:, 0] = projector(v[..., -1])
    rho[:, 1] = projector(v[..., 0])
    return Strategy(n=n, senders=tuple(SenderStates(r) for r in rho), povm=base.povm)


def random_mixed_strategy(n: int, seed: int) -> Strategy:
    """Random strategy with mixed messages (Bloch radius uniform in [0, 1])."""
    base = random_strategy(n, seed)
    r = make_rng(seed, stream=1).uniform(0.0, 1.0, size=(n, 2, 2))[..., None, None]
    rho = r * np.stack([st.rho for st in base.senders]) + (1 - r) * I2 / 2
    return Strategy(n=n, senders=tuple(SenderStates(x) for x in rho), povm=base.povm)
