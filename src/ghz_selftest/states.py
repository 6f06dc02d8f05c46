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
"""

from dataclasses import dataclass, field

import numpy as np

from . import backends
from .errors import InvalidBloch, InvalidInput
from .linalg import I2, PAULIS, chunks, dagger, projector
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
    bits = tuple(int(b) for b in s)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise InvalidInput(f"outcome {s!r} is not a {n}-bit word")
    return bits


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
    if np.linalg.norm(v) > 1 + 1e-12:
        raise InvalidBloch(f"Bloch vector norm {np.linalg.norm(v):.6f} exceeds 1")
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
        traces = np.trace(m, axis1=1, axis2=2).real
        failed = _first_failure(
            np.abs(m - dagger(m)).max(axis=(1, 2)) > STATE_ATOL,
            abs(traces - 1) > STATE_ATOL,
            backends.eigvalsh(m)[:, 0] < -STATE_ATOL,
        )
        if failed is not None:
            k, check = failed
            reason = ("is not Hermitian", f"has trace {traces[k]}",
                      "is not positive semidefinite")[check]
            raise InvalidInput(f"state ({k // 2}|{k % 2}) {reason}")


@dataclass(frozen=True)
class Povm:
    """Positive operators ``elements[k]`` summing to the identity."""

    elements: np.ndarray

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise InvalidInput(f"Povm.elements must have shape (k, d, d), got {el.shape}")
        object.__setattr__(self, "elements", el)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    def validate(self) -> None:
        for part in chunks(len(self), self.dim**2):
            m = backends.real_if_real(self.elements[part])
            failed = _first_failure(
                np.abs(m - dagger(m)).max(axis=(1, 2)) > POVM_ATOL,
                backends.eigvalsh((m + dagger(m)) / 2)[:, 0] < -POVM_PSD_ATOL,
            )
            if failed is not None:
                k, check = failed
                reason = ("Hermitian", "positive semidefinite")[check]
                raise InvalidInput(f"POVM element {part.start + k} is not {reason}")
        if np.abs(self.elements.sum(axis=0) - np.eye(self.dim)).max() > POVM_ATOL:
            raise InvalidInput("POVM elements do not sum to the identity")


@dataclass(frozen=True)
class Strategy:
    """Senders' states plus the receiver's measurement.

    ``task`` is ``"ghz"`` (POVM with ``2**n`` elements) or ``"partial_bell"``
    (three-element POVM on two qubits plus two binary observables ``mx, mz``
    stacked in ``observables``).
    """

    n: int
    senders: tuple
    povm: Povm
    task: str = "ghz"
    observables: np.ndarray | None = field(default=None)

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
        if self.task == "ghz":
            if len(self.povm) != 2**self.n or self.povm.dim != 2**self.n:
                raise InvalidInput(
                    f"GHZ task needs 2**n POVM elements on dim 2**n, got "
                    f"{len(self.povm)} elements on dim {self.povm.dim}"
                )
        elif self.task == "partial_bell":
            if self.n != 2 or len(self.povm) != 3 or self.povm.dim != 4:
                raise InvalidInput("partial Bell task needs n=2 and a 3-element POVM on dim 4")
            if self.observables is None or self.observables.shape != (2, 2, 2):
                raise InvalidInput("partial Bell task needs two binary observables")
        else:
            raise InvalidInput(f"unknown task {self.task!r}")


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


def ghz_basis_state(s, n: int) -> np.ndarray:
    """GHZ basis vector ``(|0 s2..sn> + (-1)^{s1} |1 ~s2..~sn>)/sqrt(2)``."""
    if n < 1:
        raise InvalidInput("n must be positive")
    bits = outcome_bits(s, n)
    v = np.zeros(2**n, dtype=complex)
    i0 = sum(bits[j - 1] << (n - j) for j in range(2, n + 1))
    i1 = (1 << (n - 1)) + sum((1 - bits[j - 1]) << (n - j) for j in range(2, n + 1))
    v[i0] = 1 / np.sqrt(2)
    v[i1] = (-1) ** bits[0] / np.sqrt(2)
    return v


def ghz_basis(n: int) -> np.ndarray:
    """Unitary whose column ``m`` is :func:`ghz_basis_state` ``(m, n)``."""
    return np.stack([ghz_basis_state(m, n) for m in range(2**n)], axis=1)


def ghz_povm(n: int) -> Povm:
    """Rank-1 projective measurement onto the 2**n GHZ basis vectors."""
    return Povm(projector(ghz_basis(n).T))


def random_projectors(rng, count: int) -> np.ndarray:
    """``count`` Haar-random pure qubit states, drawn one after another."""
    return np.stack([projector(rng.normal(size=2) + 1j * rng.normal(size=2))
                     for _ in range(count)])


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
    _, vecs = np.linalg.eigh((g + g.conj().T) / 2)
    els = np.stack([np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(d)])
    return Strategy(n=n, senders=tuple(senders), povm=Povm(els))


def random_antipodal_strategy(n: int, seed: int) -> Strategy:
    """Like :func:`random_strategy` but each input's two messages orthogonal."""
    base = random_strategy(n, seed)
    senders = []
    for st in base.senders:
        rho = st.rho.copy()
        for x in range(2):
            w, v = np.linalg.eigh(rho[0, x])
            rho[0, x] = projector(v[:, -1])
            rho[1, x] = projector(v[:, 0])
        senders.append(SenderStates(rho))
    return Strategy(n=n, senders=tuple(senders), povm=base.povm)


def random_mixed_strategy(n: int, seed: int) -> Strategy:
    """Random strategy with mixed messages (Bloch radius uniform in [0, 1])."""
    base = random_strategy(n, seed)
    rng = make_rng(seed, stream=1)
    senders = []
    for st in base.senders:
        rho = st.rho.copy()
        for a in range(2):
            for x in range(2):
                r = rng.uniform(0.0, 1.0)
                rho[a, x] = r * rho[a, x] + (1 - r) * I2 / 2
        senders.append(SenderStates(rho))
    return Strategy(n=n, senders=tuple(senders), povm=base.povm)
