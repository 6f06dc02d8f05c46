"""Witness operators and success metrics for the communication games.

Three games live here:

* the n-sender GHZ game, whose normalized score ``success_metric`` reaches 1
  exactly on strategies that self-test the GHZ basis measurement;
* a two-sender, three-input game (``counterexample_metric``) whose optimum is
  reachable by both entangling and separable measurements, so optimality
  alone certifies nothing;
* the partial-Bell game (``comm_metric`` for the three-outcome part,
  ``rac_metric`` / ``rac_bound`` for the random-access-code part).

The GHZ witnesses are signed sums of n sign-free tensor terms
(:func:`witness_terms`). The signs of outcome ``s`` (:func:`witness_signs`)
and its orbit under local flips (:func:`witness_orbits`) are read off the
outcome bits of :func:`states.outcome_table`; this module derives no bits of
its own. So are the signs of the flips on their joint eigenbasis
(:func:`flip_characters`, :func:`flip_eigenbasis`), which the see-saw's
measurement step orthonormalizes on. Every witness, one outcome's or a stack, is built by
:func:`witness_operators` in one piece; ``selftest`` streams the solves
of many witnesses over ``linalg.chunks``.
"""

from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

from .errors import InvalidBloch, InvalidInput
from .linalg import (I2, PAULIS, SQRT2, basis_pairings, chunks, contract_slot, dagger,
                     herm_eigvals, tensor)
from .states import (Povm, SenderStates, Strategy, basis_index, bloch_vector, outcome_index,
                     outcome_table)

# coefficients of the three-input game score on p(0 | y1, y2)
COUNTEREXAMPLE_COEFFS = {
    (1, 1): -2.0,
    (1, 3): +2.0,
    (2, 1): -2.0,
    (2, 2): +1.0,
    (2, 3): -1.0,
    (3, 2): +1.0,
    (3, 3): -1.0,
}
# the same coefficients as a matrix indexed [y1-1, y2-1]
COUNTEREXAMPLE_MATRIX = np.array(
    [[COUNTEREXAMPLE_COEFFS.get((y1, y2), 0.0) for y2 in (1, 2, 3)] for y1 in (1, 2, 3)]
)
COUNTEREXAMPLE_MATRIX.flags.writeable = False

TABLE_ATOL = 1e-9  # a probability table's normalization and nonnegativity


def a_operators(strategy: Strategy) -> np.ndarray:
    """Difference operators ``a[j-1, x] = rho[0|x] - rho[1|x]`` per sender."""
    return message_operators(np.stack([st.rho for st in strategy.senders]))


def message_operators(rho: np.ndarray) -> np.ndarray:
    """Difference operators of stacked sender states ``(..., n, 2, 2, 2, 2)``
    indexed ``[..., j, a, x]``: shape ``(..., n, 2, 2, 2)``."""
    return rho[..., 0, :, :, :] - rho[..., 1, :, :, :]


def require_finite_operators(ops: np.ndarray) -> None:
    """Raise InvalidInput naming the first message operator of ``ops`` ``(n,
    2, 2, 2)`` with a NaN or infinite entry: every solve of the witnesses
    built from it would fail."""
    finite = np.isfinite(ops).all(axis=(-2, -1))
    if not finite.all():
        j, x = np.argwhere(~finite)[0].tolist()
        raise InvalidInput(f"message operator of sender {j + 1}, input {x} has a non-finite entry")


def witness_factors(ops: np.ndarray) -> list:
    """Per-term factor lists of the n sign-free tensor terms of the witnesses.

    Term 0 is ``(a[0,0]+a[0,1]) (x) a[1,0] (x) ... (x) a[n-1,0]``; term j-1
    (j >= 2) puts ``a[j-1,1]`` in slot j, ``a[0,0]-a[0,1]`` in slot 1 and the
    identity elsewhere, of the operators' dtype, so real operators give real
    terms. Stacked ``ops`` ``(..., n, 2, 2, 2)`` give stacked factors.
    """
    n = ops.shape[-4]
    a = np.moveaxis(ops, (-4, -3), (0, 1))  # a[j, x] has shape (..., 2, 2)
    eye = np.eye(2, dtype=ops.dtype)
    factors = [[a[0, 0] + a[0, 1]] + [a[j, 0] for j in range(1, n)]]
    for j in range(2, n + 1):
        term = [a[0, 0] - a[0, 1]] + [eye] * (n - 1)
        term[j - 1] = a[j - 1, 1]
        factors.append(term)
    return factors


def witness_terms(ops: np.ndarray) -> list:
    """The n sign-free tensor terms of the witnesses, one per factor list."""
    return [tensor(f) for f in witness_factors(ops)]


@cache
def witness_signs(n: int) -> np.ndarray:
    """Read-only ``(2**n, n)`` table of the witness coefficients per outcome.

    Row ``m`` holds the coefficients of the :func:`witness_terms` in
    ``W_m``: ``(n-1) (-1)^{s_1}`` for term 0 and ``(-1)^{s_j}`` for term
    j-1, with the bits ``s_j`` of :func:`states.outcome_table`.
    """
    _require_senders(n)
    signs = 1 - 2 * outcome_table(n)
    signs[:, 0] *= n - 1
    signs.flags.writeable = False
    return signs


@cache
def witness_orbits(n: int) -> tuple:
    """Where each outcome's witness sits in its orbit under local flips.

    For traceless message operators, conjugating by sender 1's flip
    operator flips every sign bit of the witness; by sender j's (j >= 2),
    bits ``s_1`` and ``s_j``. At odd n these flips reach all ``2**n``
    outcomes from outcome 0; at even n they keep the parity of ``s``,
    leaving two orbits, of outcomes 0 and 1. Returns read-only ``(reps,
    orbit, flips)``: the representative outcomes, each outcome's index into
    ``reps`` and a ``(2**n, n)`` boolean table whose row m marks the slots
    to flip to carry ``W_reps[orbit[m]]`` onto ``W_m``. Sender j >= 2 flips
    where ``s_j`` differs from sender 1's flip.
    """
    _require_senders(n)
    bits = outcome_table(n)
    parity = bits.sum(axis=1) % 2
    if n % 2:  # one orbit; sender 1 flips the outcomes of odd parity
        reps, orbit, first = np.array([0]), np.zeros_like(parity), parity
    else:  # the parity names the orbit; sender 1 never flips
        reps, orbit, first = np.array([0, 1]), parity, np.zeros_like(parity)
    flips = bits != first[:, None]
    flips[:, 0] = first
    for table in (reps, orbit, flips):
        table.flags.writeable = False
    return reps, orbit, flips


@cache
def flip_characters(n: int) -> np.ndarray:
    """Read-only ``(2**n, 2**n)`` table of +-1 characters ``S[m, chi] =
    (-1)^{F_m . chi}``: row m's flip pattern ``F_m`` of :func:`witness_orbits`
    read against the bits ``chi`` of :func:`states.outcome_table`. The flips
    commute and square to I, so ``N_F`` acts on their joint eigenvector
    ``e_chi`` (``chi_j = 1`` where sender j's flip has eigenvalue -1) as
    ``S[m, chi]``."""
    flips = witness_orbits(n)[2].astype(int)
    chars = 1.0 - 2.0 * (flips @ outcome_table(n).T % 2)
    chars.flags.writeable = False
    return chars


def flip_eigenbasis(bases: np.ndarray) -> np.ndarray:
    """Rows ``e_chi = (x)_j bases[..., j, chi_j, :]`` of per-sender 2x2 bases
    ``(..., n, 2, 2)``, ordered by the bits ``chi`` of
    :func:`states.outcome_table`: stacked ``(..., 2**n, 2**n)``. With row b
    of sender j's basis the eigenvector of its flip for ``(-1)^b``, these are
    the flips' joint eigenvectors whose signs :func:`flip_characters`
    tabulates."""
    n = bases.shape[-3]
    e = tensor([bases[..., j, :, :] for j in range(n)])
    return e[..., basis_index(outcome_table(n)), :]


def _require_senders(n: int) -> None:
    if n < 2:
        raise InvalidInput(f"need at least two senders, got n={n}")


def signed_sum(coeffs, terms):
    """``sum_k coeffs[k] * terms[k]``, accumulated left to right."""
    w = coeffs[0] * terms[0]
    for c, t in zip(coeffs[1:], terms[1:]):
        w = w + c * t
    return w


def witness_operator(n: int, s, ops: np.ndarray) -> np.ndarray:
    """Witness for outcome ``s``: the receiver-side operator whose trace
    against POVM element ``M_s`` is that outcome's score contribution;
    stacked ``ops`` ``(..., n, 2, 2, 2)`` give the stack of witnesses."""
    if ops.shape[-4:] != (n, 2, 2, 2):
        raise InvalidInput(f"operators have shape {ops.shape}, expected (...,{n},2,2,2)")
    return witness_operators(ops, [outcome_index(s, n)])[..., 0, :, :]


def witness_operators(ops: np.ndarray, outcomes=None, terms=None) -> np.ndarray:
    """The witnesses of ``outcomes`` (all ``2**n`` by default), stacked in
    that order; stacked ``ops`` ``(..., n, 2, 2, 2)`` give ``(..., len,
    2**n, 2**n)``. Passing ``terms``, the n :func:`witness_terms` of ``ops``
    in any sequence, spares building them again."""
    n = ops.shape[-4]
    terms = [t[..., None, :, :] for t in (witness_terms(ops) if terms is None else terms)]
    signs = witness_signs(n) if outcomes is None else witness_signs(n)[outcomes]
    # exact in the terms' dtype, whose products need no casting buffers
    return signed_sum(signs.astype(terms[0].dtype).T[..., None, None], terms)


def metric_normalization(n: int) -> float:
    return 2**n * (n - 1) * 2 * SQRT2


def _signed_score(n: int, t: np.ndarray):
    """Normalized score from ``t[..., m, k]``, term k's contribution to
    outcome m: per-outcome signed sums, then summed over outcomes in order."""
    per_outcome = signed_sum(witness_signs(n).T, np.moveaxis(t, -1, 0))
    return sum(np.moveaxis(per_outcome, -1, 0)) / metric_normalization(n)


def basis_scores(terms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """GHZ-game scores of rank-1 measurements held as their basis rows
    ``(..., 2**n, 2**n)``, against the stacked :func:`witness_terms` ``(...,
    n, 2**n, 2**n)`` of the messages: each the :func:`success_metric` of its
    strategy, bit for bit."""
    t = basis_pairings(rows, np.swapaxes(terms, -1, -2))
    return _signed_score(terms.shape[-3], t)


def success_metric(strategy: Strategy) -> float:
    """Normalized GHZ-game score; the quantum maximum is 1. The POVM's
    :meth:`~states.Povm.pairings` read a basis from its rows."""
    strategy.require("ghz")
    terms = np.stack(witness_terms(a_operators(strategy)), axis=-3)
    t = strategy.povm.pairings(np.swapaxes(terms, -1, -2))
    return float(_signed_score(strategy.n, t))


@dataclass(frozen=True)
class ProbabilityTable:
    """Conditional outcome probabilities in the contexts the score uses.

    ``base[x1, a, s]`` is ``p(s | a-bits; x_1 = x1, all other x = 0)`` over
    the full input word ``a`` (bit j-1 of ``a`` is sender j's bit).
    ``pair[j-2, x1, a1, aj, s]`` is the two-sender context ``x_1 = x1,
    x_j = 1`` with every other sender replaced by the maximally mixed qubit;
    the score reconstructs the identity on those slots via a ``2**(n-2)``
    weight.
    """

    n: int
    base: np.ndarray
    pair: np.ndarray

    def __post_init__(self):
        if self.n < 2:  # the score's normalization vanishes at n = 1
            raise InvalidInput(f"need at least two senders, got n={self.n}")

    def validate(self) -> None:
        if np.abs(self.base.sum(axis=-1) - 1).max() > TABLE_ATOL:
            raise InvalidInput("base context probabilities do not normalize")
        if self.pair.size and np.abs(self.pair.sum(axis=-1) - 1).max() > TABLE_ATOL:
            raise InvalidInput("pair context probabilities do not normalize")
        if self.base.min() < -TABLE_ATOL or (self.pair.size and self.pair.min() < -TABLE_ATOL):
            raise InvalidInput("negative probability entry")


def _contract(t: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``t`` contracted on its leading qubit with a stack of states
    ``(k, 2, 2)``, the states landing on a new axis before the matrix axes."""
    return contract_slot(t[..., None, :, :], np.swapaxes(states, -1, -2))


def probability_table(strategy: Strategy) -> ProbabilityTable:
    """Evaluate ``p(s | inputs) = Tr((x)_j rho_j  M_s)`` over the score's contexts.

    The product states are never formed: each chunk of POVM elements
    (``linalg.chunks``) is contracted with one qubit's states at a time,
    first qubit first. Slot 1, taking sender 1's four states, is contracted
    once per chunk for all n contexts; pair context j starts from the prefix
    of slot 1 and the mixed qubit on slots 2..j-1, which grows by one mixed
    slot per context.
    """
    strategy.require("ghz")
    n = strategy.n
    els = strategy.povm.elements
    d = 2**n
    rho = [st.rho for st in strategy.senders]
    first = rho[0].swapaxes(0, 1).reshape(4, 2, 2)  # indexed by (x1, a1)
    mixed = I2[None] / 2
    p = np.empty((d, 2 * d))
    pairs = np.empty((n - 1, d, 8))
    for part in chunks(d, d * d):
        prefix = _contract(els[part], first)
        t = prefix
        for r in rho[1:]:  # the base context: every other sender's x = 0
            t = _contract(t, r[:, 0])
        p[part] = t.real.reshape(len(t), -1)
        for j in range(2, n + 1):  # pair context j: x_j = 1, the others mixed
            t = _contract(prefix, rho[j - 1][:, 1])
            for _ in range(j, n):
                t = _contract(t, mixed)
            pairs[j - 2, part] = t.real.reshape(len(t), -1)
            if j < n:
                prefix = _contract(prefix, mixed)
    # axes (s, x1, a1, ..., an) -> (x1, an, ..., a1, s): a1 is bit 0 of a
    p = p.reshape((d, 2) + (2,) * n).transpose([1, *range(n + 1, 1, -1), 0])
    base = p.reshape(2, d, d)
    pair = np.moveaxis(pairs.reshape(n - 1, d, 2, 2, 2), 1, -1)
    return ProbabilityTable(n=n, base=base, pair=pair)


def success_from_table(table: ProbabilityTable) -> float:
    """GHZ-game score recomputed purely from conditional probabilities."""
    n = table.n
    # (-1)^{a_1 + ... + a_n} for every input word a
    parity = np.sign(witness_signs(n)).prod(axis=1)
    pair_parity = np.array([[1, -1], [-1, 1]])  # (-1)^{a1 + aj}
    t = np.empty((n, 2**n))
    t[0] = parity @ (table.base[0] + table.base[1])
    t[1:] = 2 ** (n - 2) * np.einsum(
        "kabm,ab->km", table.pair[:, 0] - table.pair[:, 1], pair_parity
    )
    return float(_signed_score(n, t.T))


# ---------------------------------------------------------------------------
# two-sender, three-input game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleStrategy:
    """States and binary measurement for the three-input game.

    ``states[k, y]`` is sender k+1's qubit state for input y+1; ``m0`` is the
    effect of outcome 0 (outcome 1 gets ``I - m0``).
    """

    task: ClassVar[str] = "counterexample"
    states: np.ndarray
    m0: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.states, dtype=complex)
        m0 = np.asarray(self.m0, dtype=complex)
        if st.shape != (2, 3, 2, 2):
            raise InvalidInput(f"states must have shape (2,3,2,2), got {st.shape}")
        if m0.shape != (4, 4):
            raise InvalidInput(f"m0 must be 4x4, got {m0.shape}")
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "m0", m0)

    @property
    def povm(self) -> Povm:
        """The binary measurement ``[m0, I - m0]``."""
        return Povm(np.stack([self.m0, np.eye(4) - self.m0]))


def counterexample_p0(states: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """``p(0 | y1, y2) = Re Tr((s_1[y1] (x) s_2[y2]) m0)`` indexed ``[..., y1-1,
    y2-1]``, for stacked states ``(..., 2, 3, 2, 2)`` and effects ``(..., 4, 4)``."""
    m = m0.reshape(m0.shape[:-2] + (2, 2, 2, 2))
    p0 = np.einsum("...yac,...zbd,...cdab->...yz",
                   states[..., 0, :, :, :], states[..., 1, :, :, :], m)
    # contiguous, so that the score's sum runs the same way as on a table
    return np.ascontiguousarray(p0.real)


def _counterexample_score(p0: np.ndarray) -> np.ndarray:
    return np.einsum("yz,...yz->...", COUNTEREXAMPLE_MATRIX, p0)


def counterexample_scores(states: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """Three-input game scores of stacked states and effects."""
    return _counterexample_score(counterexample_p0(states, m0))


def counterexample_table(strategy: CounterexampleStrategy) -> np.ndarray:
    """Full table ``p[s, y1-1, y2-1]`` of the three-input game."""
    p0 = counterexample_p0(strategy.states, strategy.m0)
    return np.stack([p0, 1 - p0])


def counterexample_metric(table: np.ndarray) -> float:
    """The fixed linear combination of ``p(0 | y1, y2)`` scoring the game."""
    table = np.asarray(table, dtype=float)
    if table.shape != (2, 3, 3):
        raise InvalidInput(f"table must have shape (2,3,3), got {table.shape}")
    return float(_counterexample_score(table[0]))


def counterexample_value(strategy: CounterexampleStrategy) -> float:
    return float(counterexample_scores(strategy.states, strategy.m0))


def counterexample_costs(states: np.ndarray) -> np.ndarray:
    """Operators C with score ``Tr(m0 C)`` for stacked states ``(..., 2, 3, 2, 2)``."""
    c = np.einsum("yz,...yac,...zbd->...abcd", COUNTEREXAMPLE_MATRIX,
                  states[..., 0, :, :, :], states[..., 1, :, :, :])
    c = c.reshape(c.shape[:-4] + (4, 4))
    return (c + dagger(c)) / 2


# ---------------------------------------------------------------------------
# partial Bell game
# ---------------------------------------------------------------------------


def partial_witnesses(ops: np.ndarray) -> tuple:
    """The three receiver-side operators of the three-outcome game; stacked
    ``ops`` ``(..., 2, 2, 2, 2)`` give stacked operators."""
    if ops.shape[-4:] != (2, 2, 2, 2):
        raise InvalidInput("partial witnesses need exactly two senders")
    plus, minus = witness_terms(ops)
    return (plus + minus, minus - plus, -2 * minus)


def comm_traces(ops: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """``Re Tr(M_k V_k)`` of the three POVM elements against their
    :func:`partial_witnesses`, for stacked operators ``(..., 2, 2, 2, 2)``
    and elements ``(..., 3, 4, 4)``: shape ``(..., 3)``."""
    ws = np.stack(partial_witnesses(ops), axis=-3)
    return np.trace(elements @ ws, axis1=-2, axis2=-1).real


def comm_scores(ops: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Three-outcome scores of stacked operators ``(..., 2, 2, 2, 2)`` and
    POVM elements ``(..., 3, 4, 4)``."""
    return sum(np.moveaxis(comm_traces(ops, elements), -1, 0)) / (8 * SQRT2)


def comm_metric(strategy: Strategy) -> float:
    """Three-outcome communication score, quantum maximum 1."""
    strategy.require("partial_bell")
    return float(comm_scores(a_operators(strategy), strategy.povm.elements))


def relabeled_first_sender(sender: SenderStates) -> np.ndarray:
    """Sender-1 states reindexed by ``(a', x') = (a, x xor a)``: shape (2,2,2,2)."""
    return np.stack([sender.rho[0], sender.rho[1, ::-1]])


def rac_metric(sender: SenderStates, mx, mz) -> float:
    """Two-to-one random-access-code score for sender 1's relabeled states.

    For receiver input k=1 (guess a') the observable is ``mx``; for k=2
    (guess x') it is ``mz``; outcome-b effects are ``(I + (-1)^b O)/2``.
    Inputs and k are uniform, so the score is the mean of the eight success
    probabilities. Quantum maximum ``(1 + 1/sqrt 2)/2``.
    """
    mx = np.asarray(mx, dtype=complex)
    mz = np.asarray(mz, dtype=complex)
    for o in (mx, mz):
        # in halves, and an entry past 2 refused before the eigensolve, so
        # finite entries up to the float limit never overflow
        if o.shape != (2, 2) or np.abs(o / 2 - o.conj().T / 2).max() > 0.5e-9:
            raise InvalidInput("observables must be Hermitian 2x2 matrices")
        if np.abs(o).max() > 2 or np.abs(herm_eigvals(o)).max() > 1 + 1e-9:
            raise InvalidInput("observable eigenvalues must lie in [-1, 1]")
    rel = relabeled_first_sender(sender)
    total = 0.0
    for ap in range(2):
        for xp in range(2):
            rho = rel[ap, xp]
            e_a = (I2 + (-1) ** ap * mx) / 2
            e_x = (I2 + (-1) ** xp * mz) / 2
            total += float(np.trace(rho @ e_a).real) + float(np.trace(rho @ e_x).real)
    return total / 8


def best_rac_observables(sender: SenderStates) -> tuple:
    """Observables maximizing :func:`rac_metric` for the given states."""
    rel = relabeled_first_sender(sender)
    v1 = np.zeros(3)
    v2 = np.zeros(3)
    for ap in range(2):
        for xp in range(2):
            b = bloch_vector(rel[ap, xp])
            v1 += (-1) ** ap * b
            v2 += (-1) ** xp * b

    def unit_obs(v):
        nv = np.linalg.norm(v)
        if nv < 1e-15:
            return np.array([[1, 0], [0, -1]], dtype=complex)
        return sum((c / nv) * p for c, p in zip(v, PAULIS))

    return unit_obs(v1), unit_obs(v2)


def bloch_from_relabeled(sender: SenderStates) -> np.ndarray:
    """Bloch vectors of the relabeled first-sender states, shape (2, 2, 3)."""
    rel = relabeled_first_sender(sender)
    return np.array(
        [[bloch_vector(rel[a, x]) for x in range(2)] for a in range(2)]
    )


def rac_bound(bloch_vectors) -> float:
    """Upper bound on the RAC score from the four relabeled Bloch vectors.

    ``bloch_vectors[a', x']`` is the Bloch vector of the relabeled state.
    """
    m = np.asarray(bloch_vectors, dtype=float)
    if m.shape != (2, 2, 3):
        raise InvalidInput(f"expected four Bloch vectors, shape (2,2,3), got {m.shape}")
    norms = np.linalg.norm(m, axis=-1)
    if not (norms <= 1 + 1e-12).all():  # a NaN norm is refused too
        raise InvalidBloch(f"Bloch vector norms {norms} are not all at most 1")
    gamma = 0.5 * float((m**2).sum()) - float(m[0, 0] @ m[1, 1]) - float(m[0, 1] @ m[1, 0])
    beta = float((m[0, 0] - m[1, 1]) @ (m[0, 1] - m[1, 0]))
    gp = max(gamma + beta, 0.0)
    gm = max(gamma - beta, 0.0)
    return 0.5 + (np.sqrt(gp) + np.sqrt(gm)) / (8 * SQRT2)
