"""Witness operators and success metrics for the communication games.

Three games live here:

* the n-sender GHZ game, whose normalized score ``success_metric`` reaches 1
  exactly on strategies that self-test the GHZ basis measurement;
* a two-sender, three-input game (``counterexample_metric``) whose optimum is
  reachable by both entangling and separable measurements, so optimality
  alone certifies nothing;
* the partial-Bell game (``comm_metric`` for the three-outcome part,
  ``rac_metric`` / ``rac_bound`` for the random-access-code part).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidBloch, InvalidInput
from .linalg import I2, PAULIS, SQRT2, chunks, dagger, herm_eigvals, tensor
from .states import SenderStates, Strategy, bloch_vector, outcome_index

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


def witness_factors(ops: np.ndarray) -> list:
    """Per-term factor lists of the n sign-free tensor terms of the witnesses.

    Term 0 is ``(a[0,0]+a[0,1]) (x) a[1,0] (x) ... (x) a[n-1,0]``; term j-1
    (j >= 2) puts ``a[j-1,1]`` in slot j, ``a[0,0]-a[0,1]`` in slot 1 and the
    identity elsewhere. Stacked ``ops`` ``(..., n, 2, 2, 2)`` give stacked factors.
    """
    n = ops.shape[-4]
    a = np.moveaxis(ops, (-4, -3), (0, 1))  # a[j, x] has shape (..., 2, 2)
    factors = [[a[0, 0] + a[0, 1]] + [a[j, 0] for j in range(1, n)]]
    for j in range(2, n + 1):
        term = [a[0, 0] - a[0, 1]] + [I2] * (n - 1)
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
    j-1, where ``s_j = (m >> (j-1)) & 1``.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    signs = 1 - 2 * bits
    signs[:, 0] *= n - 1
    signs.flags.writeable = False
    return signs


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
    return signed_sum(witness_signs(n)[outcome_index(s, n)].tolist(), witness_terms(ops))


def witness_chunks(ops: np.ndarray):
    """Yield ``(outcomes, witnesses)``: a slice of outcomes holding at most
    ``CHUNK_ELEMENTS`` entries per leading index, and their witnesses
    ``(..., len, 2**n, 2**n)``, so no caller needs all ``2**n`` at once."""
    n = ops.shape[-4]
    d = 2**n
    terms = [t[..., None, :, :] for t in witness_terms(ops)]
    for part in chunks(d, d * d):
        yield part, signed_sum(witness_signs(n)[part].T[..., None, None], terms)


def witness_operators(ops: np.ndarray) -> np.ndarray:
    """All ``2**n`` witnesses stacked, indexed by outcome; stacked ``ops``
    ``(..., n, 2, 2, 2)`` give ``(..., 2**n, 2**n, 2**n)``."""
    d = 2 ** ops.shape[-4]
    out = np.empty(ops.shape[:-4] + (d, d, d), dtype=complex)
    for part, ws in witness_chunks(ops):
        out[..., part, :, :] = ws
    return out


def metric_normalization(n: int) -> float:
    return 2**n * (n - 1) * 2 * SQRT2


def _signed_score(n: int, t: np.ndarray):
    """Normalized score from ``t[k, ..., m]``, term k's contribution to
    outcome m: per-outcome signed sums, then summed over outcomes in order."""
    per_outcome = signed_sum(witness_signs(n).T, t)
    return sum(np.moveaxis(per_outcome, -1, 0)) / metric_normalization(n)


def success_scores(ops: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """GHZ-game scores of stacked operators ``(..., n, 2, 2, 2)`` and POVM
    elements ``(..., 2**n, 2**n, 2**n)``."""
    # t[k, ..., m] = Tr(M_m terms[k])
    t = np.einsum("...kij,...mji->k...m", np.stack(witness_terms(ops), axis=-3), elements)
    return _signed_score(ops.shape[-4], t.real)


def success_metric(strategy: Strategy) -> float:
    """Normalized GHZ-game score; the quantum maximum is 1."""
    if strategy.task != "ghz" or len(strategy.povm) != 2**strategy.n:
        raise InvalidInput("success_metric needs a GHZ-task strategy with 2**n POVM elements")
    return float(success_scores(a_operators(strategy), strategy.povm.elements))


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

    def validate(self) -> None:
        if np.abs(self.base.sum(axis=-1) - 1).max() > TABLE_ATOL:
            raise InvalidInput("base context probabilities do not normalize")
        if self.pair.size and np.abs(self.pair.sum(axis=-1) - 1).max() > TABLE_ATOL:
            raise InvalidInput("pair context probabilities do not normalize")
        if self.base.min() < -TABLE_ATOL or (self.pair.size and self.pair.min() < -TABLE_ATOL):
            raise InvalidInput("negative probability entry")


def product_traces(elements: np.ndarray, stacks) -> np.ndarray:
    """``p[m, k_1, ..., k_n] = Re Tr(M_m (x)_j S_j[k_j])`` for operators
    ``(count, 2**n, 2**n)`` and per-qubit state stacks ``S_j`` ``(k_j, 2, 2)``.

    The product states are never formed: the operators are contracted with
    one qubit's stack at a time, last qubit first, so one-state stacks shrink
    them early. Operators are taken in the chunks of ``linalg.chunks``.
    """
    count, d = elements.shape[:2]
    sizes = [len(st) for st in stacks]
    out = np.empty((count, int(np.prod(sizes))))
    for part in chunks(count, d * d):
        t = elements[part][..., None]  # (chunk, rows, cols, states so far)
        for st in reversed(stacks):
            c, r, _, k = t.shape
            t = t.reshape(c, r // 2, 2, r // 2, 2, k)
            # sum_{u,v} t[., a, u, b, v, .] st[l, v, u]: the qubit's trace
            t = np.einsum("caubvk,lvu->cablk", t, st).reshape(c, r // 2, r // 2, -1)
        out[part] = t.real.reshape(c, -1)
    return out.reshape(count, *sizes)


def probability_table(strategy: Strategy) -> ProbabilityTable:
    """Evaluate ``p(s | inputs) = Tr((x)_j rho_j  M_s)`` over the score's contexts."""
    n = strategy.n
    if strategy.task != "ghz":
        raise InvalidInput("probability_table needs a GHZ-task strategy")
    els = strategy.povm.elements
    d = 2**n
    rho = [st.rho for st in strategy.senders]
    first = rho[0].swapaxes(0, 1).reshape(4, 2, 2)  # indexed by (x1, a1)
    p = product_traces(els, [first] + [r[:, 0] for r in rho[1:]])
    # axes (s, x1, a1, ..., an) -> (x1, an, ..., a1, s): a1 is bit 0 of a
    p = p.reshape((d, 2) + (2,) * n).transpose([1, *range(n + 1, 1, -1), 0])
    base = p.reshape(2, d, d)
    pair = np.empty((n - 1, 2, 2, 2, d))
    for j in range(2, n + 1):
        stacks = [first] + [I2[None] / 2] * (n - 1)
        stacks[j - 1] = rho[j - 1][:, 1]
        pair[j - 2] = np.moveaxis(product_traces(els, stacks).reshape(d, 2, 2, 2), 0, -1)
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
    return float(_signed_score(n, t))


# ---------------------------------------------------------------------------
# two-sender, three-input game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleStrategy:
    """States and binary measurement for the three-input game.

    ``states[k, y]`` is sender k+1's qubit state for input y+1; ``m0`` is the
    effect of outcome 0 (outcome 1 gets ``I - m0``).
    """

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

    def validate(self, atol: float = 1e-9) -> None:
        for k in range(2):
            for y in range(3):
                m = self.states[k, y]
                if abs(np.trace(m).real - 1) > atol or np.linalg.eigvalsh(m).min() < -atol:
                    raise InvalidInput(f"state ({k},{y}) is not a density matrix")
        ev = np.linalg.eigvalsh((self.m0 + self.m0.conj().T) / 2)
        if ev.min() < -atol or ev.max() > 1 + atol:
            raise InvalidInput("m0 is not an effect (0 <= m0 <= I)")


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


def counterexample_cost_operator(strategy: CounterexampleStrategy) -> np.ndarray:
    """Operator C with score = Tr(m0 C); used by the measurement half-step."""
    return counterexample_costs(strategy.states)


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


def comm_scores(ops: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Three-outcome scores of stacked operators ``(..., 2, 2, 2, 2)`` and
    POVM elements ``(..., 3, 4, 4)``."""
    ws = np.stack(partial_witnesses(ops), axis=-3)
    traces = np.trace(elements @ ws, axis1=-2, axis2=-1).real
    return sum(np.moveaxis(traces, -1, 0)) / (8 * SQRT2)


def comm_metric(strategy: Strategy) -> float:
    """Three-outcome communication score, quantum maximum 1."""
    if strategy.task != "partial_bell":
        raise InvalidInput("comm_metric needs a partial Bell strategy")
    if len(strategy.povm) != 3:
        raise InvalidInput("comm_metric needs a 3-element POVM")
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
        if o.shape != (2, 2) or np.abs(o - o.conj().T).max() > 1e-9:
            raise InvalidInput("observables must be Hermitian 2x2 matrices")
        if np.abs(herm_eigvals(o)).max() > 1 + 1e-9:
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
    if (np.linalg.norm(m, axis=-1) > 1 + 1e-12).any():
        raise InvalidBloch(f"Bloch vector norms {np.linalg.norm(m, axis=-1)} exceed 1")
    gamma = 0.5 * float((m**2).sum()) - float(m[0, 0] @ m[1, 1]) - float(m[0, 1] @ m[1, 0])
    beta = float((m[0, 0] - m[1, 1]) @ (m[0, 1] - m[1, 0]))
    gp = max(gamma + beta, 0.0)
    gm = max(gamma - beta, 0.0)
    return 0.5 + (np.sqrt(gp) + np.sqrt(gm)) / (8 * SQRT2)
