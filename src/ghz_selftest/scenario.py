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
from .linalg import I2, PAULIS, SQRT2, herm_eigvals, tensor
from .states import SenderStates, Strategy, bloch_vector, outcome_bits, outcome_index

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


def a_operators(strategy: Strategy) -> np.ndarray:
    """Difference operators ``a[j-1, x] = rho[0|x] - rho[1|x]`` per sender."""
    n = strategy.n
    ops = np.zeros((n, 2, 2, 2), dtype=complex)
    for j, st in enumerate(strategy.senders):
        ops[j] = st.rho[0] - st.rho[1]
    return ops


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


def witness_operators(ops: np.ndarray) -> np.ndarray:
    """All ``2**n`` witnesses stacked, indexed by outcome."""
    n = ops.shape[0]
    terms = witness_terms(ops)
    out = np.empty((2**n, 2**n, 2**n), dtype=complex)
    for m, row in enumerate(witness_signs(n).tolist()):
        out[m] = signed_sum(row, terms)
    return out


def metric_normalization(n: int) -> float:
    return 2**n * (n - 1) * 2 * SQRT2


def success_metric(strategy: Strategy) -> float:
    """Normalized GHZ-game score; the quantum maximum is 1."""
    n = strategy.n
    if strategy.task != "ghz" or len(strategy.povm) != 2**n:
        raise InvalidInput("success_metric needs a GHZ-task strategy with 2**n POVM elements")
    ops = a_operators(strategy)
    terms = witness_terms(ops)
    # t[k, m] = Tr(M_m terms[k])
    t = np.einsum("kij,mji->km", np.stack(terms), strategy.povm.elements).real
    total = 0.0
    for m, row in enumerate(witness_signs(n).tolist()):
        total += signed_sum(row, t[:, m])
    return total / metric_normalization(n)


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

    def validate(self, atol: float = 1e-9) -> None:
        if np.abs(self.base.sum(axis=-1) - 1).max() > atol:
            raise InvalidInput("base context probabilities do not normalize")
        if self.pair.size and np.abs(self.pair.sum(axis=-1) - 1).max() > atol:
            raise InvalidInput("pair context probabilities do not normalize")
        if self.base.min() < -atol or (self.pair.size and self.pair.min() < -atol):
            raise InvalidInput("negative probability entry")


def probability_table(strategy: Strategy) -> ProbabilityTable:
    """Evaluate ``p(s | inputs) = Tr((x)_j rho_j  M_s)`` over the score's contexts."""
    n = strategy.n
    if strategy.task != "ghz":
        raise InvalidInput("probability_table needs a GHZ-task strategy")
    els = strategy.povm.elements
    d = 2**n
    base = np.zeros((2, d, d))
    for x1 in range(2):
        for a in range(d):
            abits = outcome_bits(a, n)
            factors = [strategy.senders[0].rho[abits[0], x1]]
            factors += [strategy.senders[j].rho[abits[j], 0] for j in range(1, n)]
            joint = tensor(factors)
            base[x1, a] = np.einsum("mji,ij->m", els, joint).real
    pair = np.zeros((n - 1, 2, 2, 2, d))
    for j in range(2, n + 1):
        for x1 in range(2):
            for a1 in range(2):
                for aj in range(2):
                    factors = [strategy.senders[0].rho[a1, x1]] + [I2 / 2] * (n - 1)
                    factors[j - 1] = strategy.senders[j - 1].rho[aj, 1]
                    joint = tensor(factors)
                    pair[j - 2, x1, a1, aj] = np.einsum("mji,ij->m", els, joint).real
    return ProbabilityTable(n=n, base=base, pair=pair)


def success_from_table(table: ProbabilityTable) -> float:
    """GHZ-game score recomputed purely from conditional probabilities."""
    n = table.n
    d = 2**n
    total = 0.0
    for m, signs in enumerate(witness_signs(n).tolist()):
        w = 0.0
        for a in range(d):
            abits = outcome_bits(a, n)
            parity = (-1) ** (sum(abits) % 2)
            w += signs[0] * parity * (table.base[0, a, m] + table.base[1, a, m])
        for j in range(2, n + 1):
            for a1 in range(2):
                for aj in range(2):
                    parity = (-1) ** ((a1 + aj) % 2)
                    w += (
                        signs[j - 1]
                        * 2 ** (n - 2)
                        * parity
                        * (table.pair[j - 2, 0, a1, aj, m] - table.pair[j - 2, 1, a1, aj, m])
                    )
        total += w
    return total / metric_normalization(n)


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


def counterexample_table(strategy: CounterexampleStrategy) -> np.ndarray:
    """Full table ``p[s, y1-1, y2-1]`` of the three-input game."""
    p = np.zeros((2, 3, 3))
    for y1 in range(3):
        for y2 in range(3):
            joint = np.kron(strategy.states[0, y1], strategy.states[1, y2])
            p0 = float(np.trace(joint @ strategy.m0).real)
            p[0, y1, y2] = p0
            p[1, y1, y2] = 1 - p0
    return p


def counterexample_metric(table: np.ndarray) -> float:
    """The fixed linear combination of ``p(0 | y1, y2)`` scoring the game."""
    table = np.asarray(table, dtype=float)
    if table.shape != (2, 3, 3):
        raise InvalidInput(f"table must have shape (2,3,3), got {table.shape}")
    return float(
        sum(c * table[0, y1 - 1, y2 - 1] for (y1, y2), c in COUNTEREXAMPLE_COEFFS.items())
    )


def counterexample_value(strategy: CounterexampleStrategy) -> float:
    return counterexample_metric(counterexample_table(strategy))


def counterexample_cost_operator(strategy: CounterexampleStrategy) -> np.ndarray:
    """Operator C with score = Tr(m0 C); used by the measurement half-step."""
    c = np.zeros((4, 4), dtype=complex)
    for (y1, y2), coeff in COUNTEREXAMPLE_COEFFS.items():
        c += coeff * np.kron(strategy.states[0, y1 - 1], strategy.states[1, y2 - 1])
    return (c + c.conj().T) / 2


# ---------------------------------------------------------------------------
# partial Bell game
# ---------------------------------------------------------------------------


def partial_witnesses(ops: np.ndarray) -> tuple:
    """The three receiver-side operators of the three-outcome game."""
    if ops.shape != (2, 2, 2, 2):
        raise InvalidInput("partial witnesses need exactly two senders")
    plus, minus = witness_terms(ops)
    return (plus + minus, minus - plus, -2 * minus)


def comm_metric(strategy: Strategy) -> float:
    """Three-outcome communication score, quantum maximum 1."""
    if strategy.task != "partial_bell":
        raise InvalidInput("comm_metric needs a partial Bell strategy")
    if len(strategy.povm) != 3:
        raise InvalidInput("comm_metric needs a 3-element POVM")
    ops = a_operators(strategy)
    ws = partial_witnesses(ops)
    total = sum(
        float(np.trace(strategy.povm.elements[i] @ ws[i]).real) for i in range(3)
    )
    return total / (8 * SQRT2)


def relabeled_first_sender(sender: SenderStates) -> np.ndarray:
    """Sender-1 states reindexed by ``(a', x') = (a, x xor a)``: shape (2,2,2,2)."""
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for xp in range(2):
            out[a, xp] = sender.rho[a, xp ^ a]
    return out


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
