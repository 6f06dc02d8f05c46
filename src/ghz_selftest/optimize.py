"""Alternating (see-saw) search over sender states and receiver measurements.

Both half-steps are exact linear-objective maximizations where possible: a
sender's states enter every score linearly through its difference operators,
so the state half-step takes top/bottom eigenvectors of 2x2 effective
operators; the measurement half-step assigns each outcome the top eigenspace
of its witness, orthonormalized when the top vectors collide. A candidate
measurement is only accepted when it does not lower the score, so the score
history is nondecreasing within a restart.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .linalg import I2, fix_phase, herm_eig, projector, tensor
from .parallel import ordered_map
from .rng import make_rng
from .scenario import (
    COUNTEREXAMPLE_COEFFS,
    CounterexampleStrategy,
    a_operators,
    comm_metric,
    counterexample_cost_operator,
    counterexample_value,
    best_rac_observables,
    partial_witnesses,
    success_metric,
    witness_factors,
    witness_operators,
    witness_signs,
)
from .states import Povm, SenderStates, Strategy

METRICS = ("ghz", "counterexample", "partial_bell")


@dataclass(frozen=True)
class SeesawConfig:
    """Search settings; defaults reproduce the reference optima in seconds."""

    n: int = 2
    metric: str = "ghz"
    restarts: int = 50
    max_iters: int = 500
    conv_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidInput(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.restarts < 1 or self.max_iters < 1 or self.conv_tol <= 0:
            raise InvalidInput("restarts and max_iters must be >= 1, conv_tol > 0")
        if self.metric in ("counterexample", "partial_bell") and self.n != 2:
            raise InvalidInput(f"metric {self.metric!r} is a two-sender game")
        if self.n < 2:
            raise InvalidInput("need at least two senders")


@dataclass
class SeesawResult:
    best_value: float
    best_strategy: object
    iters_used: int
    history: list = field(default_factory=list)


def _polar_orthonormal(columns: np.ndarray) -> np.ndarray:
    """Closest orthonormal frame to the stacked columns (symmetric polar factor)."""
    u, _, vh = np.linalg.svd(columns)
    return u @ vh


def optimal_povm_for_states(n: int, ops: np.ndarray) -> Povm:
    """Best receiver measurement for fixed message operators (GHZ game).

    Stacks each witness's top eigenvector; when the stack is orthonormal
    (the generic converged case) the rank-1 projectors are the exact argmax,
    otherwise the symmetric orthonormalization of the stack gives a feasible
    measurement. All-zero operators yield the uniform split ``I / 2**n``.
    """
    if ops.shape != (n, 2, 2, 2):
        raise InvalidInput(f"operators have shape {ops.shape}, expected ({n},2,2,2)")
    d = 2**n
    ws = witness_operators(ops)
    if np.abs(ws).max() <= 1e-12:
        return Povm(np.stack([np.eye(d, dtype=complex) / d] * d))
    cols = np.empty((d, d), dtype=complex)
    for m in range(d):
        es = herm_eig(ws[m])
        cols[:, m] = fix_phase(es.vectors[:, -1].copy())
    q = _polar_orthonormal(cols)
    return Povm(np.stack([np.outer(q[:, m], q[:, m].conj()) for m in range(d)]))


def _ghz_f_operators(povm: Povm, n: int) -> list:
    """Signed element sums ``f_j = sum_s (-1)^{s_j} M_s``."""
    return [
        sum(c * el for c, el in zip(col, povm.elements))
        for col in np.sign(witness_signs(n)).T.tolist()
    ]


def _effective_qubit_operator(f: np.ndarray, spectators: list, slot: int) -> np.ndarray:
    """2x2 operator G with Tr(A G) = Tr(f * tensor(spectators with A at slot)),
    the entry at slot ignored: the partial trace of f times the spectators
    with I at slot, over every other slot."""
    factors = list(spectators)
    factors[slot] = I2
    lo = 2**slot
    fs = (f @ tensor(factors)).reshape(2 * [lo, 2, f.shape[0] // (2 * lo)])
    g = np.einsum("aibajb->ij", fs)
    return (g + g.conj().T) / 2


def _antipodal_pair_from(g: np.ndarray) -> tuple:
    es = herm_eig(g)
    return projector(es.vectors[:, -1]), projector(es.vectors[:, 0])


def _ghz_states_sweep(strategy: Strategy) -> Strategy:
    """One cyclic pass of exact single-sender maximizations (GHZ game)."""
    n = strategy.n
    fs = _ghz_f_operators(strategy.povm, n)
    senders = list(strategy.senders)
    ops = a_operators(strategy)
    for j0 in range(1, n + 1):
        # the spectators of each witness term; the entry at the updated slot is ignored
        spect = witness_factors(ops)
        if j0 == 1:
            g0 = g1 = (n - 1) * _effective_qubit_operator(fs[0], spect[0], 0)
            for j in range(2, n + 1):
                gj = _effective_qubit_operator(fs[j - 1], spect[j - 1], 0)
                g0, g1 = g0 + gj, g1 - gj
        else:
            g0 = (n - 1) * _effective_qubit_operator(fs[0], spect[0], j0 - 1)
            g1 = _effective_qubit_operator(fs[j0 - 1], spect[j0 - 1], j0 - 1)
        rho = np.zeros((2, 2, 2, 2), dtype=complex)
        for x, g in ((0, g0), (1, g1)):
            rho[0, x], rho[1, x] = _antipodal_pair_from(g)
        senders[j0 - 1] = SenderStates(rho)
        ops[j0 - 1] = rho[0] - rho[1]
    return Strategy(n=n, senders=tuple(senders), povm=strategy.povm)


# ---------------------------------------------------------------------------
# three-input game half-steps
# ---------------------------------------------------------------------------


def _counterexample_meas_step(strategy: CounterexampleStrategy) -> CounterexampleStrategy:
    cost = counterexample_cost_operator(strategy)
    es = herm_eig(cost)
    pos = es.vectors[:, es.values > 0]
    m0 = pos @ pos.conj().T if pos.size else np.zeros((4, 4), dtype=complex)
    return CounterexampleStrategy(states=strategy.states, m0=m0)


def _counterexample_states_sweep(strategy: CounterexampleStrategy) -> CounterexampleStrategy:
    states = strategy.states.copy()
    for sender in range(2):
        for y in range(1, 4):
            g = np.zeros((2, 2), dtype=complex)
            for (y1, y2), c in COUNTEREXAMPLE_COEFFS.items():
                if (y1, y2)[sender] == y:
                    spect = [states[0, y1 - 1], states[1, y2 - 1]]
                    g += c * _effective_qubit_operator(strategy.m0, spect, sender)
            es = herm_eig(g)
            states[sender, y - 1] = projector(es.vectors[:, -1])
    return CounterexampleStrategy(states=states, m0=strategy.m0)


# ---------------------------------------------------------------------------
# partial Bell half-steps
# ---------------------------------------------------------------------------


def _partial_bell_povm_step(strategy: Strategy) -> Povm:
    ws = partial_witnesses(a_operators(strategy))
    cols = np.empty((4, 4), dtype=complex)
    for i in (0, 1):
        es = herm_eig(ws[i])
        cols[:, i] = fix_phase(es.vectors[:, -1].copy())
    es3 = herm_eig(ws[2])
    cols[:, 2] = fix_phase(es3.vectors[:, -1].copy())
    cols[:, 3] = fix_phase(es3.vectors[:, -2].copy())
    q = _polar_orthonormal(cols)
    m1 = np.outer(q[:, 0], q[:, 0].conj())
    m2 = np.outer(q[:, 1], q[:, 1].conj())
    m3 = np.outer(q[:, 2], q[:, 2].conj()) + np.outer(q[:, 3], q[:, 3].conj())
    return Povm(np.stack([m1, m2, m3]))


def _partial_bell_states_sweep(strategy: Strategy) -> Strategy:
    """Exact state update for the three-outcome game, second sender only.

    The three-outcome score certifies the partial Bell basis only on top of
    an optimal random-access-code score, which pins the first sender's
    states; left free they push the score beyond 1 (the third witness's norm
    grows to 4). Sender 1 therefore stays fixed here.
    """
    m = strategy.povm.elements
    f1 = m[0] - m[1]
    f2 = m[0] + m[1] - 2 * m[2]
    senders = list(strategy.senders)
    spect = witness_factors(a_operators(strategy))
    g0 = _effective_qubit_operator(f1, spect[0], 1)
    g1 = _effective_qubit_operator(f2, spect[1], 1)
    rho = np.zeros((2, 2, 2, 2), dtype=complex)
    for x, g in ((0, g0), (1, g1)):
        rho[0, x], rho[1, x] = _antipodal_pair_from(g)
    senders[1] = SenderStates(rho)
    return Strategy(
        n=2,
        senders=tuple(senders),
        povm=strategy.povm,
        task="partial_bell",
        observables=strategy.observables,
    )


def optimal_states_for_povm(strategy, metric: str | None = None):
    """One cyclic pass of exact per-sender state maximization.

    The returned strategy's score never falls below the input's. ``metric``
    defaults to the strategy's own game.
    """
    if isinstance(strategy, CounterexampleStrategy):
        if metric not in (None, "counterexample"):
            raise InvalidInput("three-input strategies only support the counterexample metric")
        return _counterexample_states_sweep(strategy)
    if metric is None:
        metric = "ghz" if strategy.task == "ghz" else "partial_bell"
    if metric == "ghz":
        return _ghz_states_sweep(strategy)
    if metric == "partial_bell":
        return _partial_bell_states_sweep(strategy)
    raise InvalidInput(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# full see-saw
# ---------------------------------------------------------------------------


def _random_counterexample(rng) -> CounterexampleStrategy:
    states = np.zeros((2, 3, 2, 2), dtype=complex)
    for k in range(2):
        for y in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            states[k, y] = projector(v)
    # measurement half-step immediately replaces this placeholder
    return CounterexampleStrategy(states=states, m0=np.zeros((4, 4), dtype=complex))


def _random_partial_bell(rng) -> Strategy:
    from .states import aligned_sender_states

    # sender 1 pinned at the RAC optimum; sender 2 random
    rho = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for x in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho[a, x] = projector(v)
    senders = (aligned_sender_states(1, 2), SenderStates(rho))
    povm = Povm(np.stack([np.eye(4, dtype=complex) / 2, np.eye(4) / 4, np.eye(4) / 4]))
    return Strategy(n=2, senders=senders, povm=povm, task="partial_bell",
                    observables=np.stack([np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, -1]])]).astype(complex))


def _restart(config: SeesawConfig, index: int):
    rng = make_rng(config.seed, stream=index)
    metric = config.metric
    if metric == "ghz":
        from .states import random_strategy

        # independent per-restart draw under the master seed
        strategy = random_strategy(config.n, int(rng.integers(0, 2**63 - 1)))
        value_of = success_metric

        def povm_step(s):
            return optimal_povm_for_states(config.n, a_operators(s))

        def with_povm(s, p):
            return Strategy(n=s.n, senders=s.senders, povm=p)

    elif metric == "counterexample":
        strategy = _random_counterexample(rng)
        value_of = counterexample_value

        def povm_step(s):
            return _counterexample_meas_step(s).m0

        def with_povm(s, p):
            return CounterexampleStrategy(states=s.states, m0=p)

    else:
        strategy = _random_partial_bell(rng)
        value_of = comm_metric
        povm_step = _partial_bell_povm_step

        def with_povm(s, p):
            return Strategy(n=2, senders=s.senders, povm=p, task="partial_bell",
                            observables=s.observables)

    strategy = with_povm(strategy, povm_step(strategy))
    current = value_of(strategy)
    history = [current]
    iters = 0
    for iters in range(1, config.max_iters + 1):
        candidate = optimal_states_for_povm(strategy)
        after_states = value_of(candidate)
        with_new = with_povm(candidate, povm_step(candidate))
        after_povm = value_of(with_new)
        if after_povm >= after_states:
            candidate, new_value = with_new, after_povm
        else:
            new_value = after_states
        strategy = candidate
        history.append(new_value)
        if abs(new_value - current) < config.conv_tol:
            current = new_value
            break
        current = new_value
    return current, strategy, iters, history


def seesaw(config: SeesawConfig) -> SeesawResult:
    """Run the alternating search from ``config.restarts`` random starts.

    Deterministic for a given seed: restart ``i`` draws from stream ``i`` of
    the master seed, and ties between restarts break by restart order.
    """
    outcomes = ordered_map(lambda i: _restart(config, i), range(config.restarts))
    best_idx = 0
    for i in range(1, config.restarts):
        if outcomes[i][0] > outcomes[best_idx][0]:
            best_idx = i
    value, strategy, iters, _ = outcomes[best_idx]
    if isinstance(strategy, Strategy) and strategy.task == "partial_bell":
        mx, mz = best_rac_observables(strategy.senders[0])
        strategy = Strategy(n=2, senders=strategy.senders, povm=strategy.povm,
                            task="partial_bell", observables=np.stack([mx, mz]))
    return SeesawResult(
        best_value=float(value),
        best_strategy=strategy,
        iters_used=int(iters),
        history=[out[3] for out in outcomes],
    )
