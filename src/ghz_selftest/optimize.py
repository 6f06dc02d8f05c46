"""Alternating (see-saw) search over sender states and receiver measurements.

Both half-steps are exact linear-objective maximizations where possible: a
sender's states enter every score linearly through its difference operators,
so the state half-step takes top/bottom eigenvectors of 2x2 effective
operators; the measurement half-step assigns each outcome the top eigenspace
of its witness, orthonormalized when the top vectors collide. In the GHZ game
the message operators are traceless, so a local Pauli flip on one slot
carries each witness onto another: the ``2**n`` witnesses form one orbit
(odd n) or two (even n), and the measurement step solves one witness per
orbit and flips its top vector onto every outcome. A candidate
measurement is only accepted when it does not lower the score, so the score
history is nondecreasing within a restart.

The GHZ search holds each restart's measurement as its basis rows ``q_m``,
``M_m = q_m q_m^dag``, the orthonormal frame the measurement step produces:
the score and the sweep's signed element sums read the rows, and the best
strategy keeps them (``Povm.from_basis``), so no ``2**n x d x d`` element
stack is built. Each iteration builds the witness terms of the new messages
once, in the game's ``prepare`` hook, for both of its scores and the
measurement step.

The restarts advance in lockstep: every half-step works on arrays with a
leading restart axis, and a restart leaves the active set once it has
converged, keeping its own iteration count and history. The restarts run in
the blocks of ``linalg.chunks``, sized by their largest per-restart stack, one
block after another in the calling thread. The half-step kernels take any
leading axes; the public single-strategy steps are the same kernels called
without one.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidInput
from .linalg import I2, chunks, dagger, fix_phase, herm_eig, outer, projector, tensor
from .parallel import ordered_map
from .rng import make_rng, uint64
from .scenario import (
    COUNTEREXAMPLE_MATRIX,
    CounterexampleStrategy,
    basis_scores,
    best_rac_observables,
    comm_scores,
    counterexample_costs,
    counterexample_scores,
    message_operators,
    partial_witnesses,
    witness_factors,
    witness_operators,
    witness_orbits,
    witness_signs,
    witness_terms,
)
from .selftest import classify_outcome_measurement
from .states import (
    Povm,
    SenderStates,
    Strategy,
    aligned_sender_states,
    random_messages,
    random_projectors,
)


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
        if self.metric not in GAMES:
            raise InvalidInput(f"metric must be one of {tuple(GAMES)}, got {self.metric!r}")
        if self.restarts < 1 or self.max_iters < 1 or not 0 < self.conv_tol < math.inf:
            raise InvalidInput("restarts and max_iters must be >= 1, conv_tol finite and > 0")
        if GAMES[self.metric].senders not in (None, self.n):
            raise InvalidInput(f"metric {self.metric!r} is a two-sender game")
        if self.n < 2:
            raise InvalidInput("need at least two senders")
        for name in ("n", "restarts", "max_iters"):  # integers, by the rule for seeds
            uint64(name, getattr(self, name))


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


def _antipodal_pairs(g: np.ndarray) -> np.ndarray:
    """States ``rho[..., a, x]`` from the 2x2 operators ``g[..., x]``: the
    projector onto the top eigenvector for a=0, onto the bottom one for a=1."""
    vectors = herm_eig(g).vectors
    return np.stack([projector(vectors[..., -1]), projector(vectors[..., 0])], axis=-4)


def _effective_qubit_operator(f: np.ndarray, spectators: list, slot: int) -> np.ndarray:
    """2x2 operator G with Tr(A G) = Tr(f * tensor(spectators with A at slot)),
    the entry at slot ignored: the partial trace of f times the spectators
    with I at slot, over every other slot. Stacked ``f`` ``(..., d, d)`` and
    spectators ``(..., 2, 2)`` give stacked operators."""
    factors = list(spectators)
    factors[slot] = I2
    lo = 2**slot
    fs = f @ tensor(factors)
    fs = fs.reshape(fs.shape[:-2] + 2 * (lo, 2, f.shape[-1] // (2 * lo)))
    g = np.einsum("...aibajb->...ij", fs)
    return (g + dagger(g)) / 2


# ---------------------------------------------------------------------------
# GHZ game half-steps
# ---------------------------------------------------------------------------


def _flip_operators(ops: np.ndarray) -> np.ndarray:
    """Per-sender ``N_j = m_j . sigma`` for message operators ``(..., n, 2, 2, 2)``,
    stacked ``(..., n, 2, 2)``: ``m_j`` is a unit normal to the Bloch vectors
    of ``a[j, 0]`` and ``a[j, 1]`` (the last right singular vector of the
    2x3 Bloch matrix, so collinear or zero vectors still give one), and
    ``N_j`` anticommutes with every traceless operator in their plane."""
    lower = ops[..., 1, 0]  # a = b . sigma has a[1, 0] = b_x + i b_y
    bloch = np.stack([lower.real, lower.imag, (ops[..., 0, 0] - ops[..., 1, 1]).real / 2],
                     axis=-1)
    mx, my, mz = np.moveaxis(np.linalg.svd(bloch)[2][..., -1, :], -1, 0)
    return np.stack([np.stack([mz, mx - 1j * my], axis=-1),
                     np.stack([mx + 1j * my, -mz], axis=-1)], axis=-2)


def _ghz_terms(rho: np.ndarray) -> tuple:
    """The GHZ game's per-iteration terms: the message operators of stacked
    sender states ``(..., n, 2, 2, 2, 2)`` and their :func:`witness_terms`,
    stacked ``(..., n, 2**n, 2**n)``."""
    ops = message_operators(rho)
    return ops, np.stack(witness_terms(ops), axis=-3)


def _ghz_povm(ops: np.ndarray, terms: np.ndarray) -> tuple:
    """Best receiver measurement for traceless message operators
    ``(..., n, 2, 2, 2)`` with their stacked witness terms, held as basis
    rows ``q`` ``(..., 2**n, 2**n)``, ``M_m = q_m q_m^dag``, C-contiguous;
    returned with the mask of the restarts whose witnesses all vanish.

    Every witness factor on slot j but the identity is traceless and lies in
    the plane of sender j's Bloch vectors, so conjugating by ``N_j`` (see
    :func:`_flip_operators`) on that slot flips the sign of every term with
    such a factor there, and the witnesses
    form one orbit (odd n) or two (even n) under local flips: ``W_m =
    N_F W_r N_F``. Only the representatives ``W_r`` are built and solved;
    outcome m's top vector is its representative's with ``N_j`` applied on
    each slot of its flip pattern ``F``.

    Every measurement scores 0 against vanishing witnesses; the rows of such
    a restart are the computational basis.
    """
    n = ops.shape[-4]
    d = 2**n
    reps, orbit, flips = witness_orbits(n)
    ws = witness_operators(ops, reps, terms=np.moveaxis(terms, -3, 0))
    top = herm_eig(ws).vectors[..., -1][..., orbit, :]  # row m: outcome m's top vector
    flip = np.where(flips[..., None, None], _flip_operators(ops)[..., None, :, :, :], I2)
    for j in range(n):
        # slot j of outcome m's vector becomes sum_b u[a, b] v[b], u = N_j or I
        v = top.reshape(top.shape[:-1] + (2**j, 1, 2, -1))
        u = flip[..., j, :, :][..., None, :, :, None]
        top = (u[..., 0, :] * v[..., 0, :] + u[..., 1, :] * v[..., 1, :]).reshape(top.shape)
    q = _polar_orthonormal(np.swapaxes(fix_phase(top), -1, -2))
    rows = np.ascontiguousarray(np.swapaxes(q, -1, -2))
    # conjugation keeps a zero witness zero, so the representatives decide
    vanishing = np.abs(ws).max(axis=(-3, -2, -1)) <= 1e-12
    rows[vanishing] = np.eye(d)
    return rows, vanishing


def optimal_povm_for_states(n: int, ops: np.ndarray) -> Povm:
    """Best receiver measurement for fixed traceless message operators (GHZ game).

    Stacks each witness's top eigenvector; when the stack is orthonormal
    (the generic converged case) the rank-1 projectors are the exact argmax,
    otherwise the symmetric orthonormalization of the stack gives a feasible
    measurement. All-zero operators yield the uniform split ``I / 2**n``.
    The top vectors come from one or two witnesses by local flips, which
    needs ``Tr a[j, x] = 0``: operators with ``|Tr a[j, x]| > 1e-9`` (not a
    difference of two unit-trace states) raise InvalidInput.
    """
    if ops.shape != (n, 2, 2, 2):
        raise InvalidInput(f"operators have shape {ops.shape}, expected ({n},2,2,2)")
    traces = np.abs(np.trace(ops, axis1=-2, axis2=-1))
    if (traces > 1e-9).any():
        j, x = np.argwhere(traces > 1e-9)[0].tolist()
        raise InvalidInput(f"message operator of sender {j + 1}, input {x} has trace "
                           f"{traces[j, x]:.3g}; the GHZ measurement step needs traceless ones")
    rows, vanishing = _ghz_povm(ops, np.stack(witness_terms(ops)))
    if vanishing:
        return Povm(np.repeat(np.eye(2**n)[None] / 2**n, 2**n, axis=0))
    return Povm.from_basis(rows)


def _element_sums(elements: np.ndarray) -> np.ndarray:
    """The signed sums ``f_j = sum_s (-1)^{s_j} M_s`` of POVM elements
    ``(..., 2**n, d, d)``, stacked ``(..., n, d, d)``: one product with the
    sign table."""
    n, d = elements.shape[-3].bit_length() - 1, elements.shape[-1]
    fs = np.sign(witness_signs(n)).T @ elements.reshape(elements.shape[:-2] + (d * d,))
    return fs.reshape(fs.shape[:-1] + (d, d))


def _row_sums(q: np.ndarray) -> np.ndarray:
    """The signed sums ``f_j = Q^T diag(sigma_j) conj(Q)`` of the measurement
    held as basis rows ``q`` ``(..., 2**n, d)``, with ``sigma_j`` the signs
    ``(-1)^{s_j}``: stacked ``(..., n, d, d)``."""
    n = q.shape[-2].bit_length() - 1
    qt = np.swapaxes(q, -1, -2)[..., None, :, :]
    return (qt * np.sign(witness_signs(n)).T[:, None, :]) @ q.conj()[..., None, :, :]


def _ghz_sweep(rho: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """One cyclic pass of exact single-sender maximizations (GHZ game) over
    sender states ``(..., n, 2, 2, 2, 2)`` for the signed sums ``f_j`` of the
    measurement, stacked ``(..., n, d, d)``: :func:`_row_sums` of the rows
    the search holds, or :func:`_element_sums` of a given POVM."""
    n = rho.shape[-5]
    rho = rho.copy()
    ops = message_operators(rho)
    fs = np.moveaxis(fs, -3, 0)
    for j in range(n):
        # the spectators of each witness term; the entry at the updated slot is ignored
        spect = witness_factors(ops)
        if j == 0:
            g0 = g1 = (n - 1) * _effective_qubit_operator(fs[0], spect[0], 0)
            for k in range(1, n):
                gk = _effective_qubit_operator(fs[k], spect[k], 0)
                g0, g1 = g0 + gk, g1 - gk
        else:
            g0 = (n - 1) * _effective_qubit_operator(fs[0], spect[0], j)
            g1 = _effective_qubit_operator(fs[j], spect[j], j)
        rho[..., j, :, :, :, :] = _antipodal_pairs(np.stack([g0, g1], axis=-3))
        ops[..., j, :, :, :] = rho[..., j, 0, :, :, :] - rho[..., j, 1, :, :, :]
    return rho


# ---------------------------------------------------------------------------
# three-input game half-steps
# ---------------------------------------------------------------------------


def _counterexample_povm(states: np.ndarray) -> np.ndarray:
    """Best outcome-0 effect (the positive eigenspace of the cost operator)."""
    es = herm_eig(counterexample_costs(states))
    pos = es.vectors * (es.values > 0)[..., None, :]
    return pos @ dagger(pos)


def _top_projectors(g: np.ndarray) -> np.ndarray:
    return projector(herm_eig((g + dagger(g)) / 2).vectors[..., -1])


def _counterexample_sweep(states: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """Exact state update of both senders, first sender first, for stacked
    states ``(..., 2, 3, 2, 2)`` and effects ``(..., 4, 4)``. A sender's three
    effective operators see only the other sender's states, so each sender
    is one contraction against the coefficient matrix."""
    m = m0.reshape(m0.shape[:-2] + (2, 2, 2, 2))  # m[..., a, b, c, d] = m0[2a+b, 2c+d]
    states = states.copy()
    # G[y] = sum_z C[y, z] Tr_2(m0 (I (x) s_2[z]))
    g = np.einsum("yz,...zdb,...ibjd->...yij", COUNTEREXAMPLE_MATRIX,
                  states[..., 1, :, :, :], m)
    states[..., 0, :, :, :] = _top_projectors(g)
    # G[z] = sum_y C[y, z] Tr_1(m0 (s_1[y] (x) I))
    g = np.einsum("yz,...yca,...akcl->...zkl", COUNTEREXAMPLE_MATRIX,
                  states[..., 0, :, :, :], m)
    states[..., 1, :, :, :] = _top_projectors(g)
    return states


# ---------------------------------------------------------------------------
# partial Bell half-steps
# ---------------------------------------------------------------------------


def _partial_bell_povm(ops: np.ndarray) -> np.ndarray:
    """Best three-outcome measurement: the top vectors of the first two
    witnesses and the top two of the third, orthonormalized together."""
    vectors = herm_eig(np.stack(partial_witnesses(ops), axis=-3)).vectors
    rows = fix_phase(np.stack([vectors[..., 0, :, -1], vectors[..., 1, :, -1],
                               vectors[..., 2, :, -1], vectors[..., 2, :, -2]], axis=-2))
    p = outer(np.swapaxes(_polar_orthonormal(np.swapaxes(rows, -1, -2)), -1, -2))
    return np.stack([p[..., 0, :, :], p[..., 1, :, :], p[..., 2, :, :] + p[..., 3, :, :]],
                    axis=-3)


def _partial_bell_sweep(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Exact state update for the three-outcome game, second sender only.

    The three-outcome score certifies the partial Bell basis only on top of
    an optimal random-access-code score, which pins the first sender's
    states; left free they push the score beyond 1 (the third witness's norm
    grows to 4). Sender 1 therefore stays fixed here.
    """
    m = np.moveaxis(elements, -3, 0)
    f1 = m[0] - m[1]
    f2 = m[0] + m[1] - 2 * m[2]
    spect = witness_factors(message_operators(rho))
    g = np.stack([_effective_qubit_operator(f1, spect[0], 1),
                  _effective_qubit_operator(f2, spect[1], 1)], axis=-3)
    rho = rho.copy()
    rho[..., 1, :, :, :, :] = _antipodal_pairs(g)
    return rho


def optimal_states_for_povm(strategy):
    """One cyclic pass of exact per-sender state maximization by the sweep of
    ``GAMES[strategy.task]``. The returned strategy's score never falls below
    the input's; all but its states is the input's."""
    game = GAMES.get(strategy.task)
    if game is None:
        raise InvalidInput(f"unknown task {strategy.task!r}")
    if strategy.task == "counterexample":
        return replace(strategy, states=game.sweep(strategy.states, strategy.m0))
    rho = np.stack([st.rho for st in strategy.senders])
    if strategy.task == "ghz":  # any POVM, dense or mixed, gives its sums from its elements
        rho = _ghz_sweep(rho, _element_sums(strategy.povm.elements))
    else:
        rho = game.sweep(rho, strategy.povm.elements)
    return replace(strategy, senders=tuple(SenderStates(r) for r in rho))


# ---------------------------------------------------------------------------
# full see-saw
# ---------------------------------------------------------------------------


def _ghz_start(config: SeesawConfig, rng) -> np.ndarray:
    # independent per-restart draw under the master seed
    return random_messages(config.n, int(rng.integers(0, 2**63 - 1)))


def _partial_bell_start(config: SeesawConfig, rng) -> np.ndarray:
    # sender 1 pinned at the RAC optimum; sender 2 random
    second = random_projectors(rng, 4).reshape(2, 2, 2, 2)
    return np.stack([aligned_sender_states(1, 2).rho, second])


def _counterexample_start(config: SeesawConfig, rng) -> np.ndarray:
    return random_projectors(rng, 6).reshape(2, 3, 2, 2)


def _ghz_build(rho, rows) -> Strategy:
    return Strategy(n=len(rho), senders=tuple(SenderStates(r) for r in rho),
                    povm=Povm.from_basis(rows))


def _partial_bell_build(rho, elements) -> Strategy:
    senders = tuple(SenderStates(r) for r in rho)
    return Strategy(n=2, senders=senders, povm=Povm(elements), task="partial_bell",
                    observables=np.stack(best_rac_observables(senders[0])))


@dataclass(frozen=True)
class _Game:
    """One game's see-saw and settings. Messages are a restart's sender
    states, the measurement its receiver side; every function but ``start``,
    ``build`` and ``extra`` takes stacked arrays with leading restart axes.
    ``prepare`` turns new messages into what ``measure`` and ``score`` read,
    once per iteration, so what they share is built once."""

    start: Callable  # (config, rng) -> messages of one restart
    measure: Callable  # prepared messages -> best measurement for them
    sweep: Callable  # (messages, measurement) -> best messages for it
    score: Callable  # (prepared messages, measurement) -> scores
    build: Callable  # (messages, measurement) of one restart -> strategy
    entries: Callable  # n -> entries of the largest per-restart stack
    target: float = 1 - 1e-6  # a best score at or above it passes
    senders: int | None = None  # the game's fixed sender count; None: any n >= 2
    extra: Callable = lambda strategy: {}  # best strategy -> the game's own report entries
    unsavable: str = ""  # why its strategies have no strategy-file form, if they have none
    prepare: Callable = lambda messages: messages  # messages -> what measure and score read


GAMES = {
    "ghz": _Game(
        _ghz_start,
        lambda prepared: _ghz_povm(*prepared)[0],
        lambda rho, rows: _ghz_sweep(rho, _row_sums(rows)),
        lambda prepared, rows: basis_scores(prepared[1], rows),
        _ghz_build,
        lambda n: n * 4**n,  # the n witness terms of 2**n x 2**n
        prepare=_ghz_terms,
    ),
    "counterexample": _Game(
        _counterexample_start,
        _counterexample_povm,
        _counterexample_sweep,
        counterexample_scores,
        lambda states, m0: CounterexampleStrategy(states=states, m0=m0),
        lambda n: 2 * 3 * 2 * 2,  # the six qubit states
        target=2.8283, senders=2,
        extra=lambda s: {"outcome_classification": classify_outcome_measurement(s.povm)},
        unsavable="three-input strategies have no strategy-file form",
    ),
    "partial_bell": _Game(
        _partial_bell_start,
        lambda rho: _partial_bell_povm(message_operators(rho)),
        _partial_bell_sweep,
        lambda rho, els: comm_scores(message_operators(rho), els),
        _partial_bell_build,
        lambda n: 3 * 4 * 4,  # three witnesses or POVM elements of 4 x 4
        senders=2,
    ),
}


def _lockstep(config: SeesawConfig, game: _Game, block: range) -> tuple:
    """Run the restarts of ``block`` side by side.

    The working arrays hold the active restarts only; a restart leaves them
    once its score moved by less than ``conv_tol``. Returns, per restart,
    ``(score, iterations, messages, measurement)`` at its stop, and the
    score histories.
    """
    msgs = np.stack([game.start(config, make_rng(config.seed, stream=i)) for i in block])
    prepared = game.prepare(msgs)
    meas = game.measure(prepared)
    value = game.score(prepared, meas)
    history = [[v] for v in value.tolist()]
    final = [None] * len(block)
    active = np.arange(len(block))
    for it in range(1, config.max_iters + 1):
        msgs = game.sweep(msgs, meas)
        prepared = game.prepare(msgs)
        after_states = game.score(prepared, meas)
        new_meas = game.measure(prepared)
        after_povm = game.score(prepared, new_meas)
        accept = after_povm >= after_states
        meas = np.where(accept.reshape(accept.shape + (1,) * (meas.ndim - 1)), new_meas, meas)
        new_value = np.where(accept, after_povm, after_states)
        for i, v in zip(active.tolist(), new_value.tolist()):
            history[i].append(v)
        stop = (np.abs(new_value - value) < config.conv_tol) | (it == config.max_iters)
        value = new_value
        if stop.any():
            for k in np.flatnonzero(stop).tolist():
                final[active[k]] = (value[k], it, msgs[k].copy(), meas[k].copy())
            keep = ~stop
            active, msgs, meas, value = active[keep], msgs[keep], meas[keep], value[keep]
            if not active.size:
                break
    return final, history


def seesaw(config: SeesawConfig) -> SeesawResult:
    """Run the alternating search from ``config.restarts`` random starts.

    Deterministic for a given seed: restart ``i`` draws from stream ``i`` of
    the master seed, and ties between restarts break by restart order. The
    restarts run one block after another in the contiguous blocks of
    ``linalg.chunks``, sized by their largest per-restart stack; a restart's
    history does not depend on the block it shares. The blocks are taken one
    at a time, so no list of them is built first. Only the leading restart's
    messages and measurement outlive its block, so finished blocks hold no
    witness terms or measurements.
    """
    game = GAMES[config.metric]
    restarts = range(config.restarts)
    blocks = (restarts[part] for part in chunks(config.restarts, game.entries(config.n)))
    best = None  # (score, iterations, messages, measurement) of the first maximum

    def run(block: range) -> list:
        nonlocal best
        final, history = _lockstep(config, game, block)
        first = int(np.argmax([f[0] for f in final]))  # the block's first maximum
        if best is None or final[first][0] > best[0]:
            best = final[first]
        return history

    history = [h for hs in ordered_map(run, blocks) for h in hs]
    value, iters, msgs, meas = best
    return SeesawResult(
        best_value=float(value),
        best_strategy=game.build(msgs, meas),
        iters_used=iters,
        history=history,
    )
