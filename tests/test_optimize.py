import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ghz_selftest import backends, linalg, optimize, scenario
from ghz_selftest.errors import InvalidInput
from ghz_selftest.fixtures import computational_strategy, ideal_strategy, partial_bell_strategy
from ghz_selftest.linalg import I2, fix_phase, herm_eig, outer, projector, tensor
from ghz_selftest.optimize import (
    GAMES,
    SeesawConfig,
    _flip_operators,
    _Game,
    _effective_qubit_operator,
    _ghz_povm,
    _ghz_terms,
    _lockstep,
    _polar_orthonormal,
    optimal_povm_for_states,
    optimal_states_for_povm,
    seesaw,
)
from ghz_selftest.rng import make_rng
from ghz_selftest.scenario import (
    COUNTEREXAMPLE_COEFFS,
    CounterexampleStrategy,
    a_operators,
    comm_metric,
    counterexample_value,
    message_operators,
    success_metric,
    witness_operators,
    witness_orbits,
    witness_terms,
)
from ghz_selftest.selftest import antipodality_gap, classify_outcome_measurement
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    ghz_basis_state,
    ghz_povm,
    random_antipodal_strategy,
    random_messages,
    random_mixed_strategy,
    random_projectors,
    random_strategy,
)

SQRT2 = np.sqrt(2)


def haar_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def four_kron_effective_operator(f, spectators, slot):
    """G[q, p] = Tr(f tensor(spectators with |p><q| at slot)), one product per entry."""
    g = np.zeros((2, 2), dtype=complex)
    for p in range(2):
        for q in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[p, q] = 1
            factors = list(spectators)
            factors[slot] = basis
            g[q, p] = np.trace(f @ tensor(factors))
    return (g + g.conj().T) / 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_effective_qubit_operator_is_the_partial_trace(n):
    rng = np.random.default_rng(70 + n)
    d = 2**n
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    f = z + z.conj().T
    for slot in range(n):
        spect = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
        spect[slot] = None
        got = _effective_qubit_operator(f, spect, slot)
        want = four_kron_effective_operator(f, spect, slot)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stacked_effective_operator_matches_each_restart_bitwise():
    rng = np.random.default_rng(80)
    restarts, n = 4, 3
    z = rng.normal(size=(restarts, 8, 8)) + 1j * rng.normal(size=(restarts, 8, 8))
    f = z + z.conj().swapaxes(-1, -2)
    spect = [rng.normal(size=(restarts, 2, 2)) + 1j * rng.normal(size=(restarts, 2, 2)), I2,
             rng.normal(size=(restarts, 2, 2))]
    for slot in range(n):
        got = _effective_qubit_operator(f, spect, slot)
        for r in range(restarts):
            one = [s[r] if s.ndim == 3 else s for s in spect]
            assert got[r].tobytes() == _effective_qubit_operator(f[r], one, slot).tobytes()


def reference_counterexample_sweep(states, m0):
    """Sender by sender, input by input: one effective operator per score term."""
    states = states.copy()
    for sender in range(2):
        for y in range(1, 4):
            g = np.zeros((2, 2), dtype=complex)
            for (y1, y2), c in COUNTEREXAMPLE_COEFFS.items():
                if (y1, y2)[sender] == y:
                    spect = [states[0, y1 - 1], states[1, y2 - 1]]
                    g += c * _effective_qubit_operator(m0, spect, sender)
            states[sender, y - 1] = projector(np.linalg.eigh(g)[1][:, -1])
    return states


def test_counterexample_sweep_matches_per_term_effective_operators():
    rng = np.random.default_rng(81)
    for _ in range(10):
        states = np.stack([projector(rng.normal(size=2) + 1j * rng.normal(size=2))
                           for _ in range(6)]).reshape(2, 3, 2, 2)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m0 = z @ z.conj().T
        m0 /= np.linalg.eigvalsh(m0)[-1]
        got = optimal_states_for_povm(CounterexampleStrategy(states=states, m0=m0)).states
        assert np.abs(got - reference_counterexample_sweep(states, m0)).max() <= 1e-12


class TestPovmStep:
    def test_canonical_states_give_ghz_basis(self):
        s = ideal_strategy(2)
        povm = optimal_povm_for_states(2, a_operators(s))
        for m in range(4):
            xi = ghz_basis_state(m, 2)
            fid = float((xi.conj() @ (povm.elements[m] @ xi)).real)
            assert fid >= 1 - 1e-10

    def test_zero_operators_uniform_split(self):
        povm = optimal_povm_for_states(2, np.zeros((2, 2, 2, 2), dtype=complex))
        assert np.abs(povm.elements - np.eye(4) / 4).max() == 0
        povm.validate()

    def test_dominates_ghz_basis_for_antipodal_states(self):
        for seed in range(20):
            s = random_antipodal_strategy(2, seed)
            ops = a_operators(s)
            best = optimal_povm_for_states(2, ops)
            constructed = success_metric(Strategy(n=2, senders=s.senders, povm=best))
            fixed = success_metric(Strategy(n=2, senders=s.senders, povm=ghz_povm(2)))
            assert constructed >= fixed - 1e-10

    def test_operators_with_trace_are_rejected(self):
        ops = a_operators(random_mixed_strategy(3, 7))
        optimal_povm_for_states(3, ops).validate()
        ops[1, 0] += 1e-6 * I2
        with pytest.raises(InvalidInput, match="sender 2, input 0"):
            optimal_povm_for_states(3, ops)

    def test_output_is_valid_povm(self):
        for seed in range(10):
            s = random_strategy(3, seed)
            optimal_povm_for_states(3, a_operators(s)).validate()


def ghz_rows(ops):
    """The measurement step's basis rows for the operators."""
    return _ghz_povm(ops, np.stack(witness_terms(ops), axis=-3))[0]


def reference_ghz_povm(ops):
    """The measurement step solving every witness: each outcome's top vector
    from its own witness, then the same orthonormalization and zero rule."""
    d = 2 ** ops.shape[-4]
    ws = witness_operators(ops)
    top = fix_phase(herm_eig(ws).vectors[..., -1])
    elements = outer(np.swapaxes(_polar_orthonormal(np.swapaxes(top, -1, -2)), -1, -2))
    zero = np.abs(ws).max(axis=(-3, -2, -1)) <= 1e-12
    return np.where(zero[..., None, None, None], np.eye(d) / d, elements)


ORBIT_INPUTS = {
    "random pure": lambda n: a_operators(random_strategy(n, 40 + n)),
    "random mixed": lambda n: a_operators(random_mixed_strategy(n, 50 + n)),
    "computational": lambda n: a_operators(computational_strategy(n)),
    "zero": lambda n: np.zeros((n, 2, 2, 2), dtype=complex),
}


class TestWitnessOrbits:
    @pytest.mark.parametrize("kind", list(ORBIT_INPUTS))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_each_witness_is_its_representative_flipped(self, n, kind):
        ops = ORBIT_INPUTS[kind](n)
        ws = witness_operators(ops)
        flip_ops = _flip_operators(ops)
        assert np.abs(flip_ops @ flip_ops - I2).max() <= 1e-14
        reps, orbit, flips = witness_orbits(n)
        assert len(reps) == 2 - n % 2
        for m in range(2**n):
            nf = tensor([flip_ops[j] if flips[m, j] else I2 for j in range(n)])
            assert np.abs(nf @ ws[reps[orbit[m]]] @ nf - ws[m]).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_flip_changes_the_documented_sign_bits(self, n):
        ops = ORBIT_INPUTS["random mixed"](n)
        ws = witness_operators(ops)
        flip_ops = _flip_operators(ops)
        for j in range(n):
            # sender 1 flips every bit; sender j >= 2 flips s_1 and s_j
            pattern = 2**n - 1 if j == 0 else 1 | 1 << j
            nf = tensor([flip_ops[k] if k == j else I2 for k in range(n)])
            for m in range(2**n):
                assert np.abs(nf @ ws[m] @ nf - ws[m ^ pattern]).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_full_solve_where_top_eigenvalues_are_simple(self, n):
        # see-saw inputs: random starts and the messages after one and two sweeps
        inputs = []
        for seed in range(6):
            rho = random_messages(n, 90 + seed)
            for _ in range(3):
                inputs.append(message_operators(rho))
                rho = GAMES["ghz"].sweep(rho, ghz_rows(message_operators(rho)))
        checked = 0
        for ops in inputs:
            values = np.linalg.eigvalsh(witness_operators(ops))
            if (values[:, -1] - values[:, -2]).min() <= 1e-8:
                continue  # a degenerate top eigenvalue: either top vector is an argmax
            assert np.abs(outer(ghz_rows(ops)) - reference_ghz_povm(ops)).max() <= 1e-10
            checked += 1
        assert checked >= len(inputs) // 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_solve_per_orbit_and_restart(self, n, monkeypatch):
        solved = []
        eigh = backends.eigh

        def spy(m):
            solved.append(np.shape(m))
            return eigh(m)

        monkeypatch.setattr(backends, "eigh", spy)
        d, orbits = 2**n, 2 - n % 2
        msgs = np.stack([random_messages(n, seed) for seed in range(3)])
        GAMES["ghz"].measure(_ghz_terms(msgs))
        assert solved == [(3, orbits, d, d)]
        # every witness-sized solve of a whole search is one such step
        solved.clear()
        seesaw(SeesawConfig(n=n, restarts=3, max_iters=5, seed=1))
        steps = [shape for shape in solved if shape[-1] == d]
        assert steps and all(shape[1:] == (orbits, d, d) and shape[0] <= 3 for shape in steps)


class TestStatesStep:
    def test_never_decreases_score(self):
        for seed in range(30):
            s = random_strategy(2, seed)
            before = success_metric(s)
            after = success_metric(optimal_states_for_povm(s))
            assert after >= before - 1e-12

    def test_recovers_antipodal_states_from_perturbation(self):
        rng = make_rng(9)
        base = ideal_strategy(2)
        for _ in range(10):
            senders = []
            for st in base.senders:
                rho = st.rho.copy()
                for a in range(2):
                    for x in range(2):
                        v = rng.normal(size=2) + 1j * rng.normal(size=2)
                        rho[a, x] = 0.9 * rho[a, x] + 0.1 * projector(v)
                senders.append(SenderStates(rho))
            perturbed = Strategy(n=2, senders=tuple(senders), povm=base.povm)
            improved = optimal_states_for_povm(perturbed)
            assert antipodality_gap(improved) <= 1e-8
            assert success_metric(improved) >= success_metric(perturbed)

    def test_counterexample_states_reach_optimum_for_fixed_measurement(self):
        # converge once to find an entangling optimal measurement, then
        # re-derive states for it; the cyclic state ascent is monotone from
        # every start and recovers the optimum from some start
        res = seesaw(SeesawConfig(metric="counterexample", restarts=8, seed=5))
        assert res.best_value >= 2.8283
        m0 = res.best_strategy.m0
        best = -np.inf
        for seed in range(10):
            rng = make_rng(123, stream=seed)
            states = np.zeros((2, 3, 2, 2), dtype=complex)
            for k in range(2):
                for y in range(3):
                    states[k, y] = projector(rng.normal(size=2) + 1j * rng.normal(size=2))
            cur = CounterexampleStrategy(states=states, m0=m0)
            last = -np.inf
            for _ in range(300):
                cur = optimal_states_for_povm(cur)
                val = counterexample_value(cur)
                assert val >= last - 1e-12
                if abs(val - last) < 1e-13:
                    break
                last = val
            best = max(best, counterexample_value(cur))
        assert best >= 2.8283

    def test_partial_bell_sweep_keeps_sender_one_and_observables(self):
        base = partial_bell_strategy()
        rng = make_rng(31)
        for _ in range(5):
            second = random_projectors(rng, 4).reshape(2, 2, 2, 2)
            s = Strategy(n=2, senders=(base.senders[0], SenderStates(second)), povm=base.povm,
                         task="partial_bell", observables=base.observables)
            swept = optimal_states_for_povm(s)
            assert swept.task == "partial_bell" and swept.povm is s.povm
            assert np.array_equal(swept.senders[0].rho, s.senders[0].rho)
            assert np.array_equal(swept.observables, s.observables)
            assert comm_metric(swept) >= comm_metric(s) - 1e-12

    def test_each_strategy_names_its_game(self):
        ce = seesaw(SeesawConfig(metric="counterexample", restarts=2, seed=3)).best_strategy
        assert ce.task == "counterexample" and "task" not in vars(ce)
        assert np.array_equal(ce.povm.elements, np.stack([ce.m0, np.eye(4) - ce.m0]))
        for s in (ce, ideal_strategy(2), partial_bell_strategy()):
            assert s.task in GAMES and type(optimal_states_for_povm(s)) is type(s)

    def test_unknown_task_is_an_input_error(self):
        s = ideal_strategy(2)
        with pytest.raises(InvalidInput, match="unknown task 'bogus'"):
            optimal_states_for_povm(Strategy(n=2, senders=s.senders, povm=s.povm, task="bogus"))


class TestSeesaw:
    def test_ghz_two_senders(self):
        res = seesaw(SeesawConfig(n=2, metric="ghz", restarts=20, seed=0))
        assert res.best_value >= 1 - 1e-6
        assert res.best_strategy.povm.elements.shape == (4, 4, 4)

    def test_ghz_three_senders(self):
        res = seesaw(SeesawConfig(n=3, metric="ghz", restarts=10, seed=0))
        assert res.best_value >= 1 - 1e-5

    def test_counterexample_value(self):
        res = seesaw(SeesawConfig(metric="counterexample", restarts=20, seed=0))
        assert 2.8283 <= res.best_value <= 2.8285

    def test_history_monotone(self):
        res = seesaw(SeesawConfig(n=2, metric="ghz", restarts=5, max_iters=50, seed=3))
        for hist in res.history:
            assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        a = seesaw(SeesawConfig(metric="counterexample", restarts=5, seed=11))
        b = seesaw(SeesawConfig(metric="counterexample", restarts=5, seed=11))
        assert a.best_value == b.best_value
        assert a.history == b.history
        assert np.array_equal(a.best_strategy.m0, b.best_strategy.m0)

    def test_fixed_point_at_ideal(self):
        s = ideal_strategy(2)
        before = success_metric(s)
        swept = optimal_states_for_povm(s)
        povm = optimal_povm_for_states(2, a_operators(swept))
        after = success_metric(Strategy(n=2, senders=swept.senders, povm=povm))
        assert abs(after - before) <= 1e-10

    def test_gauge_covariance(self):
        res = seesaw(SeesawConfig(n=2, metric="ghz", restarts=3, seed=2))
        s = res.best_strategy
        rng = make_rng(21)
        vs = [haar_unitary(rng) for _ in range(2)]
        big = tensor(vs)
        senders = tuple(
            SenderStates(
                np.stack(
                    [
                        np.stack([v @ st.rho[a, x] @ v.conj().T for x in range(2)])
                        for a in range(2)
                    ]
                )
            )
            for v, st in zip(vs, s.senders)
        )
        povm = Povm(np.stack([big @ m @ big.conj().T for m in s.povm.elements]))
        rotated = Strategy(n=2, senders=senders, povm=povm)
        assert abs(success_metric(rotated) - res.best_value) <= 1e-10

    def test_converged_ghz_runs_are_antipodal(self):
        for seed in range(15):
            res = seesaw(SeesawConfig(n=2, metric="ghz", restarts=1, seed=seed))
            if res.best_value >= 1 - 1e-6:
                assert antipodality_gap(res.best_strategy) <= 1e-5

    def test_partial_bell_converges_to_reference(self):
        res = seesaw(SeesawConfig(n=2, metric="partial_bell", restarts=6, seed=0))
        assert abs(res.best_value - 1) <= 1e-9
        povm = res.best_strategy.povm
        assert abs(np.trace(povm.elements[2]).real - 2) < 1e-8
        flags = [e["entangled"] for e in classify_outcome_measurement(povm)]
        assert flags == [True, True, False]

    def test_config_gates(self):
        with pytest.raises(InvalidInput):
            SeesawConfig(metric="bogus")
        with pytest.raises(InvalidInput):
            SeesawConfig(metric="counterexample", n=3)
        with pytest.raises(InvalidInput):
            SeesawConfig(restarts=0)

    @pytest.mark.parametrize("field", ["n", "restarts", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3), True],
                             ids=["2.5", "3.0", "float64", "True"])
    def test_config_refuses_non_integer_counts(self, field, value):
        # a float count failed only inside the search, and True ran one restart
        with pytest.raises(InvalidInput):
            SeesawConfig(**{field: value})


# per-restart iteration counts of these runs, recorded from the one-restart-
# at-a-time search that the lockstep replaced
RECORDED_ITERATIONS = {
    ("counterexample", 2, 50, 1): [
        8, 10, 15, 9, 10, 9, 8, 9, 9, 9, 10, 9, 9, 9, 10, 8, 9, 8, 9, 10, 8, 9, 13, 11, 9,
        9, 9, 8, 9, 8, 8, 10, 10, 9, 9, 8, 9, 10, 9, 9, 8, 9, 8, 10, 10, 7, 8, 9, 9, 9,
    ],
    ("partial_bell", 2, 6, 0): [2] * 6,
    ("ghz", 2, 20, 0): [3] * 20,
    ("ghz", 3, 10, 0): [3] * 9 + [4],
}


def best_arrays(strategy):
    if isinstance(strategy, CounterexampleStrategy):
        return [strategy.states, strategy.m0]
    return [np.stack([st.rho for st in strategy.senders]), strategy.povm.elements]


def assert_same_strategy(a, b):
    assert all(x.tobytes() == y.tobytes() for x, y in zip(best_arrays(a), best_arrays(b)))


class TestLockstep:
    @pytest.mark.parametrize("metric, n, restarts, seed", list(RECORDED_ITERATIONS))
    def test_iteration_counts_per_restart(self, metric, n, restarts, seed):
        res = seesaw(SeesawConfig(n=n, metric=metric, restarts=restarts, seed=seed))
        assert [len(h) - 1 for h in res.history] == RECORDED_ITERATIONS[metric, n, restarts, seed]

    @pytest.mark.parametrize("metric, n, restarts", [
        ("counterexample", 2, 12), ("partial_bell", 2, 6), ("ghz", 2, 8), ("ghz", 4, 5),
        ("ghz", 5, 3),
    ])
    def test_restart_does_not_depend_on_its_block(self, metric, n, restarts):
        cfg = SeesawConfig(n=n, metric=metric, restarts=restarts, seed=3)
        final, history = _lockstep(cfg, GAMES[metric], range(restarts))
        for i in range(restarts):
            one_final, one_history = _lockstep(cfg, GAMES[metric], range(i, i + 1))
            assert one_history[0] == history[i]
            (value, iters, msgs, meas), (v1, i1, m1, p1) = final[i], one_final[0]
            assert (value, iters) == (v1, i1)
            assert msgs.tobytes() == m1.tobytes() and meas.tobytes() == p1.tobytes()

    def test_worse_measurement_is_rejected(self):
        # a toy game: the measurement copies the messages, the sweep halves
        # them, and the score is -|measurement - 1|; from 2 the second
        # proposed measurement (0.5) is worse than the kept one (1)
        toy = _Game(
            start=lambda config, rng: np.array([2.0]),
            measure=lambda msgs: msgs.copy(),
            sweep=lambda msgs, meas: msgs / 2,
            score=lambda msgs, meas: -np.abs(meas[:, 0] - 1),
            build=None,
            entries=None,
        )
        final, history = _lockstep(SeesawConfig(restarts=2), toy, range(2))
        assert history == [[-1.0, 0.0, 0.0]] * 2
        assert all((f[0], f[1], f[2][0], f[3][0]) == (0.0, 2, 0.5, 1.0) for f in final)

    @pytest.mark.parametrize("n, restarts, sizes", [(5, 3, [3]), (5, 60, [51, 9]), (7, 3, [2, 1])])
    def test_blocks_hold_at_most_the_budget(self, monkeypatch, n, restarts, sizes):
        blocks = []

        def counting(config, game, block):
            blocks.append(len(block))
            return _lockstep(config, game, block)

        monkeypatch.setattr(optimize, "_lockstep", counting)
        seesaw(SeesawConfig(n=n, restarts=restarts, max_iters=1))
        assert blocks == sizes

    def test_first_maximum_wins_over_blocks_of_one(self, monkeypatch):
        # a toy game whose restarts stop at once on a score in {0, 1, 2, 3},
        # one restart per block, so ties span many blocks; the message's
        # second entry tags the restart
        toy = _Game(
            start=lambda config, rng: np.array([float(rng.integers(0, 4)), rng.uniform()]),
            measure=lambda msgs: msgs.copy(),
            sweep=lambda msgs, meas: msgs,
            score=lambda msgs, meas: meas[:, 0],
            build=lambda msgs, meas: msgs,
            entries=lambda n: 2**20,
        )
        monkeypatch.setitem(GAMES, "ghz", toy)
        for seed in range(5):
            res = seesaw(SeesawConfig(restarts=64, seed=seed))
            draws = [make_rng(seed, stream=i) for i in range(64)]
            starts = [(float(r.integers(0, 4)), r.uniform()) for r in draws]
            scores = [v for v, _ in starts]
            first = scores.index(max(scores))
            assert res.best_value == scores[first]
            assert res.best_strategy[1] == starts[first][1]

    @pytest.mark.parametrize("n, restarts, budget", [
        (2, 20, linalg.BLOCK_ENTRIES), (5, 3, linalg.BLOCK_ENTRIES), (5, 3, 5 * 4**5),
    ], ids=["one-block", "one-block-n5", "blocks-of-one"])
    def test_best_restart_is_the_first_maximum(self, monkeypatch, n, restarts, budget):
        # at these seeds several restarts end on the same value bit for bit
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", budget)
        res = seesaw(SeesawConfig(n=n, restarts=restarts, seed=0))
        finals = [h[-1] for h in res.history]
        first = finals.index(max(finals))
        assert res.best_value == finals[first]
        assert res.iters_used == len(res.history[first]) - 1
        upto = seesaw(SeesawConfig(n=n, restarts=first + 1, seed=0))
        assert_same_strategy(res.best_strategy, upto.best_strategy)

    @pytest.mark.parametrize("metric, n, score", [
        ("ghz", 3, success_metric), ("counterexample", 2, counterexample_value),
        ("partial_bell", 2, comm_metric),
    ])
    def test_best_value_is_the_score_of_the_best_strategy(self, metric, n, score):
        res = seesaw(SeesawConfig(n=n, metric=metric, restarts=6, seed=4))
        assert score(res.best_strategy) == res.best_value

    def test_memory_does_not_grow_with_restarts(self):
        # one full block against eight: finished blocks hold nothing
        block = linalg.BLOCK_ENTRIES // GAMES["ghz"].entries(6)
        peaks = []
        for restarts in (block, 8 * block):
            tracemalloc.start()
            seesaw(SeesawConfig(n=6, restarts=restarts, max_iters=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_blocks_are_taken_one_at_a_time(self, monkeypatch):
        # 10**12 restarts at n = 2 are some 2.4e8 blocks: listed up front,
        # they would take gigabytes before the first block ran
        class FirstBlock(Exception):
            pass

        def first_block(config, game, block):
            raise FirstBlock(block)

        monkeypatch.setattr(optimize, "_lockstep", first_block)
        tracemalloc.start()
        try:
            with pytest.raises(FirstBlock) as exc:
                seesaw(SeesawConfig(n=2, restarts=10**12, max_iters=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.args[0] == range(linalg.BLOCK_ENTRIES // GAMES["ghz"].entries(2))
        assert peak < 1e6


class TestBasisRows:
    def test_one_term_build_per_block_and_iteration(self, monkeypatch):
        # blocks of two restarts; each iteration's scores and measurement step
        # share the one build of the new messages' witness terms
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2 * GAMES["ghz"].entries(3))
        builds = []

        def counting(ops):
            builds.append(ops.shape[:-4])
            return witness_terms(ops)

        monkeypatch.setattr(optimize, "witness_terms", counting)
        monkeypatch.setattr(scenario, "witness_terms", counting)
        res = seesaw(SeesawConfig(n=3, restarts=5, max_iters=6, seed=2))
        blocks = [res.history[i:i + 2] for i in range(0, 5, 2)]
        assert len(builds) == sum(1 + max(len(h) - 1 for h in b) for b in blocks)
        assert builds[0] == (2,) and all(len(shape) == 1 for shape in builds)

    def test_best_strategy_holds_its_rows(self):
        povm = seesaw(SeesawConfig(n=3, restarts=4, seed=0)).best_strategy.povm
        assert povm.basis.shape == (8, 8)
        assert np.abs(povm.basis @ povm.basis.conj().T - np.eye(8)).max() <= 1e-12

    def test_n7_search_builds_no_element_stack(self):
        tracemalloc.start()
        try:
            seesaw(SeesawConfig(n=7, restarts=1, max_iters=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6  # the (128, 128, 128) complex element stack alone is 33.5 MB

    @pytest.mark.parametrize("n", [2, 3])
    def test_vanishing_witnesses_end_in_a_valid_strategy(self, monkeypatch, n):
        """All-zero messages make every witness vanish, so every measurement
        scores 0; the measurement step then takes the computational basis,
        rows ``q_m = e_m``, and the search goes on from there."""
        zero = np.zeros((n, 2, 2, 2, 2), dtype=complex)
        monkeypatch.setitem(GAMES, "ghz", replace(GAMES["ghz"], start=lambda config, rng: zero))
        rows = GAMES["ghz"].measure(_ghz_terms(zero[None]))
        assert np.array_equal(rows, np.eye(2**n)[None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = seesaw(SeesawConfig(n=n, restarts=2, max_iters=4))
        assert all(h[0] == 0.0 for h in res.history)
        res.best_strategy.validate()
        assert success_metric(res.best_strategy) == res.best_value


class TestClassification:
    def test_ghz_basis_all_entangled(self):
        flags = classify_outcome_measurement(ghz_povm(2))
        assert all(e["entangled"] for e in flags)
        assert all(abs(e["ppt_min_eig"] + 0.5) < 1e-10 for e in flags)

    def test_computational_basis_separable(self):
        els = np.stack([np.diag([1.0 + 0j if k == m else 0.0 for k in range(4)]) for m in range(4)])
        flags = classify_outcome_measurement(Povm(els))
        assert not any(e["entangled"] for e in flags)

    def test_partial_bell_reference_pattern(self):
        flags = classify_outcome_measurement(partial_bell_strategy().povm)
        assert [e["entangled"] for e in flags] == [True, True, False]

    def test_dimension_gate(self):
        with pytest.raises(InvalidInput):
            classify_outcome_measurement(ghz_povm(3))

    def test_both_measurement_classes_reach_the_optimum(self):
        # across many converged searches both a separable-flagged and an
        # entangled-flagged optimal measurement occur
        entangled_seen = 0
        separable_seen = 0
        for seed in range(60):
            res = seesaw(
                SeesawConfig(metric="counterexample", restarts=1, max_iters=300, seed=seed)
            )
            if res.best_value < 2.8283:
                continue
            m0 = res.best_strategy.m0
            povm = Povm(np.stack([m0, np.eye(4) - m0]))
            if any(e["entangled"] for e in classify_outcome_measurement(povm)):
                entangled_seen += 1
            else:
                separable_seen += 1
        assert entangled_seen > 0
        assert separable_seen > 0
