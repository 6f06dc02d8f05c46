import tracemalloc

import numpy as np
import pytest

from ghz_selftest.errors import InvalidBloch, InvalidInput
from ghz_selftest.fixtures import (
    depolarized_partial_bell,
    depolarized_strategy,
    entangling_fixture,
    ideal_strategy,
    partial_bell_strategy,
    separable_fixture,
)
from ghz_selftest import linalg, scenario
from ghz_selftest.linalg import I2, SIGMA_X, SIGMA_Z, op_norm, tensor
from ghz_selftest.scenario import (
    COUNTEREXAMPLE_COEFFS,
    CounterexampleStrategy,
    a_operators,
    best_rac_observables,
    bloch_from_relabeled,
    comm_metric,
    comm_scores,
    counterexample_costs,
    counterexample_metric,
    counterexample_scores,
    counterexample_table,
    counterexample_value,
    partial_witnesses,
    probability_table,
    rac_bound,
    rac_metric,
    success_from_table,
    success_metric,
    success_scores,
    witness_operator,
    witness_operators,
    witness_signs,
)
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    aligned_sender_states,
    ghz_povm,
    ideal_sender_states,
    outcome_bits,
    random_mixed_strategy,
    random_strategy,
)

SQRT2 = np.sqrt(2)


def mixed_message_strategy(n=2):
    """All messages maximally mixed; difference operators vanish."""
    rho = np.zeros((2, 2, 2, 2), dtype=complex)
    rho[:, :] = I2 / 2
    senders = tuple(SenderStates(rho.copy()) for _ in range(n))
    return Strategy(n=n, senders=senders, povm=ideal_strategy(n).povm)


class TestAOperators:
    def test_ideal_literal_second_sender(self):
        s = Strategy(
            n=2,
            senders=(ideal_sender_states(1, 2), ideal_sender_states(2, 2)),
            povm=ideal_strategy(2).povm,
        )
        ops = a_operators(s)
        assert np.abs(ops[1, 0] - SIGMA_Z).max() < 1e-14
        assert np.abs(ops[1, 1] - SIGMA_X).max() < 1e-14

    def test_mixed_messages_vanish(self):
        ops = a_operators(mixed_message_strategy())
        assert np.abs(ops).max() < 1e-15

    def test_first_sender_unit_eigenvalues(self):
        ops = a_operators(ideal_strategy(2))
        ev = np.linalg.eigvalsh(ops[0, 0])
        assert np.abs(np.sort(ev) - np.array([-1.0, 1.0])).max() < 1e-12


class TestWitnessSigns:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_table_matches_outcome_bits(self, n):
        want = np.array([[(-1) ** b for b in outcome_bits(m, n)] for m in range(2**n)])
        want[:, 0] *= n - 1
        signs = witness_signs(n)
        assert np.array_equal(signs, want)
        assert not signs.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stacked_witnesses_equal_single(self, n):
        ops = a_operators(random_strategy(n, 40 + n))
        ws = witness_operators(ops)
        for m in range(2**n):
            assert np.array_equal(ws[m], witness_operator(n, m, ops))
        # a (P, n, 2, 2, 2) stack gives the per-point witnesses, bit for bit
        stack = np.stack([a_operators(random_strategy(n, 50 + 3 * n + p)) for p in range(3)])
        for m in range(2**n):
            got = witness_operator(n, m, stack)
            assert got.shape == (3, 2**n, 2**n)
            for p in range(3):
                assert got[p].tobytes() == witness_operator(n, m, stack[p]).tobytes()

    def test_stacked_witnesses_follow_the_operators_dtype(self):
        ops = a_operators(ideal_strategy(3))
        real = witness_operators(ops.real)
        assert real.dtype == float
        assert np.array_equal(real, witness_operators(ops).real)


class TestWitness:
    def test_two_sender_canonical_form(self):
        ops = a_operators(ideal_strategy(2))
        w = witness_operator(2, 0, ops)
        want = SQRT2 * (tensor([SIGMA_X, SIGMA_X]) + tensor([SIGMA_Z, SIGMA_Z]))
        assert np.abs(w - want).max() < 1e-12

    def test_zero_operators(self):
        ops = np.zeros((3, 2, 2, 2), dtype=complex)
        assert np.abs(witness_operator(3, 0, ops)).max() == 0

    def test_three_sender_norm(self):
        ops = a_operators(ideal_strategy(3))
        assert abs(op_norm(witness_operator(3, 0, ops)) - 4 * SQRT2) < 1e-10

    def test_traceless(self):
        for seed in range(10):
            s = random_strategy(3, seed)
            ops = a_operators(s)
            for m in range(8):
                assert abs(np.trace(witness_operator(3, m, ops))) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_norm_bound(self, n):
        for seed in range(12):
            s = random_mixed_strategy(n, seed)
            ops = a_operators(s)
            for m in range(2**n):
                assert op_norm(witness_operator(n, m, ops)) <= 2 * SQRT2 * (n - 1) + 1e-9


class TestSuccessMetric:
    def test_ideal_two_senders(self):
        assert abs(success_metric(ideal_strategy(2)) - 1) < 1e-10

    def test_mixed_messages(self):
        assert abs(success_metric(mixed_message_strategy())) < 1e-12

    def test_noisy_povm(self):
        assert abs(success_metric(depolarized_strategy(2, 0.1)) - 0.9) < 1e-12

    def test_povm_arity_gate(self):
        base = ideal_strategy(2)
        bad = Strategy(
            n=2, senders=base.senders, povm=Povm(base.povm.elements[:3].copy())
        )
        with pytest.raises(InvalidInput):
            success_metric(bad)

    def test_bounded_by_one(self):
        for seed in range(20):
            assert success_metric(random_strategy(2, seed)) <= 1 + 1e-9


def unvalidated(n, elements, **fields):
    """A strategy of ideal senders around ``elements`` that skipped validation."""
    return Strategy(n=n, senders=ideal_strategy(n).senders, povm=Povm(elements), **fields)


GHZ_SHAPE = "GHZ task needs 2**n POVM elements on dim 2**n, got 4 elements on dim 8"
FOUR_OF_EIGHT = ideal_strategy(3).povm.elements[:4]
PARTIAL_BELL = partial_bell_strategy()
# the one-sender GHZ game has normalization 0: its score would read 0/0
ONE_SENDER = Strategy(n=1, senders=(aligned_sender_states(1, 1),), povm=ghz_povm(1))


@pytest.mark.parametrize("score, strategy, message", [
    (success_metric, unvalidated(2, FOUR_OF_EIGHT), GHZ_SHAPE),
    (probability_table, unvalidated(2, FOUR_OF_EIGHT), GHZ_SHAPE),
    (probability_table, unvalidated(3, FOUR_OF_EIGHT), GHZ_SHAPE),
    (success_metric, ONE_SENDER, "need at least two senders, got n=1"),
    (probability_table, ONE_SENDER, "need at least two senders, got n=1"),
    (success_metric, PARTIAL_BELL, "strategy task is 'partial_bell', not 'ghz'"),
    (probability_table, PARTIAL_BELL, "strategy task is 'partial_bell', not 'ghz'"),
    (comm_metric, ideal_strategy(2), "strategy task is 'ghz', not 'partial_bell'"),
    (comm_metric, unvalidated(2, ideal_strategy(2).povm.elements, task="partial_bell",
                              observables=PARTIAL_BELL.observables),
     "partial Bell task needs n=2 and a 3-element POVM on dim 4"),
], ids=["success-n2-4of8", "table-n2-4of8", "table-n3-4of8", "success-one-sender",
        "table-one-sender", "success-partial-bell",
        "table-partial-bell", "comm-ghz", "comm-4-elements"])
def test_scores_refuse_another_game_or_shape_by_name(score, strategy, message):
    # a reshape or broadcast of a wrong-shape POVM raises a bare ValueError
    with pytest.raises(ValueError) as exc:
        score(strategy)
    assert type(exc.value) is InvalidInput and str(exc.value) == message


class TestProbabilityTable:
    def test_completeness_ideal(self):
        table = probability_table(ideal_strategy(2))
        table.validate()
        assert abs(table.base[0].sum(axis=-1) - 1).max() < 1e-12

    def test_uniform_for_mixed_messages(self):
        table = probability_table(mixed_message_strategy())
        assert np.abs(table.base - 0.25).max() < 1e-12

    def test_matches_operator_form_ideal(self):
        s = ideal_strategy(2)
        assert abs(success_from_table(probability_table(s)) - success_metric(s)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_operator_form_random(self, n):
        for seed in range(12):
            for s in (random_strategy(n, seed), random_mixed_strategy(n, seed)):
                assert abs(success_from_table(probability_table(s)) - success_metric(s)) < 1e-12

    @staticmethod
    def reference_table(s):
        """Every context's explicit product state, one ``np.kron`` chain each."""
        n, d = s.n, 2**s.n
        rho = [st.rho for st in s.senders]

        def probs(factors):
            joint = factors[0]
            for f in factors[1:]:
                joint = np.kron(joint, f)
            return np.array([np.trace(m @ joint).real for m in s.povm.elements])

        base = np.zeros((2, d, d))
        for x1 in range(2):
            for a in range(d):
                bits = [(a >> j) & 1 for j in range(n)]
                base[x1, a] = probs([rho[0][bits[0], x1]]
                                    + [rho[j][bits[j], 0] for j in range(1, n)])
        pair = np.zeros((n - 1, 2, 2, 2, d))
        for j in range(1, n):
            for x1, a1, aj in np.ndindex(2, 2, 2):
                factors = [rho[0][a1, x1]] + [I2 / 2] * (n - 1)
                factors[j] = rho[j][aj, 1]
                pair[j - 1, x1, a1, aj] = probs(factors)
        return base, pair

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_explicit_product_states(self, n):
        for seed in range(3):
            s = random_mixed_strategy(n, seed)
            table = probability_table(s)
            base, pair = self.reference_table(s)
            assert table.base.shape == base.shape and table.pair.shape == pair.shape
            assert np.abs(table.base - base).max() < 1e-14
            assert np.abs(table.pair - pair).max() < 1e-14

    def test_identical_across_chunk_boundaries(self, monkeypatch):
        s = random_mixed_strategy(6, 5)
        assert len(list(linalg.chunks(2**6, 4**6))) == 1
        whole = probability_table(s)
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 5 * 4**6)
        assert len(list(linalg.chunks(2**6, 4**6))) == 13  # chunks of 5 outcomes, the last of 4
        chunked = probability_table(s)
        assert np.array_equal(chunked.base, whole.base)
        assert np.array_equal(chunked.pair, whole.pair)

    @pytest.mark.parametrize("n", [2, 6])
    def test_one_slot_contraction_per_qubit_and_chunk(self, n, monkeypatch):
        s = random_mixed_strategy(n, 7)
        want = probability_table(s)
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 16 * 4**6)  # four chunks at n = 6
        shapes = []
        contract = linalg.contract_slot
        monkeypatch.setattr(scenario, "contract_slot",
                            lambda t, w: shapes.append(t.shape) or contract(t, w))
        got = probability_table(s)
        assert np.array_equal(got.base, want.base) and np.array_equal(got.pair, want.pair)
        d = 2**n
        # per outcome chunk, every distinct leading run of stacks once: slot 1
        # (shared by all n contexts), the base context's n - 1 other slots,
        # pair context j's own slot j and the n - j mixed slots after it, and
        # the run of mixed slots 2..k (k <= n - 1) that pair contexts k+1..n
        # open with: 1 + (n - 1) + n(n - 1)/2 + (n - 2) = (n + 4)(n - 1)/2
        assert len(shapes) == (n + 4) * (n - 1) // 2 * len(list(linalg.chunks(d, d * d)))
        # memory stays flat: no contraction reads more than one chunk's entries
        assert max(np.prod(shape) for shape in shapes) <= linalg.BLOCK_ENTRIES

    @staticmethod
    def per_context_table(s):
        """The tables with every context contracted on its own, slot 1
        included, through ``contract_slot`` over the whole POVM stack."""
        n, d = s.n, 2**s.n
        rho = [st.rho for st in s.senders]
        first = rho[0].swapaxes(0, 1).reshape(4, 2, 2)

        def traces(stacks):
            t = s.povm.elements
            for st in stacks:
                t = linalg.contract_slot(t[..., None, :, :], np.swapaxes(st, -1, -2))
            return t.real.reshape(d, -1)

        p = traces([first] + [r[:, 0] for r in rho[1:]])
        base = p.reshape((d, 2) + (2,) * n).transpose([1, *range(n + 1, 1, -1), 0])
        pair = np.empty((n - 1, 2, 2, 2, d))
        for j in range(1, n):
            stacks = [first] + [I2[None] / 2] * (n - 1)
            stacks[j] = rho[j][:, 1]
            pair[j - 1] = np.moveaxis(traces(stacks).reshape(d, 2, 2, 2), 0, -1)
        return base.reshape(2, d, d), pair

    @pytest.mark.parametrize("n, block", [(2, None), (3, None), (4, None), (5, None),
                                          (6, None), (6, 5 * 4**6), (7, None)])
    def test_shared_first_slot_gives_the_per_context_tables(self, n, block, monkeypatch):
        # sharing slot 1 between the contexts reorders no arithmetic, in one
        # chunk (block None) or in chunks of 5 outcomes
        if block is not None:
            monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
        for s in (random_mixed_strategy(n, 11), random_strategy(n, 12)):
            table = probability_table(s)
            base, pair = self.per_context_table(s)
            assert np.array_equal(table.base, base) and np.array_equal(table.pair, pair)

    def test_pair_contexts_marginalize_for_antipodal_messages(self):
        # when each input's two messages are orthogonal, the maximally mixed
        # spectator slots coincide with actually measurable statistics:
        # averaging the full-input table over the spectators' message bits
        from ghz_selftest.states import random_antipodal_strategy
        from ghz_selftest.linalg import tensor

        n = 3
        s = random_antipodal_strategy(n, 31)
        table = probability_table(s)
        for j in (2, 3):
            for x1 in range(2):
                for a1 in range(2):
                    for aj in range(2):
                        marginal = np.zeros(2**n)
                        for a_sp in range(2):
                            abits = {1: a1, j: aj}
                            spectator = 5 - j  # the remaining sender of {2, 3}
                            abits[spectator] = a_sp
                            factors = [
                                s.senders[k - 1].rho[
                                    abits[k], x1 if k == 1 else (1 if k == j else 0)
                                ]
                                for k in range(1, n + 1)
                            ]
                            joint = tensor(factors)
                            marginal += 0.5 * np.einsum(
                                "mji,ij->m", s.povm.elements, joint
                            ).real
                        assert np.abs(table.pair[j - 2, x1, a1, aj] - marginal).max() < 1e-12


class TestCounterexample:
    def test_uniform_table_value(self):
        table = np.full((2, 3, 3), 0.5)
        assert abs(counterexample_metric(table) + 1.0) < 1e-14

    def test_entangling_parameters_value(self):
        # frozen evaluation of the quoted parameter set (see decisions ledger:
        # it does not reach the optimum the source quotes for it)
        assert abs(counterexample_value(entangling_fixture()) - 2.222295303428595) < 1e-9

    def test_separable_parameters_value(self):
        assert abs(counterexample_value(separable_fixture()) - 2.785012936276733) < 1e-9

    def test_table_shape_gate(self):
        with pytest.raises(InvalidInput):
            counterexample_metric(np.zeros((2, 3)))

    def test_table_builder_normalizes(self):
        t = counterexample_table(separable_fixture())
        assert np.abs(t.sum(axis=0) - 1).max() < 1e-12

    def test_table_and_cost_operator_against_kronecker_products(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            s = random_counterexample_strategy(rng)
            table = counterexample_table(s)
            cost = np.zeros((4, 4), dtype=complex)
            for y1 in range(3):
                for y2 in range(3):
                    joint = np.kron(s.states[0, y1], s.states[1, y2])
                    assert abs(table[0, y1, y2] - np.trace(joint @ s.m0).real) <= 1e-14
                    cost += COUNTEREXAMPLE_COEFFS.get((y1 + 1, y2 + 1), 0.0) * joint
            assert np.array_equal(table[1], 1 - table[0])
            assert np.abs(counterexample_costs(s.states) - cost).max() <= 1e-14
            assert counterexample_metric(table) == counterexample_value(s)

    def test_stacked_scores_match_single_strategies_bitwise(self):
        rng = np.random.default_rng(32)
        strategies = [random_counterexample_strategy(rng) for _ in range(4)]
        scores = counterexample_scores(np.stack([s.states for s in strategies]),
                                       np.stack([s.m0 for s in strategies]))
        assert scores.tolist() == [counterexample_value(s) for s in strategies]


def random_counterexample_strategy(rng) -> CounterexampleStrategy:
    """Mixed qubit states and a random effect 0 <= m0 <= I."""
    z = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
    states = z @ z.conj().swapaxes(-1, -2)
    states /= np.trace(states, axis1=-2, axis2=-1)[..., None, None]
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m0 = z @ z.conj().T
    return CounterexampleStrategy(states=states, m0=m0 / np.linalg.eigvalsh(m0)[-1])


class TestPartialBell:
    def test_first_witness_norm(self):
        ops = a_operators(partial_bell_strategy())
        w1, w2, w3 = partial_witnesses(ops)
        want = SQRT2 * (tensor([SIGMA_X, SIGMA_X]) + tensor([SIGMA_Z, SIGMA_Z]))
        assert np.abs(w1 - want).max() < 1e-12
        assert abs(op_norm(w1) - 2 * SQRT2) < 1e-12

    def test_psi_block_trace(self):
        s = partial_bell_strategy()
        _, _, w3 = partial_witnesses(a_operators(s))
        val = float(np.trace(s.povm.elements[2] @ w3).real)
        assert abs(val - 4 * SQRT2) < 1e-12

    def test_zero_ops(self):
        ws = partial_witnesses(np.zeros((2, 2, 2, 2), dtype=complex))
        assert all(np.abs(w).max() == 0 for w in ws)

    def test_stacked_scores_match_single_strategies_bitwise(self):
        noisy = [depolarized_partial_bell(p) for p in (0.0, 0.1, 0.3)]
        ops = np.stack([a_operators(s) for s in noisy])
        scores = comm_scores(ops, np.stack([s.povm.elements for s in noisy]))
        assert scores.tolist() == [comm_metric(s) for s in noisy]

    def test_wrong_sender_count(self):
        with pytest.raises(InvalidInput):
            partial_witnesses(np.zeros((3, 2, 2, 2), dtype=complex))

    def test_comm_metric_ideal(self):
        assert abs(comm_metric(partial_bell_strategy()) - 1) < 1e-12

    def test_comm_metric_mixed_messages(self):
        base = partial_bell_strategy()
        rho = np.zeros((2, 2, 2, 2), dtype=complex)
        rho[:, :] = I2 / 2
        s = Strategy(
            n=2,
            senders=(SenderStates(rho.copy()), SenderStates(rho.copy())),
            povm=base.povm,
            task="partial_bell",
            observables=base.observables,
        )
        assert abs(comm_metric(s)) < 1e-12

    def test_comm_metric_depolarized(self):
        assert abs(comm_metric(depolarized_partial_bell(0.12)) - 0.88) < 1e-12

    def test_povm_arity_gate(self):
        base = partial_bell_strategy()
        with pytest.raises(InvalidInput):
            comm_metric(Strategy(n=2, senders=base.senders, povm=ideal_strategy(2).povm))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_success_scores_match_success_metric_bitwise(n):
    strategies = [random_mixed_strategy(n, seed) for seed in range(3)]
    ops = np.stack([a_operators(s) for s in strategies])
    scores = success_scores(ops, np.stack([s.povm.elements for s in strategies]))
    assert scores.tolist() == [success_metric(s) for s in strategies]


@pytest.mark.parametrize("form", ["basis", "dense"])
def test_success_metric_never_copies_the_element_stack(form):
    strategy = ideal_strategy(7)
    if form == "dense":
        strategy = Strategy(n=7, senders=strategy.senders, povm=Povm(strategy.povm.elements))
    success_metric(strategy)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        success_metric(strategy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # the (128, 128, 128) complex element stack alone is 33.5 MB


class TestRac:
    def test_ideal_value(self):
        sender = ideal_sender_states(1, 2)
        val = rac_metric(sender, SIGMA_X, SIGMA_Z)
        assert abs(val - (1 + 1 / SQRT2) / 2) < 1e-12

    def test_mixed_messages_guess_randomly(self):
        rho = np.zeros((2, 2, 2, 2), dtype=complex)
        rho[:, :] = I2 / 2
        assert abs(rac_metric(SenderStates(rho), SIGMA_X, SIGMA_Z) - 0.5) < 1e-14

    def test_parametrized_family_meets_bound(self):
        # angle pi/3 messages: best observables reach the closed-form bound
        from ghz_selftest.robustness import parametrized_a_operators

        ops = parametrized_a_operators([np.pi / 3, np.pi / 4])
        rho = np.zeros((2, 2, 2, 2), dtype=complex)
        for a in range(2):
            for x in range(2):
                rho[a, x] = (I2 + (-1) ** a * ops[0, x]) / 2
        sender = SenderStates(rho)
        mx, mz = best_rac_observables(sender)
        val = rac_metric(sender, mx, mz)
        bound = rac_bound(bloch_from_relabeled(sender))
        assert abs(val - 0.8415063509461097) < 1e-12
        assert abs(bound - val) < 1e-12

    def test_invalid_observable(self):
        with pytest.raises(InvalidInput):
            rac_metric(ideal_sender_states(1, 2), 2 * SIGMA_X, SIGMA_Z)

    def test_bound_ideal_and_zero(self):
        sender = ideal_sender_states(1, 2)
        assert abs(rac_bound(bloch_from_relabeled(sender)) - (1 + 1 / SQRT2) / 2) < 1e-12
        assert abs(rac_bound(np.zeros((2, 2, 3))) - 0.5) < 1e-14

    def test_bound_rejects_long_vectors(self):
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = 1.5
        with pytest.raises(InvalidBloch):
            rac_bound(bad)

    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 0, 2), Ellipsis])
    def test_bound_rejects_nan_vectors(self, where):
        bad = np.zeros((2, 2, 3))
        bad[where] = np.nan
        with pytest.raises(InvalidBloch):
            rac_bound(bad)

    def test_bound_dominates_best_observables(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = np.zeros((2, 2, 2, 2), dtype=complex)
            for x in range(2):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                p = np.outer(v, v.conj())
                rho[0, x] = p
                rho[1, x] = I2 - p
            sender = SenderStates(rho)
            mx, mz = best_rac_observables(sender)
            val = rac_metric(sender, mx, mz)
            bound = rac_bound(bloch_from_relabeled(sender))
            assert val <= bound + 1e-9
