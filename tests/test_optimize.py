import numpy as np
import pytest

from ghz_selftest.errors import InvalidInput
from ghz_selftest.fixtures import ideal_strategy, partial_bell_strategy
from ghz_selftest.linalg import projector, tensor
from ghz_selftest.optimize import (
    SeesawConfig,
    _effective_qubit_operator,
    optimal_povm_for_states,
    optimal_states_for_povm,
    seesaw,
)
from ghz_selftest.rng import make_rng
from ghz_selftest.scenario import (
    CounterexampleStrategy,
    a_operators,
    counterexample_value,
    success_metric,
)
from ghz_selftest.selftest import antipodality_gap, classify_outcome_measurement
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    ghz_basis_state,
    ghz_povm,
    random_antipodal_strategy,
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

    def test_output_is_valid_povm(self):
        for seed in range(10):
            s = random_strategy(3, seed)
            optimal_povm_for_states(3, a_operators(s)).validate()


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
                cur = optimal_states_for_povm(cur, "counterexample")
                val = counterexample_value(cur)
                assert val >= last - 1e-12
                if abs(val - last) < 1e-13:
                    break
                last = val
            best = max(best, counterexample_value(cur))
        assert best >= 2.8283


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
