import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ghz_selftest.errors import (
    InvalidInput,
    NotHermitian,
    NotSelfTestable,
    PreconditionViolated,
)
from ghz_selftest import backends, linalg
from ghz_selftest.cli import parse_args, run
from ghz_selftest.fixtures import (
    computational_strategy,
    depolarized_strategy,
    entangling_fixture,
    ideal_strategy,
    literal_ideal_strategy,
    separable_fixture,
)
from ghz_selftest.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    fix_phase,
    herm_eig,
    herm_eigvals,
    projector,
    tensor,
)
from ghz_selftest.robustness import parametrized_a_operators
from ghz_selftest.scenario import a_operators, success_metric, witness_operator, witness_operators
from ghz_selftest.selftest import (
    DEFAULT_TOLERANCES,
    align_locals,
    alignment_error,
    antipodality_gap,
    certify_strategy,
    classify_outcome_measurement,
    min_shifted_eigenvalue,
    ppt_min_eig,
    sos_passes,
    sos_residual,
    spectrum_closed_form,
    spectrum_deviation,
    trace_bound,
    verify_ghz_measurement,
    witness_bounds,
    witness_spectra,
)
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    ghz_basis_state,
    ghz_povm,
    outcome_bits,
    random_antipodal_strategy,
    random_mixed_strategy,
    random_strategy,
)
from ghz_selftest.rng import make_rng

SQRT2 = np.sqrt(2)


def canonical_ops(n):
    return parametrized_a_operators([np.pi / 4] * n)


def haar_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSosResidual:
    def test_canonical_two_senders(self):
        assert sos_residual(2, 0, canonical_ops(2)) <= 1e-9

    def test_random_antipodal_three_senders(self):
        for seed in range(10):
            ops = a_operators(random_antipodal_strategy(3, seed))
            for m in range(8):
                assert sos_residual(3, m, ops) <= 1e-8

    def test_shifted_operator_psd(self):
        ops = canonical_ops(2)
        for m in range(4):
            shifted = 2 * SQRT2 * np.eye(4) - witness_operator(2, m, ops)
            assert herm_eigvals(shifted)[0] >= -1e-10

    def test_non_antipodal_rejected(self):
        ops = canonical_ops(2).copy()
        ops[0, 0] *= 0.5
        with pytest.raises(PreconditionViolated):
            sos_residual(2, 0, ops)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_square_defect_below_the_gate_is_measured(self, n):
        # |a|^2 - 1 is about 1e-7, below the 1e-6 gate; only t_c = (n-1)(2e+e^2)/sqrt(2) I is left
        eps = 5e-8
        ops = a_operators(ideal_strategy(n)).copy()
        ops[1, 0] *= 1 + eps
        value = sos_residual(n, 0, ops)
        assert value > 1e-8
        assert value == pytest.approx((n - 1) * (2 * eps + eps**2) / SQRT2, rel=1e-6)

    def test_overshoot_inside_the_remainder_tolerance_fails_the_shifted_bound(self):
        # |t_c| = 5e-9 passes its tolerance, but the top witness eigenvalue
        # exceeds 2*sqrt(2)*(n-1) by sqrt(2)*3.5e-9
        ops = a_operators(ideal_strategy(2)).copy()
        ops[1, 0] *= 1 + 3.5e-9
        residual = sos_residual(2, 0, ops)
        shift = min_shifted_eigenvalue(2, witness_spectra(ops))
        assert residual <= DEFAULT_TOLERANCES["sos_residual"]
        assert shift < -DEFAULT_TOLERANCES["spectrum"]
        assert not sos_passes(residual, shift, DEFAULT_TOLERANCES)
        assert sos_passes(residual, 0.0, DEFAULT_TOLERANCES)

    def test_same_for_every_outcome(self):
        rng = make_rng(5)
        ops = a_operators(random_antipodal_strategy(3, 21)).copy()
        ops *= 1 + 5e-8 * rng.uniform(-1, 1, size=(3, 2, 1, 1))
        values = [sos_residual(3, m, ops) for m in range(8)]
        assert values[0] > 1e-8
        assert max(values) - min(values) <= 1e-14


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.nan)]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("check", [lambda ops: sos_residual(2, 0, ops),
                                   lambda ops: witness_bounds(ops, 1e-9)],
                         ids=["sos_residual", "witness_bounds"])
def test_non_finite_operators_are_refused_before_any_solve(check, value, monkeypatch):
    def no_solve(m):
        raise AssertionError("solved")

    monkeypatch.setattr(backends, "eigh", no_solve)
    monkeypatch.setattr(backends, "eigvalsh", no_solve)
    ops = canonical_ops(2).copy()
    ops[1, 0, 0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="sender 2, input 0 has a non-finite entry"):
            check(ops)


def trace_perturbed(strategy, eps, seed):
    """``strategy`` with every message state scaled by ``1 + e``, ``|e| <= eps``:
    the difference operators get traces of order ``eps``, and the states stay
    valid while ``eps`` is within the validation's trace tolerance."""
    rng = make_rng(seed)
    senders = tuple(SenderStates(st.rho * (1 + eps * rng.uniform(-1, 1, size=(2, 2, 1, 1))))
                    for st in strategy.senders)
    return Strategy(n=strategy.n, senders=senders, povm=strategy.povm)


def orbit_inputs(n):
    """The four certify fixtures and random antipodal and mixed strategies."""
    return {
        "ideal": ideal_strategy(n),
        "literal": literal_ideal_strategy(n),
        "computational": computational_strategy(n),
        "depolarized": depolarized_strategy(n, 0.05),
        "antipodal": random_antipodal_strategy(n, 3),
        "mixed": random_mixed_strategy(n, 7),
    }


def full_spectra(ops):
    """Each outcome's own witness solved on its own."""
    return np.stack([herm_eigvals(w) for w in witness_operators(ops)])


def witness_matrix_solves(monkeypatch, ops_list, run):
    """How many ``2**n``-dimensional matrices that ``run()`` hands to
    ``backends.eigvalsh`` are (symmetrized) witnesses of one of ``ops_list``."""
    witnesses = np.concatenate([witness_operators(ops) for ops in ops_list])
    d = witnesses.shape[-1]
    seen = []
    solve = backends.eigvalsh

    def spy(m):
        if m.shape[-1] == d:
            seen.extend(m.reshape(-1, d, d))
        return solve(m)

    monkeypatch.setattr(backends, "eigvalsh", spy)
    run()
    monkeypatch.undo()
    return sum(np.abs(witnesses - m).max(axis=(1, 2)).min() <= 1e-9 for m in seen)


class TestWitnessSpectra:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_outcome_solves(self, n):
        # rows are copied from the orbit representatives: equal up to rounding
        for name, strategy in orbit_inputs(n).items():
            ops = a_operators(strategy)
            spectra = witness_spectra(ops)
            assert spectra.shape == (2**n, 2**n)
            assert np.abs(spectra - full_spectra(ops)).max() <= 1e-12, name

    def test_outcome_rows_are_their_representatives(self):
        ops = a_operators(random_mixed_strategy(4, 7))
        spectra = witness_spectra(ops)
        for outcomes in ([5], [6, 3], [3, 0, 3]):
            assert np.array_equal(witness_spectra(ops, outcomes), spectra[outcomes])

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_outcome_rows_and_one_witness_chunks_keep_every_byte(self, kind, monkeypatch):
        n = 4
        # traced operators: witness_bounds solves every outcome's own witness
        stack = np.stack([a_operators(random_mixed_strategy(n, seed)) for seed in (7, 8)])
        stack = (stack.real if kind == "real" else stack) + 1e-3 * np.eye(2)
        assert stack.dtype == (float if kind == "real" else complex)
        outcomes = [11, 0, 5, 11]
        for ops in (stack[0], stack):
            every = witness_operators(ops)
            got = witness_operators(ops, outcomes)
            assert got.tobytes() == every[..., outcomes, :, :].tobytes()
        ops = stack[0]
        assert trace_bound(ops) > 1e-9 / 10
        want = [witness_spectra(ops).tobytes(), np.array(witness_bounds(ops, 1e-9)).tobytes()]
        assert len(list(linalg.chunks(2**n, 4**n))) == 1
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4**n)  # one witness per chunk
        assert len(list(linalg.chunks(2**n, 4**n))) == 2**n
        assert [witness_spectra(ops).tobytes(),
                np.array(witness_bounds(ops, 1e-9)).tobytes()] == want

    def test_never_holds_the_witness_stack(self):
        ops = a_operators(ideal_strategy(7))
        witness_spectra(ops)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            witness_spectra(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the (128, 128, 128) complex stack alone is 33.5 MB

    def test_min_shifted_eigenvalue_matches_shifted_solves(self):
        # mixed messages at even n: the top eigenvalue differs between outcomes
        n = 4
        ops = a_operators(random_mixed_strategy(n, 7))
        tops = witness_spectra(ops)[:, -1]
        assert tops.max() - tops.min() > 0.01
        want = min(herm_eigvals(2 * SQRT2 * (n - 1) * np.eye(2**n) - w)[0]
                   for w in witness_operators(ops))
        assert min_shifted_eigenvalue(n, witness_spectra(ops)) == pytest.approx(want, abs=1e-12)

    def test_invariant_under_local_unitaries(self):
        rng = make_rng(8)
        base = canonical_ops(3)
        vs = [haar_unitary(rng) for _ in range(3)]
        conj = np.stack([[v @ base[j, x] @ v.conj().T for x in range(2)]
                         for j, v in enumerate(vs)])
        assert np.abs(witness_spectra(conj) - witness_spectra(base)).max() <= 1e-12


class TestTraceBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_zero_for_exactly_traceless_operators(self, n):
        for name in ("ideal", "literal", "computational", "depolarized"):
            assert trace_bound(a_operators(orbit_inputs(n)[name])) == 0.0, name

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bounds_the_deviation_of_perturbed_traces(self, n):
        for seed, base in enumerate((ideal_strategy(n), random_antipodal_strategy(n, 3),
                                     random_mixed_strategy(n, 7))):
            strategy = trace_perturbed(base, 1e-10, seed)
            strategy.validate()
            ops = a_operators(strategy)
            delta = trace_bound(ops)
            moved = np.abs(witness_spectra(ops) - full_spectra(ops)).max()
            assert 1e-12 < delta <= 1e-7
            assert moved <= delta

    def test_bounds_every_witness_norm_difference(self):
        rng = make_rng(4)
        for n in (2, 3, 4):
            ops = a_operators(random_mixed_strategy(n, 11))
            ops = ops + 1e-3 * rng.uniform(-1, 1, size=(n, 2, 1, 1)) * I2
            ops0 = ops - np.trace(ops, axis1=-2, axis2=-1)[..., None, None] / 2 * I2
            gap = np.linalg.norm(witness_operators(ops) - witness_operators(ops0), ord=2,
                                 axis=(1, 2)).max()
            assert gap <= trace_bound(ops) <= 10 * gap

    def test_large_bound_falls_back_to_the_full_solve(self):
        # delta above a tenth of the spectrum tolerance: the full solve decides
        strategy = trace_perturbed(ideal_strategy(4), 1e-10, 2)
        strategy.validate()
        ops = a_operators(strategy)
        assert trace_bound(ops) > DEFAULT_TOLERANCES["spectrum"] / 10
        full = full_spectra(ops)
        report = certify_strategy(strategy)
        assert report.spectrum_diff == pytest.approx(spectrum_deviation(4, full), abs=1e-13)
        assert report.min_shifted_eigenvalue == pytest.approx(
            min_shifted_eigenvalue(4, full), abs=1e-13)
        assert report.checks["spectrum"] == (spectrum_deviation(4, full)
                                             <= DEFAULT_TOLERANCES["spectrum"])
        assert report.checks == certify_strategy(ideal_strategy(4)).checks

    def test_undecided_verdict_falls_back_to_the_full_solve(self):
        # a tolerance within delta of the orbit deviation: the two ends disagree
        ops = a_operators(trace_perturbed(random_antipodal_strategy(3, 3), 1e-13, 1))
        delta = trace_bound(ops)
        rows = witness_spectra(ops)
        tol = spectrum_deviation(3, rows)
        assert 0 < delta <= tol / 10
        full = full_spectra(ops)
        assert witness_bounds(ops, tol) == (spectrum_deviation(3, full),
                                            min_shifted_eigenvalue(3, full))
        assert witness_bounds(ops, 2 * tol) == (tol + delta, min_shifted_eigenvalue(3, rows) - delta)


class TestOrbitSolves:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_or_two_witness_solves_per_certify(self, n, monkeypatch):
        for strategy in (ideal_strategy(n), random_antipodal_strategy(n, 3)):
            count = witness_matrix_solves(monkeypatch, [a_operators(strategy)],
                                          lambda: certify_strategy(strategy))
            assert count == 2 - n % 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_or_two_witness_solves_per_sos_sample(self, n, monkeypatch, tmp_path):
        samples = [a_operators(random_antipodal_strategy(n, 5 + k)) for k in range(3)]
        argv = ["sos", "--n", str(n), "--samples", "3", "--seed", "5",
                "-o", str(tmp_path / "r.json")]
        count = witness_matrix_solves(monkeypatch, samples, lambda: run(parse_args(argv)))
        assert count == 3 * (2 - n % 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_or_two_witness_solves_per_spectrum_run(self, n, monkeypatch, tmp_path):
        argv = ["spectrum", "--n", str(n), "-o", str(tmp_path / "r.json")]
        count = witness_matrix_solves(monkeypatch, [canonical_ops(n)],
                                      lambda: run(parse_args(argv)))
        assert count == 2 - n % 2


class TestSpectrum:
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_fewer_than_two_senders_are_refused(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=f"need at least two senders, got n={n}"):
                spectrum_closed_form(n, 0)

    def test_two_sender_values(self):
        vals = np.sort(spectrum_closed_form(2, 0))
        want = np.array([-2 * SQRT2, 0, 0, 2 * SQRT2])
        assert np.abs(vals - want).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_top_value_non_degenerate(self, n):
        for m in range(2**n):
            vals = spectrum_closed_form(n, m)
            top = 2 * SQRT2 * (n - 1)
            assert abs(vals.max() - top) < 1e-12
            assert (np.abs(vals - top) < 1e-9).sum() == 1
            assert abs(vals[m] - top) < 1e-12  # attained exactly at s' = s

    def test_matches_numeric_three_senders(self):
        ws = witness_operators(canonical_ops(3))
        for m in range(8):
            numeric = herm_eigvals(ws[m])
            assert np.abs(numeric - np.sort(spectrum_closed_form(3, m))).max() <= 1e-9

    def test_matches_numeric_at_dimension_ceiling(self):
        # spot check at the largest supported sender count (dim 128)
        for n, m in ((6, 0), (7, 0), (7, 77)):
            w = witness_operator(n, m, canonical_ops(n))
            numeric = herm_eigvals(w)
            assert np.abs(numeric - np.sort(spectrum_closed_form(n, m))).max() <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sorted_closed_form_is_one_row(self, n):
        rows = np.sort([spectrum_closed_form(n, m) for m in range(2**n)], axis=1)
        assert (rows == rows[0]).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_deviation_against_every_outcome_closed_form(self, n):
        closed = np.sort([spectrum_closed_form(n, m) for m in range(2**n)], axis=1)
        for ops in (canonical_ops(n), a_operators(random_antipodal_strategy(n, 3))):
            spectra = witness_spectra(ops)
            assert spectrum_deviation(n, spectra) == np.abs(spectra - closed).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_top_eigenvector_is_ghz(self, n):
        ws = witness_operators(canonical_ops(n))
        for m in range(2**n):
            es = herm_eig(ws[m])
            xi = ghz_basis_state(m, n)
            assert abs(np.vdot(xi, es.vectors[:, -1])) ** 2 >= 1 - 1e-9


class TestAlignment:
    def test_canonical_needs_no_rotation(self):
        ops = canonical_ops(2)
        us = align_locals(ops)
        assert alignment_error(ops, us) <= 1e-10

    def test_round_trip_under_conjugation(self):
        rng = make_rng(11)
        for n in (2, 3):
            base = canonical_ops(n)
            for _ in range(10):
                vs = [haar_unitary(rng) for _ in range(n)]
                conj = np.stack(
                    [
                        np.stack([v @ base[j, x] @ v.conj().T for x in range(2)])
                        for j, v in enumerate(vs)
                    ]
                )
                us = align_locals(conj)
                assert alignment_error(conj, us) <= 1e-8

    def test_anticommutator_gate(self):
        # pair with ||{A0, A1}|| = 0.5
        theta = np.arccos(0.25)
        a1 = np.cos(theta) * SIGMA_Z + np.sin(theta) * SIGMA_X
        ops = np.zeros((2, 2, 2, 2), dtype=complex)
        ops[0, 0] = SIGMA_Z
        ops[0, 1] = a1
        ops[1, 0] = SIGMA_X
        ops[1, 1] = SIGMA_Z
        with pytest.raises(NotSelfTestable):
            align_locals(ops)


class TestVerifyGhz:
    def test_ideal_povm_identity_frames(self):
        fids = verify_ghz_measurement(ghz_povm(2), [I2, I2])
        assert np.abs(fids - 1).max() < 1e-12

    def test_conjugated_round_trip(self):
        rng = make_rng(3)
        n = 2
        base = ideal_strategy(n)
        for _ in range(10):
            vs = [haar_unitary(rng) for _ in range(n)]
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
                for v, st in zip(vs, base.senders)
            )
            povm = Povm(np.stack([big @ m @ big.conj().T for m in base.povm.elements]))
            conj = Strategy(n=n, senders=senders, povm=povm)
            us = align_locals(a_operators(conj))
            fids = verify_ghz_measurement(povm, us)
            assert fids.min() >= 1 - 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_per_outcome_reference(self, n):
        rng = make_rng(n)
        povm = random_mixed_strategy(n, n).povm
        us = [haar_unitary(rng) for _ in range(n)]
        big = tensor(us)
        want = [
            (ghz_basis_state(m, n).conj() @ big @ povm.elements[m] @ big.conj().T
             @ ghz_basis_state(m, n)).real
            for m in range(2**n)
        ]
        assert np.abs(verify_ghz_measurement(povm, us) - want).max() < 1e-14

    def test_computational_measurement_has_half_fidelity(self):
        s = computational_strategy(3)
        fids = verify_ghz_measurement(s.povm, [I2] * 3)
        assert np.abs(fids - 0.5).max() < 1e-12

    def test_arity_gate(self):
        with pytest.raises(InvalidInput):
            verify_ghz_measurement(ghz_povm(3), [I2, I2])


class TestPpt:
    def test_bell_projector(self):
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / SQRT2
        assert abs(ppt_min_eig(projector(phi)) + 0.5) < 1e-12

    def test_quoted_entangled_component(self):
        l1, l2 = 0.9413, 0.3375
        psi = np.zeros(4)
        psi[0], psi[3] = l1, l2
        val = ppt_min_eig(projector(psi))
        assert val < -1e-8
        assert abs(val - (-0.3177040188551462)) < 1e-9

    def test_separable_measurement_stays_psd(self):
        m0 = separable_fixture().m0
        assert ppt_min_eig(m0 / np.trace(m0).real) >= -1e-10

    def test_entangling_measurement_detected(self):
        m0 = entangling_fixture().m0
        assert ppt_min_eig(m0 / np.trace(m0).real) < -1e-8

    def test_dimension_gate(self):
        with pytest.raises(InvalidInput):
            ppt_min_eig(np.eye(8))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_entry_is_refused_by_name(self, value):
        m = np.eye(4, dtype=complex) / 4
        m[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"entry \(2, 1\) of the operator is not"):
                ppt_min_eig(m)


class TestAntipodality:
    def test_ideal_is_exactly_antipodal(self):
        assert antipodality_gap(ideal_strategy(2)) <= 1e-12

    def test_maximally_mixed(self):
        rho = np.zeros((2, 2, 2, 2), dtype=complex)
        rho[:, :] = I2 / 2
        base = ideal_strategy(2)
        s = Strategy(
            n=2, senders=(SenderStates(rho.copy()), SenderStates(rho.copy())), povm=base.povm
        )
        # overlap term 1/2 plus purity deficit 1/2
        assert abs(antipodality_gap(s) - 1.0) < 1e-12

    def test_zero_plus_pair(self):
        rho = ideal_strategy(2).senders[1].rho.copy()
        rho[0, 0] = projector([1, 0])
        rho[1, 0] = projector([1, 1])
        s = Strategy(
            n=2,
            senders=(ideal_strategy(2).senders[0], SenderStates(rho)),
            povm=ideal_strategy(2).povm,
        )
        assert abs(antipodality_gap(s) - 0.5) < 1e-12


class TestTraceArgument:
    def test_near_optimal_povms_have_unit_traces(self):
        # any POVM whose total witness trace is within 1e-7 of the optimum
        # must have every element trace within 1e-6 of one
        n = 2
        ops = canonical_ops(n)
        ws = witness_operators(ops)
        base = ghz_povm(n).elements
        rng = make_rng(17)
        top = 2**n * 2 * SQRT2 * (n - 1)
        found = 0
        for _ in range(40):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            _, v = np.linalg.eigh(g + g.conj().T)
            rand_povm = np.stack([np.outer(v[:, k], v[:, k].conj()) for k in range(4)])
            t = rng.uniform(0, 3e-9)
            els = (1 - t) * base + t * rand_povm
            total = sum(np.trace(els[m] @ ws[m]).real for m in range(4))
            if total >= top - 1e-7:
                found += 1
                for m in range(4):
                    assert abs(np.trace(els[m]).real - 1) <= 1e-6
        assert found > 0

    def test_x_structure_of_canonical_witness(self):
        for n in (2, 3):
            ws = witness_operators(canonical_ops(n))
            d = 2**n
            for m in range(d):
                bits = outcome_bits(m, n)
                w = ws[m]
                counter = np.array([w[i, d - 1 - i] for i in range(d)])
                assert np.abs(counter - SQRT2 * (n - 1) * (-1) ** bits[0]).max() <= 1e-9
                # everything off the two diagonals vanishes
                mask = np.ones((d, d), dtype=bool)
                np.fill_diagonal(mask, False)
                mask[np.arange(d), d - 1 - np.arange(d)] = False
                assert np.abs(w[mask]).max() <= 1e-12


def skewed_ideal_strategy() -> Strategy:
    """``ideal_strategy(3)`` with ``4.5e-11 i I`` added to sender 2's
    ``rho[0, 0]``: Hermitian within ``STATE_ATOL``, not exactly."""
    base = ideal_strategy(3)
    rho = base.senders[1].rho.copy()
    rho[0, 0] += 4.5e-11j * I2
    senders = (base.senders[0], SenderStates(rho), base.senders[2])
    return Strategy(n=3, senders=senders, povm=base.povm)


class TestBasisForm:
    """The certify reads of a POVM held as its basis agree with the same POVM
    held dense, and never build its element stack."""

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("make", [ideal_strategy, computational_strategy],
                             ids=["ideal", "computational"])
    def test_reads_agree_with_the_dense_form(self, make, n):
        strategy = make(n)
        strategy.validate()
        dense = Strategy(n=n, senders=strategy.senders, povm=Povm(strategy.povm.elements))
        dense.validate()
        assert abs(success_metric(strategy) - success_metric(dense)) <= 1e-14
        ops = a_operators(strategy)
        unitaries = align_locals((ops + ops.conj().swapaxes(-1, -2)) / 2)
        fids = verify_ghz_measurement(strategy.povm, unitaries)
        assert np.abs(fids - verify_ghz_measurement(dense.povm, unitaries)).max() <= 1e-14
        assert np.abs(strategy.povm.traces() - dense.povm.traces()).max() <= 1e-14

    def test_certify_never_builds_the_element_stack(self):
        certify_strategy(ideal_strategy(7))  # warm caches outside the measurement
        tracemalloc.start()
        try:
            report = certify_strategy(ideal_strategy(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 10e6  # the (128, 128, 128) complex element stack alone is 33.5 MB


class TestCertify:
    def test_ideal_passes_everything(self):
        report = certify_strategy(ideal_strategy(2))
        assert report.passed
        assert abs(report.metric_value - 1) < 1e-10
        assert min(report.ghz_fidelities) >= 1 - 1e-10
        assert report.sos_residual <= 1e-9
        assert report.min_shifted_eigenvalue >= -1e-9
        assert report.spectrum_diff <= 1e-9
        # GHZ-basis outcomes are all entangled
        assert max(report.ppt_min_eigs) < -0.4

    def test_literal_variant_passes(self):
        assert certify_strategy(literal_ideal_strategy(3)).passed

    def test_states_hermitian_within_state_atol_are_certified(self):
        # an anti-Hermitian part within STATE_ATOL validates; the checks read
        # the Hermitian parts of the message operators and report, not raise
        strategy = skewed_ideal_strategy()
        strategy.validate()
        report = certify_strategy(strategy)
        assert report.passed
        assert report.alignment_error <= 1e-12
        assert report.sos_residual <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("where", ["sender", "povm"])
    def test_non_finite_entries_are_invalid_input(self, n, kind, where):
        # NaN and inf pass the Hermiticity, trace and sum checks, and LAPACK
        # fails on them, so they are refused before any solve
        base = ideal_strategy(n) if kind == "real" else random_strategy(n, 3)
        senders, elements = list(base.senders), base.povm.elements.copy()
        if where == "sender":
            rho = senders[-1].rho.copy()
            rho[1, 0, 0, 1] = np.nan
            senders[-1] = SenderStates(rho)
            want = f"sender {n}: state (1|0) has a non-finite entry"
        else:
            elements[1, 2, 2] = np.inf
            want = "POVM element 1 has a non-finite entry"
        strategy = Strategy(n=n, senders=tuple(senders), povm=Povm(elements))
        with pytest.raises(InvalidInput) as exc:
            certify_strategy(strategy)
        assert str(exc.value) == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_full_pipeline_scales(self, n):
        report = certify_strategy(ideal_strategy(n))
        assert report.passed
        assert len(report.ghz_fidelities) == 2**n
        assert report.sos_residual <= 1e-9
        assert report.min_shifted_eigenvalue >= -1e-9
        assert report.ppt_min_eigs == []  # decisive only on two qubits

    def test_computational_measurement_fails(self):
        report = certify_strategy(computational_strategy(2))
        assert not report.passed
        assert not report.checks["metric"]
        assert not report.checks["ghz_fidelity"]
        assert np.abs(np.array(report.ghz_fidelities) - 0.5).max() < 1e-12

    @pytest.mark.parametrize("strategy", [
        ideal_strategy(2), computational_strategy(2), depolarized_strategy(3, 0.05),
        random_strategy(2, 0),  # its message operators do not anticommute
    ], ids=["ideal", "computational", "depolarized", "not-self-testable"])
    def test_checks_are_python_bools_and_the_report_serializes(self, strategy):
        report = certify_strategy(strategy)
        assert all(type(v) is bool for v in report.checks.values()), report.checks
        assert json.loads(json.dumps(report.to_dict()))["passed"] == report.passed

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(InvalidInput):
            certify_strategy(ideal_strategy(2), {"bogus": 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_value_rejected(self, value):
        with pytest.raises(InvalidInput, match="tolerance metric must be finite and >= 0"):
            certify_strategy(ideal_strategy(2), {"metric": value})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sub_gate_message_defect_fails_sos(self, n):
        # sender 2's x=0 messages mixed by 5e-8: antipodal within its tolerance
        base = ideal_strategy(n)
        eps = 5e-8
        sender = base.senders[1]
        a = sender.rho[0, 0] - sender.rho[1, 0]
        rho = sender.rho.copy()
        for bit in range(2):
            rho[bit, 0] = (np.eye(2) + (-1) ** bit * (1 - eps) * a) / 2
        senders = list(base.senders)
        senders[1] = SenderStates(rho)
        strategy = Strategy(n=n, senders=tuple(senders), povm=base.povm)
        report = certify_strategy(strategy)
        assert report.checks["antipodality"]
        assert report.sos_residual > 1e-8
        assert not report.checks["sos"]

    def test_one_remainder_and_one_spectra_call(self, monkeypatch):
        import ghz_selftest.selftest as selftest

        calls = {"sos_residual": 0, "witness_spectra": 0}
        for name in calls:
            original = getattr(selftest, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(selftest, name, counted)
        assert selftest.certify_strategy(ideal_strategy(4)).passed
        assert calls == {"sos_residual": 1, "witness_spectra": 1}

    def test_spectrum_reported_when_alignment_fails(self):
        report = certify_strategy(random_antipodal_strategy(3, 4))
        assert not report.checks["alignment"]
        assert report.spectrum_diff > 1e-9
        assert not report.checks["spectrum"]
        # antipodal messages: t_c vanishes and the shifted witnesses are sums of squares
        assert report.sos_residual <= 1e-9
        assert report.min_shifted_eigenvalue >= -1e-9
        assert report.checks["sos"]


# ---------------------------------------------------------------------------
# the per-sender and per-element loops that the stacked checks replaced, kept
# as oracles: the stacked forms must reproduce them bit for bit
# ---------------------------------------------------------------------------


def _loop_abs_norm(m):
    ev = herm_eigvals(m)
    return float(max(abs(ev[0]), abs(ev[-1])))


def _loop_frame_pair(ops, j):
    if j == 0:
        return (ops[0, 0] + ops[0, 1]) / SQRT2, (ops[0, 0] - ops[0, 1]) / SQRT2
    return ops[j, 0], ops[j, 1]


def _loop_frame_unitary(x_op, z_op):
    es = herm_eig(z_op)
    v_minus = fix_phase(es.vectors[:, 0].copy())
    v_plus = fix_phase(es.vectors[:, 1].copy())
    x01 = complex(v_plus.conj() @ (x_op @ v_minus))
    if abs(x01) < 1e-9:
        raise NotSelfTestable("frame operators are too degenerate to align")
    v_minus = v_minus * (x01.conjugate() / abs(x01))
    return np.stack([v_plus.conj(), v_minus.conj()])


def _loop_align_locals(ops):
    for j in range(ops.shape[0]):
        anti = ops[j, 0] @ ops[j, 1] + ops[j, 1] @ ops[j, 0]
        if _loop_abs_norm(anti) > 1e-6:
            raise NotSelfTestable(
                f"sender {j + 1} operators do not anticommute "
                f"(defect {_loop_abs_norm(anti):.3g})"
            )
    return [_loop_frame_unitary(*_loop_frame_pair(ops, j)) for j in range(ops.shape[0])]


def _loop_alignment_error(ops, unitaries):
    worst = 0.0
    for j, u in enumerate(unitaries):
        x_op, z_op = _loop_frame_pair(ops, j)
        worst = max(worst, float(np.abs(u @ x_op @ u.conj().T - SIGMA_X).max()))
        worst = max(worst, float(np.abs(u @ z_op @ u.conj().T - SIGMA_Z).max()))
    return worst


def _loop_ppt_min_eigs(povm):
    out = []
    for m in povm.elements:
        t = float(np.trace(m).real)
        out.append(0.0 if t <= 1e-12 else ppt_min_eig(m / t))
    return out


def _loop_antipodality_gap(strategy):
    overlap = 0.0
    deficit = 0.0
    for st in strategy.senders:
        for x in range(2):
            overlap = max(overlap, float(np.trace(st.rho[0, x] @ st.rho[1, x]).real))
            for a in range(2):
                deficit = max(deficit, 1 - float(np.trace(st.rho[a, x] @ st.rho[a, x]).real))
    return overlap + deficit


def _loop_povm_traces(povm):
    return [float(np.trace(m).real) for m in povm.elements]


def _conjugated(strategy, senders, seed):
    """``strategy`` with the listed senders' messages turned by Haar unitaries."""
    rng = make_rng(seed)
    out = list(strategy.senders)
    for j in senders:
        v = haar_unitary(rng)
        out[j] = SenderStates(v @ out[j].rho @ v.conj().T)
    return Strategy(n=strategy.n, senders=tuple(out), povm=strategy.povm)


def _mixed_realness_povm():
    """Two-qubit Bell-type projectors, two real and two complex, plus a zero element."""
    vecs = np.array([[1, 0, 0, 1j], [1, 0, 0, -1j], [0, 1, 1, 0], [0, 1, -1, 0]]) / SQRT2
    return Povm(np.concatenate([projector(vecs), np.zeros((1, 4, 4))]))


def _stacked_case_strategies():
    fixtures = {"ideal": ideal_strategy, "literal": literal_ideal_strategy,
                "computational": computational_strategy,
                "depolarized": lambda n: depolarized_strategy(n, 0.1)}
    for name, make in fixtures.items():
        for n in range(2, 8):
            yield f"{name}-{n}", make(n)
    for make in (random_strategy, random_antipodal_strategy, random_mixed_strategy):
        for n in (2, 3, 4):
            for seed in (0, 1, 5, 11):
                yield f"{make.__name__}-{n}-{seed}", make(n, seed)
    for n in (2, 3, 5):
        # one sender real, the others turned complex; every sender complex
        yield f"mixed-realness-{n}", _conjugated(ideal_strategy(n), range(1, n), n)
        yield f"all-complex-{n}", _conjugated(ideal_strategy(n), range(n), 10 + n)


STACKED_CASES = dict(_stacked_case_strategies())


def _align_or_message(align, ops):
    try:
        return align(ops)
    except NotSelfTestable as exc:
        return str(exc)


class TestStackedChecksMatchPerSenderLoops:
    @pytest.mark.parametrize("name", sorted(STACKED_CASES))
    def test_alignment(self, name):
        ops = a_operators(STACKED_CASES[name])
        want = _align_or_message(_loop_align_locals, ops)
        got = _align_or_message(align_locals, ops)
        if isinstance(want, str):
            assert got == want
            return
        assert len(got) == len(want)
        assert all(g.shape == w.shape and (g == w).all() for g, w in zip(got, want))
        assert alignment_error(ops, got) == _loop_alignment_error(ops, want)

    @pytest.mark.parametrize("name", sorted(STACKED_CASES))
    def test_antipodality_gap_and_povm_traces(self, name):
        strategy = STACKED_CASES[name]
        assert antipodality_gap(strategy) == _loop_antipodality_gap(strategy)
        report = certify_strategy(strategy)
        assert report.povm_traces == _loop_povm_traces(strategy.povm)
        if strategy.n == 2:
            assert report.ppt_min_eigs == _loop_ppt_min_eigs(strategy.povm)

    @pytest.mark.parametrize("povm", [
        _mixed_realness_povm(), ghz_povm(2), entangling_fixture().povm,
        separable_fixture().povm,
    ], ids=["mixed-realness", "ghz", "entangling", "separable"])
    def test_ppt_classification(self, povm):
        got = classify_outcome_measurement(povm)
        assert [c["ppt_min_eig"] for c in got] == _loop_ppt_min_eigs(povm)
        assert [c["trace"] for c in got] == _loop_povm_traces(povm)
        assert [c["entangled"] for c in got] == [v < -1e-8 for v in _loop_ppt_min_eigs(povm)]

    def test_first_non_anticommuting_sender_is_named(self):
        ops = a_operators(ideal_strategy(4)).copy()
        ops[2, 1] = ops[2, 0]  # sender 3: {A, A} = 2 I
        ops[3, 1] = ops[3, 0]
        with pytest.raises(NotSelfTestable, match=r"^sender 3 operators do not anticommute "
                                                  r"\(defect 2\)$"):
            align_locals(ops)
        assert _align_or_message(align_locals, ops) == _align_or_message(_loop_align_locals, ops)

    @staticmethod
    def _error(align, ops):
        try:
            align(ops)
        except (NotSelfTestable, NotHermitian) as exc:
            return type(exc).__name__, str(exc)
        return None

    def test_errors_come_in_sender_order(self):
        # an anticommutator off the Hermiticity gate: 2i*eps*A_1 with eps = 4.5e-11
        skewed_anti = a_operators(ideal_strategy(4)).copy()
        skewed_anti[2, 0] = skewed_anti[2, 0] + 0.45e-10j * I2
        # a z operator off the gate whose anticommutator is exactly 0: X with Z + eps*i*Y
        skewed_z = a_operators(ideal_strategy(4)).copy()
        skewed_z[2, 1] = skewed_z[2, 1] + 0.6e-10 * np.array([[0, 1], [-1, 0]])
        non_anticommuting = (1, lambda ops, j: ops[j, 0])  # {A, A} = 2 I
        degenerate = (0, lambda ops, j: np.zeros((2, 2)))  # x_op = 0
        cases = {
            "anticommutator-after-off-gate": (skewed_anti, 3, non_anticommuting, "NotHermitian"),
            "anticommutator-before-off-gate": (skewed_anti, 1, non_anticommuting,
                                               "NotSelfTestable"),
            "frame-after-off-gate": (skewed_z, 3, degenerate, "NotHermitian"),
            "frame-before-off-gate": (skewed_z, 1, degenerate, "NotSelfTestable"),
        }
        for name, (base, j, (x, make), kind) in cases.items():
            ops = base.copy()
            ops[j, x] = make(ops, j)
            got = self._error(align_locals, ops)
            assert got == self._error(_loop_align_locals, ops), name
            assert got[0] == kind, name
