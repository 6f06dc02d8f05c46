import tracemalloc

import numpy as np
import pytest

from ghz_selftest.errors import InvalidInput, NotSelfTestable, PreconditionViolated
from ghz_selftest.fixtures import (
    computational_strategy,
    entangling_fixture,
    ideal_strategy,
    literal_ideal_strategy,
    separable_fixture,
)
from ghz_selftest.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    herm_eig,
    herm_eigvals,
    projector,
    tensor,
)
from ghz_selftest.robustness import parametrized_a_operators
from ghz_selftest.scenario import a_operators, witness_operator, witness_operators
from ghz_selftest.selftest import (
    DEFAULT_TOLERANCES,
    align_locals,
    alignment_error,
    antipodality_gap,
    certify_strategy,
    min_shifted_eigenvalue,
    ppt_min_eig,
    sos_passes,
    sos_residual,
    spectrum_closed_form,
    spectrum_deviation,
    verify_ghz_measurement,
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


class TestWitnessSpectra:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_per_outcome_solves(self, n):
        ops = a_operators(random_antipodal_strategy(n, 3))
        ws = witness_operators(ops)
        assert ws.imag.any(axis=(1, 2)).all()  # every solve is complex
        spectra = witness_spectra(ops)
        assert spectra.shape == (2**n, 2**n)
        for m in range(2**n):
            assert np.array_equal(spectra[m], herm_eigvals(ws[m]))

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


class TestSpectrum:
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
