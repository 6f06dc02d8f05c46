import csv as csvlib
import itertools
import math
import re
import warnings
from functools import reduce

import numpy as np
import pytest

from ghz_selftest import robustness
from ghz_selftest.errors import InequalityViolated, InvalidInput, Unsupported
from ghz_selftest.fixtures import depolarized_strategy, ideal_strategy, partial_bell_strategy
from ghz_selftest.linalg import (
    BLOCK_ENTRIES, SIGMA_A, SIGMA_B, SIGMA_X, SIGMA_Z, chunks, contract_slot, herm_eigvals,
    projector,
)
from ghz_selftest.rng import make_rng
from ghz_selftest.robustness import (
    FidelityBoundParams,
    analytic_params,
    apply_channel,
    avg_fidelity,
    channel_g,
    fidelity_lower_bound,
    gamma_operator,
    inequality_margin,
    k_operator,
    local_channel,
    margin_grid,
    meaningful_eps,
    parametrized_a_operators,
    partial_fidelity_bound,
    partial_meaningful_eps,
    reflected_angles,
    relabel_covariance_defect,
    relabel_unitary,
)
from ghz_selftest.scenario import (
    a_operators,
    comm_metric,
    partial_witnesses,
    success_metric,
    witness_operator,
)
from ghz_selftest.states import Povm, ghz_basis_state, outcome_index, random_strategy

SQRT2 = np.sqrt(2)


# ---------------------------------------------------------------------------
# per-point reference: explicit Kronecker-product operators, one point a time
# ---------------------------------------------------------------------------


def kron_all(factors):
    return reduce(np.kron, factors)


def ref_strength(a):
    return (1 + SQRT2) * (np.sin(a) + np.cos(a) - 1)


def ref_axis(slot, a):
    """Channel axis of 0-based sender slot ``slot``."""
    if slot == 0:
        return SIGMA_X if a <= np.pi / 4 else SIGMA_Z
    return SIGMA_A if a <= np.pi / 4 else SIGMA_B


def ref_channel(angles, m):
    """The product channel as an explicit sum over Kronecker products of axes."""
    out = np.zeros_like(m, dtype=complex)
    for flips in itertools.product((0, 1), repeat=len(angles)):
        weight = 1.0
        factors = []
        for slot, (flip, a) in enumerate(zip(flips, angles)):
            g = ref_strength(a)
            weight *= (1 - g) / 2 if flip else (1 + g) / 2
            factors.append(ref_axis(slot, a) if flip else np.eye(2))
        gam = kron_all(factors)
        out = out + weight * gam @ m @ gam
    return out


def ref_margin(n, s, angles, r, mu):
    """Minimum eigenvalue of ``K_s - r W_s - mu I`` from full-size operators."""
    xi = ghz_basis_state(s, n)
    k = np.outer(xi, xi.conj())
    for slot, a in enumerate(angles):
        g = ref_strength(a)
        gam = kron_all([np.eye(2**slot), ref_axis(slot, a), np.eye(2 ** (n - slot - 1))])
        k = (1 + g) / 2 * k + (1 - g) / 2 * gam @ k @ gam
    ops = []
    for slot, a in enumerate(angles):
        p, q = (SIGMA_X, SIGMA_Z) if slot == 0 else (SIGMA_A, SIGMA_B)
        ops.append((np.cos(a) * p + np.sin(a) * q, np.cos(a) * p - np.sin(a) * q))
    bits = [(s >> j) & 1 for j in range(n)]
    w = (n - 1) * (-1) ** bits[0] * kron_all(
        [ops[0][0] + ops[0][1]] + [ops[j][0] for j in range(1, n)]
    )
    for j in range(1, n):
        factors = [ops[0][0] - ops[0][1]] + [np.eye(2)] * (n - 1)
        factors[j] = ops[j][1]
        w = w + (-1) ** bits[j] * kron_all(factors)
    return float(np.linalg.eigvalsh(k - r * w - mu * np.eye(2**n))[0])


def read_grid_csv(path, n):
    """``(outcome, angle strings, margin)`` rows of a ``margin_grid`` CSV."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csvlib.reader(fh))
    assert rows[0] == ["s"] + [f"alpha_{j}" for j in range(1, n + 1)] + ["margin"]
    return [(outcome_index(r[0], n), r[1:-1], float(r[-1])) for r in rows[1:]]


def grid_points(n, step):
    axis = np.linspace(0, np.pi / 2, int(round((np.pi / 2) / step)) + 1)
    return list(itertools.product(axis, repeat=n))


def random_density(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    p = projector(v)
    r = rng.uniform(0, 1)
    return r * p + (1 - r) * np.eye(2) / 2


class TestChannel:
    def test_g_values(self):
        assert abs(channel_g(np.pi / 4) - 1) < 1e-14
        assert abs(channel_g(0.0)) < 1e-14
        assert abs(channel_g(np.pi / 2)) < 1e-14
        assert abs(channel_g(np.pi / 8) - 0.740108467525855) < 1e-12

    def test_g_domain(self):
        with pytest.raises(InvalidInput):
            channel_g(-0.1)
        with pytest.raises(InvalidInput):
            channel_g(np.pi / 2 + 0.1)

    def test_identity_at_quarter_pi(self):
        rng = make_rng(0)
        for j in (1, 2, 5):
            rho = random_density(rng)
            assert np.abs(local_channel(j, np.pi / 4, rho) - rho).max() < 1e-12

    def test_x_twirl_at_zero(self):
        rng = make_rng(1)
        rho = random_density(rng)
        want = (rho + SIGMA_X @ rho @ SIGMA_X) / 2
        assert np.abs(local_channel(1, 0.0, rho) - want).max() < 1e-14

    def test_trace_preserving_and_positive(self):
        rng = make_rng(2)
        for _ in range(100):
            j = int(rng.integers(1, 5))
            x = float(rng.uniform(0, np.pi / 2))
            rho = random_density(rng)
            out = local_channel(j, x, rho)
            assert abs(np.trace(out).real - 1) < 1e-12
            assert herm_eigvals(out)[0] >= -1e-12

    @pytest.mark.parametrize("j", [0, -3, 1.5, "2"])
    def test_sender_index_must_be_a_positive_integer(self, j):
        with pytest.raises(InvalidInput, match="sender index"):
            gamma_operator(j, 0.1)
        with pytest.raises(InvalidInput, match="sender index"):
            local_channel(j, 0.1, np.eye(2) / 2)

    def test_sender_index_accepts_numpy_integers(self):
        for j in (np.int64(1), np.int32(3)):
            assert np.array_equal(gamma_operator(j, 0.1), gamma_operator(int(j), 0.1))

    def test_self_dual(self):
        rng = make_rng(3)
        for _ in range(20):
            n = 2
            angles = rng.uniform(0, np.pi / 2, size=n)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = a + a.conj().T
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = b + b.conj().T
            lhs = np.trace(a @ apply_channel(angles, b))
            rhs = np.trace(apply_channel(angles, a) @ b)
            assert abs(lhs - rhs) < 1e-10


class TestKOperator:
    def test_identity_angles(self):
        xi = ghz_basis_state(0, 2)
        k = k_operator(2, 0, [np.pi / 4, np.pi / 4])
        assert np.abs(k - projector(xi)).max() < 1e-12

    def test_zero_angles_explicit_mixture(self):
        xi = projector(ghz_basis_state(0, 2))
        gx = np.kron(SIGMA_X, np.eye(2))
        ga = np.kron(np.eye(2), SIGMA_A)
        want = (xi + gx @ xi @ gx + ga @ xi @ ga + (gx @ ga) @ xi @ (ga @ gx)) / 4
        k = k_operator(2, 0, [0.0, 0.0])
        assert np.abs(k - want).max() < 1e-12

    def test_unit_trace_random_angles(self):
        rng = make_rng(4)
        for _ in range(20):
            angles = rng.uniform(0, np.pi / 2, size=3)
            k = k_operator(3, 5, angles)
            assert abs(np.trace(k).real - 1) < 1e-12
            assert herm_eigvals(k)[0] >= -1e-12


class TestGhzImages:
    """``k_operator`` and ``avg_fidelity`` use the Kronecker-sum images of the
    GHZ projectors; the qubit-by-qubit ``apply_channel`` is their reference."""

    @staticmethod
    def angle_points(n, seed):
        rng = make_rng(seed)
        points = [rng.uniform(0, np.pi / 2, size=n) for _ in range(4)]
        # the ends, and pi/4 where the channel axes switch branch
        points += [np.full(n, x) for x in (0.0, np.pi / 4, np.pi / 2)]
        points.append(np.resize([0.0, np.pi / 4, np.pi / 2], n))
        return points

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_k_operator_matches_apply_channel(self, n):
        for angles in self.angle_points(n, 20 + n):
            for s in range(2**n):
                want = apply_channel(angles, projector(ghz_basis_state(s, n)))
                k = k_operator(n, s, angles)
                assert np.abs(k - want).max() <= 1e-14, (s, angles)
                assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_k_operator_is_the_left_to_right_kronecker_sum(self, n):
        """Bit for bit the Kronecker sum of ``_slot_factors``, each product
        taken left to right as ``reduce(np.kron, ...)`` does."""
        for angles in self.angle_points(n, 40 + n):
            for s in range(2**n):
                factors, sign = robustness._slot_factors(
                    n, np.array([s]), robustness._check_angles(angles, n))
                l_aa, l_bb, l_ab = (kron_all(f) for f in factors[:, 0])
                want = (l_aa + l_bb + sign[0] * (l_ab + l_ab.T)) / 2
                k = k_operator(n, s, angles)
                assert k.tobytes() == want.tobytes(), (s, angles)
                assert np.array_equal(k, k.T)

    def test_k_operator_takes_every_outcome_form(self):
        angles = [0.3, 1.2, 0.7]
        want = k_operator(3, 5, angles)
        for s in ("101", [1, 0, 1], np.int64(5)):
            assert np.array_equal(k_operator(3, s, angles), want)
        with pytest.raises(InvalidInput):
            k_operator(3, 8, angles)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_avg_fidelity_matches_the_channelled_povm(self, n):
        povms = [depolarized_strategy(n, 0.05).povm, random_strategy(n, 30 + n).povm]
        xi = [ghz_basis_state(s, n) for s in range(2**n)]
        for angles in self.angle_points(n, 40 + n)[::2]:
            for povm in povms:
                want = np.mean([(v.conj() @ apply_channel(angles, m) @ v).real
                                for v, m in zip(xi, povm.elements)])
                assert abs(avg_fidelity(povm, angles) - want) <= 1e-13

    def test_avg_fidelity_never_channels_the_povm(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("avg_fidelity applied the channel to the POVM")

        povm = depolarized_strategy(3, 0.1).povm
        want = avg_fidelity(povm, [0.2, 0.9, 1.4])
        monkeypatch.setattr(robustness, "_channel_stack", refuse)
        assert avg_fidelity(povm, [0.2, 0.9, 1.4]) == want
        assert abs(avg_fidelity(ideal_strategy(2).povm, [np.pi / 4] * 2) - 1) < 1e-12

    @pytest.mark.parametrize("n", [3, 7])
    def test_avg_fidelity_contracts_one_slot_per_qubit_and_chunk(self, n, monkeypatch):
        povm = depolarized_strategy(n, 0.1).povm
        angles = make_rng(20 + n).uniform(0, np.pi / 2, size=n)
        want = avg_fidelity(povm, angles)
        calls = []
        monkeypatch.setattr(robustness, "contract_slot",
                            lambda t, w: calls.append(t.shape) or contract_slot(t, w))
        assert avg_fidelity(povm, angles) == want
        d = 2**n
        assert len(calls) == n * len(chunks(d, d * d, BLOCK_ENTRIES))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_avg_fidelity_reads_only_the_real_symmetric_part(self, n):
        # the contraction symmetrizes Re M_s, so an antisymmetric real part
        # and any imaginary part of the elements leave the fidelity unchanged
        rng = make_rng(50 + n)
        d = 2**n
        povm = random_strategy(n, 60 + n).povm
        angles = rng.uniform(0, np.pi / 2, size=n)
        want = avg_fidelity(povm, angles)
        a = rng.normal(size=(d, d, d))
        imag = 1j * rng.normal(size=(d, d, d))
        for noise in (a - a.swapaxes(1, 2), imag, a - a.swapaxes(1, 2) + imag):
            assert abs(avg_fidelity(Povm(povm.elements + noise), angles) - want) <= 1e-15


class TestInequality:
    def test_params_normalization_gate(self):
        with pytest.raises(InvalidInput):
            FidelityBoundParams(r=0.7, mu=-0.9, n=2)

    def test_margin_at_ideal_point(self):
        p = analytic_params(2)
        assert inequality_margin(2, 0, [np.pi / 4, np.pi / 4], p) >= -1e-10

    @pytest.mark.parametrize("s", range(4))
    def test_n2_margins_at_the_exact_zeros(self, s):
        # 0 in exact arithmetic at all five points; floating point reads
        # exactly 0.0 at the first two and a few 1e-16 above it at the rest
        params = analytic_params(2)
        q = np.pi
        for angles in [(0, 0), (0, q / 2)]:
            assert inequality_margin(2, s, angles, params) == 0.0
        for angles in [(q / 2, 0), (q / 2, q / 2), (q / 4, q / 4)]:
            assert 0 < inequality_margin(2, s, angles, params) <= 3e-16

    def test_margin_on_coarse_grid(self):
        p = analytic_params(2)
        axis = np.linspace(0, np.pi / 2, 11)
        worst = min(
            inequality_margin(2, m, (x, y), p)
            for m in range(4)
            for x in axis
            for y in axis
        )
        assert worst >= -1e-8

    def test_relabel_covariance(self):
        p = analytic_params(2)
        rng = make_rng(5)
        for _ in range(25):
            angles = rng.uniform(0, np.pi / 2, size=2)
            for m in range(4):
                assert relabel_covariance_defect(2, 0, m, angles, p) <= 1e-10

    def test_margin_grid_passes_and_writes_csv(self, tmp_path):
        csv = tmp_path / "grid.csv"
        res = margin_grid(2, step=np.pi / 16, csv_path=str(csv))
        assert res.passed
        assert res.min_margin >= -1e-8
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "s,alpha_1,alpha_2,margin"
        assert len(lines) == 1 + 4 * 9 * 9

    def test_margin_grid_rejects_bad_params(self):
        # normalized but invalid coefficients: violated away from pi/4
        bad = FidelityBoundParams(r=1 / (2 * SQRT2), mu=0.0, n=2)
        with pytest.raises(InvalidInput):
            margin_grid(2, bad, step=np.pi / 8)

    def test_margin_grid_outside_supported_range(self):
        params = FidelityBoundParams(r=1 / (7 * 2 * SQRT2), mu=0.0, n=8)
        with pytest.raises(Unsupported):
            margin_grid(8, params, step=np.pi / 4)
        with pytest.raises(InvalidInput):
            margin_grid(2, step=np.pi / 4, outcomes=[])

    def test_margin_grid_resolves_outcome_words(self, tmp_path):
        # "01" is s_1 = 0, s_2 = 1: outcome 2, not int("01") = 1
        path = tmp_path / "grid.csv"
        res = margin_grid(2, step=np.pi / 8, outcomes=["01"], csv_path=str(path))
        assert res == margin_grid(2, step=np.pi / 8, outcomes=[2])
        assert res.argmin_outcome == 2
        assert {m for m, _, _ in read_grid_csv(path, 2)} == {2}
        assert margin_grid(2, step=np.pi / 8, outcomes=[(0, 1)]) == res

    @pytest.mark.parametrize("outcomes", [np.array([0, 1]), [0, 1], (0, 1)],
                             ids=["ndarray", "list", "tuple"])
    def test_margin_grid_takes_any_outcome_sequence(self, outcomes):
        want = margin_grid(2, step=np.pi / 8, outcomes=[0, 1])
        assert margin_grid(2, step=np.pi / 8, outcomes=outcomes) == want

    @pytest.mark.parametrize("outcome", [1.5, None, "2"])
    def test_margin_grid_rejects_a_non_outcome(self, outcome):
        with pytest.raises(InvalidInput, match=re.escape(repr(outcome))):
            margin_grid(2, step=np.pi / 8, outcomes=[outcome])

    @pytest.mark.parametrize("outcome", [1.5, None])
    def test_k_operator_rejects_a_non_outcome(self, outcome):
        with pytest.raises(InvalidInput, match=re.escape(repr(outcome))):
            k_operator(2, outcome, [np.pi / 4, np.pi / 4])

    def test_margin_grid_certifies_supplied_three_sender_pair(self):
        # no built-in coefficients beyond n=2: callers supply a pair and
        # certify it; this (weak-slope) pair passes the sweep
        params = FidelityBoundParams(r=4 / (4 * SQRT2), mu=-3.0, n=3)
        res = margin_grid(3, params, step=np.pi / 12, outcomes=[0])
        assert res.passed
        assert abs(fidelity_lower_bound(3, 0.0, params) - 1.0) < 1e-15
        # and a pair just outside the valid region fails loudly
        bad = FidelityBoundParams(r=3 / (4 * SQRT2), mu=-2.0, n=3)
        with pytest.raises(InvalidInput):
            margin_grid(3, bad, step=np.pi / 12, outcomes=[0])


class TestStackedSweep:
    """The stacked sweep against the per-point Kronecker reference."""

    def check_grid(self, tmp_path, n, params, step, outcomes, sample=None):
        path = tmp_path / "grid.csv"
        res = margin_grid(n, params, step=step, outcomes=outcomes, csv_path=str(path))
        rows = read_grid_csv(path, n)
        points = grid_points(n, step)
        want = [(m, pt) for m in outcomes for pt in points]
        assert res.points == len(rows) == len(want)
        assert [m for m, _, _ in rows] == [m for m, _ in want]
        assert all(
            strs == [f"{a:.12g}" for a in pt] for (_, strs, _), (_, pt) in zip(rows, want)
        )
        picks = range(len(rows))
        if sample is not None:
            picks = make_rng(sample[0]).choice(len(rows), size=sample[1], replace=False)
        for i in picks:
            m, pt = want[i]
            assert abs(rows[i][2] - ref_margin(n, m, pt, params.r, params.mu)) <= 1e-12
        # first minimum in outcome-major order, then the refined point if lower
        margins = [val for _, _, val in rows]
        grid_min = min(margins)
        assert res.min_margin <= grid_min
        at_argmin = ref_margin(n, res.argmin_outcome, res.argmin_angles, params.r, params.mu)
        assert abs(res.min_margin - at_argmin) <= 1e-12
        if res.min_margin == grid_min:
            first = margins.index(grid_min)
            assert (res.argmin_outcome, res.argmin_angles) == (
                want[first][0], tuple(float(a) for a in want[first][1]))
        return res

    def test_two_senders_all_outcomes(self, tmp_path):
        res = self.check_grid(tmp_path, 2, analytic_params(2), np.pi / 16, [0, 1, 2, 3])
        assert res.passed
        assert (res.min_margin, res.argmin_outcome, res.argmin_angles) == (0.0, 0, (0.0, 0.0))

    def test_three_senders_two_outcomes(self, tmp_path):
        params = FidelityBoundParams(r=4 / (4 * SQRT2), mu=-3.0, n=3)
        res = self.check_grid(tmp_path, 3, params, np.pi / 8, [0, 5])
        assert res.passed

    def test_four_senders_across_chunks(self, tmp_path):
        # 9**4 points of dimension 16: many chunks of the stacked sweep
        params = FidelityBoundParams(r=6 / (3 * 2 * SQRT2), mu=-5.0, n=4)
        res = self.check_grid(tmp_path, 4, params, np.pi / 16, [0], sample=(11, 150))
        assert res.points == 6561
        assert res.passed

    def test_violation_carries_refined_result(self, tmp_path):
        bad = FidelityBoundParams(r=1 / (2 * SQRT2), mu=0.0, n=2)
        path = tmp_path / "grid.csv"
        with pytest.raises(InequalityViolated) as exc:
            margin_grid(2, bad, step=np.pi / 8, csv_path=str(path))
        assert isinstance(exc.value, InvalidInput)
        res = exc.value.result
        assert not res.passed
        assert res.points == 4 * 5 * 5
        grid_min = min(val for _, _, val in read_grid_csv(path, 2))
        assert res.min_margin < grid_min < -1e-6
        at_argmin = ref_margin(2, res.argmin_outcome, res.argmin_angles, bad.r, bad.mu)
        assert abs(res.min_margin - at_argmin) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_float64_sweep_equals_the_complex_computation_bytewise(self, n):
        # K_s - r W_s - mu I is real; built in float64 it has the complex
        # build's real parts, and the complex solve gives the same margins
        params = (analytic_params(2) if n == 2
                  else FidelityBoundParams(r=4 / ((n - 1) * 2 * SQRT2), mu=-3.0, n=n))
        rng = make_rng(60 + n)
        points = list(itertools.product((0.0, np.pi / 4, np.pi / 2), repeat=n))
        points += list(rng.uniform(0, np.pi / 2, size=(10, n)))
        eye = np.eye(2**n, dtype=complex)
        for s in range(2**n):
            xi = projector(ghz_basis_state(s, n)).astype(complex)
            for angles in points:
                ops = parametrized_a_operators(angles).astype(complex)
                shifted = (apply_channel(angles, xi)
                           - params.r * witness_operator(n, s, ops) - params.mu * eye)
                want = np.linalg.eigvalsh(shifted)[0]
                got = inequality_margin(n, s, angles, params)
                assert np.float64(got).tobytes() == want.tobytes(), (s, angles)

    def test_sweep_solves_in_complex(self, monkeypatch):
        # a real solve rounds the n = 2 zero at (0, 0) to -5e-17
        seen = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m, *args: seen.append(m.dtype) or solve(m, *args))
        assert inequality_margin(2, 0, [0.0, 0.0], analytic_params(2)) == 0.0
        margin_grid(3, FidelityBoundParams(r=4 / (4 * SQRT2), mu=-3.0, n=3), step=np.pi / 4)
        assert seen and set(seen) == {np.dtype(complex)}

    def test_inequality_margin_is_the_one_point_sweep(self):
        params = FidelityBoundParams(r=4 / (4 * SQRT2), mu=-3.0, n=3)
        rng = make_rng(12)
        for _ in range(20):
            angles = rng.uniform(0, np.pi / 2, size=3)
            m = int(rng.integers(0, 8))
            want = ref_margin(3, m, angles, params.r, params.mu)
            assert abs(inequality_margin(3, m, angles, params) - want) <= 1e-12

    def test_apply_channel_matches_kronecker_sum(self):
        rng = make_rng(13)
        draws = [rng.uniform(0, np.pi / 2, size=3) for _ in range(10)]
        draws += [np.array([0.0, np.pi / 4, np.pi / 2]), np.array([np.pi / 4] * 3)]
        for angles in draws:
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            assert np.abs(apply_channel(angles, m) - ref_channel(angles, m)).max() <= 1e-12

    def test_avg_fidelity_across_chunks(self, monkeypatch):
        # 128 POVM elements of dimension 128 span 8 chunks of BLOCK_ENTRIES
        n = 7
        povm = depolarized_strategy(n, 0.1).povm
        angles = make_rng(14).uniform(0, np.pi / 2, size=n)
        want = np.mean([
            (ghz_basis_state(m, n).conj() @ apply_channel(angles, povm.elements[m])
             @ ghz_basis_state(m, n)).real
            for m in range(2**n)
        ])
        factors = robustness._slot_factors
        calls = []
        monkeypatch.setattr(robustness, "_slot_factors",
                            lambda *args: calls.append(args) or factors(*args))
        assert abs(avg_fidelity(povm, angles) - want) <= 1e-12
        assert len(calls) >= 2

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(InvalidInput, match="step"):
            margin_grid(2, step=step)

    @pytest.mark.parametrize("n, step", [(2, 1e-6), (2, 5e-324), (7, np.pi / 12)])
    def test_grid_over_the_point_limit_is_refused_before_it_is_built(
            self, monkeypatch, n, step):
        def no_grid(axes):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(robustness, "_product", no_grid)
        params = FidelityBoundParams(r=1 / ((n - 1) * 2 * SQRT2), mu=0.0, n=n)
        with pytest.raises(InvalidInput, match="exceeds the limit"):
            margin_grid(n, params, step=step)

    def test_point_limit_counts_every_outcome(self, monkeypatch):
        # step pi/16 at n=2: 9**2 points for each of 4 outcomes
        monkeypatch.setattr(robustness, "GRID_MAX_POINTS", 4 * 9 * 9)
        assert margin_grid(2, step=np.pi / 16).points == 4 * 9 * 9
        monkeypatch.setattr(robustness, "GRID_MAX_POINTS", 4 * 9 * 9 - 1)
        with pytest.raises(InvalidInput, match="exceeds the limit"):
            margin_grid(2, step=np.pi / 16)
        assert margin_grid(2, step=np.pi / 16, outcomes=[0]).points == 9 * 9

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_refinement_counts_against_the_point_limit(self, monkeypatch, n):
        counted = []

        def counting(n, s, angles, params):
            counted.append(len(angles))
            return np.full(len(angles), -1e-7)  # negative: the minimum is refined

        monkeypatch.setattr(robustness, "_margins", counting)
        params = FidelityBoundParams(r=1 / ((n - 1) * 2 * SQRT2), mu=0.0, n=n)
        margin_grid(n, params, step=np.pi / 2, outcomes=[0])
        assert counted[0] == 2**n and len(counted) == 2  # the grid, then the refinement
        assert sum(counted) <= robustness.GRID_MAX_POINTS
        assert counted[1] == (9 if n < 7 else 7) ** n

    def test_angle_stack_validation(self):
        with pytest.raises(InvalidInput, match="outside"):
            inequality_margin(2, 0, [0.1, float("nan")], analytic_params(2))
        with pytest.raises(InvalidInput, match="expected 2 angles"):
            inequality_margin(2, 0, [0.1, 0.2, 0.3], analytic_params(2))
        with pytest.raises(InvalidInput):
            apply_channel([[0.1, 0.2]], np.eye(4))


class TestRelabelUnitary:
    def test_identity_case(self):
        assert np.abs(relabel_unitary(0, 0, 2) - np.eye(4)).max() == 0

    def test_sign_bit_flip(self):
        u = relabel_unitary(0, 1, 2)  # flip s_1 only
        assert np.abs(u - np.kron(SIGMA_Z, np.eye(2))).max() == 0
        out = u @ ghz_basis_state(0, 2)
        assert np.abs(out - ghz_basis_state(1, 2)).max() < 1e-15

    def test_exhaustive_three_senders(self):
        for s in range(8):
            for sp in range(8):
                u = relabel_unitary(s, sp, 3)
                val = abs(np.vdot(ghz_basis_state(sp, 3), u @ ghz_basis_state(s, 3)))
                assert abs(val - 1) < 1e-12

    def test_length_gate(self):
        with pytest.raises(InvalidInput):
            relabel_unitary("01", "011")

    def test_gamma_family_closure(self):
        # slot 1: plain sign covariance; slots >= 2: branch reflection
        for x in (0.1, 0.6, 1.2):
            g1 = gamma_operator(1, x)
            assert np.abs(SIGMA_Z @ g1 @ SIGMA_Z - (-1 if x <= np.pi / 4 else 1) * g1).max() < 1e-14
            g2 = gamma_operator(2, x)
            assert np.abs(SIGMA_X @ g2 @ SIGMA_X - gamma_operator(2, np.pi / 2 - x)).max() < 1e-14

    def test_reflection_matches_witness_transport(self):
        rng = make_rng(6)
        for _ in range(10):
            angles = rng.uniform(0, np.pi / 2, size=3)
            for sp in range(8):
                u = relabel_unitary(0, sp, 3)
                refl = reflected_angles(0, sp, angles, 3)
                from ghz_selftest.scenario import witness_operator

                w0 = witness_operator(3, 0, parametrized_a_operators(angles))
                wp = witness_operator(3, sp, parametrized_a_operators(refl))
                assert np.abs(wp - u @ w0 @ u.conj().T).max() < 1e-11


class TestFidelityBounds:
    def test_exact_one_at_zero(self):
        assert fidelity_lower_bound(2, 0.0) == 1.0

    def test_printed_constant(self):
        assert abs(fidelity_lower_bound(2, 0.1) - 0.8042893218813452) < 1e-15

    def test_meaningful_edge(self):
        eps = meaningful_eps(2)
        assert abs(eps - 2 * SQRT2 / (4 + 5 * SQRT2)) < 1e-15
        assert abs(fidelity_lower_bound(2, eps) - 0.5) < 1e-12

    def test_meaningful_eps_checks_the_params_n(self):
        with pytest.raises(InvalidInput, match="params are for n=2"):
            meaningful_eps(3, analytic_params(2))

    def test_clamped_at_zero(self):
        assert fidelity_lower_bound(2, 10.0) == 0.0

    def test_huge_eps_clamps_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fidelity_lower_bound(2, 1e308) == 0.0

    def test_needs_params_beyond_two(self):
        with pytest.raises(Unsupported):
            fidelity_lower_bound(3, 0.1)
        params = FidelityBoundParams(r=SQRT2 / 4, mu=-1.0, n=3)
        assert abs(fidelity_lower_bound(3, 0.0, params) - 1.0) < 1e-15

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidInput):
            fidelity_lower_bound(2, -0.01)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(InvalidInput):
            fidelity_lower_bound(2, eps)

    def test_non_finite_params_rejected(self):
        with pytest.raises(InvalidInput):
            FidelityBoundParams(r=float("nan"), mu=float("nan"), n=2)


class TestAvgFidelity:
    def test_ideal(self):
        s = ideal_strategy(2)
        assert abs(avg_fidelity(s.povm, [np.pi / 4] * 2) - 1) < 1e-12

    def test_depolarized(self):
        s = depolarized_strategy(2, 0.2)
        assert abs(avg_fidelity(s.povm, [np.pi / 4] * 2) - 0.85) < 1e-12

    def test_computational(self):
        from ghz_selftest.fixtures import computational_strategy

        s = computational_strategy(2)
        assert abs(avg_fidelity(s.povm, [np.pi / 4] * 2) - 0.5) < 1e-12

    def test_bound_consistency_scan(self):
        for v in np.arange(0, 0.2001, 0.02):
            s = depolarized_strategy(2, float(v))
            eps = 1 - success_metric(s)
            fid = avg_fidelity(s.povm, [np.pi / 4] * 2)
            assert fid >= fidelity_lower_bound(2, max(0.0, eps)) - 1e-9


class TestPartialBounds:
    def test_one_at_optimum(self):
        opt = (1 + 1 / SQRT2) / 2
        assert abs(partial_fidelity_bound(0.0, opt) - 1) < 1e-12

    def test_derived_value(self):
        opt = (1 + 1 / SQRT2) / 2
        assert abs(partial_fidelity_bound(0.05, opt) - 0.7419119770960238) < 1e-12

    def test_meaningful_edge_value(self):
        assert abs(partial_meaningful_eps() - 0.09686617658077632) < 1e-15
        opt = (1 + 1 / SQRT2) / 2
        assert abs(partial_fidelity_bound(partial_meaningful_eps(), opt) - 0.5) < 1e-12

    def test_rac_range_gate(self):
        with pytest.raises(InvalidInput):
            partial_fidelity_bound(0.0, 0.9)

    def test_non_finite_inputs_rejected(self):
        opt = (1 + 1 / SQRT2) / 2
        for eps, rac in ((float("nan"), opt), (float("inf"), opt), (0.0, float("nan"))):
            with pytest.raises(InvalidInput):
                partial_fidelity_bound(eps, rac)

    @pytest.mark.parametrize("eps", [1e308, np.float64(1e308), 2e307])
    def test_overflowing_eps_is_refused_without_a_warning(self, eps):
        opt = (1 + 1 / SQRT2) / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rac in (opt, 0.5, np.float64(-1e308)):
                with pytest.raises(InvalidInput, match=r"^eps .* too large"):
                    partial_fidelity_bound(eps, rac)
            assert math.isfinite(partial_fidelity_bound(1e300, 0.5))

    def test_trace_floors_for_perturbed_povms(self):
        # deficits of near-optimal three-outcome measurements floor the traces
        base = partial_bell_strategy()
        ws = partial_witnesses(a_operators(base))
        ideal_traces = [2 * SQRT2, 2 * SQRT2, 4 * SQRT2]
        rng = make_rng(7)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            _, vecs = np.linalg.eigh(g + g.conj().T)
            noise = np.stack(
                [
                    np.outer(vecs[:, 0], vecs[:, 0].conj()),
                    np.outer(vecs[:, 1], vecs[:, 1].conj()),
                    np.outer(vecs[:, 2], vecs[:, 2].conj())
                    + np.outer(vecs[:, 3], vecs[:, 3].conj()),
                ]
            )
            t = rng.uniform(0, 0.2)
            els = (1 - t) * base.povm.elements + t * noise
            deficits = [
                ideal_traces[i] - float(np.trace(els[i] @ ws[i]).real) for i in range(3)
            ]
            eps_term = max(max(deficits), 0.0)
            for i in (0, 1):
                assert np.trace(els[i]).real >= 1 - eps_term / (2 * SQRT2) - 1e-9


class TestPartialBellSeesawInteraction:
    def test_comm_metric_cannot_exceed_one_with_pinned_sender(self):
        # with reference first-sender states the three-outcome score caps at 1
        from ghz_selftest.optimize import SeesawConfig, seesaw

        res = seesaw(SeesawConfig(n=2, metric="partial_bell", restarts=5, seed=1))
        assert res.best_value <= 1 + 1e-9
        assert res.best_value >= 1 - 1e-9
        assert abs(comm_metric(res.best_strategy) - res.best_value) < 1e-12
