"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one ``criterion <k>[.part]: PASS/FAIL`` line (run with
``pytest -s`` to see them inline). Three checks pin quoted reference
constants that are inconsistent with exact evaluation of the accompanying
formulas (the entangling/separable parameter sets of the three-input game,
and the half-fidelity error edge of the partial-Bell bound); they are kept
failing deliberately rather than loosened. The analysis lives in the
project decision notes.
"""

import numpy as np
import pytest

from ghz_selftest.fixtures import (
    depolarized_strategy,
    entangling_fixture,
    ideal_strategy,
    partial_bell_strategy,
    separable_fixture,
)
from ghz_selftest.linalg import herm_eig, herm_eigvals, op_norm, tensor
from ghz_selftest.optimize import SeesawConfig, seesaw
from ghz_selftest.rng import make_rng
from ghz_selftest.robustness import (
    analytic_params,
    avg_fidelity,
    fidelity_lower_bound,
    inequality_margin,
    parametrized_a_operators,
    partial_fidelity_bound,
    partial_meaningful_eps,
    relabel_covariance_defect,
)
from ghz_selftest.scenario import (
    a_operators,
    comm_metric,
    counterexample_value,
    partial_witnesses,
    rac_metric,
    success_metric,
    witness_operator,
    witness_operators,
)
from ghz_selftest.selftest import (
    align_locals,
    antipodality_gap,
    classify_outcome_measurement,
    sos_residual,
    spectrum_closed_form,
    verify_ghz_measurement,
)
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    random_antipodal_strategy,
    random_mixed_strategy,
    random_strategy,
)

SQRT2 = np.sqrt(2)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {tag}: {detail}"


def haar_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_1_ideal_optimum():
    worst = 0.0
    for n in (2, 3, 4, 5):
        worst = max(worst, abs(success_metric(ideal_strategy(n)) - 1))
    ok = worst <= 1e-10
    dev7 = abs(success_metric(ideal_strategy(7)) - 1)
    ok = ok and dev7 <= 1e-9
    report("1", ok, f"max |S-1| = {worst:.2e} (n<=5), {dev7:.2e} (n=7)")


def test_criterion_2_spectrum_oracle():
    worst = 0.0
    worst_gap = np.inf
    for n in (2, 3, 4, 5):
        ws = witness_operators(parametrized_a_operators([np.pi / 4] * n))
        for m in range(2**n):
            closed = np.sort(spectrum_closed_form(n, m))
            numeric = herm_eigvals(ws[m])
            worst = max(worst, float(np.abs(numeric - closed).max()))
            worst_gap = min(worst_gap, float(closed[-1] - closed[-2]))
    ok = worst <= 1e-9 and worst_gap >= 2 * SQRT2 - 1e-9
    report("2", ok, f"max deviation = {worst:.2e}, min top gap = {worst_gap:.6f}")


def test_criterion_3_sos_identity():
    worst_residual = 0.0
    worst_shift = 0.0
    for n in (2, 3, 4):
        for k in range(50):
            ops = a_operators(random_antipodal_strategy(n, 1000 * n + k))
            ws = witness_operators(ops)
            for m in range(2**n):
                worst_residual = max(worst_residual, sos_residual(n, m, ops))
                shifted = 2 * SQRT2 * (n - 1) * np.eye(2**n) - ws[m]
                worst_shift = min(worst_shift, float(herm_eigvals(shifted)[0]))
    ok = worst_residual <= 1e-8 and worst_shift >= -1e-9
    report("3", ok, f"max residual = {worst_residual:.2e}, min shifted eig = {worst_shift:.2e}")


def test_criterion_4_norm_bound():
    worst_excess = -np.inf
    for n in (2, 3, 4):
        bound = 2 * SQRT2 * (n - 1)
        for k in range(200):
            strat = (
                random_strategy(n, 2000 * n + k)
                if k % 2 == 0
                else random_mixed_strategy(n, 2000 * n + k)
            )
            ws = witness_operators(a_operators(strat))
            for m in range(2**n):
                worst_excess = max(worst_excess, op_norm(ws[m]) - bound)
    ok = worst_excess <= 1e-9
    report("4", ok, f"max norm excess over 2*sqrt2*(n-1): {worst_excess:.2e}")


def test_criterion_5a_entangling_parameters():
    value = counterexample_value(entangling_fixture())
    ok = 2.826 <= value <= 2.831
    report("5a", ok, f"entangling parameter set evaluates to {value:.6f}")


def test_criterion_5b_separable_parameters():
    value = counterexample_value(separable_fixture())
    ok = 2.826 <= value <= 2.831
    report("5b", ok, f"separable parameter set evaluates to {value:.6f}")


def test_criterion_5c_seesaw_reaches_optimum():
    res = seesaw(SeesawConfig(n=2, metric="counterexample", restarts=50, seed=0))
    ok = res.best_value >= 2.8283
    report("5c", ok, f"see-saw best value {res.best_value:.6f} over 50 restarts")


def test_criterion_5d_ppt_classification():
    ent = entangling_fixture()
    sep = separable_fixture()
    ent_flags = classify_outcome_measurement(
        Povm(np.stack([ent.m0, np.eye(4) - ent.m0]))
    )
    sep_flags = classify_outcome_measurement(
        Povm(np.stack([sep.m0, np.eye(4) - sep.m0]))
    )
    ok = all(e["entangled"] for e in ent_flags)
    ok = ok and all(e["ppt_min_eig"] >= -1e-8 for e in sep_flags)
    report(
        "5d",
        ok,
        "entangling flags "
        + str([e["entangled"] for e in ent_flags])
        + ", separable min PT eig "
        + f"{min(e['ppt_min_eig'] for e in sep_flags):.2e}",
    )


def test_criterion_6_selftest_round_trip():
    n = 2
    base = ideal_strategy(n)
    rng = make_rng(606)
    worst = 1.0
    for _ in range(100):
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
        unitaries = align_locals(a_operators(conj))
        worst = min(worst, float(verify_ghz_measurement(povm, unitaries).min()))
    ok = worst >= 1 - 1e-8
    report("6", ok, f"min GHZ fidelity over 100 conjugations: {worst:.12f}")


def test_criterion_7_operator_inequality_grid():
    params = analytic_params(2)
    axis = np.linspace(0, np.pi / 2, 41)
    worst = np.inf
    for m in range(4):
        for x in axis:
            for y in axis:
                worst = min(worst, inequality_margin(2, m, (x, y), params))
    worst_cov = 0.0
    for x in axis[::5]:
        for y in axis[::5]:
            for m in range(4):
                worst_cov = max(
                    worst_cov, relabel_covariance_defect(2, 0, m, (x, y), params)
                )
    ok = worst >= -1e-8 and worst_cov <= 1e-10
    report("7", ok, f"grid min margin = {worst:.2e}, covariance defect = {worst_cov:.2e}")


def test_criterion_8_fidelity_bound_consistency():
    ok = fidelity_lower_bound(2, 0.0) == 1.0
    worst = np.inf
    for v in np.arange(0.0, 0.2001, 0.02):
        s = depolarized_strategy(2, float(v))
        eps = max(0.0, 1 - success_metric(s))
        fid = avg_fidelity(s.povm, [np.pi / 4, np.pi / 4])
        worst = min(worst, fid - fidelity_lower_bound(2, eps))
    ok = ok and worst >= -1e-9
    report("8", ok, f"min (avg_fidelity - bound) = {worst:.2e}, bound(0) = 1 exactly")


def test_criterion_9_partial_bell_values():
    s = partial_bell_strategy()
    s_comm = comm_metric(s)
    s_rac = rac_metric(s.senders[0], s.observables[0], s.observables[1])
    rac_opt = (1 + 1 / SQRT2) / 2
    ws = partial_witnesses(a_operators(s))
    tr3 = float(np.trace(s.povm.elements[2] @ ws[2]).real)
    bound0 = partial_fidelity_bound(0.0, rac_opt)
    ok = (
        abs(s_comm - 1) <= 1e-10
        and abs(s_rac - rac_opt) <= 1e-10
        and abs(tr3 - 4 * SQRT2) <= 1e-10
        and abs(bound0 - 1) <= 1e-12
    )
    report(
        "9",
        ok,
        f"comm = {s_comm:.12f}, rac = {s_rac:.12f}, psi-block trace = {tr3:.12f}, "
        f"bound(0) = {bound0:.15f}",
    )


def test_criterion_9_eps_edge():
    solved = partial_meaningful_eps()
    quoted = 3 / (12 + 8 * SQRT2)
    ok = abs(solved - quoted) <= 1e-9
    report("9.edge", ok, f"solved edge {solved:.10f} vs quoted constant {quoted:.10f}")


def test_criterion_10_antipodality_oracle():
    worst_gap = 0.0
    converged = 0
    for n in (2, 3):
        for seed in range(100):
            res = seesaw(SeesawConfig(n=n, metric="ghz", restarts=1, seed=seed))
            if res.best_value >= 1 - 1e-6:
                converged += 1
                worst_gap = max(worst_gap, antipodality_gap(res.best_strategy))
    ok = converged > 0 and worst_gap <= 1e-5
    report("10", ok, f"{converged} converged runs, max antipodality gap = {worst_gap:.2e}")
