"""Numerical certification of GHZ-basis measurements.

Given a strategy achieving (close to) the optimal score, the checks here
verify every piece of the self-testing argument at machine precision: the
sum-of-squares remainder and the positivity of the shifted witnesses, the
closed-form witness spectrum, extraction of the aligning local unitaries,
the GHZ fidelities of the aligned measurement, partial-transpose
entanglement of the outcomes, and antipodality of the messages.
``certify_strategy`` bundles them into a :class:`CertReport`; the CLI's
``spectrum`` and ``sos`` commands apply the same tolerances and checks.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInput, NotSelfTestable, PreconditionViolated
from .linalg import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    SQRT2,
    fix_phase,
    herm_eig,
    herm_eigvals,
    partial_transpose,
    tensor,
)
from .scenario import (
    a_operators,
    success_metric,
    witness_chunks,
    witness_signs,
    witness_terms,
)
from .states import Strategy, ghz_basis, outcome_index

ANTIPODAL_GATE = 1e-6
ANTICOMMUTATOR_GATE = 1e-6

DEFAULT_TOLERANCES = {
    "metric": 1e-8,
    "antipodality": ANTIPODAL_GATE,
    "alignment": 1e-8,
    "ghz_fidelity": 1e-8,
    "unit_trace": 1e-8,
    "sos_residual": 1e-8,
    "spectrum": 1e-9,
    "ppt": 1e-8,
}


def resolve_tolerances(overrides: dict | None = None) -> dict:
    """:data:`DEFAULT_TOLERANCES` with ``overrides`` applied. A NaN, infinite or
    negative value would decide its check whatever the number: InvalidInput."""
    tol = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in tol:
            raise InvalidInput(f"unknown tolerance {name!r}; known: {sorted(tol)}")
        if not 0 <= value < np.inf:
            raise InvalidInput(f"tolerance {name} must be finite and >= 0, got {value!r}")
        tol[name] = value
    return tol


def _abs_norm(m) -> float:
    """Largest |eigenvalue| of a Hermitian matrix."""
    ev = herm_eigvals(m)
    return float(max(abs(ev[0]), abs(ev[-1])))


def _unit_square_defect(ops: np.ndarray) -> float:
    """How far each difference operator is from squaring to the identity."""
    return float(np.abs(ops @ ops - I2).max())


def sos_residual(n: int, s, ops: np.ndarray) -> float:
    """Remainder of the sum-of-squares form of the shifted witness.

    For any operators, ``2*sqrt(2)*(n-1)*I - W_s`` is ``(n-1)/sqrt(2) (I -
    p_0)^2 + sum_{k>=1} (I - p_k)^2 / sqrt(2) + t_c`` with ``p_k = c_k T_k /
    sqrt(2)`` from the signed :func:`witness_terms`, and ``t_c = (2(n-1) I -
    psum) / sqrt(2)``, ``psum = ((n-1) T_0^2 + sum_{k>=1} T_k^2) / 2``.
    Antipodal messages give ``t_c = 0``; the returned value is the largest
    |eigenvalue| of ``t_c``. The signs enter ``t_c`` squared, so the value is
    the same for every (still validated) outcome ``s``.
    """
    if ops.shape != (n, 2, 2, 2):
        raise InvalidInput(f"operators have shape {ops.shape}, expected ({n},2,2,2)")
    if _unit_square_defect(ops) > ANTIPODAL_GATE:
        raise PreconditionViolated("messages are not antipodal pure states")
    outcome_index(s, n)
    t0, *rest = witness_terms(ops)
    psum = ((n - 1) * (t0 @ t0) + sum(t @ t for t in rest)) / 2
    return _abs_norm((2 * (n - 1) * np.eye(2**n) - psum) / SQRT2)


def witness_spectra(ops: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every witness, shape ``(2**n, 2**n)``; the
    local unitaries of :func:`align_locals` leave them unchanged. The
    witnesses stream in the chunks of :func:`witness_chunks`, one stacked
    solve each, so the ``(2**n, 2**n, 2**n)`` stack is never held."""
    return np.concatenate([herm_eigvals(ws) for _, ws in witness_chunks(ops)])


def sos_passes(residual: float, min_shifted: float, tol: dict) -> bool:
    """Whether ``t_c`` vanishes and every shifted witness is PSD, within ``tol``."""
    return residual <= tol["sos_residual"] and min_shifted >= -tol["spectrum"]


def min_shifted_eigenvalue(n: int, spectra: np.ndarray) -> float:
    """Least eigenvalue of ``2*sqrt(2)*(n-1)*I - W_s`` over all outcomes."""
    return float(2 * SQRT2 * (n - 1) - spectra[:, -1].max())


def spectrum_deviation(n: int, spectra: np.ndarray) -> float:
    """Largest |numeric - closed form| over ascending witness spectra, one row
    per outcome. Sorted, the closed form is the same for every outcome (its
    entries are relabeled by ``s' -> s' xor s``), so one row serves all."""
    return float(np.abs(spectra - np.sort(spectrum_closed_form(n, 0))).max())


def spectrum_closed_form(n: int, s) -> np.ndarray:
    """Witness eigenvalues in closed form, indexed by outcome word ``s'``.

    ``mu[s'] = sqrt(2) * sum_{j>=2} (-1)^{s'_j xor s_j}
    + sqrt(2)*(n-1)*(-1)^{s'_1 xor s_1}``; the maximum ``2*sqrt(2)*(n-1)`` is
    attained only at ``s' = s``.
    """
    signs = witness_signs(n)
    prod = signs * signs[outcome_index(s, n)]  # column 0 carries (n-1)**2
    return SQRT2 * prod[:, 1:].sum(axis=1) + SQRT2 * (prod[:, 0] // (n - 1))


def _frame_unitary(x_op: np.ndarray, z_op: np.ndarray) -> np.ndarray:
    """Unitary mapping the (x_op, z_op) frame onto (sigma_X, sigma_Z)."""
    es = herm_eig(z_op)
    v_minus = fix_phase(es.vectors[:, 0].copy())
    v_plus = fix_phase(es.vectors[:, 1].copy())
    x01 = complex(v_plus.conj() @ (x_op @ v_minus))
    if abs(x01) < 1e-9:
        raise NotSelfTestable("frame operators are too degenerate to align")
    v_minus = v_minus * (x01.conjugate() / abs(x01))
    return np.stack([v_plus.conj(), v_minus.conj()])


def _frame_pair(ops: np.ndarray, j: int) -> tuple:
    if j == 0:
        return (ops[0, 0] + ops[0, 1]) / SQRT2, (ops[0, 0] - ops[0, 1]) / SQRT2
    return ops[j, 0], ops[j, 1]


def align_locals(ops: np.ndarray) -> list:
    """Local unitaries bringing each sender's operators to the canonical frame.

    Sender 1's sum/difference combinations map to ``sigma_X``/``sigma_Z``;
    every other sender's pair maps to ``(sigma_X, sigma_Z)`` directly. The
    pairs must anticommute within ``1e-6``; beyond that the alignment is
    ill-posed and ``NotSelfTestable`` is raised.
    """
    n = ops.shape[0]
    for j in range(n):
        anti = ops[j, 0] @ ops[j, 1] + ops[j, 1] @ ops[j, 0]
        if _abs_norm(anti) > ANTICOMMUTATOR_GATE:
            raise NotSelfTestable(
                f"sender {j + 1} operators do not anticommute "
                f"(defect {_abs_norm(anti):.3g})"
            )
    return [_frame_unitary(*_frame_pair(ops, j)) for j in range(n)]


def alignment_error(ops: np.ndarray, unitaries) -> float:
    """Largest residual of the two frame mappings over all senders."""
    worst = 0.0
    for j, u in enumerate(unitaries):
        x_op, z_op = _frame_pair(ops, j)
        worst = max(worst, float(np.abs(u @ x_op @ u.conj().T - SIGMA_X).max()))
        worst = max(worst, float(np.abs(u @ z_op @ u.conj().T - SIGMA_Z).max()))
    return worst


def verify_ghz_measurement(povm, unitaries) -> np.ndarray:
    """GHZ fidelities of the POVM after applying the aligning unitaries.

    Returns ``f[s] = <xi_s| U M_s U^dag |xi_s>`` for every outcome; the
    certification criterion is ``min_s f_s >= 1 - 1e-8`` together with unit
    traces of all elements.
    """
    n = len(unitaries)
    if len(povm) != 2**n or povm.dim != 2**n:
        raise InvalidInput(
            f"POVM has {len(povm)} elements on dim {povm.dim}, expected 2**{n} on 2**{n}"
        )
    # column m of v is U^dag xi_m, so f[m] = v[:, m]^dag M_m v[:, m]
    v = tensor(list(unitaries)).conj().T @ ghz_basis(n)
    return np.einsum("im,mij,jm->m", v.conj(), povm.elements, v).real


def ppt_min_eig(m) -> float:
    """Minimum eigenvalue of the partial transpose of a two-qubit operator.

    Negative iff entangled (decisive in dimension 2x2).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidInput(f"expected a 4x4 two-qubit operator, got shape {m.shape}")
    return float(herm_eigvals(partial_transpose(m, [2, 2], 1))[0])


def classify_outcome_measurement(povm) -> list:
    """Partial-transpose classification of each element of a two-qubit POVM.

    Each element is normalized by its trace and tested with the
    partial-transpose criterion, decisive on two qubits; entries with
    negligible trace are reported as separable.
    """
    if povm.dim != 4:
        raise InvalidInput("classification is defined for two-qubit measurements")
    out = []
    for m in povm.elements:
        t = float(np.trace(m).real)
        if t <= 1e-12:
            out.append({"trace": t, "ppt_min_eig": 0.0, "entangled": False})
            continue
        v = ppt_min_eig(m / t)
        out.append({"trace": t, "ppt_min_eig": v, "entangled": bool(v < -1e-8)})
    return out


def antipodality_gap(strategy: Strategy) -> float:
    """Distance of the messages from the pure-antipodal regime.

    Worst same-input overlap ``Tr(rho_0 rho_1)`` plus worst purity deficit
    ``1 - Tr(rho^2)``; zero iff every input's two messages are orthogonal
    pure states.
    """
    overlap = 0.0
    deficit = 0.0
    for st in strategy.senders:
        for x in range(2):
            overlap = max(overlap, float(np.trace(st.rho[0, x] @ st.rho[1, x]).real))
            for a in range(2):
                deficit = max(
                    deficit, 1 - float(np.trace(st.rho[a, x] @ st.rho[a, x]).real)
                )
    return overlap + deficit


@dataclass
class CertReport:
    """Outcome of a full certification run."""

    metric_value: float
    antipodality_gap: float
    povm_traces: list
    alignment_error: float | None = None
    ghz_fidelities: list | None = None
    sos_residual: float | None = None
    min_shifted_eigenvalue: float | None = None
    spectrum_diff: float | None = None
    ppt_min_eigs: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def certify_strategy(strategy: Strategy, tolerances: dict | None = None) -> CertReport:
    """Run every certification check on a GHZ-task strategy."""
    tol = resolve_tolerances(tolerances)
    strategy.validate()
    n = strategy.n
    metric = success_metric(strategy)
    gap = antipodality_gap(strategy)
    traces = [float(np.trace(m).real) for m in strategy.povm.elements]
    ops = a_operators(strategy)

    report = CertReport(
        metric_value=metric,
        antipodality_gap=gap,
        povm_traces=traces,
        checks={
            "metric": abs(metric - 1) <= tol["metric"],
            "antipodality": gap <= tol["antipodality"],
            "unit_traces": max(abs(t - 1) for t in traces) <= tol["unit_trace"],
        },
    )

    if n == 2:
        report.ppt_min_eigs = [
            c["ppt_min_eig"] for c in classify_outcome_measurement(strategy.povm)
        ]
        # a genuine GHZ-basis measurement has all outcomes entangled,
        # decided by the partial transpose on two qubits
        report.checks["outcome_entanglement"] = max(report.ppt_min_eigs) < -tol["ppt"]

    try:
        unitaries = align_locals(ops)
        report.alignment_error = alignment_error(ops, unitaries)
        report.checks["alignment"] = report.alignment_error <= tol["alignment"]
        fids = verify_ghz_measurement(strategy.povm, unitaries)
        report.ghz_fidelities = [float(f) for f in fids]
        report.checks["ghz_fidelity"] = min(fids) >= 1 - tol["ghz_fidelity"]
    except NotSelfTestable:
        report.checks["alignment"] = False
        report.checks["ghz_fidelity"] = False

    spectra = witness_spectra(ops)
    report.spectrum_diff = spectrum_deviation(n, spectra)
    report.checks["spectrum"] = report.spectrum_diff <= tol["spectrum"]
    report.min_shifted_eigenvalue = min_shifted_eigenvalue(n, spectra)
    try:
        report.sos_residual = sos_residual(n, 0, ops)
        report.checks["sos"] = sos_passes(report.sos_residual, report.min_shifted_eigenvalue, tol)
    except PreconditionViolated:
        report.checks["sos"] = False

    return report
