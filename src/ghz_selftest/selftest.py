"""Numerical certification of GHZ-basis measurements.

Given a strategy achieving (close to) the optimal score, the checks here
verify every piece of the self-testing argument at machine precision: the
sum-of-squares remainder and the positivity of the shifted witnesses, the
closed-form witness spectrum, extraction of the aligning local unitaries,
the GHZ fidelities of the aligned measurement, partial-transpose
entanglement of the outcomes, and antipodality of the messages.
``certify_strategy`` bundles them into a :class:`CertReport`; the CLI's
``spectrum`` and ``sos`` commands apply the same tolerances and checks.
Witness spectra are the one place that streams witnesses: they are built and
solved a chunk of ``linalg.chunks`` at a time.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInput, NotSelfTestable, PreconditionViolated
from .linalg import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    SQRT2,
    chunks,
    dagger,
    fix_phase,
    herm_eig,
    herm_eigvals,
    off_hermitian,
    partial_transpose,
    tensor,
)
from .scenario import (
    a_operators,
    require_finite_operators,
    success_metric,
    witness_factors,
    witness_operators,
    witness_orbits,
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


def _eigvals_each(m: np.ndarray) -> np.ndarray:
    """:func:`herm_eigvals` of every matrix of a stack ``(k, d, d)`` as if it
    were solved alone: the matrices with no imaginary part solve as one real
    stack, the others as one complex stack (``herm_eigvals`` decides realness
    per stack)."""
    real = ~m.imag.any(axis=(-2, -1))
    ev = np.empty(m.shape[:-1])
    for group in (real, ~real):
        if group.any():
            ev[group] = herm_eigvals(m[group])
    return ev


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
    the same for every (still validated) outcome ``s``. Operators with a NaN
    or infinite entry raise InvalidInput before any solve.
    """
    if ops.shape != (n, 2, 2, 2):
        raise InvalidInput(f"operators have shape {ops.shape}, expected ({n},2,2,2)")
    require_finite_operators(ops)
    if _unit_square_defect(ops) > ANTIPODAL_GATE:
        raise PreconditionViolated("messages are not antipodal pure states")
    outcome_index(s, n)
    t0, *rest = witness_terms(ops)
    psum = ((n - 1) * (t0 @ t0) + sum(t @ t for t in rest)) / 2
    return _abs_norm((2 * (n - 1) * np.eye(2**n) - psum) / SQRT2)


def _traceless(ops: np.ndarray) -> np.ndarray:
    """Traceless Hermitian parts ``a0`` of message operators ``(n, 2, 2, 2)``;
    exactly traceless Hermitian operators are returned bit for bit."""
    h = (ops + dagger(ops)) / 2
    return h - (np.trace(h, axis1=-2, axis2=-1).real / 2)[..., None, None] * I2


def _norms(m: np.ndarray) -> np.ndarray:
    """Spectral norms of 2x2 matrices ``(..., 2, 2)`` in closed form: the root of
    the larger eigenvalue of the Gram matrix ``m^dag m = [[p, r], [r*, q]]``."""
    g = dagger(m) @ m
    p, q, r = g[..., 0, 0].real, g[..., 1, 1].real, np.abs(g[..., 0, 1])
    return np.sqrt((p + q) / 2 + np.hypot((p - q) / 2, r))


def trace_bound(ops: np.ndarray, a0: np.ndarray | None = None) -> float:
    """A bound ``delta >= ||W_s - W0_s||`` for every outcome s, where ``W0_s``
    is the witness of the traceless Hermitian parts ``a0`` of ``ops``.

    Witness term k is a Kronecker product of 2x2 factors ``A_i`` (``B_i``
    for ``a0``). Its difference telescopes into n products with one factor
    ``A_i - B_i`` each, and Kronecker norms multiply, so the term moves by at
    most ``e_k = sum_i prod_{l<i} |B_l| |A_i - B_i| prod_{l>i} |A_l|`` and
    every ``W_s`` by at most ``(n-1) e_0 + e_1 + ... + e_{n-1}``. Exactly
    traceless Hermitian operators give 0. ``a0`` is ``_traceless(ops)``,
    computed here unless the caller has it.
    """
    n = ops.shape[-4]
    a0 = _traceless(ops) if a0 is None else a0
    if np.array_equal(ops, a0):  # every difference factor is zero
        return 0.0
    a, b = np.array([witness_factors(ops), witness_factors(a0)])  # (term, slot, 2, 2)
    ones = np.ones((n, 1))
    before = np.cumprod(np.hstack([ones, _norms(b)[:, :-1]]), axis=1)
    after = np.cumprod(np.hstack([ones, _norms(a)[:, :0:-1]]), axis=1)[:, ::-1]
    moved = (before * _norms(a - b) * after).sum(axis=1)
    return float(np.abs(witness_signs(n)[0]) @ moved)


def _solve_witnesses(ops: np.ndarray, outcomes=None) -> np.ndarray:
    """Ascending eigenvalues of each outcome's own witness, one row per outcome
    (all ``2**n`` by default). The witnesses are built and solved a chunk of
    :func:`linalg.chunks` at a time, so the ``(2**n, 2**n, 2**n)`` stack is
    never held."""
    d = 2 ** ops.shape[-4]
    outcomes = np.arange(d) if outcomes is None else np.asarray(outcomes)
    return np.concatenate([herm_eigvals(witness_operators(ops, outcomes[part]))
                           for part in chunks(len(outcomes), d * d)])


def witness_spectra(ops: np.ndarray, outcomes=None, a0: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of the traceless witnesses ``W0_s``, one row per
    outcome of ``outcomes`` (all ``2**n`` by default).

    Local flips carry the ``W0_s`` of one orbit of :func:`witness_orbits`
    onto each other, so only the representatives are solved and each row is
    copied from its representative's. By Weyl's inequality every eigenvalue
    of the witness ``W_s`` of ``ops`` lies within :func:`trace_bound` of row
    s. The local unitaries of :func:`align_locals` leave the rows unchanged.
    ``a0`` is ``_traceless(ops)``, as for :func:`trace_bound`.
    """
    reps, orbit, _ = witness_orbits(ops.shape[-4])
    wanted = orbit if outcomes is None else orbit[outcomes]
    solved = np.unique(wanted)
    a0 = _traceless(ops) if a0 is None else a0
    rows = _solve_witnesses(a0, reps[solved])
    return rows[np.searchsorted(solved, wanted)]


def witness_bounds(ops: np.ndarray, spectrum_tol: float, outcomes=None) -> tuple:
    """``(spectrum_diff, min_shifted_eigenvalue)`` over the witnesses of
    ``outcomes`` (all by default): the two numbers that the ``spectrum`` and
    ``sos`` checks compare with ``spectrum_tol``.

    They come from the rows of :func:`witness_spectra`, moved by ``delta =``
    :func:`trace_bound` to the end at which each check fails: the deviation
    plus ``delta``, the least shifted eigenvalue minus ``delta``. When
    ``delta`` exceeds a tenth of ``spectrum_tol``, or when the two ends of
    either number would decide its check differently, each outcome's own
    witness is solved instead, so no verdict depends on ``delta``. Operators
    with a NaN or infinite entry raise InvalidInput before any solve.
    """
    require_finite_operators(ops)
    n = ops.shape[-4]
    a0 = _traceless(ops)
    delta = trace_bound(ops, a0)
    if delta <= spectrum_tol / 10:
        rows = witness_spectra(ops, outcomes, a0)
        dev, shift = spectrum_deviation(n, rows), min_shifted_eigenvalue(n, rows)
        if ((dev - delta <= spectrum_tol) == (dev + delta <= spectrum_tol)
                and (shift + delta >= -spectrum_tol) == (shift - delta >= -spectrum_tol)):
            return dev + delta, shift - delta
    rows = _solve_witnesses(ops, outcomes)
    return spectrum_deviation(n, rows), min_shifted_eigenvalue(n, rows)


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


def _frame_pairs(ops: np.ndarray) -> tuple:
    """The stacked ``(x_op, z_op)`` frame operators ``(n, 2, 2)`` of every
    sender: sender 1's sum and difference combinations, the others' own pair."""
    x_ops, z_ops = ops[:, 0].copy(), ops[:, 1].copy()
    x_ops[0], z_ops[0] = (ops[0, 0] + ops[0, 1]) / SQRT2, (ops[0, 0] - ops[0, 1]) / SQRT2
    return x_ops, z_ops


def align_locals(ops: np.ndarray) -> list:
    """Local unitaries bringing each sender's operators to the canonical frame.

    Sender 1's sum/difference combinations map to ``sigma_X``/``sigma_Z``;
    every other sender's pair maps to ``(sigma_X, sigma_Z)`` directly. The
    pairs must anticommute within ``1e-6``; beyond that the alignment is
    ill-posed and ``NotSelfTestable`` is raised, naming the first failing
    sender.

    The senders are checked and aligned as stacks, with the errors of a
    sender-by-sender pass: first every anticommutator, then every frame; in
    each, a sender whose matrix fails the Hermiticity gate raises
    NotHermitian unless an earlier sender fails first.
    """
    n = ops.shape[0]
    anti = ops[:, 0] @ ops[:, 1] + ops[:, 1] @ ops[:, 0]
    k = _hermitian_prefix(anti)
    ev = _eigvals_each(anti[:k])
    defects = np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))
    failing = np.flatnonzero(defects > ANTICOMMUTATOR_GATE)
    if failing.size:
        j = failing[0]
        raise NotSelfTestable(
            f"sender {j + 1} operators do not anticommute (defect {defects[j]:.3g})"
        )
    if k < n:
        herm_eigvals(anti[k])  # raises NotHermitian
    # each unitary maps the phase-fixed z_op eigenvectors to the computational
    # basis, v_minus turned so that x_op's off-diagonal element is real positive
    x_ops, z_ops = _frame_pairs(ops)
    k = _hermitian_prefix(z_ops)
    v_minus, v_plus = fix_phase(herm_eig(z_ops[:k]).vectors.swapaxes(-1, -2)).swapaxes(0, 1)
    x01 = (v_plus.conj()[:, None, :] @ (x_ops[:k] @ v_minus[..., None]))[:, 0, 0].tolist()
    if any(abs(x) < 1e-9 for x in x01):
        raise NotSelfTestable("frame operators are too degenerate to align")
    if k < n:
        herm_eig(z_ops[k])  # raises NotHermitian
    # the n phases in Python complex arithmetic, which rounds the division
    # as the one-sender-at-a-time form did
    v_minus = v_minus * np.array([[x.conjugate() / abs(x)] for x in x01])
    return list(np.stack([v_plus.conj(), v_minus.conj()], axis=1))


def _hermitian_prefix(m: np.ndarray) -> int:
    """How many leading matrices of a stack pass the Hermiticity gate."""
    off = np.flatnonzero(off_hermitian(m))
    return int(off[0]) if off.size else len(m)


def alignment_error(ops: np.ndarray, unitaries) -> float:
    """Largest residual of the two frame mappings over all senders."""
    u = np.asarray(unitaries)
    ud = dagger(u)
    x_ops, z_ops = _frame_pairs(ops)
    return max(0.0, float(np.abs(u @ x_ops @ ud - SIGMA_X).max()),
               float(np.abs(u @ z_ops @ ud - SIGMA_Z).max()))


def verify_ghz_measurement(povm, unitaries) -> np.ndarray:
    """GHZ fidelities of the POVM after applying the aligning unitaries.

    Returns ``f[s] = <xi_s| U M_s U^dag |xi_s>`` for every outcome; the
    certification criterion is ``min_s f_s >= 1 - 1e-8`` together with unit
    traces of all elements. :meth:`~states.Povm.expectations` reads a basis
    POVM from its rows, as ``|<U^dag xi_s, q_s>|^2``.
    """
    n = len(unitaries)
    if len(povm) != 2**n or povm.dim != 2**n:
        raise InvalidInput(
            f"POVM has {len(povm)} elements on dim {povm.dim}, expected 2**{n} on 2**{n}"
        )
    # column m of v is U^dag xi_m, so f[m] = v[:, m]^dag M_m v[:, m]
    return povm.expectations(tensor(list(unitaries)).conj().T @ ghz_basis(n))


def ppt_min_eig(m) -> float:
    """Minimum eigenvalue of the partial transpose of a two-qubit operator.

    Negative iff entangled (decisive in dimension 2x2). An operator with a
    NaN or infinite entry raises InvalidInput naming that entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidInput(f"expected a 4x4 two-qubit operator, got shape {m.shape}")
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        raise InvalidInput(f"entry {tuple(bad[0].tolist())} of the operator is not finite")
    return float(herm_eigvals(partial_transpose(m, [2, 2], 1))[0])


def classify_outcome_measurement(povm) -> list:
    """Partial-transpose classification of each element of a two-qubit POVM.

    Each element is normalized by its trace and tested with the
    partial-transpose criterion, decisive on two qubits; entries with
    negligible trace are reported as separable. The elements are tested as
    one stack, each with the value :func:`ppt_min_eig` gives it alone.
    """
    if povm.dim != 4:
        raise InvalidInput("classification is defined for two-qubit measurements")
    els = povm.elements
    traces = povm.traces()
    tested = traces > 1e-12
    mins = np.zeros(len(els))
    if tested.any():
        normed = els[tested] / traces[tested, None, None]
        mins[tested] = _eigvals_each(partial_transpose(normed, [2, 2], 1))[:, 0]
    return [{"trace": t, "ppt_min_eig": v, "entangled": v < -1e-8}
            for t, v in zip(traces.tolist(), mins.tolist())]


def antipodality_gap(strategy: Strategy) -> float:
    """Distance of the messages from the pure-antipodal regime.

    Worst same-input overlap ``Tr(rho_0 rho_1)`` plus worst purity deficit
    ``1 - Tr(rho^2)``; zero iff every input's two messages are orthogonal
    pure states.
    """
    rho = np.stack([st.rho for st in strategy.senders])  # [j, a, x]
    overlap = np.trace(rho[:, 0] @ rho[:, 1], axis1=-2, axis2=-1).real.max()
    deficit = (1 - np.trace(rho @ rho, axis1=-2, axis2=-1).real).max()
    return max(0.0, float(overlap)) + max(0.0, float(deficit))


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
    """Run every certification check on a GHZ-task strategy.

    The verdict assumes qubit messages. The quantum bound behind ``metric =
    1`` rests on ``sum_s Tr M_s = 2**n``, which holds because every message
    is a qubit state (``SenderStates`` is 2x2); with a message that leaks
    out of its qubit, a separable measurement can score above 1.
    """
    tol = resolve_tolerances(tolerances)
    strategy.validate()
    n = strategy.n
    metric = success_metric(strategy)
    gap = antipodality_gap(strategy)
    traces = strategy.povm.traces().tolist()
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

    # the validated states are Hermitian only within STATE_ATOL, which the
    # anticommutators and the SOS form would carry past the Hermiticity gate
    # of their solves; witness_bounds takes ``ops`` whole, as its
    # trace_bound covers any anti-Hermitian part
    herm = (ops + dagger(ops)) / 2
    try:
        unitaries = align_locals(herm)
        report.alignment_error = alignment_error(herm, unitaries)
        report.checks["alignment"] = report.alignment_error <= tol["alignment"]
        fids = verify_ghz_measurement(strategy.povm, unitaries)
        report.ghz_fidelities = [float(f) for f in fids]
        report.checks["ghz_fidelity"] = min(report.ghz_fidelities) >= 1 - tol["ghz_fidelity"]
    except NotSelfTestable:
        report.checks["alignment"] = False
        report.checks["ghz_fidelity"] = False

    report.spectrum_diff, report.min_shifted_eigenvalue = witness_bounds(ops, tol["spectrum"])
    report.checks["spectrum"] = report.spectrum_diff <= tol["spectrum"]
    try:
        report.sos_residual = sos_residual(n, 0, herm)
        report.checks["sos"] = sos_passes(report.sos_residual, report.min_shifted_eigenvalue, tol)
    except PreconditionViolated:
        report.checks["sos"] = False

    return report
