"""Robustness of the certification: local channels, operator inequalities,
relabeling unitaries, and fidelity lower bounds.

The central object is the operator inequality ``K_s >= r W_s + mu I`` where
``K_s`` is a local unital channel applied to the GHZ projector and ``W_s``
the witness at antipodal message angles. Its validity over all angles turns
an observed score deficit ``eps = 1 - S`` into a lower bound on the average
GHZ fidelity of the measurement. Analytic ``(r, mu)`` are built in for two
senders; for more senders the caller supplies a pair and certifies it by
grid sweep.

Angle points are evaluated as stacks: a ``(P, n)`` array of points gives
``(P, 2**n, 2**n)`` channel images, witnesses and shifted operators, worked
through in the chunks of ``linalg.chunks``; witnesses are
``scenario.witness_operator`` of the stacked message operators. The sweep
applies the channel qubit by qubit (``_channel_stack``), and so do the
one-point ``apply_channel`` and ``inequality_margin``. Every operator of the
sweep is real, so it is built in float64 and cast to complex only for the
eigensolve, which stays complex (see ``_margins``).

GHZ projectors have a shorter route. ``xi_s xi_s^dag`` is a sum of four
basis dyads ``|x><y|``, and the product channel maps each to a Kronecker
product of real 2x2 factors (``_slot_factors``), so ``K_s`` is a Kronecker
sum built in real arithmetic (``k_operator``, through ``linalg.tensor``).
Each local channel is self-dual and ``K_s`` is real symmetric, so the
average fidelity ``sum_s <xi_s|Lambda[M_s]|xi_s> / 2**n`` is
``sum_s Tr(M_s K_s) / 2**n`` (``avg_fidelity``): the POVM is never pushed
through the channel, and ``K_s`` is never built either, since each trace
contracts ``M_s`` slot by slot against the 2x2 factors
(``linalg.contract_slot``). The sweep keeps the qubit-by-qubit route because
its margins are exactly 0 at some grid points, where the Kronecker images
round differently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InequalityViolated, InvalidInput, Unsupported
from .linalg import (
    BLOCK_ENTRIES, I2, SIGMA_A, SIGMA_B, SIGMA_X, SIGMA_Z, SQRT2, chunks, contract_slot,
    projector, tensor,
)
from .scenario import witness_operator
from .states import ghz_basis_state, outcome_bits, outcome_index, outcome_label

ANALYTIC_R_2 = (4 + 5 * SQRT2) / 16
ANALYTIC_MU_2 = -(1 + 2 * SQRT2) / 4

GRID_STEP = np.pi / 80
GRID_PASS_FLOOR = -1e-8
GRID_FAIL_FLOOR = -1e-6
# Most margins (angle points times outcomes) a sweep may evaluate: at the limit
# its peak RSS measured 88 MB at n = 2 and 140 MB at n = 4. The largest grid
# in the tests, the acceptance suite and the benchmark workloads is
# 41**2 * 4 = 6724 points (n = 2, default step pi/80, every outcome).
GRID_MAX_POINTS = 2**20


@dataclass(frozen=True)
class FidelityBoundParams:
    """Coefficients of the operator inequality, with ``r (n-1) 2 sqrt2 + mu = 1``."""

    r: float
    mu: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.mu)):
            raise InvalidInput("params r and mu must be finite")
        if abs(self.r * (self.n - 1) * 2 * SQRT2 + self.mu - 1) > 1e-12:
            raise InvalidInput("params must satisfy r*(n-1)*2*sqrt(2) + mu = 1")

    @property
    def slope(self) -> float:
        return self.r * (self.n - 1) * 2 * SQRT2


def analytic_params(n: int = 2) -> FidelityBoundParams:
    """The analytically known inequality coefficients (two senders only)."""
    if n != 2:
        raise Unsupported(f"analytic (r, mu) known only for n=2, got n={n}; pass certified params")
    return FidelityBoundParams(r=ANALYTIC_R_2, mu=ANALYTIC_MU_2, n=2)


def _params_for(n: int, params: FidelityBoundParams | None) -> FidelityBoundParams:
    """``params``, or the analytic pair when None; either must be for ``n``."""
    params = analytic_params(n) if params is None else params
    if params.n != n:
        raise InvalidInput(f"params are for n={params.n}, requested for n={n}")
    return params


def _check_angles(angles, n: int | None = None, stacked: bool = False) -> np.ndarray:
    """Angles as a float array: one point ``(n,)``, or a stack ``(P, n)``.

    Every entry must lie in ``[0, pi/2]``; values up to 1e-12 above are
    clipped back to ``pi/2``.
    """
    try:
        arr = np.array(angles, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"angles must be real numbers: {exc}") from None
    bad = ~((arr >= 0) & (arr <= np.pi / 2 + 1e-12))
    if bad.any():
        raise InvalidInput(f"angle {float(arr[bad][0])} outside [0, pi/2]")
    ndim = 2 if stacked else 1
    if arr.ndim != ndim:
        raise InvalidInput(f"expected a {ndim}-D array of angles, got shape {arr.shape}")
    if n is not None and arr.shape[-1] != n:
        raise InvalidInput(f"expected {n} angles, got {arr.shape[-1]}")
    if arr.shape[-1] == 0:
        raise InvalidInput("need at least one angle")
    return np.minimum(arr, np.pi / 2)


def _check_angle(x) -> float:
    return float(_check_angles([x])[0])


def _strengths(angles: np.ndarray) -> np.ndarray:
    """Channel strengths ``g`` of checked angles, elementwise."""
    return (1 + SQRT2) * (np.sin(angles) + np.cos(angles) - 1)


def _frame(n: int) -> tuple:
    """Per-slot Pauli pairs, each of shape (n, 2, 2): ``(X, Z)`` for sender 1
    and ``(A, B)`` for the others."""
    return (
        np.stack([SIGMA_X] + [SIGMA_A] * (n - 1)),
        np.stack([SIGMA_Z] + [SIGMA_B] * (n - 1)),
    )


def _axes(angles: np.ndarray) -> np.ndarray:
    """Channel axes ``(..., n, 2, 2)``: the frame's first operator up to pi/4,
    its second above."""
    first, second = _frame(angles.shape[-1])
    return np.where((angles <= np.pi / 4)[..., None, None], first, second)


def channel_g(x: float) -> float:
    """Channel strength ``(1 + sqrt2)(sin x + cos x - 1)``; 1 at pi/4, 0 at the ends."""
    return float(_strengths(_check_angle(x)))


def gamma_operator(j: int, x: float) -> np.ndarray:
    """Conjugation axis of sender ``j`` (an integer >= 1)'s channel; branch
    switches at pi/4."""
    if not (isinstance(j, (int, np.integer)) and j >= 1):
        raise InvalidInput(f"sender index must be an integer >= 1, got {j!r}")
    x = _check_angle(x)
    # sender 1 has a frame of its own; every other sender shares slot 2's
    slots = 1 if j == 1 else 2
    return _axes(np.full(slots, x))[-1]


def local_channel(j: int, x: float, rho) -> np.ndarray:
    """Single-qubit unital channel ``(1+g)/2 rho + (1-g)/2 G rho G``.

    Trace-preserving, unital and self-dual; the identity channel at
    ``x = pi/4`` where ``g = 1``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidInput(f"expected a qubit operator, got shape {rho.shape}")
    g = channel_g(x)
    gam = gamma_operator(j, x)
    return (1 + g) / 2 * rho + (1 - g) / 2 * (gam @ rho @ gam)


def _channel_stack(ops: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Tensor product of the local channels applied to a stack of operators.

    ``ops`` has shape (P, d, d) with ``d = 2**n`` and ``angles`` shape
    (P, n); a leading axis of length 1 broadcasts. Qubit j's axis (real
    symmetric) multiplies the rows of the operator reshaped to
    (P, 2**j, 2, 2**(n-j-1) d) and its columns reshaped to
    (P, d 2**j, 2, 2**(n-j-1)), so no 2**n x 2**n operator is built. The axes
    enter as real arrays, so a real stack stays real.
    """
    n = angles.shape[-1]
    d = 2**n
    g = _strengths(angles)[..., None, None]
    # column b of qubit j's axis is gam[:, j, :, :, b], shaped (P, 1, 2, 1) to
    # broadcast against the reshaped operator (P, lo, 2, rest)
    gam = _axes(angles).real[:, :, None, :, :, None]
    out = ops
    for j in range(n):
        lo, hi = 2**j, 2 ** (n - j - 1)
        col0, col1 = gam[:, j, :, :, 0], gam[:, j, :, :, 1]
        t = out.reshape(-1, lo, 2, hi * d)
        t = (col0 * t[:, :, :1] + col1 * t[:, :, 1:]).reshape(-1, d * lo, 2, hi)
        t = col0 * t[:, :, :1] + col1 * t[:, :, 1:]
        out = (1 + g[:, j]) / 2 * out + (1 - g[:, j]) / 2 * t.reshape(-1, d, d)
    return out


def apply_channel(angles, m) -> np.ndarray:
    """Tensor product of the local channels applied to an n-qubit operator."""
    angles = _check_angles(angles)
    n = angles.shape[0]
    m = np.asarray(m, dtype=complex)
    if m.shape != (2**n, 2**n):
        raise InvalidInput(f"operator shape {m.shape} does not match {n} qubits")
    return _channel_stack(m[None], angles[None])[0]


def _slot_factors(n: int, outcomes: np.ndarray, angles: np.ndarray) -> tuple:
    """Real 2x2 factors of the channel images of the GHZ dyads of
    ``outcomes`` at one checked angle point, and each outcome's sign.

    With ``a = 0 s_2..s_n`` and ``b = 1 ~s_2..~s_n``,
    ``xi_s xi_s^dag = (|a><a| + |b><b| + (-1)^{s_1} (|a><b| + |b><a|)) / 2``,
    and the product channel maps each ``|x><y|`` to the Kronecker product
    ``L_xy`` of the real 2x2 factors ``(1+g_j)/2 |x_j><y_j| + (1-g_j)/2
    G_j |x_j><y_j| G_j``. Every ``G_j`` is real symmetric, so ``L_aa`` and
    ``L_bb`` are symmetric and ``L_ba = L_ab^T``. Returns the factors of
    ``L_aa``, ``L_bb`` and ``L_ab``, shape ``(3, S, n, 2, 2)`` with slot 0 the
    most significant, and the signs ``(-1)^{s_1}``, shape ``(S,)``.
    """
    g = _strengths(angles)[:, None, None, None, None]
    gam = _axes(angles).real
    unit = np.eye(4).reshape(2, 2, 2, 2)  # unit[x, y] = |x><y|
    # table[j, x, y]: qubit j's channel image of |x><y|
    table = (1 + g) / 2 * unit + (1 - g) / 2 * np.einsum("jrx,jcy->jxyrc", gam, gam)
    bits = (outcomes[:, None] >> np.arange(n)) & 1  # (S, n), column j-1 is s_j
    a = bits.copy()
    a[:, 0] = 0
    b = 1 - a
    slots = np.arange(n)
    factors = np.stack([table[slots, a, a], table[slots, b, b], table[slots, a, b]])
    return factors, 1 - 2 * bits[:, 0]


def k_operator(n: int, s, angles) -> np.ndarray:
    """The channel image ``K_s`` of the GHZ projector for outcome ``s``, real
    symmetric: ``(L_aa + L_bb + (-1)^{s_1} (L_ab + L_ab^T)) / 2`` with the
    Kronecker products of :func:`_slot_factors`."""
    angles = _check_angles(angles, n)
    factors, sign = _slot_factors(n, np.array([outcome_index(s, n)]), angles)
    l_aa, l_bb, l_ab = tensor(factors[:, 0].swapaxes(0, 1))
    return (l_aa + l_bb + sign[0] * (l_ab + l_ab.T)) / 2


def _message_stack(angles: np.ndarray) -> np.ndarray:
    """Antipodal message operators at checked angles ``(..., n)``, shape
    ``(..., n, 2, 2, 2)`` indexed ``[..., j, x]``."""
    first, second = _frame(angles.shape[-1])
    c = np.cos(angles)[..., None, None] * first
    s = np.sin(angles)[..., None, None] * second
    return np.stack([c + s, c - s], axis=-3)


def parametrized_a_operators(angles) -> np.ndarray:
    """Antipodal message operators at the given angles.

    Sender 1: ``cos(a) X +/- sin(a) Z``; senders >= 2 use the rotated pair
    ``cos(a) A +/- sin(a) B`` with ``A, B = (X +/- Z)/sqrt2``. At all angles
    equal to pi/4 this is the canonical frame of the reference strategy.
    """
    return _message_stack(_check_angles(angles))


def _margins(n: int, s, angles: np.ndarray, params: FidelityBoundParams) -> np.ndarray:
    """Minimum eigenvalue of ``K_s - r W_s - mu I`` at each row of the checked
    (P, n) angles, one stacked eigensolve per chunk.

    The operator is real and is built in float64, from the real GHZ projector
    and message operators; with every imaginary part zero, complex arithmetic
    would compute the same real parts in the same order. ``K_s`` comes from
    :func:`_channel_stack` and the solve is complex, not from the Kronecker
    images of :func:`k_operator` and a real solve. At n = 2 the margin is 0
    in exact arithmetic at the corners and at (pi/4, pi/4). This route reads
    exactly 0.0 at (0, 0) and (0, pi/2) and at most 2.2e-16 above 0 at the
    other three, for every outcome; either change rounds some of them below
    0: the Kronecker images give -2.2e-16 or -4.4e-16 at (pi/4, pi/4), a real
    solve -5e-17 at (0, 0) (``backends.eigvalsh`` solves a real stack as
    real). The sweep's minimum, its report and its CSV would move with them,
    so this is the one Hermitian solve outside :mod:`ghz_selftest.backends`.
    """
    d = 2**n
    xi = projector(ghz_basis_state(s, n)).real[None]
    shift = params.mu * np.eye(d)
    out = np.empty(len(angles))
    for part in chunks(len(angles), d * d):
        a = angles[part]
        ops = _message_stack(a).real
        shifted = _channel_stack(xi, a) - params.r * witness_operator(n, s, ops) - shift
        out[part] = np.linalg.eigvalsh(shifted.astype(complex))[:, 0]
    return out


def inequality_margin(n: int, s, angles, params: FidelityBoundParams) -> float:
    """Minimum eigenvalue of ``K_s - r W_s - mu I`` at one angle point."""
    return float(_margins(n, s, _check_angles(angles, n)[None], params)[0])


def relabel_unitary(s, s_prime, n: int | None = None) -> np.ndarray:
    """Local unitary mapping GHZ vector ``xi_s`` to ``xi_s'`` (up to phase).

    ``sigma_Z`` on slot 1 where the sign bits differ, ``sigma_X`` on any
    other slot whose bits differ, identity elsewhere.
    """
    if n is None:
        if not isinstance(s, str) or not isinstance(s_prime, str):
            raise InvalidInput("pass n explicitly for non-string outcomes")
        if len(s) != len(s_prime):
            raise InvalidInput("outcome words must have equal length")
        n = len(s)
    b = outcome_bits(s, n)
    bp = outcome_bits(s_prime, n)
    factors = [SIGMA_Z if b[0] != bp[0] else I2]
    factors += [SIGMA_X if b[j] != bp[j] else I2 for j in range(1, n)]
    return tensor(factors)


def reflected_angles(s, s_prime, angles, n: int) -> np.ndarray:
    """Angles matching the relabeled frame: slots j >= 2 whose bit flips
    reflect ``a -> pi/2 - a`` (conjugating by sigma_X swaps the rotated
    Pauli pair, which the channel family absorbs as an angle reflection);
    slot 1 is unchanged."""
    b = outcome_bits(s, n)
    bp = outcome_bits(s_prime, n)
    out = np.array(_check_angles(angles, n))
    for j in range(1, n):
        if b[j] != bp[j]:
            out[j] = np.pi / 2 - out[j]
    return out


def relabel_covariance_defect(n: int, s, s_prime, angles, params: FidelityBoundParams) -> float:
    """Entrywise defect of ``K-rW`` covariance under outcome relabeling."""
    angles = _check_angles(angles, n)
    refl = reflected_angles(s, s_prime, angles, n)
    u = relabel_unitary(s, s_prime, n)
    base = k_operator(n, s, angles) - params.r * witness_operator(
        n, s, parametrized_a_operators(angles)
    )
    moved = k_operator(n, s_prime, refl) - params.r * witness_operator(
        n, s_prime, parametrized_a_operators(refl)
    )
    return float(np.abs(moved - u @ base @ u.conj().T).max())


@dataclass(frozen=True)
class GridResult:
    """Outcome of a margin sweep."""

    min_margin: float
    argmin_outcome: int
    argmin_angles: tuple
    points: int
    passed: bool


def _product(axes) -> np.ndarray:
    """Cartesian product of the axes as (P, n) rows, in ``itertools.product`` order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def margin_grid(
    n: int,
    params: FidelityBoundParams | None = None,
    step: float = GRID_STEP,
    outcomes="all",
    csv_path=None,
) -> GridResult:
    """Sweep ``inequality_margin`` over an angle grid on ``[0, pi/2]**n``.

    A nonnegative minimum (above ``-1e-8``) certifies the supplied
    inequality coefficients on the grid; any value below ``-1e-6`` raises
    ``InequalityViolated`` carrying the sweep's result. A negative minimum's
    neighborhood (one step to each side) is always re-swept at one quarter
    of the step, or on fewer ticks per axis when the coarse grid leaves
    fewer than ``9**n`` of the ``GRID_MAX_POINTS``.
    ``outcomes`` is ``"all"`` or a list of outcomes in any form
    :func:`~ghz_selftest.states.outcome_index` takes. Optionally writes rows
    ``(s, alpha_1..alpha_n, margin)`` to ``csv_path`` (outcome words listed
    sign-bit first), outcome-major.
    """
    params = _params_for(n, params)
    if n > 7:
        raise Unsupported("operator-inequality certification supported for n <= 7 only")
    if not (math.isfinite(step) and step > 0):
        raise InvalidInput(f"step must be a positive finite number, got {step}")
    if isinstance(outcomes, str) and outcomes == "all":
        outcome_list = list(range(2**n))
    else:
        outcome_list = [outcome_index(m, n) for m in outcomes]
    if not outcome_list:
        raise InvalidInput("no outcomes to sweep")
    # capped first, so a tiny step cannot overflow the integer conversion
    ticks = int(round(min((np.pi / 2) / step, GRID_MAX_POINTS))) + 1
    if ticks**n * len(outcome_list) > GRID_MAX_POINTS:
        raise InvalidInput(f"step {step} at n={n} over {len(outcome_list)} outcomes exceeds "
                           f"the limit of {GRID_MAX_POINTS} grid points; use a larger step")
    axis = np.linspace(0, np.pi / 2, ticks)
    grid = _check_angles(_product([axis] * n), n, stacked=True)

    # margins[i, k]: outcome outcome_list[i] at grid point k
    margins = np.stack([_margins(n, m, grid, params) for m in outcome_list])
    first = int(np.argmin(margins))
    min_m = outcome_list[first // len(grid)]
    min_pt = grid[first % len(grid)]
    min_val = float(margins.flat[first])

    # the refinement counts against the same limit: 9 ticks per axis a quarter
    # step apart, fewer and farther apart when 9**n do not fit
    per_axis = max((k for k in range(2, 10) if k**n <= GRID_MAX_POINTS - margins.size),
                   default=0)
    if min_val < 0 and per_axis:
        fine = 2 * step / (per_axis - 1)
        local = _check_angles(
            _product([np.clip(np.arange(c - step, c + step + fine / 2, fine), 0, np.pi / 2)
                      for c in min_pt]),
            n,
            stacked=True,
        )
        vals = _margins(n, min_m, local, params)
        k = int(np.argmin(vals))
        if vals[k] < min_val:
            min_val, min_pt = float(vals[k]), local[k]

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            cols = ",".join(f"alpha_{j}" for j in range(1, n + 1))
            fh.write(f"s,{cols},margin\n")
            coords = [",".join(f"{p:.12g}" for p in pt) for pt in grid]
            for m, row in zip(outcome_list, margins):
                label = outcome_label(m, n)
                fh.writelines(f"{label},{pts},{val:.17g}\n" for pts, val in zip(coords, row))

    result = GridResult(
        min_margin=min_val,
        argmin_outcome=int(min_m),
        argmin_angles=tuple(float(p) for p in min_pt),
        points=margins.size,
        passed=min_val >= GRID_PASS_FLOOR,
    )
    if min_val < GRID_FAIL_FLOOR:
        raise InequalityViolated(
            f"inequality violated: margin {min_val:.3e} at outcome "
            f"{outcome_label(min_m, n)}, angles {result.argmin_angles}",
            result,
        )
    return result


def fidelity_lower_bound(n: int, eps: float, params: FidelityBoundParams | None = None) -> float:
    """Affine fidelity floor ``1 - r (n-1) 2 sqrt2 eps``, clamped at 0.

    Uses the analytic coefficients for ``n = 2``; for ``3 <= n <= 7``
    caller-certified coefficients are required.
    """
    if not math.isfinite(eps):
        raise InvalidInput(f"eps must be finite, got {eps}")
    if eps < 0:
        raise InvalidInput("eps must be nonnegative")
    params = _params_for(n, params)
    if n > 7:
        raise Unsupported("fidelity bounds supported for n <= 7 only")
    # a Python product: 1e308 overflows to inf without a NumPy warning
    return max(0.0, 1.0 - float(params.slope) * eps)


def meaningful_eps(n: int = 2, params: FidelityBoundParams | None = None) -> float:
    """Largest score deficit at which the fidelity bound still exceeds 1/2."""
    return 0.5 / _params_for(n, params).slope


def avg_fidelity(povm, angles) -> float:
    """Mean GHZ fidelity of the channel-processed POVM elements.

    ``sum_s <xi_s| Lambda[M_s] |xi_s> / 2**n`` -- a certified lower estimate
    of the channel-maximized extraction fidelity. The product channel is
    self-dual, so each term is ``Tr(M_s K_s)`` with ``K_s`` the real
    symmetric image of :func:`k_operator`, and the POVM is never pushed
    through the channel. Nor is ``K_s`` built: with ``S`` the symmetric part
    of ``Re M_s``, ``Tr(M_s K_s) = (Tr(S L_aa) + Tr(S L_bb)) / 2
    + (-1)^{s_1} Tr(S L_ab)``, and each trace contracts ``S`` slot by slot
    against the 2x2 factors of :func:`_slot_factors`, one
    :func:`linalg.contract_slot` per slot for all three factor sets.
    """
    angles = _check_angles(angles)
    n = angles.shape[0]
    d = 2**n
    if len(povm) != d or povm.dim != d:
        raise InvalidInput(
            f"POVM has {len(povm)} elements on dim {povm.dim}, expected 2**{n}"
        )
    total = 0.0
    for part in chunks(d, d * d, BLOCK_ENTRIES):
        factors, sign = _slot_factors(n, np.arange(d)[part], angles)
        m = povm.elements[part].real
        t = ((m + m.swapaxes(-1, -2)) / 2)[:, None]
        for j in range(n):
            t = contract_slot(t, np.moveaxis(factors[:, :, j], 0, 1))
        tr = t.reshape(-1, 3)  # Tr(S L_aa), Tr(S L_bb), Tr(S L_ab) per outcome
        total += float(((tr[:, 0] + tr[:, 1]) / 2 + sign * tr[:, 2]).sum())
    return total / d


RAC_OPTIMUM = (1 + 1 / SQRT2) / 2


def partial_fidelity_bound(eps: float, rac_value: float) -> float:
    """Fidelity floor for the two entangled partial-Bell outcomes.

    ``1 - (8 sqrt2 eps / 3)(r - mu/sqrt2)
    + mu * arccos(2 sqrt2 (rac - 1/2)) * (2 - 4 eps / 3)`` with the
    analytic two-sender coefficients. ``rac_value`` may not exceed the
    quantum optimum (the arccos argument must stay in [-1, 1]).
    """
    if not (math.isfinite(eps) and math.isfinite(rac_value)):
        raise InvalidInput(f"eps and rac_value must be finite, got {eps} and {rac_value}")
    if eps < 0:
        raise InvalidInput("eps must be nonnegative")
    if rac_value > RAC_OPTIMUM + 1e-12:
        raise InvalidInput(f"RAC score {rac_value} exceeds the quantum optimum")
    # Python floats: a huge eps overflows to inf without a NumPy warning
    eps, rac_value = float(eps), float(rac_value)
    r, mu, sqrt2 = float(ANALYTIC_R_2), float(ANALYTIC_MU_2), float(SQRT2)
    arg = min(max(2 * sqrt2 * (rac_value - 0.5), -1.0), 1.0)
    bound = 1 - (8 * sqrt2 * eps / 3) * (r - mu / sqrt2) + mu * math.acos(arg) * (2 - 4 * eps / 3)
    if not math.isfinite(bound):
        raise InvalidInput(f"eps {eps} is too large: the fidelity bound overflows")
    return bound


def partial_meaningful_eps() -> float:
    """Score deficit at which the RAC-independent part of the bound hits 1/2.

    Solves ``1 - (8 sqrt2 eps / 3)(r - mu/sqrt2) = 1/2`` for ``eps``.
    """
    r, mu = ANALYTIC_R_2, ANALYTIC_MU_2
    return 0.5 / ((8 * SQRT2 / 3) * (r - mu / SQRT2))
