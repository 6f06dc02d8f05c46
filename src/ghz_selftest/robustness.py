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
``scenario.witness_operator`` of the stacked message operators.

``margin_grid`` solves each grid node once: relabeling covariance maps every
outcome onto outcome 0 at reflected angles, and outcome 0 is invariant under
permuting senders 2..n, so only nodes with ``alpha_2 <= ... <= alpha_n`` are
solved.

GHZ projectors have one route through the channel. ``xi_s xi_s^dag`` is a
sum of four basis dyads ``|x><y|``, and the product channel maps each to a
Kronecker product of real 2x2 factors (``_slot_factors``, at a point or a
stack of points), so ``K_s`` is a Kronecker sum built in real arithmetic
with ``linalg.tensor`` (``k_operator`` at one point, ``_margins`` for a
chunk of the sweep, which solves the real ``K_s - r W_s - mu I`` through
``backends.eigvalsh``). Each local channel is self-dual and ``K_s`` is real
symmetric, so the average fidelity ``sum_s <xi_s|Lambda[M_s]|xi_s> / 2**n``
is ``sum_s Tr(M_s K_s) / 2**n`` (``avg_fidelity``): the POVM is never pushed
through the channel, and ``K_s`` is never built either, since each trace
contracts ``Re M_s`` slot by slot against the 2x2 factors of ``L_aa``,
``L_bb``, ``L_ab`` and ``L_ba = L_ab^T`` (``linalg.contract_slot``).
``apply_channel`` channels any operator qubit by qubit; it is the reference
the images are tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import InequalityViolated, InvalidInput, Unsupported
from .linalg import I2, SIGMA_A, SIGMA_B, SIGMA_X, SIGMA_Z, SQRT2, chunks, contract_slot, tensor
from .scenario import witness_operator
from .states import ghz_kets, outcome_bits, outcome_index, outcome_label, outcome_table

ANALYTIC_R_2 = (4 + 5 * SQRT2) / 16
ANALYTIC_MU_2 = -(1 + 2 * SQRT2) / 4

GRID_STEP = np.pi / 80
GRID_PASS_FLOOR = -1e-8
GRID_FAIL_FLOOR = -1e-6
# Most margins (angle points times outcomes) a sweep may evaluate: at the limit
# its peak RSS measured 65 MB at n = 2 and 56 MB at n = 4 (every outcome, fresh
# process, 2-vCPU VM, sweep chunks of 2**18 entries). The largest grid in the
# tests, the acceptance suite and the benchmark workloads is 41**2 * 4 = 6724
# points (n = 2, step pi/80, every outcome).
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


def _check_angles(angles, n: int | None = None) -> np.ndarray:
    """Angles as a float array of one point ``(n,)``.

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
    if arr.ndim != 1:
        raise InvalidInput(f"expected a 1-D array of angles, got shape {arr.shape}")
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


def apply_channel(angles, m) -> np.ndarray:
    """Tensor product of the local channels applied to an n-qubit operator,
    qubit by qubit: ``(1+g_j)/2 m + (1-g_j)/2 G_j m G_j`` with ``G_j`` qubit
    j's axis on the full space."""
    angles = _check_angles(angles)
    n = angles.shape[0]
    m = np.asarray(m, dtype=complex)
    if m.shape != (2**n, 2**n):
        raise InvalidInput(f"operator shape {m.shape} does not match {n} qubits")
    for j, (g, gam) in enumerate(zip(_strengths(angles), _axes(angles))):
        big = tensor([np.eye(2**j), gam, np.eye(2 ** (n - j - 1))])
        m = (1 + g) / 2 * m + (1 - g) / 2 * (big @ m @ big)
    return m


def _slot_factors(n: int, outcomes: np.ndarray, angles: np.ndarray) -> tuple:
    """Real 2x2 factors of the channel images of the GHZ dyads of
    ``outcomes`` at checked angles ``(..., n)``, and each outcome's sign.

    With the kets ``a = 0 s_2..s_n`` and ``b = 1 ~s_2..~s_n`` of
    :func:`states.ghz_kets`,
    ``xi_s xi_s^dag = (|a><a| + |b><b| + (-1)^{s_1} (|a><b| + |b><a|)) / 2``,
    and the product channel maps each ``|x><y|`` to the Kronecker product
    ``L_xy`` of the real 2x2 factors ``(1+g_j)/2 |x_j><y_j| + (1-g_j)/2
    G_j |x_j><y_j| G_j``. Every ``G_j`` is real symmetric, so ``L_aa`` and
    ``L_bb`` are symmetric and ``L_ba = L_ab^T``. Returns the factors of
    ``L_aa``, ``L_bb`` and ``L_ab``, shape ``(3, ..., S, n, 2, 2)`` with slot 0
    the most significant, and the signs ``(-1)^{s_1}``, shape ``(S,)``.
    """
    g = _strengths(angles)[..., None, None, None, None]
    gam = _axes(angles).real
    unit = np.eye(4).reshape(2, 2, 2, 2)  # unit[x, y] = |x><y|
    # table[..., j, x, y]: qubit j's channel image of |x><y|
    table = (1 + g) / 2 * unit + (1 - g) / 2 * np.einsum("...jrx,...jcy->...jxyrc", gam, gam)
    bits = outcome_table(n)[outcomes]  # (S, n), column j-1 is s_j
    a, b = ghz_kets(bits)
    slots = np.arange(n)
    factors = np.stack([table[..., slots, x, y, :, :] for x, y in ((a, a), (b, b), (a, b))])
    return factors, 1 - 2 * bits[:, 0]


def _k_images(n: int, s, angles: np.ndarray) -> np.ndarray:
    """``K_s`` at checked angles ``(..., n)``, shape ``(..., 2**n, 2**n)``:
    ``(L_aa + L_bb + (-1)^{s_1} (L_ab + L_ab^T)) / 2`` with the Kronecker
    products of :func:`_slot_factors`."""
    factors, sign = _slot_factors(n, np.array([outcome_index(s, n)]), angles)
    l_aa, l_bb, l_ab = tensor(np.moveaxis(factors[..., 0, :, :, :], -3, 0))
    return (l_aa + l_bb + sign[0] * (l_ab + l_ab.swapaxes(-1, -2))) / 2


def k_operator(n: int, s, angles) -> np.ndarray:
    """The channel image ``K_s`` of the GHZ projector for outcome ``s``, real
    symmetric (see :func:`_k_images`)."""
    return _k_images(n, s, _check_angles(angles, n))


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
    """Minimum eigenvalue of ``K_s - r W_s - mu I`` at each row of the (P, n)
    angles, checked or clipped to ``[0, pi/2]``: per chunk, one build of the
    real operators and one stacked real solve."""
    shift = params.mu * np.eye(2**n)
    out = np.empty(len(angles))
    for part in chunks(len(angles), 4**n):
        a = angles[part]
        w = witness_operator(n, s, _message_stack(a).real)
        out[part] = backends.eigvalsh(_k_images(n, s, a) - params.r * w - shift)[:, 0]
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

    Each axis has ``round((pi/2) / step) + 1`` ticks, two at least, so it
    holds both ends. Outcome ``s`` at ``alpha`` is outcome 0 at ``alpha``
    with ``a -> pi/2 - a`` on each slot ``j >= 2`` where ``s_j = 1``
    (:func:`relabel_unitary`, :func:`reflected_angles`), and permuting
    senders 2..n permutes the qubits of ``K_0 - r W_0``. So outcome 0 is
    solved once, on the ``ticks * C(ticks+n-2, n-1)`` nodes with slots 2..n
    sorted, and every outcome is gathered from them; ``points`` still counts
    outcomes times nodes. ``_margins`` and ``inequality_margin`` are
    bit-exact; a non-canonical node reports its canonical node's margin,
    within about 1e-14 of a direct solve.

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
    elif isinstance(outcomes, str) or not np.iterable(outcomes):
        raise InvalidInput(f'outcomes must be "all" or a sequence of outcomes, got {outcomes!r}')
    else:
        outcome_list = [outcome_index(m, n) for m in outcomes]
    if not outcome_list:
        raise InvalidInput("no outcomes to sweep")
    # capped first, so a tiny step cannot overflow the integer conversion; two
    # ticks at least, so every axis holds both ends and is closed under reflection
    ticks = max(2, int(round(min((np.pi / 2) / step, GRID_MAX_POINTS))) + 1)
    if ticks**n * len(outcome_list) > GRID_MAX_POINTS:
        raise InvalidInput(f"step {step} at n={n} over {len(outcome_list)} outcomes exceeds "
                           f"the limit of {GRID_MAX_POINTS} grid points; use a larger step")
    axis = np.linspace(0, np.pi / 2, ticks)
    ticks_at = _product([np.arange(ticks, dtype=np.min_scalar_type(ticks))] * n)

    # row k of ticks_at is the node of flat index k: the canonical nodes are
    # the rows with slots 2..n sorted, and outcome m's node maps to one by
    # reflecting the ticks of the slots j >= 2 with s_j = 1, then sorting
    canonical = (ticks_at[:, 1:-1] <= ticks_at[:, 2:]).all(axis=1)
    at_node = np.empty(len(ticks_at))
    at_node[canonical] = _margins(n, 0, axis[ticks_at[canonical]], params)
    # margins[i, k]: outcome outcome_list[i] at grid point k
    margins = np.empty((len(outcome_list), len(ticks_at)))
    for row, flip in zip(margins, outcome_table(n)[outcome_list, 1:] == 1):
        rest = np.sort(np.where(flip, ticks - 1 - ticks_at[:, 1:], ticks_at[:, 1:]), axis=1)
        np.take(at_node, np.ravel_multi_index((ticks_at[:, 0], *rest.T), (ticks,) * n), out=row)
    first = int(np.argmin(margins))
    min_m = outcome_list[first // len(ticks_at)]
    min_pt = axis[ticks_at[first % len(ticks_at)]]
    min_val = float(margins.flat[first])

    # the refinement counts against the same limit: 9 ticks per axis a quarter
    # step apart, fewer and farther apart when 9**n do not fit; ticks clipped
    # onto the same end of [0, pi/2] are solved once
    per_axis = max((k for k in range(2, 10) if k**n <= GRID_MAX_POINTS - margins.size),
                   default=0)
    if min_val < 0 and per_axis:
        step = min(step, 2 * np.pi)  # past 2 pi ticks clip to the ends alone; 1e308 overflows
        fine = 2 * step / (per_axis - 1)
        local = _product([np.unique(np.clip(np.arange(c - step, c + step + fine / 2, fine),
                                            0, np.pi / 2))
                          for c in min_pt])
        vals = _margins(n, min_m, local, params)
        k = int(np.argmin(vals))
        if vals[k] < min_val:
            min_val, min_pt = float(vals[k]), local[k]

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            cols = ",".join(f"alpha_{j}" for j in range(1, n + 1))
            fh.write(f"s,{cols},margin\n")
            coords = [",".join(f"{p:.12g}" for p in pt) for pt in axis[ticks_at]]
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
    through the channel. Nor is ``K_s`` built: ``K_s`` is real symmetric, so
    with ``R = Re M_s`` and ``L_ba = L_ab^T``, ``Tr(M_s K_s) = (Tr(R L_aa)
    + Tr(R L_bb) + (-1)^{s_1} (Tr(R L_ab) + Tr(R L_ba))) / 2``, and each
    trace contracts ``R`` slot by slot against the 2x2 factors of
    :func:`_slot_factors` and their transposes, one
    :func:`linalg.contract_slot` per slot for all four factor sets.
    """
    angles = _check_angles(angles)
    n = angles.shape[0]
    d = 2**n
    if len(povm) != d or povm.dim != d:
        raise InvalidInput(
            f"POVM has {len(povm)} elements on dim {povm.dim}, expected 2**{n}"
        )
    total = 0.0
    for part in chunks(d, d * d):
        factors, sign = _slot_factors(n, np.arange(d)[part], angles)
        # the factors of L_aa, L_bb, L_ab and L_ba = L_ab^T
        factors = np.concatenate([factors, factors[2:].swapaxes(-1, -2)])
        t = povm.elements[part].real[:, None]
        for j in range(n):
            t = contract_slot(t, np.moveaxis(factors[:, :, j], 0, 1))
        tr = t.reshape(-1, 4)  # Tr(Re M_s L) for the four factor sets, per outcome
        total += float(((tr[:, 0] + tr[:, 1] + sign * (tr[:, 2] + tr[:, 3])) / 2).sum())
    return total / d


RAC_OPTIMUM = (1 + 1 / SQRT2) / 2


def partial_fidelity_bound(eps: float, rac_value: float) -> float:
    """Fidelity floor for the two entangled partial-Bell outcomes.

    ``1 - (8 sqrt2 eps / 3)(r - mu/sqrt2)
    + mu * arccos(2 sqrt2 (rac - 1/2)) * (2 - 4 eps / 3)`` with the
    analytic two-sender coefficients, clamped at 0 as
    :func:`fidelity_lower_bound` is. ``rac_value`` may not exceed the
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
    return max(0.0, bound)


def partial_meaningful_eps() -> float:
    """Score deficit at which the RAC-independent part of the bound hits 1/2.

    Solves ``1 - (8 sqrt2 eps / 3)(r - mu/sqrt2) = 1/2`` for ``eps``.
    """
    r, mu = ANALYTIC_R_2, ANALYTIC_MU_2
    return 0.5 / ((8 * SQRT2 / 3) * (r - mu / SQRT2))
