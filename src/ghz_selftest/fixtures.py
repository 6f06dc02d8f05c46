"""Reference strategies used by the CLI, the tests and the benchmarks."""

from dataclasses import replace

import numpy as np

from .errors import InvalidInput
from .linalg import I2, SIGMA_A, SIGMA_X, SIGMA_Z, projector, tensor
from .scenario import CounterexampleStrategy
from .states import (
    Povm,
    Strategy,
    aligned_sender_states,
    basis_index,
    ghz_kets,
    ghz_povm,
    ideal_sender_states,
    outcome_table,
)


def _senders(n: int, states) -> tuple:
    """``states(j, n)`` of senders j = 1..n; fewer than two are refused."""
    if n < 2:
        raise InvalidInput(f"need at least two senders, got n={n}")
    return tuple(states(j, n) for j in range(1, n + 1))


def ideal_strategy(n: int) -> Strategy:
    """Optimal strategy in canonical frame: aligned states + GHZ basis POVM,
    held as its basis."""
    return Strategy(n=n, senders=_senders(n, aligned_sender_states), povm=ghz_povm(n))


def literal_ideal_strategy(n: int) -> Strategy:
    """Optimal strategy with the reference states as listed (inputs unswapped).

    The difference operators of senders >= 2 then sit in the Hadamard-rotated
    frame, so the matching optimal POVM is the GHZ basis conjugated by
    Hadamards on those slots. Score 1, like :func:`ideal_strategy`.
    """
    senders = _senders(n, ideal_sender_states)
    # sigma_A is the Hadamard; it and the GHZ projectors are real, and the
    # real products carry the bits of the complex ones at half the cost
    h = tensor([I2.real] + [SIGMA_A.real] * (n - 1))
    return Strategy(n=n, senders=senders, povm=Povm(h @ ghz_povm(n).elements.real @ h))


def computational_strategy(n: int) -> Strategy:
    """Aligned states with a computational-basis measurement.

    Element ``m`` projects onto the ket of ``xi_m`` (:func:`states.ghz_kets`)
    whose qubit 1 reads the sign bit ``s_1``, so every element overlaps its
    GHZ vector with probability exactly 1/2: the canonical sub-optimal
    reference. The POVM is held as its basis, row ``m`` the ket.
    """
    senders = _senders(n, aligned_sender_states)
    d = 2**n
    bits = outcome_table(n)
    a, b = ghz_kets(bits)
    rows = np.zeros((d, d), dtype=complex)
    rows[np.arange(d), basis_index(np.where(bits[:, :1], b, a))] = 1.0
    return Strategy(n=n, senders=senders, povm=Povm.from_basis(rows))


def depolarized_strategy(n: int, noise: float) -> Strategy:
    """Ideal strategy with white noise mixed into every POVM element."""
    if not 0 <= noise <= 1:
        raise InvalidInput(f"noise must lie in [0, 1], got {noise}")
    base = ideal_strategy(n)
    d = 2**n
    els = (1 - noise) * base.povm.elements + noise * np.eye(d) / d
    return Strategy(n=n, senders=base.senders, povm=Povm(els))


def bell_vectors() -> dict:
    """The four two-qubit Bell vectors keyed ``phi+ phi- psi+ psi-``."""
    inv = 1 / np.sqrt(2)
    return {
        "phi+": np.array([inv, 0, 0, inv], dtype=complex),
        "phi-": np.array([inv, 0, 0, -inv], dtype=complex),
        "psi+": np.array([0, inv, inv, 0], dtype=complex),
        "psi-": np.array([0, inv, -inv, 0], dtype=complex),
    }


def partial_bell_strategy() -> Strategy:
    """Optimal three-outcome strategy: two Bell projectors plus the psi block."""
    senders = (aligned_sender_states(1, 2), aligned_sender_states(2, 2))
    b = bell_vectors()
    els = np.stack(
        [
            projector(b["phi+"]),
            projector(b["phi-"]),
            projector(b["psi+"]) + projector(b["psi-"]),
        ]
    )
    observables = np.stack([SIGMA_X, SIGMA_Z])
    return Strategy(
        n=2, senders=senders, povm=Povm(els), task="partial_bell", observables=observables
    )


def depolarized_partial_bell(noise: float) -> Strategy:
    """Partial-Bell strategy with white noise on the POVM (trace-weighted)."""
    if not 0 <= noise <= 1:
        raise InvalidInput(f"noise must lie in [0, 1], got {noise}")
    base = partial_bell_strategy()
    els = np.stack(
        [
            (1 - noise) * m + noise * np.trace(m).real * np.eye(4) / 4
            for m in base.povm.elements
        ]
    )
    return replace(base, povm=Povm(els))


# ---------------------------------------------------------------------------
# three-input game reference parameters
# ---------------------------------------------------------------------------


def state_from_angles(theta_deg: float, phi_deg: float) -> np.ndarray:
    """Qubit ket ``cos(t/2)|0> + e^{i p} sin(t/2)|1>`` from degrees."""
    t = np.radians(theta_deg)
    p = np.radians(phi_deg)
    return np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])


def _antipodal_ket(theta_deg: float, phi_deg: float) -> np.ndarray:
    return state_from_angles(180 - theta_deg, phi_deg + 180)


ENTANGLING_SENDER1 = ((118.05, 0.0), (125.58, 243.78), (125.73, 244.07))
ENTANGLING_SENDER2 = ((151.45, 287.40), (69.76, 116.28), (65.49, 296.09))
ENTANGLING_WEIGHTS = (0.9413, 0.3375)
ENTANGLING_PERP_WEIGHTS = (0.9240, 0.3357)
ENTANGLING_PERP_AXES = ((179.61, 354.23), (48.93, 116.69))

SEPARABLE_SENDER1 = ((8.35, 0.0), (177.0, 46.08), (177.0, 46.08))
SEPARABLE_SENDER2 = ((123.49, 231.77), (0.0, 0.0), (134.92, 46.08))
SEPARABLE_AXIS = (89.84, 46.08)


def _three_input_states(angles1, angles2) -> np.ndarray:
    states = np.zeros((2, 3, 2, 2), dtype=complex)
    for y, ang in enumerate(angles1):
        states[0, y] = projector(state_from_angles(*ang))
    for y, ang in enumerate(angles2):
        states[1, y] = projector(state_from_angles(*ang))
    return states


def entangling_fixture() -> CounterexampleStrategy:
    """Three-input game parameters with a two-projector entangling measurement.

    Both measurement kets are normalized after construction from the listed
    amplitudes; no re-orthogonalization is applied, so the two projectors
    are not orthogonal and ``m0`` (largest eigenvalue about 1.15) is not an
    effect. The fixture keeps the quoted parameters as they stand.
    """
    states = _three_input_states(ENTANGLING_SENDER1, ENTANGLING_SENDER2)
    l1, l2 = ENTANGLING_WEIGHTS
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = l1, l2
    t1, t2 = ENTANGLING_PERP_WEIGHTS
    (na, ma) = ENTANGLING_PERP_AXES
    perp = t1 * np.kron(state_from_angles(*na), state_from_angles(*ma)) + t2 * np.kron(
        _antipodal_ket(*na), _antipodal_ket(*ma)
    )
    m0 = projector(psi) + projector(perp)
    return CounterexampleStrategy(states=states, m0=m0)


def separable_fixture() -> CounterexampleStrategy:
    """Three-input game parameters with a product-form measurement."""
    states = _three_input_states(SEPARABLE_SENDER1, SEPARABLE_SENDER2)
    u = state_from_angles(*SEPARABLE_AXIS)
    m0 = tensor([projector([1, 0]), projector(u)]) + tensor([projector([0, 1]), projector([1, 0])])
    return CounterexampleStrategy(states=states, m0=m0)
