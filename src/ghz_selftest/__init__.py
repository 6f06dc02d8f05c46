"""Certification of n-qubit GHZ-basis measurements from communication data.

Builds the witness operators of an n-sender communication game, evaluates
its success metrics, certifies optimal strategies (sum-of-squares residuals,
closed-form spectra, local-unitary alignment, GHZ fidelities, PPT checks),
bounds the fidelity of near-optimal measurements, and searches strategy
space by alternating optimization. See README.md for the CLI.
"""

__version__ = "0.1.0"

from .errors import (
    GhzSelfTestError,
    InequalityViolated,
    InvalidBloch,
    InvalidInput,
    NotHermitian,
    NotSelfTestable,
    PreconditionViolated,
    Unsupported,
)
from .fixtures import (
    computational_strategy,
    depolarized_strategy,
    entangling_fixture,
    ideal_strategy,
    partial_bell_strategy,
    separable_fixture,
)
from .linalg import EigenSystem, herm_eig, op_norm, partial_transpose, tensor
from .optimize import (
    SeesawConfig,
    SeesawResult,
    optimal_povm_for_states,
    optimal_states_for_povm,
    seesaw,
)
from .robustness import (
    FidelityBoundParams,
    avg_fidelity,
    channel_g,
    fidelity_lower_bound,
    inequality_margin,
    k_operator,
    local_channel,
    margin_grid,
    meaningful_eps,
    partial_fidelity_bound,
    partial_meaningful_eps,
    relabel_unitary,
)
from .scenario import (
    CounterexampleStrategy,
    ProbabilityTable,
    a_operators,
    comm_metric,
    counterexample_metric,
    counterexample_table,
    partial_witnesses,
    probability_table,
    rac_bound,
    rac_metric,
    success_from_table,
    success_metric,
    witness_operator,
)
from .selftest import (
    CertReport,
    align_locals,
    antipodality_gap,
    certify_strategy,
    classify_outcome_measurement,
    ppt_min_eig,
    sos_residual,
    spectrum_closed_form,
    verify_ghz_measurement,
)
from .states import (
    Povm,
    SenderStates,
    Strategy,
    bloch_to_state,
    ghz_basis_state,
    ghz_povm,
    ideal_sender_states,
    random_strategy,
)
