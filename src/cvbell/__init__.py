"""Numerical laboratory for continuous-variable Bell tests.

Truncated Fock-space simulation of CHSH tests with hybrid measurements
(bucket photodetection plus binned homodyne detection) and heralded
noiseless amplifiers, at the source or in the parties' labs.
"""

from .fock import (
    DensityOperator,
    HermitianOperator,
    LossChannel,
    ModeBasis,
    StateVector,
    apply_channel,
    beam_splitter,
    embedding_indices,
    enumerate_basis,
    expectation,
    fidelity,
    fock_state,
    hermitian_eig,
    hermitian_eigvals,
    loss_kraus,
    partial_trace,
    tensor,
    vacuum,
)
from .measurement import (
    ideal_binned_homodyne,
    lossy_binned_homodyne,
    photodetection_povm,
)
from .bell import (
    BellScenario,
    DeltaSearch,
    PartyConditions,
    chsh_value,
    critical_efficiency,
    optimal_state,
    optimize_delta,
    search_delta,
)

__version__ = "0.1.0"

from .local_amp import (  # noqa: E402
    CombinedSchemeReport,
    apply_filters,
    combined_source_and_local,
    filter_operator,
    filtered_critical_transmission,
    log_linear_fit,
    lossy_psi2,
    psi2_state,
)
from .source_amp import (  # noqa: E402
    HeraldedOutcome,
    SourceConfig,
    amplified_source,
    herald_probabilities,
    qscissor_amplify,
    solve_source_params,
    source_critical_transmission,
    two_mode_squeezed,
)
from .reproduce import ReproductionReport, reproduce_all  # noqa: E402
