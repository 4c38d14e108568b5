"""Tools for quantum setups with indefinite input-output direction.

Layered as: tensor_core (labeled tensor algebra), channels (Kraus/Choi forms
and the input-output inversion), supermaps (setup cones and the coherently
controlled time-direction setup), sdp (conic solver and robustness programs),
witness (decomposition, Born probabilities, resampling), game (two-gate
direction-guessing game), cli (command-line front end).
"""

import os

# The solver works on matrices of order 32 and below, where a second BLAS
# thread only spins and slows a loaded machine down; use one unless the user
# chose a number.  This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .channels import (
    KrausChannel,
    input_output_inversion,
    is_bistochastic,
    kraus_to_choi,
)
from .game import (
    GatePair,
    builtin_gate_sets,
    builtin_gate_table,
    compute_pmax_fixed_direction,
    game_witness,
    play_game,
    qtf_strategy,
    switch_strategy,
    verify_gate_table,
)
from .sdp import ConicProgram, SolveReport, solve, solve_cone_value, solve_max_robustness
from .supermaps import (
    ConeId,
    SetupOperator,
    SlotSpec,
    apply_supermap,
    check_multipartite,
    check_setup,
    definite_split,
    qtf_choi,
    qtf_plus_control,
)
from .tensor_core import (
    HermitianOperator,
    Ket,
    SystemLayout,
    double_ket,
    hs_inner,
    identity,
    partial_transpose,
    permute_factors,
    qubits,
    tensor_product,
    trace_and_replace,
)
from .witness import (
    DecompositionTerm,
    ProbabilityRecord,
    WitnessReport,
    born_probabilities,
    decompose_witness,
    estimate_robustness,
    poisson_resample,
    validate_witness,
    z_score,
)

__all__ = [
    "ConeId",
    "ConicProgram",
    "DecompositionTerm",
    "GatePair",
    "HermitianOperator",
    "Ket",
    "KrausChannel",
    "ProbabilityRecord",
    "SetupOperator",
    "SlotSpec",
    "SolveReport",
    "SystemLayout",
    "WitnessReport",
    "apply_supermap",
    "born_probabilities",
    "builtin_gate_sets",
    "builtin_gate_table",
    "check_multipartite",
    "check_setup",
    "compute_pmax_fixed_direction",
    "decompose_witness",
    "definite_split",
    "double_ket",
    "estimate_robustness",
    "game_witness",
    "hs_inner",
    "identity",
    "input_output_inversion",
    "is_bistochastic",
    "kraus_to_choi",
    "partial_transpose",
    "permute_factors",
    "play_game",
    "poisson_resample",
    "qtf_choi",
    "qtf_plus_control",
    "qtf_strategy",
    "qubits",
    "solve",
    "solve_cone_value",
    "solve_max_robustness",
    "switch_strategy",
    "tensor_product",
    "trace_and_replace",
    "validate_witness",
    "verify_gate_table",
    "z_score",
]

__version__ = "0.1.0"
