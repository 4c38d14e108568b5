"""Tools for quantum setups with indefinite input-output direction.

Layered as: tensor_core (labeled tensor algebra), channels (Kraus/Choi forms
and the input-output inversion), supermaps (setup cones and the coherently
controlled time-direction setup), sdp (conic solver and robustness programs),
witness (decomposition, Born probabilities, resampling), game (two-gate
direction-guessing game), cli (command-line front end).
"""

import importlib
import os

# The solver works on matrices of order 32 and below, where a second BLAS
# thread only spins and slows a loaded machine down; use one unless the user
# chose a number.  This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# Each public name and the module that defines it.  A name's module is
# imported the first time the name is read (PEP 562), so `import timeflip`
# loads no numpy, and a CLI command loads only the modules it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "channels": ("KrausChannel", "input_output_inversion", "is_bistochastic", "kraus_to_choi"),
        "game": ("GatePair", "builtin_gate_sets", "builtin_gate_table",
                 "compute_pmax_fixed_direction", "game_witness", "play_game", "qtf_strategy",
                 "switch_strategy", "verify_gate_table"),
        "sdp": ("ConicProgram", "SolveReport", "solve", "solve_cone_value",
                "solve_max_robustness"),
        "supermaps": ("ConeId", "SetupOperator", "SlotSpec", "apply_supermap",
                      "check_multipartite", "check_setup", "definite_split", "qtf_choi",
                      "qtf_plus_control"),
        "tensor_core": ("HermitianOperator", "SystemLayout", "double_ket", "hs_inner",
                        "identity", "partial_transpose", "permute_factors", "qubits",
                        "tensor_product", "trace_and_replace"),
        "witness": ("DecompositionTerm", "ProbabilityRecord", "WitnessReport",
                    "born_probabilities", "decompose_witness", "estimate_robustness",
                    "poisson_resample", "validate_witness", "z_score"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
