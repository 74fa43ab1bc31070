"""Statevector simulation and shot-level analysis of Mermin inequality tests
on GHZ states of 3 to 5 qubits."""

from .circuits import (
    Circuit,
    Setup,
    SetupConfig,
    all_setup_configs,
    ghz_circuit,
    measurement_transform,
    run,
    setup_config,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    InvariantError,
    TermEstimate,
    render_exchange_report,
    render_report,
    run_experiment,
    run_exchange_test,
    verify_invariants,
)
from .lhv import lr_bound_bruteforce, lr_bound_formula
from .noise import NoiseModel, outcome_probabilities
from .pauli import apply_pauli, exact_expectation
from .polynomials import (
    EigencheckError,
    MerminPolynomial,
    alsina_recursive,
    collapse,
    eigencheck,
    mermin_direct,
    primed,
)
from .sampling import exchange_spread, polynomial_estimate_expanded, round_error
from .statevector import (
    Gate,
    ghz_state,
    init_zero,
    probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Setup",
    "SetupConfig",
    "all_setup_configs",
    "ghz_circuit",
    "measurement_transform",
    "run",
    "setup_config",
    "ExperimentConfig",
    "ExperimentReport",
    "InvariantError",
    "TermEstimate",
    "render_exchange_report",
    "render_report",
    "run_experiment",
    "run_exchange_test",
    "verify_invariants",
    "lr_bound_bruteforce",
    "lr_bound_formula",
    "NoiseModel",
    "outcome_probabilities",
    "apply_pauli",
    "exact_expectation",
    "EigencheckError",
    "MerminPolynomial",
    "alsina_recursive",
    "collapse",
    "eigencheck",
    "mermin_direct",
    "primed",
    "exchange_spread",
    "polynomial_estimate_expanded",
    "round_error",
    "Gate",
    "ghz_state",
    "init_zero",
    "probabilities",
    "__version__",
]
