"""Squeezing-enhanced magnon-spin coupling toolkit.

The package models a driven Kerr magnon mode coupled to one or more
two-level spins. Drive linearization squeezes the magnon vacuum, which
exponentially amplifies the bare magnon-spin coupling. Submodules:

- ``fock``: finite Fock-space operators, states, and composite systems
- ``device``: mode and coupling rates from sphere radius, spin distance and bias field
- ``hamiltonians``: drive linearization, frame transforms, model builders
- ``dynamics``: unitary and Lindblad propagation, gate tomography
- ``scenarios``: end-to-end benchmark runs with pass/fail checks
- ``reporting``: CSV / JSON artifact writers
- ``config``: run configuration schema and parsing
- ``cli``: command line entry point
"""

from kerrspin.fock import (
    Subsystem,
    HilbertSpec,
    annihilation,
    number_operator,
    qubit_ops,
    embed,
    ket,
    basis_ket,
    dm,
    partial_trace,
)
from kerrspin.device import (
    kerr_coefficient,
    bare_coupling,
    magnon_frequency,
)
from kerrspin.hamiltonians import (
    DriveConfig,
    LinearizedParams,
    SqueezedFrame,
    InstabilityError,
    steady_amplitude,
    linearize,
    squeeze_frame,
    nonlinear_hamiltonian,
    linearized_hamiltonian,
    rabi_hamiltonian,
    squeezed_exact_hamiltonian,
    tavis_cummings_hamiltonian,
    effective_spin_spin_hamiltonian,
)
from kerrspin.dynamics import (
    LindbladModel,
    Trajectory,
    evolve_unitary,
    evolve_lindblad,
    iswap_unitary,
    process_fidelity,
    average_gate_fidelity,
)
from kerrspin.config import ConfigError, RunConfig, resolve
from kerrspin.reporting import CheckResult, ScenarioReport
from kerrspin.scenarios import SCENARIOS, list_scenarios, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Subsystem",
    "HilbertSpec",
    "annihilation",
    "number_operator",
    "qubit_ops",
    "embed",
    "ket",
    "basis_ket",
    "dm",
    "partial_trace",
    "kerr_coefficient",
    "bare_coupling",
    "magnon_frequency",
    "DriveConfig",
    "LinearizedParams",
    "SqueezedFrame",
    "InstabilityError",
    "steady_amplitude",
    "linearize",
    "squeeze_frame",
    "nonlinear_hamiltonian",
    "linearized_hamiltonian",
    "rabi_hamiltonian",
    "squeezed_exact_hamiltonian",
    "tavis_cummings_hamiltonian",
    "effective_spin_spin_hamiltonian",
    "LindbladModel",
    "Trajectory",
    "evolve_unitary",
    "evolve_lindblad",
    "iswap_unitary",
    "process_fidelity",
    "average_gate_fidelity",
    "ConfigError",
    "RunConfig",
    "resolve",
    "CheckResult",
    "ScenarioReport",
    "SCENARIOS",
    "list_scenarios",
    "run_scenario",
    "__version__",
]
