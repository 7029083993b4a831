"""Open-system dynamics of a generalized Aubry-Andre-Harper lattice.

A single excitation hops on a quasi-periodic chain whose sites all couple
to one collective channel of an Ohmic bosonic bath.  The package
integrates the resulting memory-kernel (Volterra) dynamics, locates the
complex resonance poles of the bath-dressed lattice, and cross-validates
both against an independent discrete-bath reference.
"""

# Set before the submodules load: ``output`` reads it at import.
__version__ = "0.1.0"

from .bath import (
    BathParams,
    ResiduePrescription,
    SigmaMode,
    self_energy,
    self_energy_closed_form,
    self_energy_eval,
    spectral_density,
)
from .config import RunConfig, parse_config, serialize_values
from .dynamics import (
    TimeGrid,
    Trajectory,
    beat_envelope,
    dominant_period,
    evolve,
    ipr,
    observables,
    position_variance,
    survival_probability,
)
from .errors import (
    ConfigError,
    GaahError,
    NumericsError,
    OracleMismatchError,
    ParameterError,
    PrescriptionViolationError,
    UnstableEvolutionError,
)
from .model import (
    GOLDEN_MEAN_CONJUGATE,
    EigenDecomposition,
    ModelParams,
    build_hamiltonian,
    diagonalize,
    highest_excited_state,
    mobility_edge,
    state_ipr,
)
from .oracle import (
    DiscreteBath,
    ValidationReport,
    compare_trajectories,
    discretize_bath,
    evolve_full,
    validate_against_oracle,
)
from .spectrum import (
    DeterminantGrid,
    PoleSearchRegion,
    ResonancePole,
    char_determinant_scaled,
    collective_weights,
    default_search_region,
    find_poles,
    refine_pole,
    scan_grid,
    self_consistent_pole,
    state_overlap,
)
